"""Command-line interface.

Subcommands: phantom, project, noise, register, fbp, tv, evaluate,
suite. The register command is driven by an INI-style config file; all
other commands take explicit flags. Exit codes: 0 success, 1 numerical
failure during optimization, 2 bad arguments or config, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import math
import sys
import typing
from pathlib import Path

from . import __version__
from .experiments import SUITE_IDS, SuiteCase, run_case, run_suite
from .grid import Grid2D
from .io import read_igrd, read_isin, write_igrd, write_isin, write_pgm16
from .metrics import psnr, ssim
from .optimize import RegistrationConfig, StopReason
from .phantom import NoiseSpec, PhantomKind, PhantomSpec, add_noise, make_phantom
from .tomo import fbp, make_parallel_geometry, ray_transform
from .tv import TVConfig, tv_reconstruct

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


# --- register config -----------------------------------------------------

_CONFIG_SCHEMA = {
    "phantom": {"template_kind", "target_kind", "size"},
    "geometry": {"n_angles", "n_detectors"},
    "noise": {"snr_db", "seed"},
    "registration": {f.name for f in dataclasses.fields(RegistrationConfig)},
    "fbp": {"freq_scaling"},
    "tv": {"mu", "iters"},
    "output": {"dir"},
}
_REQUIRED_SECTIONS = ("phantom", "geometry", "registration")


def _parse_config(path) -> tuple[SuiteCase, str]:
    """The run described by the INI config, and its [output] dir."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section in _REQUIRED_SECTIONS:
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")

    def need(section, key, convert, validate=None, describe="", default=None):
        if key not in parser[section] and default is None:
            raise ConfigError(f"missing key {key!r} in section [{section}]")
        raw = parser[section].get(key, default)
        try:
            value = convert(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc
        if validate is not None and not validate(value):
            raise ConfigError(f"invalid [{section}] {key} = {raw!r}{describe}")
        return value

    size = need("phantom", "size", int, lambda v: v >= 2, " (need >= 2)")
    # RegistrationConfig holds the defaults and ranges: pass on the keys
    # that are present, each converted by the type of its field
    types = typing.get_type_hints(RegistrationConfig)
    present = {
        f.name: need("registration", f.name, types[f.name])
        for f in dataclasses.fields(RegistrationConfig)
        if f.name in parser["registration"] or f.default is dataclasses.MISSING
    }
    try:
        cfg = RegistrationConfig(**present)
    except ValueError as exc:
        raise ConfigError(f"invalid [registration] {exc}") from exc
    noisy = "noise" in parser
    case = SuiteCase(
        name=Path(path).stem,
        grid=Grid2D(size, size),
        n_angles=need("geometry", "n_angles", int, lambda v: v >= 1, " (need >= 1)"),
        n_detectors=need("geometry", "n_detectors", int, lambda v: v >= 2, " (need >= 2)"),
        template_kind=need("phantom", "template_kind", PhantomKind),
        target_kind=need("phantom", "target_kind", PhantomKind),
        snr_db=need("noise", "snr_db", float) if noisy else math.inf,
        noise_seed=need("noise", "seed", int, default="0") if noisy else 0,
        cfg=cfg,
        fbp_freq_scaling=need(
            "fbp", "freq_scaling", float, lambda v: 0 < v <= 1, " (need in (0, 1])"
        ) if "fbp" in parser else None,
        tv_mu=need("tv", "mu", float, lambda v: v > 0, " (need > 0)") if "tv" in parser else None,
        tv_iters=need(
            "tv", "iters", int, lambda v: v >= 1, " (need >= 1)", default="1000"
        ) if "tv" in parser else 1000,
    )
    return case, parser.get("output", "dir", fallback="out")


def load_experiment_config(path) -> SuiteCase:
    """Parse and validate the INI config into a case named after the file's
    stem; unknown sections or keys are errors. Without [noise] the data
    are noise-free (snr_db = inf)."""
    return _parse_config(path)[0]


# --- commands --------------------------------------------------------------


def cmd_phantom(args) -> int:
    img = make_phantom(PhantomSpec(PhantomKind(args.kind), Grid2D(args.size, args.size)))
    write_igrd(args.out, img)
    if args.preview:
        write_pgm16(Path(args.out).with_suffix(".pgm"), img)
    return EXIT_OK


def cmd_project(args) -> int:
    img = read_igrd(args.image)
    geom = make_parallel_geometry(img.grid, args.angles, args.detectors)
    write_isin(args.out, ray_transform(img, geom))
    return EXIT_OK


def cmd_noise(args) -> int:
    sino = read_isin(args.sinogram)
    noisy = add_noise(sino, NoiseSpec(args.snr_db, args.seed))
    write_isin(args.out, noisy)
    return EXIT_OK


def cmd_fbp(args) -> int:
    rec = fbp(read_isin(args.sinogram), Grid2D(args.size, args.size), args.freq_scaling)
    write_igrd(args.out, rec)
    write_pgm16(Path(args.out).with_suffix(".pgm"), rec)
    return EXIT_OK


def cmd_tv(args) -> int:
    grid = Grid2D(args.size, args.size)
    rec = tv_reconstruct(read_isin(args.sinogram), grid, TVConfig(mu=args.mu, n_iters=args.iters))
    write_igrd(args.out, rec)
    write_pgm16(Path(args.out).with_suffix(".pgm"), rec)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    img = read_igrd(args.image)
    ref = read_igrd(args.reference)
    row = {"image": str(args.image), "ssim": f"{ssim(img, ref):.6f}", "psnr": f"{psnr(img, ref):.4f}"}
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
    return EXIT_OK


def cmd_register(args) -> int:
    case, config_out = _parse_config(args.config)
    if args.seed is not None:
        case = dataclasses.replace(case, noise_seed=args.seed)
    res = run_case(case, Path(args.out or config_out))
    if res.registration.stop_reason is StopReason.NUMERICAL_FAILURE:
        print(f"register: stopped on numerical failure ({res.registration.stop_detail}); "
              "last finite iterate written", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_suite(args) -> int:
    if args.id not in SUITE_IDS:
        print(f"suite: invalid suite id {args.id}; valid ids: {SUITE_IDS}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out or f"suite{args.id}_out")
    results = run_suite(args.id, out_dir, full=args.full)
    for res in results:
        print(f"{res.case.name}: ssim={res.ssim_final:.4f} psnr={res.psnr_final:.2f} "
              f"stop={res.registration.stop_reason.value}")
        if res.registration.stop_detail:
            print(f"{res.case.name}: {res.registration.stop_detail}", file=sys.stderr)
    if any(r.registration.stop_reason is StopReason.NUMERICAL_FAILURE for r in results):
        return EXIT_NUMERICAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomoflow",
        description="Indirect diffeomorphic image registration for 2D parallel-beam tomography",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="rasterize a phantom to IGRD")
    p.add_argument("--kind", required=True, help=", ".join(k.value for k in PhantomKind))
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--preview", action="store_true", help="also write a PGM preview")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_phantom)

    p = sub.add_parser("project", help="ray transform of an IGRD image to ISIN")
    p.add_argument("--image", required=True)
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--detectors", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("noise", help="add calibrated noise to a sinogram")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_noise)

    p = sub.add_parser("register", help="run indirect registration from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (default: [output] dir)")
    p.add_argument("--seed", type=int, default=None, help="noise seed override")
    p.set_defaults(fn=cmd_register)

    p = sub.add_parser("fbp", help="filtered back projection of an ISIN sinogram")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--freq-scaling", type=float, default=0.8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fbp)

    p = sub.add_parser("tv", help="total-variation reconstruction of an ISIN sinogram")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tv)

    p = sub.add_parser("evaluate", help="SSIM/PSNR of an image against a reference")
    p.add_argument("--image", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("suite", help="run a full experiment suite")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--full", action="store_true", help="paper-scale resolution")
    p.add_argument("--out", default=None, help="output directory (default: suite<ID>_out)")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
