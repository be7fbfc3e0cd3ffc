"""Command-line interface.

Subcommands: phantom, project, noise, register, fbp, tv, evaluate,
suite. The register command is driven by an INI-style config file; all
other commands take explicit flags. Every file is written through
``io``: each image with its PGM preview, each table as CSV. Exit codes:
0 success, 1 numerical failure during optimization, 2 bad arguments or
config, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import sys
import typing
from pathlib import Path

from . import __version__
from .experiments import SuiteCase, run_case, run_suite
from .grid import Grid2D
from .io import preview_path, read_igrd, read_isin, write_image, write_isin, write_table
from .metrics import check_ssim_size, psnr, ssim
from .optimize import RegistrationConfig, StopReason
from .phantom import NoiseSpec, PhantomKind, PhantomSpec, add_noise, make_phantom
from .tomo import check_freq_scaling, fbp, make_parallel_geometry, ray_transform
from .tv import TVConfig, tv_reconstruct

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


# --- register config -----------------------------------------------------

# [noise], [registration] and [tv] are read by one rule: their keys are
# the fields of NoiseSpec, RegistrationConfig and TVConfig
_SECTION_CONFIGS = {"noise": NoiseSpec, "registration": RegistrationConfig, "tv": TVConfig}
_CONFIG_SCHEMA = {
    "phantom": {"template_kind", "target_kind", "size"},
    "geometry": {"n_angles", "n_detectors"},
    **{section: {f.name for f in dataclasses.fields(cls)} for section, cls in _SECTION_CONFIGS.items()},
    "fbp": {"freq_scaling"},
    "output": {"dir"},
}
_REQUIRED_SECTIONS = ("phantom", "geometry", "registration")


def load_experiment_config(path, seed: int | None = None) -> tuple[SuiteCase, str]:
    """Parse and validate the INI config into a case named after the file's
    stem, and return it with its [output] dir. Unknown sections or keys
    are errors. Without [noise] the data are noise-free (noise.snr_db =
    inf). ``seed`` (``register --seed``) replaces the [noise] seed and is
    checked like it; it needs noisy data."""
    parser = configparser.ConfigParser(interpolation=None)  # a '%' is a plain character
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # a duplicate, a line without '=', no section header
        raise ConfigError(f"cannot parse config file {path}: {' '.join(str(exc).split())}") from exc
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

    def need(section, key, convert):
        if key not in parser[section]:
            raise ConfigError(f"missing key {key!r} in section [{section}]")
        raw = parser[section][key]
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key} = {raw!r}: {exc}") from exc

    def build(section, make, **values):
        try:
            return make(**values)
        except ValueError as exc:
            raise ConfigError(f"invalid [{section}] {exc}") from exc

    def section_config(section):
        # the config class holds the defaults and ranges: pass on the keys
        # that are present (and the required ones, so that a missing one is
        # named), each converted by the type of its field
        cls = _SECTION_CONFIGS[section]
        types = typing.get_type_hints(cls)
        return build(section, cls, **{
            f.name: need(section, f.name, types[f.name])
            for f in dataclasses.fields(cls)
            if f.name in parser[section] or f.default is dataclasses.MISSING
        })

    if seed is not None and "noise" in parser:
        parser["noise"]["seed"] = str(seed)  # built and checked as the [noise] seed
    size = need("phantom", "size", int)
    grid = build("phantom", Grid2D, nx=size, ny=size)
    build("phantom", check_ssim_size, size=size)  # run_case scores its result with ssim
    # the geometry that run_case builds, so that its ranges are checked here
    geom = build("geometry", make_parallel_geometry, grid=grid,
                 n_angles=need("geometry", "n_angles", int),
                 n_detectors=need("geometry", "n_detectors", int))
    case = SuiteCase(
        name=Path(path).stem,
        grid=grid,
        n_angles=geom.n_angles,
        n_detectors=geom.n_detectors,
        template_kind=need("phantom", "template_kind", PhantomKind),
        target_kind=need("phantom", "target_kind", PhantomKind),
        noise=section_config("noise") if "noise" in parser else NoiseSpec(math.inf),
        cfg=section_config("registration"),
        fbp_freq_scaling=(build("fbp", check_freq_scaling, freq_scaling=need("fbp", "freq_scaling", float))
                          if "fbp" in parser else None),
        tv=section_config("tv") if "tv" in parser else None,
    )
    if seed is not None and math.isinf(case.noise.snr_db):
        # a seed that draws nothing would still change the run's config_sha256
        raise ConfigError("--seed needs noisy data, but the config's data are noise-free")
    return case, parser.get("output", "dir", fallback="out")


# --- commands --------------------------------------------------------------


def cmd_phantom(args) -> int:
    preview_path(args.out)  # a .pgm --out raises here, before any work
    img = make_phantom(PhantomSpec(args.kind, Grid2D(args.size, args.size)))
    write_image(args.out, img)
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
    preview_path(args.out)  # a .pgm --out raises here, before any work
    rec = fbp(read_isin(args.sinogram), Grid2D(args.size, args.size), args.freq_scaling)
    write_image(args.out, rec)
    return EXIT_OK


def cmd_tv(args) -> int:
    preview_path(args.out)  # a .pgm --out raises here, before any work
    grid = Grid2D(args.size, args.size)
    rec = tv_reconstruct(read_isin(args.sinogram), grid, TVConfig(mu=args.mu, n_iters=args.iters))
    write_image(args.out, rec)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    img = read_igrd(args.image)
    ref = read_igrd(args.reference)
    write_table(args.out, ["image", "ssim", "psnr"],
                [[str(args.image), f"{ssim(img, ref):.6f}", f"{psnr(img, ref):.4f}"]])
    return EXIT_OK


def cmd_register(args) -> int:
    case, config_out = load_experiment_config(args.config, args.seed)
    res = run_case(case, Path(args.out or config_out))
    if res.registration.stop_reason is StopReason.NUMERICAL_FAILURE:
        print(f"register: stopped on numerical failure ({res.registration.stop_detail}); "
              "last finite iterate written", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_suite(args) -> int:
    results = run_suite(args.id, args.out or f"suite{args.id}_out", full=args.full)
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

    p = sub.add_parser("phantom", help="rasterize a phantom to IGRD, with a PGM preview")
    p.add_argument("--kind", required=True, help=", ".join(k.value for k in PhantomKind))
    p.add_argument("--size", type=int, default=256)
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
    p.add_argument("--seed", type=int, default=NoiseSpec.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_noise)

    p = sub.add_parser("register", help="run indirect registration from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (default: [output] dir)")
    p.add_argument("--seed", type=int, default=None, help="noise seed override (noisy data only)")
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
    p.add_argument("--iters", type=int, default=TVConfig.n_iters)
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
