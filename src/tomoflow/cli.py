"""Command-line interface.

Subcommands: phantom, project, noise, register, fbp, tv, evaluate,
suite. The register command is driven by an INI-style config file,
which holds every setting of the run; its ``--out`` (default ``out``)
says only where the run is written. All other commands take explicit
flags. Each INI section is built by one callable in ``_SECTIONS``,
whose parameters are the section's keys, and one reader applies that
rule to every section. ``register`` and ``suite`` end in ``report``:
one line per case on stdout, and a line per numerical failure on
stderr. Each single-step command (phantom, project, noise, fbp, tv,
evaluate) is a computation that returns what it makes, and its subparser
names the writer; one rule, ``run_step``, checks ``--out`` before any
input is read (an image's preview path, then the directory), computes
and writes. Every file is written through ``io``: each image with its PGM
preview, each table as CSV. Exit codes: 0 success, 1 numerical failure
during optimization, 2 bad arguments or config, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import math
import sys
from pathlib import Path

from . import __version__
from .experiments import SuiteCase, format_scores, run_case, run_suite
from .grid import Grid2D
from .io import check_output_dir, preview_path, read_igrd, read_isin, write_image, write_isin, write_table
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


def _phantom(size: int, template_kind: PhantomKind, target_kind: PhantomKind):
    """The case's square grid, which SSIM's window must fit (run_case
    scores its result with ssim), and its two phantom kinds."""
    grid = Grid2D(size, size)
    check_ssim_size(size)
    return grid, template_kind, target_kind


# Each INI section and the callable that builds it. The section's keys are
# the callable's parameters, less those that the reader passes itself;
# each is read by its annotated type, and one without a default is required.
_SECTIONS = {
    "phantom": _phantom,
    "geometry": make_parallel_geometry,
    "noise": NoiseSpec,
    "registration": RegistrationConfig,
    "fbp": check_freq_scaling,
    "tv": TVConfig,
}


def _read_section(parser: configparser.ConfigParser, section: str, **given):
    """Build ``section`` of ``parser`` by its callable in ``_SECTIONS``,
    from the keys that are present and the ``given`` values. A missing
    section, an unknown or missing key, a value that its type does not
    parse and a value that the callable rejects each raise ConfigError."""
    if section not in parser:
        raise ConfigError(f"missing required section [{section}]")
    make = _SECTIONS[section]
    params = {name: p for name, p in inspect.signature(make, eval_str=True).parameters.items()
              if name not in given}
    for key in parser[section]:
        if key not in params:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for name, param in params.items():
        if name in parser[section]:
            raw = parser[section][name]
            try:
                given[name] = param.annotation(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {name} = {raw!r}: {exc}") from exc
        elif param.default is param.empty:
            raise ConfigError(f"missing key {name!r} in section [{section}]")
    try:
        return make(**given)
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}] {exc}") from exc


def load_experiment_config(path) -> SuiteCase:
    """Parse and validate the INI config into a case named after the file's
    stem. Unknown sections or keys are errors. Without [noise] the data
    are noise-free (noise.snr_db = inf)."""
    parser = configparser.ConfigParser(interpolation=None)  # a '%' is a plain character
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # a duplicate, a line without '=', no section header
        raise ConfigError(f"cannot parse config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    # configparser copies [DEFAULT]'s keys into every section; it is named as itself
    for section in parser.sections() + (["DEFAULT"] if parser.defaults() else []):
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
    grid, template_kind, target_kind = _read_section(parser, "phantom")
    # the geometry that run_case builds, so that its ranges are checked here
    geom = _read_section(parser, "geometry", grid=grid)
    return SuiteCase(
        name=Path(path).stem,
        grid=grid,
        n_angles=geom.n_angles,
        n_detectors=geom.n_detectors,
        template_kind=template_kind,
        target_kind=target_kind,
        noise=_read_section(parser, "noise") if "noise" in parser else NoiseSpec(math.inf),
        cfg=_read_section(parser, "registration"),
        fbp_freq_scaling=_read_section(parser, "fbp") if "fbp" in parser else None,
        tv=_read_section(parser, "tv") if "tv" in parser else None,
    )


# --- commands --------------------------------------------------------------


def cmd_phantom(args):
    return make_phantom(PhantomSpec(args.kind, Grid2D(args.size, args.size)))


def cmd_project(args):
    img = read_igrd(args.image)
    return ray_transform(img, make_parallel_geometry(img.grid, args.angles, args.detectors))


def cmd_noise(args):
    return add_noise(read_isin(args.sinogram), NoiseSpec(args.snr_db, args.seed))


def cmd_fbp(args):
    return fbp(read_isin(args.sinogram), Grid2D(args.size, args.size), args.freq_scaling)


def cmd_tv(args):
    grid = Grid2D(args.size, args.size)
    return tv_reconstruct(read_isin(args.sinogram), grid, TVConfig(mu=args.mu, n_iters=args.iters))


def cmd_evaluate(args):
    img = read_igrd(args.image)
    ref = read_igrd(args.reference)
    return [[str(args.image), *format_scores(ssim(img, ref), psnr(img, ref))]]


def write_scores(path, rows) -> None:
    write_table(path, ["image", "ssim", "psnr"], rows)


def run_step(args) -> int:
    """Check ``--out`` before any input is read (an image's preview path
    first, then the directory), then compute the step and write what it
    made with its subparser's writer."""
    if args.write is write_image:
        preview_path(args.out)  # a .pgm --out raises here, before any work
    check_output_dir(args.out)
    args.write(args.out, args.compute(args))
    return EXIT_OK


def report(results) -> int:
    """Print one line per case on stdout and, for each numerical failure,
    its detail on stderr; return the exit code of the run."""
    code = EXIT_OK
    for res in results:
        reg = res.registration
        print(f"{res.case.name}: ssim={res.ssim_final:.4f} psnr={res.psnr_final:.2f} "
              f"stop={reg.stop_reason.value}")
        if reg.stop_reason is StopReason.NUMERICAL_FAILURE:
            print(f"{res.case.name}: stopped on numerical failure ({reg.stop_detail}); "
                  "last finite iterate written", file=sys.stderr)
            code = EXIT_NUMERICAL
    return code


def cmd_register(args) -> int:
    return report([run_case(load_experiment_config(args.config), Path(args.out))])


def cmd_suite(args) -> int:
    return report(run_suite(args.id, args.out or f"suite{args.id}_out", full=args.full))


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
    p.set_defaults(fn=run_step, compute=cmd_phantom, write=write_image)

    p = sub.add_parser("project", help="ray transform of an IGRD image to ISIN")
    p.add_argument("--image", required=True)
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--detectors", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=run_step, compute=cmd_project, write=write_isin)

    p = sub.add_parser("noise", help="add calibrated noise to a sinogram")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--seed", type=int, default=NoiseSpec.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=run_step, compute=cmd_noise, write=write_isin)

    p = sub.add_parser("register", help="run indirect registration from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out", help="output directory (default: out)")
    p.set_defaults(fn=cmd_register)

    p = sub.add_parser("fbp", help="filtered back projection of an ISIN sinogram")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--freq-scaling", type=float, default=0.8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=run_step, compute=cmd_fbp, write=write_image)

    p = sub.add_parser("tv", help="total-variation reconstruction of an ISIN sinogram")
    p.add_argument("--sinogram", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--iters", type=int, default=TVConfig.n_iters)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=run_step, compute=cmd_tv, write=write_image)

    p = sub.add_parser("evaluate", help="SSIM/PSNR of an image against a reference")
    p.add_argument("--image", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=run_step, compute=cmd_evaluate, write=write_scores)

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
