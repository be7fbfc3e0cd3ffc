"""Reproducible experiment suites.

Suite 1: single-object registration from 10-angle data at 4.87 dB.
Suite 2: six-object registration from 6-angle data at 4.75 dB.
Suite 3: (sigma, gamma) sensitivity sweep on the head phantom, scored by
         SSIM/PSNR against the target.
Suite 4: topology mismatch, template missing / having an extra object.

Each case, and each ``tomoflow register`` config, runs through
``run_case``, which writes the template, the target, the
transported-template trajectory and the baselines (each an IGRD with its
PGM preview), the data, a per-iteration objective CSV, a metrics CSV and
a JSON manifest holding the whole case record into its output
directory. Every file is written through ``io``. ``read_answers`` reads
a case's answers back from those files; ``SCORE_DECIMALS`` and
``E_TOLERANCE`` state how exactly they are written and compared.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .grid import Grid2D
from .io import write_image, write_isin, write_manifest, write_table
from .metrics import check_ssim_size, measure_snr, psnr, ssim
from .optimize import RegistrationConfig, RegistrationResult, register
from .phantom import NoiseSpec, PhantomKind, PhantomSpec, add_noise, make_phantom
from .tomo import check_freq_scaling, fbp, make_parallel_geometry, ray_transform
from .tv import TVConfig, tv_reconstruct

SUITE_IDS = (1, 2, 3, 4)

# sensitivity sweep axes of suite 3
SUITE3_SIGMAS = (1.0, 2.0, 2.5, 3.0, 4.0, 8.0)
SUITE3_GAMMAS = (1e-7, 1e-5, 1e-3, 1e-1, 10.0)

# The decimals of every SSIM and PSNR that the package writes, by their
# metrics.csv column; a rerun's scores may move by one unit of the last.
SCORE_DECIMALS = {"ssim": 6, "psnr_db": 4}
# The relative tolerance to which a rerun's E agrees with its record; a step
# of E by no more than this fraction of E is not a rise.
E_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SuiteCase:
    """One registration run: a suite cell or a ``register`` config.

    noise.snr_db = inf means noise-free data. fbp_freq_scaling and tv
    set the optional FBP and TV baselines.
    """

    name: str
    grid: Grid2D
    n_angles: int
    n_detectors: int
    template_kind: PhantomKind
    target_kind: PhantomKind
    noise: NoiseSpec
    cfg: RegistrationConfig
    fbp_freq_scaling: float | None = None
    tv: TVConfig | None = None


# the head-phantom scene of suites 3 and 4, which vary it cell by cell
_HEAD_SCENE = SuiteCase(
    name="head",
    grid=Grid2D(256, 256),
    n_angles=10,
    n_detectors=362,
    template_kind=PhantomKind.SHEPP_LOGAN_WARPED,
    target_kind=PhantomKind.SHEPP_LOGAN,
    noise=NoiseSpec(7.06, seed=103),
    cfg=RegistrationConfig(gamma=1e-7, sigma=2.0, alpha=0.02),
)


def suite_cases(suite_id: int, full: bool = False) -> list[SuiteCase]:
    if suite_id == 1:
        return [
            SuiteCase(
                name="suite1",
                grid=Grid2D(64, 64),
                n_angles=10,
                n_detectors=92,
                template_kind=PhantomKind.SINGLE_STAR_TEMPLATE,
                target_kind=PhantomKind.SINGLE_STAR_TARGET,
                noise=NoiseSpec(4.87, seed=101),
                cfg=RegistrationConfig(gamma=1e-7, sigma=6.0, alpha=0.02),
                fbp_freq_scaling=0.4,
                tv=TVConfig(mu=3.0),
            )
        ]
    if suite_id == 2:
        n = 438 if full else 219
        return [
            SuiteCase(
                name="suite2",
                grid=Grid2D(n, n),
                n_angles=6,
                n_detectors=620 if full else 310,
                template_kind=PhantomKind.SIX_STARS_TEMPLATE,
                target_kind=PhantomKind.SIX_STARS_TARGET,
                noise=NoiseSpec(4.75, seed=102),
                cfg=RegistrationConfig(gamma=1e-7, sigma=2.0, alpha=0.04),
                fbp_freq_scaling=0.4,
                tv=TVConfig(mu=1.0),
            )
        ]
    if suite_id == 3:
        return [
            replace(
                _HEAD_SCENE,
                name=f"suite3_sigma{sigma:g}_gamma{gamma:g}",
                cfg=replace(_HEAD_SCENE.cfg, gamma=gamma, sigma=sigma),
            )
            for sigma in SUITE3_SIGMAS
            for gamma in SUITE3_GAMMAS
        ]
    if suite_id == 4:
        n = 256 if full else 128
        cell = replace(_HEAD_SCENE, grid=Grid2D(n, n), cfg=replace(_HEAD_SCENE.cfg, max_iters=1000))
        return [
            replace(cell, name="suite4_missing", template_kind=PhantomKind.SHEPP_LOGAN_MISSING,
                    noise=NoiseSpec(7.06, seed=104)),
            replace(cell, name="suite4_extra", template_kind=PhantomKind.SHEPP_LOGAN_EXTRA,
                    noise=NoiseSpec(6.46, seed=105)),
        ]
    raise ValueError(f"unknown suite id {suite_id}; valid ids: {SUITE_IDS}")


@dataclass
class CaseResult:
    case: SuiteCase
    registration: RegistrationResult
    ssim_final: float
    psnr_final: float


def run_case(case: SuiteCase, out_dir: Path) -> CaseResult:
    """Simulate the case's data, compute its baselines, register, and write
    every output file. A bad geometry or baseline setting, or a grid that
    SSIM's window does not fit, raises before anything is written;
    ``out_dir`` is made before any work, so a path that cannot be a
    directory fails at once."""
    geom = make_parallel_geometry(case.grid, case.n_angles, case.n_detectors)
    if case.fbp_freq_scaling is not None:
        check_freq_scaling(case.fbp_freq_scaling)
    check_ssim_size(min(case.grid.nx, case.grid.ny))  # the result is scored with ssim
    out_dir.mkdir(parents=True, exist_ok=True)
    template = make_phantom(PhantomSpec(case.template_kind, case.grid))
    target = make_phantom(PhantomSpec(case.target_kind, case.grid))
    clean = ray_transform(target, geom)
    data = add_noise(clean, case.noise)
    baselines = {}
    if case.fbp_freq_scaling is not None:
        baselines["fbp"] = fbp(data, case.grid, case.fbp_freq_scaling)
    if case.tv is not None:
        baselines["tv"] = tv_reconstruct(data, case.grid, case.tv)
    reg = register(template, data, geom, case.cfg)
    final = reg.trajectory[-1]
    res = CaseResult(case, reg, ssim_final=ssim(final, target), psnr_final=psnr(final, target))

    write_image(out_dir / "template.igrd", template)
    write_image(out_dir / "target.igrd", target)
    write_isin(out_dir / "data.isin", data)
    for i, img in enumerate(reg.trajectory):
        write_image(out_dir / f"trajectory_{i:03d}.igrd", img)
    write_table(out_dir / "objective.csv", ["iteration", "total", "penalty", "discrepancy", "grad_norm"],
                ([k, value.total, value.penalty, value.discrepancy, grad_norm]
                 for k, (value, grad_norm) in enumerate(zip(reg.objective_history, reg.grad_norms))))
    snr = measure_snr(clean, data) if math.isfinite(case.noise.snr_db) else math.inf  # noise-free
    write_table(out_dir / "metrics.csv", ["name", "ssim", "psnr_db", "snr_db", "iterations", "stop_reason"],
                [[case.name, *format_scores(res.ssim_final, res.psnr_final), f"{snr:.4f}", reg.iterations_run,
                  reg.stop_reason.value]])
    for name, rec in baselines.items():
        write_image(out_dir / f"{name}.igrd", rec)
    write_manifest(
        out_dir / "manifest.json",
        {"case": case_record(case), "config_sha256": case_hash(case), "version": __version__},
    )
    return res


def format_scores(ssim_value: float, psnr_value: float) -> list[str]:
    """SSIM and PSNR as every file of the package writes them, to ``SCORE_DECIMALS``."""
    return [f"{ssim_value:.{SCORE_DECIMALS['ssim']}f}", f"{psnr_value:.{SCORE_DECIMALS['psnr_db']}f}"]


def read_answers(case_dir: Path) -> dict:
    """The answers of the case that ``run_case`` wrote into ``case_dir``:
    its name, ``config_sha256`` from the manifest, SSIM, PSNR, the
    iterations and the stop reason from ``metrics.csv``, and from
    ``objective.csv`` the last E, the lowest E and the first row that
    holds it, and the number of rows at which E rose. A step from a to b counts as a rise
    only when b - a > E_TOLERANCE * |a|, so rounding noise in an E that
    has stopped moving counts no rises."""
    manifest = json.loads((case_dir / "manifest.json").read_text())
    with open(case_dir / "metrics.csv", newline="") as fh:
        (metrics,) = csv.DictReader(fh)
    with open(case_dir / "objective.csv", newline="") as fh:
        totals = [float(row["total"]) for row in csv.DictReader(fh)]
    lowest = min(range(len(totals)), key=totals.__getitem__)
    return {
        "name": metrics["name"],
        "config_sha256": manifest["config_sha256"],
        "ssim": float(metrics["ssim"]),
        "psnr_db": float(metrics["psnr_db"]),
        "iterations": int(metrics["iterations"]),
        "stop_reason": metrics["stop_reason"],
        "last_E": totals[-1],
        "lowest_E": totals[lowest],
        "lowest_E_iteration": lowest,
        "E_rises": sum(b - a > E_TOLERANCE * abs(a) for a, b in zip(totals, totals[1:])),
    }


def case_record(case: SuiteCase) -> dict:
    """Every case parameter as plain JSON values, enums by their value."""
    return json.loads(json.dumps(asdict(case), default=lambda enum: enum.value))


def case_hash(case: SuiteCase) -> str:
    """SHA-256 of the canonical (sorted-key) JSON of ``case_record``."""
    canonical = json.dumps(case_record(case), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_suite(suite_id: int, out_dir, full: bool = False) -> list[CaseResult]:
    out_dir = Path(out_dir)
    results = [run_case(case, out_dir / case.name) for case in suite_cases(suite_id, full=full)]
    if suite_id == 3:
        _write_suite3_table(results, out_dir / "suite3_scores.csv")
    return results


def _write_suite3_table(results: list[CaseResult], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_table(path, ["gamma", "sigma", "ssim", "psnr"],
                ([f"{res.case.cfg.gamma:g}", f"{res.case.cfg.sigma:g}", *format_scores(res.ssim_final, res.psnr_final)]
                 for res in results))
