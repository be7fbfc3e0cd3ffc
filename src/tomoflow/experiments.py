"""Reproducible experiment suites.

Suite 1: single-object registration from 10-angle data at 4.87 dB.
Suite 2: six-object registration from 6-angle data at 4.75 dB.
Suite 3: (sigma, gamma) sensitivity sweep on the head phantom, scored by
         SSIM/PSNR against the target.
Suite 4: topology mismatch, template missing / having an extra object.

Each case, and each ``tomoflow register`` config, runs through
``run_case``, which writes the transported-template trajectory (IGRD plus
PGM previews), a per-iteration objective CSV, a metrics CSV, the
baselines and a JSON manifest holding the whole case record into its
output directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .action import GroupAction
from .grid import Grid2D, ScalarImage
from .io import write_igrd, write_isin, write_manifest, write_pgm16
from .metrics import measure_snr, psnr, ssim
from .optimize import RegistrationConfig, RegistrationResult, register
from .phantom import NoiseSpec, PhantomKind, PhantomSpec, add_noise, make_phantom
from .tomo import Sinogram, fbp, make_parallel_geometry, ray_transform
from .tv import TVConfig, tv_reconstruct

SUITE_IDS = (1, 2, 3, 4)

# sensitivity sweep axes of suite 3
SUITE3_SIGMAS = (1.0, 2.0, 2.5, 3.0, 4.0, 8.0)
SUITE3_GAMMAS = (1e-7, 1e-5, 1e-3, 1e-1, 10.0)


@dataclass(frozen=True)
class SuiteCase:
    """One registration run: a suite cell or a ``register`` config.

    snr_db = inf means noise-free data.
    """

    name: str
    grid: Grid2D
    n_angles: int
    n_detectors: int
    template_kind: PhantomKind
    target_kind: PhantomKind
    snr_db: float
    noise_seed: int
    cfg: RegistrationConfig
    fbp_freq_scaling: float | None = None
    tv_mu: float | None = None
    tv_iters: int = 1000


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
                snr_db=4.87,
                noise_seed=101,
                cfg=RegistrationConfig(gamma=1e-7, sigma=6.0, alpha=0.02, n_steps=20, max_iters=200),
                fbp_freq_scaling=0.4,
                tv_mu=3.0,
                tv_iters=1000,
            )
        ]
    if suite_id == 2:
        n = 438 if full else 219
        det = 620 if full else 310
        return [
            SuiteCase(
                name="suite2",
                grid=Grid2D(n, n),
                n_angles=6,
                n_detectors=det,
                template_kind=PhantomKind.SIX_STARS_TEMPLATE,
                target_kind=PhantomKind.SIX_STARS_TARGET,
                snr_db=4.75,
                noise_seed=102,
                cfg=RegistrationConfig(gamma=1e-7, sigma=2.0, alpha=0.04, n_steps=20, max_iters=200),
                fbp_freq_scaling=0.4,
                tv_mu=1.0,
                tv_iters=1000,
            )
        ]
    if suite_id == 3:
        cases = []
        for sigma in SUITE3_SIGMAS:
            for gamma in SUITE3_GAMMAS:
                cases.append(
                    SuiteCase(
                        name=f"suite3_sigma{sigma:g}_gamma{gamma:g}",
                        grid=Grid2D(256, 256),
                        n_angles=10,
                        n_detectors=362,
                        template_kind=PhantomKind.SHEPP_LOGAN_WARPED,
                        target_kind=PhantomKind.SHEPP_LOGAN,
                        snr_db=7.06,
                        noise_seed=103,
                        cfg=RegistrationConfig(
                            gamma=gamma, sigma=sigma, alpha=0.02, n_steps=20, max_iters=200
                        ),
                    )
                )
        return cases
    if suite_id == 4:
        n = 256 if full else 128
        return [
            SuiteCase(
                name="suite4_missing",
                grid=Grid2D(n, n),
                n_angles=10,
                n_detectors=362,
                template_kind=PhantomKind.SHEPP_LOGAN_MISSING,
                target_kind=PhantomKind.SHEPP_LOGAN,
                snr_db=7.06,
                noise_seed=104,
                cfg=RegistrationConfig(gamma=1e-7, sigma=2.0, alpha=0.02, n_steps=20, max_iters=1000),
            ),
            SuiteCase(
                name="suite4_extra",
                grid=Grid2D(n, n),
                n_angles=10,
                n_detectors=362,
                template_kind=PhantomKind.SHEPP_LOGAN_EXTRA,
                target_kind=PhantomKind.SHEPP_LOGAN,
                snr_db=6.46,
                noise_seed=105,
                cfg=RegistrationConfig(gamma=1e-7, sigma=2.0, alpha=0.02, n_steps=20, max_iters=1000),
            ),
        ]
    raise ValueError(f"unknown suite id {suite_id}; valid ids: {SUITE_IDS}")


@dataclass
class CaseResult:
    case: SuiteCase
    registration: RegistrationResult
    template: ScalarImage
    target: ScalarImage
    data: Sinogram
    ssim_final: float
    psnr_final: float


def prepare_case(case: SuiteCase):
    template = make_phantom(PhantomSpec(case.template_kind, case.grid))
    target = make_phantom(PhantomSpec(case.target_kind, case.grid))
    geom = make_parallel_geometry(case.grid, case.n_angles, case.n_detectors)
    clean = ray_transform(target, geom)
    data = add_noise(clean, NoiseSpec(case.snr_db, case.noise_seed))
    return template, target, geom, clean, data


def run_case(case: SuiteCase, out_dir: Path) -> CaseResult:
    template, target, geom, clean, data = prepare_case(case)
    result = register(template, data, geom, case.cfg)
    final = result.trajectory[-1]
    out = CaseResult(
        case=case,
        registration=result,
        template=template,
        target=target,
        data=data,
        ssim_final=ssim(final, target),
        psnr_final=psnr(final, target),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_case_outputs(out, clean, out_dir)
    return out


def _write_case_outputs(res: CaseResult, clean, out_dir: Path) -> None:
    case = res.case
    reg = res.registration
    write_igrd(out_dir / "template.igrd", res.template)
    write_igrd(out_dir / "target.igrd", res.target)
    write_isin(out_dir / "data.isin", res.data)
    for i, img in enumerate(reg.trajectory):
        write_igrd(out_dir / f"trajectory_{i:03d}.igrd", img)
        write_pgm16(out_dir / f"trajectory_{i:03d}.pgm", img)
    with open(out_dir / "objective.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "total", "penalty", "discrepancy", "grad_norm"])
        for k, (value, grad_norm) in enumerate(zip(reg.objective_history, reg.grad_norms)):
            writer.writerow([k, value.total, value.penalty, value.discrepancy, grad_norm])
    snr = measure_snr(clean, res.data) if math.isfinite(case.snr_db) else math.inf  # noise-free
    with open(out_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "ssim", "psnr_db", "snr_db", "iterations", "stop_reason"])
        writer.writerow(
            [
                case.name,
                f"{res.ssim_final:.6f}",
                f"{res.psnr_final:.4f}",
                f"{snr:.4f}",
                reg.iterations_run,
                reg.stop_reason.value,
            ]
        )
    if case.fbp_freq_scaling is not None:
        rec = fbp(res.data, case.grid, case.fbp_freq_scaling)
        write_igrd(out_dir / "fbp.igrd", rec)
        write_pgm16(out_dir / "fbp.pgm", rec)
    if case.tv_mu is not None:
        rec = tv_reconstruct(res.data, case.grid, TVConfig(mu=case.tv_mu, n_iters=case.tv_iters))
        write_igrd(out_dir / "tv.igrd", rec)
        write_pgm16(out_dir / "tv.pgm", rec)
    write_manifest(
        out_dir / "manifest.json",
        {"case": case_record(case), "config_sha256": case_hash(case), "version": __version__},
    )


def case_record(case: SuiteCase) -> dict:
    """Every case parameter as plain JSON values, enums by their value."""
    return json.loads(json.dumps(asdict(case), default=lambda enum: enum.value))


def case_hash(case: SuiteCase) -> str:
    """SHA-256 of the canonical (sorted-key) JSON of ``case_record``."""
    canonical = json.dumps(case_record(case), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_suite(suite_id: int, out_dir, full: bool = False) -> list[CaseResult]:
    cases = suite_cases(suite_id, full=full)
    out_dir = Path(out_dir)
    results = []
    for case in cases:
        results.append(run_case(case, out_dir / case.name))
    if suite_id == 3:
        _write_suite3_table(results, out_dir / "suite3_scores.csv")
    return results


def _write_suite3_table(results: list[CaseResult], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "sigma", "ssim", "psnr"])
        for res in results:
            writer.writerow(
                [
                    f"{res.case.cfg.gamma:g}",
                    f"{res.case.cfg.sigma:g}",
                    f"{res.ssim_final:.6f}",
                    f"{res.psnr_final:.4f}" if math.isfinite(res.psnr_final) else "inf",
                ]
            )
