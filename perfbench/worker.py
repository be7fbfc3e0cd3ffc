"""One benchmark sample process.

    python3 perfbench/worker.py --workload NAME [--seed N] [--mode setup|solve|traced]
                                [--seconds T] [--budget K]

Builds the inputs of one workload from the seed (the set-up). In the
``solve`` and ``traced`` modes it then runs the timed registration,
scores and checks it against the untimed FBP (and TV) baselines, and in
``solve`` mode repeats the registration while another one fits in
``--seconds``. Prints one JSON object on stdout.

tomoflow's projector cache is module-global, so each set-up needs a
fresh process to include the projector build; the solve keeps no state
between calls and is repeated in the same process. Only the public API
of tomoflow is used.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_TOLERANCE, WORKLOADS, Workload  # noqa: E402

# Spans whose calls during the timed solve are also reported per
# objective evaluation.
PER_EVAL_SPANS = (
    "objective.evaluate_objective",
    "objective.objective_gradient",
    "flow.build_flow_chain",
    "flow.attach_backprop_field",
    "grid.sample_bilinear",
    "grid.divergence",
    "grid.gradient",
    "kernel.smooth",
    "action.deform",
    "tomo.ray_transform",
    "tomo.back_projection",
)

# The answer, which must be bit-identical whenever one seed is solved again.
ANSWER_KEYS = ("final_E", "ssim", "psnr_db")


def import_tomoflow():
    """Import tomoflow from the source tree next to the benchmark."""
    if not (SRC / "tomoflow" / "__init__.py").is_file():
        raise SystemExit(f"tomoflow source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tomoflow

    if Path(tomoflow.__file__).resolve().parent != (SRC / "tomoflow").resolve():
        raise SystemExit(f"imported tomoflow from {tomoflow.__file__}, not from {SRC}")
    return tomoflow


def set_up(tf, w: Workload, seed: int):
    grid = tf.Grid2D(w.size, w.size)
    template = tf.make_phantom(tf.PhantomSpec(tf.PhantomKind(w.template_kind), grid))
    target = tf.make_phantom(tf.PhantomSpec(tf.PhantomKind(w.target_kind), grid))
    geom = tf.make_parallel_geometry(grid, w.n_angles, w.n_detectors)
    clean = tf.ray_transform(target, geom)
    data = tf.add_noise(clean, tf.NoiseSpec(w.snr_db, seed))
    return grid, template, target, geom, data


def solve(tf, w: Workload, template, target, geom, data) -> dict:
    """The timed registration, its answer and the checks on it."""
    cfg = tf.RegistrationConfig(
        gamma=w.gamma,
        sigma=w.sigma,
        alpha=w.alpha,
        n_steps=w.n_steps,
        max_iters=w.max_iters,
        action=tf.GroupAction(w.action),
    )
    t0 = perf_counter()
    result = tf.register(template, data, geom, cfg)
    solve_s = perf_counter() - t0

    history = result.objective_history
    final = result.trajectory[-1]
    out = {
        "solve_s": solve_s,
        "evals": len(history),
        "final_E": history[-1].total if history else math.nan,
        "E_start": history[0].total if history else math.nan,
        "ssim": tf.ssim(final, target),
        "psnr_db": tf.psnr(final, target),
        "stop_reason": result.stop_reason.value,
    }
    checks = [
        ("stop_reason_max_iters", out["stop_reason"] == "max_iters"),
        ("evaluations_match_budget", out["evals"] == w.max_iters + 1),
        ("final_E_finite", math.isfinite(out["final_E"])),
        ("E_decreased", out["final_E"] < out["E_start"]),
    ]
    out["failed_checks"] = [name for name, ok in checks if not ok]
    return out


def baselines(tf, w: Workload, grid, template, target, data) -> dict:
    """Untimed scores the registration is checked against."""
    out = {
        "ssim_template": tf.ssim(template, target),
        "ssim_fbp": tf.ssim(tf.fbp(data, grid, w.fbp_freq_scaling), target),
    }
    if w.tv_mu is not None:
        rec = tf.tv_reconstruct(data, grid, tf.TVConfig(mu=w.tv_mu, n_iters=w.tv_iters))
        out["ssim_tv"] = tf.ssim(rec, target)
    return out


def baseline_failures(w: Workload, out: dict) -> list[str]:
    checks = [("ssim_beats_fbp", out["ssim"] > out["ssim_fbp"])]
    if w.template_beaten:
        checks.append(("ssim_beats_template", out["ssim"] > out["ssim_template"]))
    if "ssim_tv" in out:
        checks.append(("tv_beats_fbp", out["ssim_tv"] > out["ssim_fbp"]))
    return [name for name, ok in checks if not ok]


def reference_failures(w: Workload, seed: int, out: dict) -> list[str]:
    """Quality values at the default seed against the recorded reference."""
    if seed != w.default_seed:
        return []
    failed = []
    for name, expected in w.reference.items():
        tol = next(t for prefix, t in REFERENCE_TOLERANCE.items() if name.startswith(prefix))
        if not abs(out[name] - expected) <= tol:
            failed.append(f"reference_{name}")
    return failed


def trace_record(tracer, before: dict, after: dict, evals: int) -> dict:
    """All spans, and the calls between two counts per objective evaluation."""
    spans = {
        key: {"calls": span.calls, "s": span.s, "self_s": span.self_s, "first_s": span.first_s}
        for key, span in tracer.spans.items()
    }
    per_eval = {key: (after[key] - before.get(key, 0)) / evals
                for key in PER_EVAL_SPANS if key in after and evals}
    return {"spans": spans, "absent": tracer.absent, "per_eval": per_eval}


def run(w: Workload, seed: int, mode: str, seconds: float) -> dict:
    tf = import_tomoflow()
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t_start = perf_counter()
    grid, template, target, geom, data = set_up(tf, w, seed)
    out = {"setup_s": perf_counter() - t_start}

    if mode != "setup":
        before = tracer.counts() if tracer else {}
        solve_s = []
        while True:
            res = solve(tf, w, template, target, geom, data)
            solve_s.append(res["solve_s"])
            if len(solve_s) == 1:
                out.update(res)
                after = tracer.counts() if tracer else {}
                out.update(baselines(tf, w, grid, template, target, data))
                out["failed_checks"] += baseline_failures(w, out) + reference_failures(w, seed, out)
            elif any(res[k] != out[k] for k in ANSWER_KEYS):
                out["failed_checks"].append("rerun_identical")
            if mode == "traced" or perf_counter() - t_start + res["solve_s"] > seconds:
                break
        out["solve_s"] = solve_s
        if tracer is not None:
            out["trace"] = trace_record(tracer, before, after, out["evals"])

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="noise seed (default: the suite's)")
    ap.add_argument("--mode", choices=("setup", "solve", "traced"), default="solve")
    ap.add_argument("--seconds", type=float, default=0.0, help="repeat the solve while one more fits")
    ap.add_argument("--budget", type=int, default=None, help="smaller iteration budget, for tests")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.budget is not None:
        w = w.with_budget(args.budget)
    seed = w.default_seed if args.seed is None else args.seed
    try:
        out = run(w, seed, args.mode, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
