"""tomoflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tomoflow is imported from its ``src``.
One run is a closed loop of single-threaded sample processes, one at a
time (see ``worker.py``), for about ``--seconds``:

* ``--trace 0``: one process that sets up and repeats the timed solve
  while another fits, then set-up-only processes in the time left. Prints
  the end-to-end metrics: medians of ``setup_s``, ``solve_s``,
  ``iter_ms`` and ``peak_rss_mb``, and the quality of the answer
  (``final_E``, ``ssim``, ``psnr_db``, ``ssim_fbp``).
* ``--trace 1``: pairs of an untraced and a traced process, one solve
  each. Prints the per-layer metrics of the traced processes (medians)
  and the tracing overhead, traced minus untraced ``solve_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Each sample process is one
attempted operation; it fails if it raises, if a correctness check fails,
or if its answer differs from another sample's at the same seed. The
environment record precedes it on its own line; per-sample details go to
stderr.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import ANSWER_KEYS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every run ends within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
# Set-up samples a run collects at most (one process each), and the time
# the repeating solve leaves for them.
MAX_SETUP_SAMPLES = 9
SETUP_RESERVE_S = 8.0
# Sample processes run single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "iter_ms": "ms",
    "final_E": "1",
    "ssim": "1",
    "psnr_db": "dB",
    "ssim_fbp": "1",
    "peak_rss_mb": "MB",
}

# (span, fields) reported by the traced run; a span that has children
# also reports its self time.
LAYERS = (
    ("optimize.register", ("s", "self_s", "evals")),
    ("objective.evaluate_objective", ("calls", "s", "self_s")),
    ("objective.objective_gradient", ("calls", "s", "self_s")),
    ("objective.velocity_norm_sq", ("calls", "s")),
    ("flow.build_flow_chain", ("calls", "s", "self_s")),
    ("flow.attach_backprop_field", ("calls", "s", "self_s")),
    ("grid.sample_bilinear", ("calls", "s", "bytes_computed")),
    ("grid.divergence", ("calls", "s")),
    ("grid.gradient", ("calls", "s")),
    ("kernel.smooth", ("calls", "s")),
    ("kernel.make_kernel", ("calls", "s")),
    ("action.deform", ("calls", "s")),
    ("tomo.ray_transform", ("calls", "s", "first_s")),
    ("tomo.back_projection", ("calls", "s")),
    ("tomo.fbp", ("calls", "s")),
    ("tv.tv_reconstruct", ("calls", "s")),
    ("tv.operator_norm_estimate", ("calls", "s")),
    ("phantom.make_phantom", ("calls", "s")),
    ("phantom.add_noise", ("calls", "s")),
    ("metrics.ssim", ("s",)),
)
FIELD_UNITS = {"calls": "count", "evals": "count", "s": "s", "self_s": "s", "first_s": "s",
               "bytes_computed": "bytes"}
PER_LAYER = {f"{span}.{f}": FIELD_UNITS[f] for span, fields in LAYERS for f in fields}
PER_LAYER["trace.overhead_s"] = "s"


class Run:
    """The sample processes of one benchmark run and what they returned."""

    def __init__(self, workload: str, seed: int, seconds: float, budget: int | None):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.budget = budget
        self.t_start = perf_counter()
        self.samples: list[dict] = []
        self.attempted = 0
        self.lost = 0  # processes that crashed or timed out
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})

    def elapsed(self) -> float:
        return perf_counter() - self.t_start

    def sample(self, mode: str, seconds: float = 0.0) -> dict | None:
        """Run one sample process; return its record, or None if it failed."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--mode", mode, "--seconds", f"{seconds:.3f}"]
        if self.budget is not None:
            cmd += ["--budget", str(self.budget)]
        self.attempted += 1
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.lost += 1
            print(f"FAILED {mode}: timed out", file=sys.stderr)
            return None
        wall = perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.lost += 1
            print(f"FAILED {mode}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
            return None
        rec = json.loads(lines[-1])
        rec["mode"], rec["wall_s"] = mode, wall
        self.samples.append(rec)
        print(f"{mode}: wall {wall:.2f} s, setup {rec['setup_s']:.3f} s, solve "
              f"{[round(s, 3) for s in rec.get('solve_s', [])]} s", file=sys.stderr)
        for check in rec.get("failed_checks", []):
            self.fail(rec, f"check {check}")
        return rec

    def fail(self, rec: dict, why: str) -> None:
        rec["failed"] = True
        print(f"FAILED {rec['mode']}: {why}", file=sys.stderr)

    def failed(self) -> int:
        return self.lost + sum(1 for r in self.samples if r.get("failed"))

    def fits(self, predicted_s: float) -> bool:
        return self.elapsed() + predicted_s <= self.seconds

    def measure(self) -> None:
        """One repeating solve process, then set-up processes in the time left."""
        rec = self.sample("solve", seconds=self.seconds - SETUP_RESERVE_S)
        setup_wall = rec["wall_s"] - sum(rec["solve_s"]) if rec else 0.0
        while len(self.samples) < MAX_SETUP_SAMPLES and self.fits(setup_wall):
            rec = self.sample("setup")
            if rec is None:
                break
            setup_wall = rec["wall_s"]

    def trace(self) -> None:
        """Untraced and traced solves in pairs while another pair fits."""
        while True:
            t0 = perf_counter()
            if self.sample("solve") is None or self.sample("traced") is None:
                break
            if not self.fits(perf_counter() - t0):
                break

    def answers_agree(self) -> None:
        """Every sample that solved gave the same answer, and traced ones the same counts."""
        solved = [r for r in self.samples if "solve_s" in r]
        for rec in solved[1:]:
            if any(rec[k] != solved[0][k] for k in ANSWER_KEYS + ("ssim_fbp",)):
                self.fail(rec, "answer differs from the first sample's")
        traced = [r for r in solved if "trace" in r]
        for rec in traced[1:]:
            if self._counts(rec) != self._counts(traced[0]):
                self.fail(rec, "call counts differ from the first traced sample's")

    @staticmethod
    def _counts(rec: dict) -> dict:
        return {key: span["calls"] for key, span in rec["trace"]["spans"].items()}

    def end_to_end(self) -> dict:
        solved = [r for r in self.samples if "solve_s" in r]
        if not solved:
            return {name: 0.0 for name in END_TO_END}
        times = [t for r in solved for t in r["solve_s"]]
        first = solved[0]
        return {
            "setup_s": statistics.median(r["setup_s"] for r in self.samples),
            "solve_s": statistics.median(times),
            "iter_ms": statistics.median(1000.0 * t / first["evals"] for t in times),
            "final_E": first["final_E"],
            "ssim": first["ssim"],
            "psnr_db": first["psnr_db"],
            "ssim_fbp": first["ssim_fbp"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in solved),
        }

    def per_layer(self) -> dict:
        traced = [r for r in self.samples if "trace" in r]
        plain = [t for r in self.samples if r["mode"] == "solve" for t in r["solve_s"]]
        if not traced:
            return {name: 0.0 for name in PER_LAYER}
        absent = traced[0]["trace"]["absent"]
        if absent:
            print(f"absent layers (reported as 0): {', '.join(absent)}", file=sys.stderr)
        for key, n in traced[0]["trace"]["per_eval"].items():
            print(f"per evaluation: {key} {n:g}", file=sys.stderr)
        out = {}
        for span, fields in LAYERS:
            for f in fields:
                values = [self._layer_value(r, span, f) for r in traced]
                out[f"{span}.{f}"] = statistics.median(values)
        traced_solve = statistics.median(r["solve_s"][0] for r in traced)
        out["trace.overhead_s"] = traced_solve - statistics.median(plain) if plain else 0.0
        return out

    def _layer_value(self, rec: dict, span: str, field: str) -> float:
        if field == "evals":
            return rec["evals"]
        stats = rec["trace"]["spans"].get(span)
        if stats is None:
            return 0.0
        if field == "bytes_computed":
            # image, two displacement components and result, float64
            return stats["calls"] * 4 * 8 * self.workload.size**2
        return stats[field]


def environment() -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "commit": commit,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="noise seed (default: the suite's)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=int, default=None, help="smaller iteration budget, for tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tomoflow" / "__init__.py").is_file():
        print(f"tomoflow source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    run = Run(args.workload, seed, args.seconds, args.budget)
    if args.trace:
        run.trace()
        units, metrics = PER_LAYER, run.per_layer()
    else:
        run.measure()
        units, metrics = END_TO_END, run.end_to_end()
    run.answers_agree()

    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": run.failed() == 0,
        "attempted": run.attempted,
        "failed": run.failed(),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
