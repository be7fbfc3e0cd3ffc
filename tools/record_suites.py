"""Record the answers and wall times of the experiment suites as one JSON file.

Runs each requested suite's cases in this process as ``tomoflow suite
--id ID`` runs them (``experiments.run_case``, then ``cli.report``), then
reads the ``manifest.json``, ``metrics.csv`` and ``objective.csv`` that
each case writes. The record
holds an environment block (versions, cores, thread variables, the
commit and the sha256 of the ``tomoflow/*.py`` bytes that ran) and, per
suite, its wall time and exit code and per case:

* ``config_sha256`` from the manifest;
* SSIM, PSNR, iterations and the stop reason from ``metrics.csv``;
* the last E, the lowest E and its iteration, and the number of
  iterations at which E rose, from ``objective.csv``. A step from a to b
  counts as a rise only when b - a > 1e-12 * |a| (``RISE_TOLERANCE``,
  the relative tolerance the tier-1 suite-1 check applies to E), so
  rounding noise in an E that has stopped moving counts no rises.

Suites that are not requested are recorded as not run. ``--cases NAME
...`` runs only the named cases of the requested suites (each requested
suite needs one), and a suite run so records their names as
``selected``. The thread variables default to 1, as in the benchmark;
``main`` sets them before it first imports tomoflow, so importing this
module changes no environment variable. Only the standard library and
tomoflow are used. Run from the repository root:

    PYTHONPATH=src python3 tools/record_suites.py --ids 1 2 4 3 --out suites.json

``--work DIR`` keeps the suites' output files in DIR; by default they go
to a temporary directory that is removed afterwards.

``--compare OLD.json`` then prints, per case of the suites both records
ran, old -> new for SSIM, PSNR, the last E, the lowest E and its
iteration, the E rises and the iterations, and per suite its wall time.
It exits 1 if a case is outside these tolerances, or if only one record
has it (a case that ``selected`` leaves out is not compared):

* ``config_sha256``, the iterations and the stop reason are equal;
* the last and the lowest E agree to ``E_TOLERANCE`` relative;
* SSIM and PSNR agree to one unit of the last decimal that
  ``metrics.csv`` writes (``SCORE_DECIMALS``).

The E rises and the iteration of the lowest E are reported, not gated:
rounding can move the iterate at which a settled E is lowest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A rise of E by at most this fraction of E is not counted.
RISE_TOLERANCE = 1e-12
# --compare: the largest relative change of the last and the lowest E, and
# the decimals of SSIM and PSNR in metrics.csv, which may move by one unit.
E_TOLERANCE = 1e-12
SCORE_DECIMALS = {"ssim": 6, "psnr_db": 4}


def source_sha256(package_dir: Path) -> str:
    """sha256 of the package's ``*.py`` bytes, concatenated in sorted name
    order (``cat src/tomoflow/*.py | sha256sum`` in the C locale)."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import tomoflow

    package_dir = Path(tomoflow.__file__).resolve().parent

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=package_dir, capture_output=True, text=True,
                              timeout=10).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD") or "unknown"
        if git("status", "--porcelain", "--", "."):
            commit += " with uncommitted changes to the package"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "tomoflow": tomoflow.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit,
        "source_sha256": source_sha256(package_dir),
    }


def case_record(case_dir: Path) -> dict:
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
        "E_rises": sum(b - a > RISE_TOLERANCE * abs(a) for a, b in zip(totals, totals[1:])),
    }


def run_suite(suite_id: int, out_dir: Path, selected: list[str] | None = None) -> dict:
    """Run the suite's cases, or those named in ``selected``, as ``tomoflow
    suite`` runs each (``run_case``, then ``report``), and record them."""
    from tomoflow.cli import report
    from tomoflow.experiments import run_case, suite_cases

    cases = [case for case in suite_cases(suite_id) if selected is None or case.name in selected]
    start = time.perf_counter()
    code = report([run_case(case, out_dir / case.name) for case in cases])
    wall = time.perf_counter() - start
    names = sorted(case.name for case in cases)
    record = {"run": True, "exit_code": code, "wall_s": round(wall, 3),
              "cases": [case_record(out_dir / name) for name in names]}
    if selected is not None:
        record["selected"] = names
    return record


def _within(key: str, old, new) -> bool:
    if key in SCORE_DECIMALS:
        scale = 10 ** SCORE_DECIMALS[key]
        return abs(round(new * scale) - round(old * scale)) <= 1
    if key in ("last_E", "lowest_E"):
        return abs(new - old) <= E_TOLERANCE * abs(old)
    return new == old


def compare_records(old: dict, new: dict) -> int:
    """Print the new record's cases against the old one's (see the module
    docstring); return 1 if any case is outside tolerance or on one side
    only, else 0."""
    gated = ("config_sha256", "iterations", "stop_reason", "ssim", "psnr_db", "last_E", "lowest_E")
    shown = ("ssim", "psnr_db", "last_E", "lowest_E", "lowest_E_iteration", "E_rises", "iterations")
    failed = False
    for suite_id, new_suite in new["suites"].items():
        if not new_suite["run"]:
            continue
        old_suite = old["suites"].get(suite_id, {"run": False})
        selected = new_suite.get("selected")
        part = "" if selected is None else f" (new: {len(selected)} selected cases)"
        print(f"suite {suite_id}: wall {old_suite.get('wall_s', 'not run')} -> {new_suite['wall_s']} s{part}")
        old_cases = {c["name"]: c for c in old_suite.get("cases", [])
                     if selected is None or c["name"] in selected}
        new_cases = {c["name"]: c for c in new_suite["cases"]}
        for name in sorted(old_cases.keys() | new_cases.keys()):
            if name not in old_cases or name not in new_cases:
                print(f"  {name}: only in the {'new' if name in new_cases else 'old'} record")
                failed = True
                continue
            a, b = old_cases[name], new_cases[name]
            outside = [key for key in gated if not _within(key, a[key], b[key])]
            fields = ", ".join(f"{key} {a[key]!r} -> {b[key]!r}" for key in shown)
            verdict = f"OUTSIDE TOLERANCE ({', '.join(outside)})" if outside else "ok"
            print(f"  {name}: {fields}: {verdict}")
            failed |= bool(outside)
    return int(failed)


def main(argv=None) -> int:
    for var in THREAD_VARS:  # before numpy is imported
        os.environ.setdefault(var, "1")
    from tomoflow.experiments import SUITE_IDS, suite_cases

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ids", type=int, nargs="+", required=True, choices=SUITE_IDS)
    ap.add_argument("--cases", nargs="+", default=None, metavar="NAME",
                    help="run only these cases of the requested suites")
    ap.add_argument("--out", required=True, help="JSON record to write")
    ap.add_argument("--work", default=None, help="keep the suites' output files here")
    ap.add_argument("--compare", default=None, metavar="OLD.json",
                    help="compare the new record with this one")
    args = ap.parse_args(argv)
    if args.cases is not None:
        valid = {case.name: suite_id for suite_id in args.ids for case in suite_cases(suite_id)}
        unknown = [name for name in args.cases if name not in valid]
        if unknown:
            ap.error(f"unknown case {unknown[0]!r}; valid cases: {' '.join(sorted(valid))}")
        unnamed = set(args.ids) - {valid[name] for name in args.cases}
        if unnamed:
            ap.error(f"--cases names no case of suite {min(unnamed)}")
    old = None if args.compare is None else json.loads(Path(args.compare).read_text())

    record = {"env": environment(), "suites": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        for suite_id in args.ids:
            record["suites"][str(suite_id)] = run_suite(suite_id, work / f"suite{suite_id}", args.cases)
    for suite_id in SUITE_IDS:
        record["suites"].setdefault(str(suite_id), {"run": False})
    record["suites"] = dict(sorted(record["suites"].items()))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0 if old is None else compare_records(old, record)


if __name__ == "__main__":
    sys.exit(main())
