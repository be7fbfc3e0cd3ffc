"""Record the answers and wall times of the experiment suites as one JSON file.

Runs ``tomoflow suite --id ID`` in this process for each requested suite
(through ``tomoflow.cli.main``), then reads the ``manifest.json``,
``metrics.csv`` and ``objective.csv`` that each case writes. The record
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

Suites that are not requested are recorded as not run. The thread
variables default to 1, as in the benchmark; ``main`` sets them before
it first imports tomoflow, so importing this module changes no
environment variable. Only the standard library and tomoflow are used.
Run from the repository root:

    PYTHONPATH=src python3 tools/record_suites.py --ids 1 2 4 3 --out suites.json

``--work DIR`` keeps the suites' output files in DIR; by default they go
to a temporary directory that is removed afterwards.
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


def run_suite(suite_id: int, out_dir: Path) -> dict:
    from tomoflow import cli

    start = time.perf_counter()
    code = cli.main(["suite", "--id", str(suite_id), "--out", str(out_dir)])
    wall = time.perf_counter() - start
    cases = [case_record(d) for d in sorted(out_dir.iterdir()) if (d / "manifest.json").is_file()]
    return {"run": True, "exit_code": code, "wall_s": round(wall, 3), "cases": cases}


def main(argv=None) -> int:
    for var in THREAD_VARS:  # before numpy is imported
        os.environ.setdefault(var, "1")
    from tomoflow.experiments import SUITE_IDS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ids", type=int, nargs="+", required=True, choices=SUITE_IDS)
    ap.add_argument("--out", required=True, help="JSON record to write")
    ap.add_argument("--work", default=None, help="keep the suites' output files here")
    args = ap.parse_args(argv)

    record = {"env": environment(), "suites": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        for suite_id in args.ids:
            record["suites"][str(suite_id)] = run_suite(suite_id, work / f"suite{suite_id}")
    for suite_id in SUITE_IDS:
        record["suites"].setdefault(str(suite_id), {"run": False})
    record["suites"] = dict(sorted(record["suites"].items()))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
