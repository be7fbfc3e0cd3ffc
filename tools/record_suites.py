"""Record the answers and wall times of the experiment suites as one JSON file.

Runs each requested suite's cases in this process as ``tomoflow suite
--id ID`` runs them (``experiments.run_case``, then ``cli.report``), but
writes no ``suite3_scores.csv``, and reads each case's answers back with
``experiments.read_answers``. The record holds an environment block
(versions, cores, thread variables and the sha256 of the
``tomoflow/*.py`` bytes that ran, which names the code whether or not it
is committed yet) and, per suite, its wall time and exit code and per
case the fields of ``read_answers``: ``config_sha256``, SSIM, PSNR,
iterations, the stop reason, the last E, the lowest E and its iteration,
and the number of iterations at which E rose (by more than
``experiments.E_TOLERANCE`` relative).

Suites that are not requested are recorded as not run. ``--cases NAME
...`` runs only the named cases of the requested suites (each requested
suite needs one), and a suite run so records their names as
``selected``. The thread variables default to 1, as in the benchmark;
``main`` sets them before it first imports tomoflow, so importing this
module changes no environment variable. Only the standard library and
tomoflow are used. Run from the repository root:

    PYTHONPATH=src python3 tools/record_suites.py --ids 1 2 4 3 --out suites.json

The directory of ``--out`` is checked before any suite runs; a missing
one is a usage error (exit 2). ``--work DIR`` keeps the suites' output
files in DIR; by default they go to a temporary directory that is
removed afterwards.

``--compare OLD.json ...`` then prints, per case of the suites both
sides ran, old -> new for SSIM, PSNR, the last E, the lowest E and its
iteration, the E rises and the iterations, and per suite its wall time.
The old side (``newest_cases``) takes each suite's cases from the last
of the OLD records, in the order given, that ran the whole suite, and
its wall time from that record; a later record made with ``--cases``
overrides only its own cases, and a case that a later whole run no
longer has is dropped. Give the committed records oldest first, e.g.
``--compare $(ls -v SUITES_*.json)``. It exits 1 if a case is outside
these tolerances, or if only one side has it (a case that ``selected``
leaves out is not compared):

* ``config_sha256``, the iterations and the stop reason are equal;
* the last and the lowest E agree to ``experiments.E_TOLERANCE``
  relative;
* SSIM and PSNR agree to one unit of the last decimal that the package
  writes (``experiments.SCORE_DECIMALS``).

The E rises and the iteration of the lowest E are reported, not gated:
rounding can move the iterate at which a settled E is lowest.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def source_sha256(package_dir: Path) -> str:
    """sha256 of the package's ``*.py`` bytes, concatenated in sorted name
    order (``cat src/tomoflow/*.py | sha256sum`` in the C locale)."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import tomoflow

    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "tomoflow": tomoflow.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "source_sha256": source_sha256(Path(tomoflow.__file__).resolve().parent),
    }


def run_suite(suite_id: int, out_dir: Path, selected: list[str] | None = None) -> dict:
    """Run the suite's cases, or those named in ``selected``, as ``tomoflow
    suite`` runs each (``run_case``, then ``report``), and record their
    answers."""
    from tomoflow.cli import report
    from tomoflow.experiments import read_answers, run_case, suite_cases

    cases = [case for case in suite_cases(suite_id) if selected is None or case.name in selected]
    start = time.perf_counter()
    code = report([run_case(case, out_dir / case.name) for case in cases])
    wall = time.perf_counter() - start
    names = sorted(case.name for case in cases)
    record = {"run": True, "exit_code": code, "wall_s": round(wall, 3),
              "cases": [read_answers(out_dir / name) for name in names]}
    if selected is not None:
        record["selected"] = names
    return record


def _within(key: str, old, new) -> bool:
    from tomoflow.experiments import E_TOLERANCE, SCORE_DECIMALS

    if key in SCORE_DECIMALS:
        scale = 10 ** SCORE_DECIMALS[key]
        return abs(round(new * scale) - round(old * scale)) <= 1
    if key in ("last_E", "lowest_E"):
        return abs(new - old) <= E_TOLERANCE * abs(old)
    return new == old


def newest_cases(records: list[dict]) -> dict:
    """One record holding, per suite, the cases and the wall time of the
    last of ``records`` (oldest first) that ran the whole suite, each
    case replaced by a later record that ran it as ``selected``. A suite
    that no record ran whole has no wall time."""
    suites = {}
    for record in records:
        for suite_id, suite in record["suites"].items():
            if not suite["run"]:
                continue
            if "selected" not in suite:
                suites[suite_id] = {"run": True, "wall_s": suite["wall_s"], "cases": {}}
            cases = suites.setdefault(suite_id, {"run": True, "cases": {}})["cases"]
            cases.update((case["name"], case) for case in suite["cases"])
    for suite in suites.values():
        suite["cases"] = list(suite["cases"].values())
    return {"suites": suites}


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
    from tomoflow.io import check_output_dir

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ids", type=int, nargs="+", required=True, choices=SUITE_IDS)
    ap.add_argument("--cases", nargs="+", default=None, metavar="NAME",
                    help="run only these cases of the requested suites")
    ap.add_argument("--out", required=True, help="JSON record to write")
    ap.add_argument("--work", default=None, help="keep the suites' output files here")
    ap.add_argument("--compare", nargs="+", default=None, metavar="OLD.json",
                    help="compare the new record with these, oldest first")
    args = ap.parse_args(argv)
    try:
        check_output_dir(args.out)
    except OSError as exc:
        ap.error(f"cannot write --out: {exc}")
    if args.cases is not None:
        valid = {case.name: suite_id for suite_id in args.ids for case in suite_cases(suite_id)}
        unknown = [name for name in args.cases if name not in valid]
        if unknown:
            ap.error(f"unknown case {unknown[0]!r}; valid cases: {' '.join(sorted(valid))}")
        unnamed = set(args.ids) - {valid[name] for name in args.cases}
        if unnamed:
            ap.error(f"--cases names no case of suite {min(unnamed)}")
    old = None if args.compare is None else newest_cases([json.loads(Path(path).read_text())
                                                          for path in args.compare])

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
