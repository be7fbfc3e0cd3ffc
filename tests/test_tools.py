"""The suite recorder in ``tools/``, which later runs are compared against."""

import importlib.util
import json
import math
import os
from pathlib import Path

import pytest

from tomoflow.experiments import SUITE_IDS, case_hash, suite_cases

REPO = Path(__file__).resolve().parents[1]
TOOLS = REPO / "tools"


def import_record_suites():
    """tools/record_suites.py, imported by path."""
    spec = importlib.util.spec_from_file_location("record_suites", TOOLS / "record_suites.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def record_suites():
    return import_record_suites()


def test_importing_record_suites_leaves_the_environment_alone(record_suites, monkeypatch):
    for var in record_suites.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    import_record_suites()
    assert dict(os.environ) == before


def write_case(case_dir, totals):
    """A case directory with the three files a suite case writes."""
    case_dir.mkdir()
    (case_dir / "manifest.json").write_text(json.dumps({"config_sha256": "ab" * 32, "iterations": 5}))
    (case_dir / "metrics.csv").write_text(
        "name,ssim,psnr_db,snr_db,iterations,stop_reason\r\n"
        f"case_a,0.875,21.5,4.87,{len(totals) - 1},max_iters\r\n"
    )
    rows = "".join(f"{k},{e!r},0.5,{e - 0.5!r},1.0\r\n" for k, e in enumerate(totals))
    (case_dir / "objective.csv").write_text("iteration,total,penalty,discrepancy,grad_norm\r\n" + rows)


def test_case_record_reads_the_case_files(record_suites, tmp_path):
    totals = [9.0, 7.5, 8.25, 6.0, 6.5, 7.0]
    write_case(tmp_path / "case_a", totals)
    rec = record_suites.case_record(tmp_path / "case_a")
    assert rec == {
        "name": "case_a",
        "config_sha256": "ab" * 32,
        "ssim": 0.875,
        "psnr_db": 21.5,
        "iterations": 5,
        "stop_reason": "max_iters",
        "last_E": 7.0,
        "lowest_E": 6.0,
        "lowest_E_iteration": 3,
        "E_rises": 3,
    }


def test_case_record_keeps_the_first_of_equal_lowest_E(record_suites, tmp_path):
    write_case(tmp_path / "case_a", [3.0, 2.0, 2.5, 2.0])
    rec = record_suites.case_record(tmp_path / "case_a")
    assert (rec["lowest_E"], rec["lowest_E_iteration"], rec["E_rises"]) == (2.0, 1, 1)


def test_case_record_counts_no_rise_within_rounding(record_suites, tmp_path):
    # E settled at 193.918714991416 and moving by an ulp or two, as in
    # suite 3's sigma 1, gamma 10 cell; then one rise of 1e-9 relative
    e = 193.918714991416
    up = math.nextafter(e, math.inf)
    totals = [200.0, e, up, e, up, math.nextafter(up, math.inf), e]
    write_case(tmp_path / "settled", totals)
    assert record_suites.case_record(tmp_path / "settled")["E_rises"] == 0
    write_case(tmp_path / "rising", totals + [e * (1 + 1e-9)])
    assert record_suites.case_record(tmp_path / "rising")["E_rises"] == 1


def newest_suites_record() -> Path:
    """The committed ``SUITES_<PR>.json`` with the highest PR number."""
    return max(REPO.glob("SUITES_*.json"), key=lambda path: int(path.stem.split("_")[1]))


def test_suite1_matches_the_newest_record(record_suites, tmp_path):
    """Suite 1 reproduces its case in the newest committed suite record.

    The settings hash, the scores as ``metrics.csv`` writes them, the
    iteration count, the stop reason, the number of E rises and the
    iteration of the lowest E must be equal; the last and the lowest E
    must agree to 1e-12 relative. A change that moves suite 1 on purpose
    commits a new ``SUITES_<PR>.json`` from ``tools/record_suites.py``
    and says in CHANGES.md why the answer moved.
    """
    record = json.loads(newest_suites_record().read_text())
    (recorded,) = record["suites"]["1"]["cases"]
    run = record_suites.run_suite(1, tmp_path / "suite1")
    assert run["exit_code"] == 0
    (case,) = run["cases"]
    exact = ("name", "config_sha256", "ssim", "psnr_db", "iterations", "stop_reason", "E_rises",
             "lowest_E_iteration")
    assert {key: case[key] for key in exact} == {key: recorded[key] for key in exact}
    for key in ("last_E", "lowest_E"):
        assert case[key] == pytest.approx(recorded[key], rel=1e-12, abs=0.0)


def test_every_suite_case_matches_the_newest_record():
    """Each case of suites 1-4 hashes to the ``config_sha256`` recorded for
    it, so a change to a suite's settings needs a new record."""
    record = json.loads(newest_suites_record().read_text())
    recorded = {case["name"]: case["config_sha256"] for suite in record["suites"].values()
                for case in suite["cases"]}
    built = {case.name: case_hash(case) for suite_id in SUITE_IDS for case in suite_cases(suite_id)}
    assert built == recorded
