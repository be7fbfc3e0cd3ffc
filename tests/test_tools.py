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


def synthetic_record(cases, wall_s=3.0, selected=None):
    """A suite record whose suite 1 ran ``cases`` and whose others did not."""
    suite = {"run": True, "exit_code": 0, "wall_s": wall_s, "cases": cases}
    if selected is not None:
        suite["selected"] = selected
    return {"env": {}, "suites": {"1": suite, "2": {"run": False}, "3": {"run": False}, "4": {"run": False}}}


def synthetic_case(name, **changes):
    case = {"name": name, "config_sha256": "ab" * 32, "ssim": 0.899016, "psnr_db": 21.6894,
            "iterations": 200, "stop_reason": "max_iters", "last_E": 220.97526567968097,
            "lowest_E": 220.97526567968097, "lowest_E_iteration": 200, "E_rises": 0}
    return case | changes


def test_compare_passes_equal_records_and_prints_each_case(record_suites, capsys):
    old = synthetic_record([synthetic_case("a"), synthetic_case("b")], wall_s=3.0)
    new = synthetic_record([synthetic_case("a"), synthetic_case("b")], wall_s=2.5)
    assert record_suites.compare_records(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "suite 1: wall 3.0 -> 2.5 s"
    assert out[1] == ("  a: ssim 0.899016 -> 0.899016, psnr_db 21.6894 -> 21.6894, last_E 220.97526567968097 -> "
                      "220.97526567968097, lowest_E 220.97526567968097 -> 220.97526567968097, lowest_E_iteration "
                      "200 -> 200, E_rises 0 -> 0, iterations 200 -> 200: ok")
    assert out[2].startswith("  b: ") and len(out) == 3


E = 220.97526567968097


@pytest.mark.parametrize("key,inside,outside", [
    ("ssim", 0.899017, 0.899018),
    ("ssim", 0.899015, 0.899014),
    ("psnr_db", 21.6895, 21.6896),
    ("psnr_db", 21.6893, 21.6892),
    ("last_E", E * (1 + 0.9e-12), E * (1 + 1.1e-12)),
    ("last_E", E * (1 - 0.9e-12), E * (1 - 1.1e-12)),
    ("lowest_E", E * (1 + 0.9e-12), E * (1 + 1.1e-12)),
    ("iterations", 200, 199),
    ("stop_reason", "max_iters", "numerical_failure"),
    ("config_sha256", "ab" * 32, "ab" * 31 + "ac"),
])
def test_compare_gates_each_tolerance(record_suites, capsys, key, inside, outside):
    old = synthetic_record([synthetic_case("a")])
    assert record_suites.compare_records(old, synthetic_record([synthetic_case("a", **{key: inside})])) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(": ok")
    assert record_suites.compare_records(old, synthetic_record([synthetic_case("a", **{key: outside})])) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith(f": OUTSIDE TOLERANCE ({key})")


def test_compare_reports_E_rises_and_the_lowest_E_iteration_without_gating(record_suites, capsys):
    old = synthetic_record([synthetic_case("a")])
    new = synthetic_record([synthetic_case("a", E_rises=3, lowest_E_iteration=150)])
    assert record_suites.compare_records(old, new) == 0
    assert "lowest_E_iteration 200 -> 150, E_rises 0 -> 3, iterations 200 -> 200: ok" in capsys.readouterr().out


def test_compare_lists_a_case_that_only_one_record_has(record_suites, capsys):
    old = synthetic_record([synthetic_case("a"), synthetic_case("b")])
    new = synthetic_record([synthetic_case("a"), synthetic_case("c")])
    assert record_suites.compare_records(old, new) == 1
    out = capsys.readouterr().out
    assert "  b: only in the old record\n" in out and "  c: only in the new record\n" in out
    assert "  a: " in out and out.count(": ok") == 1


def test_compare_skips_the_cases_that_a_selection_left_out(record_suites, capsys):
    old = synthetic_record([synthetic_case("a"), synthetic_case("b")])
    new = synthetic_record([synthetic_case("b")], selected=["b"])
    assert record_suites.compare_records(old, new) == 0
    out = capsys.readouterr().out
    assert "  a: " not in out and "  b: " in out


def test_compare_fails_a_suite_that_the_old_record_did_not_run(record_suites, capsys):
    old = synthetic_record([synthetic_case("a")])
    old["suites"]["1"] = {"run": False}
    assert record_suites.compare_records(old, synthetic_record([synthetic_case("a")])) == 1
    assert capsys.readouterr().out.splitlines() == ["suite 1: wall not run -> 3.0 s",
                                                    "  a: only in the new record"]


@pytest.mark.parametrize("cases,error", [
    (["suite4_missing", "suite5"], "unknown case 'suite5'; valid cases: suite1 suite4_extra suite4_missing"),
    (["suite4_missing"], "--cases names no case of suite 1"),
], ids=["unknown", "suite_left_empty"])
def test_cases_that_do_not_fit_the_suites_are_a_usage_error(record_suites, tmp_path, capsys, monkeypatch,
                                                            cases, error):
    for var in record_suites.THREAD_VARS:  # main sets the unset ones; restored afterwards
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    with pytest.raises(SystemExit) as exc:
        record_suites.main(["--ids", "1", "4", "--cases", *cases, "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f": error: {error}")
    assert not (tmp_path / "r.json").exists()
