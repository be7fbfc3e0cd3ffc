"""The suite recorder in ``tools/``, which later runs are compared against."""

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import pytest

from tomoflow.experiments import E_TOLERANCE, SUITE_IDS, case_hash, suite_cases

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


def test_environment_holds_the_documented_block(record_suites, monkeypatch):
    for value, var in enumerate(record_suites.THREAD_VARS, start=1):
        monkeypatch.setenv(var, str(value))
    env = record_suites.environment()
    assert set(env) == {"python", "numpy", "scipy", "tomoflow", "nproc", "threads", "source_sha256"}
    assert env["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "3"}
    # cat src/tomoflow/*.py | sha256sum, in the C locale's name order
    sources = sorted((REPO / "src" / "tomoflow").glob("*.py"), key=lambda path: path.name.encode())
    assert env["source_sha256"] == hashlib.sha256(b"".join(path.read_bytes() for path in sources)).hexdigest()


def recorded_cases(record_suites, directory: Path = REPO) -> dict[str, dict]:
    """The recorded cases of the ``SUITES_<PR>.json`` records in
    ``directory``, by name, merged in PR-number order by
    ``newest_cases``."""
    paths = sorted(directory.glob("SUITES_*.json"), key=lambda path: int(path.stem.split("_")[1]))
    merged = record_suites.newest_cases([json.loads(path.read_text()) for path in paths])
    return {case["name"]: case for suite in merged["suites"].values() for case in suite["cases"]}


def test_suite1_matches_the_newest_record(record_suites, tmp_path):
    """Suite 1 reproduces its case in the newest committed suite record
    that ran it.

    The settings hash, the scores as ``metrics.csv`` writes them, the
    iteration count, the stop reason, the number of E rises and the
    iteration of the lowest E must be equal; the last and the lowest E
    must agree to ``E_TOLERANCE`` relative. A change that moves suite 1
    on purpose commits a new ``SUITES_<PR>.json`` from
    ``tools/record_suites.py`` and says in CHANGES.md why the answer
    moved.
    """
    recorded = recorded_cases(record_suites)["suite1"]
    run = record_suites.run_suite(1, tmp_path / "suite1")
    assert run["exit_code"] == 0
    (case,) = run["cases"]
    exact = ("name", "config_sha256", "ssim", "psnr_db", "iterations", "stop_reason", "E_rises",
             "lowest_E_iteration")
    assert {key: case[key] for key in exact} == {key: recorded[key] for key in exact}
    for key in ("last_E", "lowest_E"):
        assert case[key] == pytest.approx(recorded[key], rel=E_TOLERANCE, abs=0.0)


def test_every_suite_case_matches_the_newest_record(record_suites):
    """Each case of suites 1-4 hashes to the ``config_sha256`` of the
    newest record that ran it, so a change to a suite's settings needs a
    new record."""
    recorded = recorded_cases(record_suites)
    built = {case.name: case_hash(case) for suite_id in SUITE_IDS for case in suite_cases(suite_id)}
    assert built == {name: case["config_sha256"] for name, case in recorded.items()}


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


def test_an_unwritable_out_is_a_usage_error_before_any_suite_runs(record_suites, tmp_path, capsys,
                                                                    monkeypatch):
    for var in record_suites.THREAD_VARS:  # main sets the unset ones; restored afterwards
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr("tomoflow.experiments.run_case", lambda *args: pytest.fail("a case ran"))
    out = tmp_path / "missing" / "s1.json"
    with pytest.raises(SystemExit) as exc:
        record_suites.main(["--ids", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f": error: cannot write --out: [Errno 2] No such file or directory: '{out}'")


def test_a_newer_partial_record_overrides_only_its_own_cases(record_suites, tmp_path):
    full = synthetic_record([synthetic_case("a", ssim=0.1), synthetic_case("b", ssim=0.2)], wall_s=3.0)
    partial = synthetic_record([synthetic_case("b", ssim=0.3)], wall_s=1.5, selected=["b"])
    other = synthetic_record([synthetic_case("c")])  # the newest record runs suite 2 only
    other["suites"]["1"], other["suites"]["2"] = {"run": False}, other["suites"]["1"]
    # SUITES_10 sorts before SUITES_9 by name; the PR number orders them
    for number, record in ((9, full), (10, partial), (11, other)):
        (tmp_path / f"SUITES_{number}.json").write_text(json.dumps(record))
    cases = recorded_cases(record_suites, tmp_path)
    assert cases == {"a": synthetic_case("a", ssim=0.1), "b": synthetic_case("b", ssim=0.3),
                     "c": synthetic_case("c")}
    assert record_suites.newest_cases([full, partial, other])["suites"]["1"]["wall_s"] == 3.0


def test_compare_drops_the_cases_that_a_newer_whole_run_dropped(record_suites, tmp_path, capsys, monkeypatch):
    for var in record_suites.THREAD_VARS:  # main sets the unset ones; restored afterwards
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    older = synthetic_record([synthetic_case("a"), synthetic_case("b")], wall_s=3.0)
    partial = synthetic_record([synthetic_case("b")], wall_s=1.5, selected=["b"])
    newer = synthetic_record([synthetic_case("a")], wall_s=2.0)  # the suite no longer has b
    paths = [tmp_path / f"SUITES_{number}.json" for number in (7, 8, 9)]
    for path, record in zip(paths, (older, partial, newer)):
        path.write_text(json.dumps(record))
    rerun = synthetic_record([synthetic_case("a")], wall_s=2.5)["suites"]["1"]
    monkeypatch.setattr(record_suites, "run_suite", lambda *args: rerun)
    argv = ["--ids", "1", "--out", str(tmp_path / "r.json"), "--compare", *map(str, paths)]
    assert record_suites.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "suite 1: wall 2.0 -> 2.5 s"
    assert out[1].startswith("  a: ") and out[1].endswith(": ok") and len(out) == 2
