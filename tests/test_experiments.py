"""The suite-3 score table, written from each cell's scores, the
paper-scale suite sizes, a case's pre-checks, and a case's answers read
back from its files."""

import csv
import json
import math
from dataclasses import replace

import pytest

import tomoflow.experiments as experiments
from conftest import tiny_suite_case
from tomoflow import Grid2D
from tomoflow.experiments import (
    E_TOLERANCE,
    SCORE_DECIMALS,
    CaseResult,
    _write_suite3_table,
    case_hash,
    read_answers,
    run_case,
    run_suite,
    suite_cases,
)


def test_suite3_table_has_one_formatted_row_per_cell(tmp_path):
    cells = suite_cases(3)  # cell 0: sigma 1, gamma 1e-7; cell 12: sigma 2.5, gamma 1e-3
    results = [
        CaseResult(cells[0], registration=None, ssim_final=0.123456789, psnr_final=21.123456),
        CaseResult(cells[12], registration=None, ssim_final=0.5, psnr_final=7.0),
    ]
    path = tmp_path / "suite3" / "suite3_scores.csv"
    _write_suite3_table(results, path)
    assert path.read_text().splitlines() == [
        "gamma,sigma,ssim,psnr",
        "1e-07,1,0.123457,21.1235",
        "0.001,2.5,0.500000,7.0000",
    ]


def test_suite3_run_writes_each_cells_scores(tmp_path, monkeypatch):
    cells = [tiny_suite_case(f"cell{k}", sigma=sigma, gamma=gamma)
             for k, (sigma, gamma) in enumerate([(4.0, 1e-7), (2.0, 1e-3)])]
    monkeypatch.setattr(experiments, "suite_cases", lambda suite_id, full=False: cells)
    results = run_suite(3, tmp_path)
    assert [res.case for res in results] == cells
    rows = []
    for cell in cells:
        with open(tmp_path / cell.name / "metrics.csv", newline="") as fh:
            scores = next(csv.DictReader(fh))
        rows.append(f"{cell.cfg.gamma:g},{cell.cfg.sigma:g},{scores['ssim']},{scores['psnr_db']}")
    assert (tmp_path / "suite3_scores.csv").read_text().splitlines() == ["gamma,sigma,ssim,psnr"] + rows


@pytest.mark.parametrize("suite_id,size,n_detectors", [(2, 438, 620), (4, 256, 362)])
def test_full_suites_run_at_paper_scale(suite_id, size, n_detectors):
    full = suite_cases(suite_id, full=True)
    assert [replace(case, grid=Grid2D(size, size), n_detectors=n_detectors) for case in suite_cases(suite_id)] == full


def test_read_answers_returns_what_run_case_returned(tmp_path):
    case = tiny_suite_case("roundtrip", max_iters=3)
    res = run_case(case, tmp_path / "roundtrip")
    reg = res.registration
    assert (reg.iterations_run, reg.stop_reason.value) == (3, "max_iters")
    totals = [value.total for value in reg.objective_history]
    lowest = totals.index(min(totals))
    rises = sum(b - a > E_TOLERANCE * abs(a) for a, b in zip(totals, totals[1:]))
    assert read_answers(tmp_path / "roundtrip") == {
        "name": "roundtrip",
        "config_sha256": case_hash(case),
        "ssim": round(res.ssim_final, SCORE_DECIMALS["ssim"]),
        "psnr_db": round(res.psnr_final, SCORE_DECIMALS["psnr_db"]),
        "iterations": reg.iterations_run,
        "stop_reason": reg.stop_reason.value,
        "last_E": totals[-1],
        "lowest_E": totals[lowest],
        "lowest_E_iteration": lowest,
        "E_rises": rises,
    }


@pytest.mark.parametrize("nx,ny", [(10, 10), (64, 10)])
def test_run_case_refuses_a_grid_that_ssim_cannot_score_before_any_work(tmp_path, monkeypatch, nx, ny):
    """SSIM scores every case, so a grid its window does not fit raises
    with the other pre-checks: no directory is made and nothing is solved."""
    def register(*args):
        raise AssertionError("run_case registered a case that SSIM cannot score")

    monkeypatch.setattr(experiments, "register", register)
    case = replace(tiny_suite_case("small"), grid=Grid2D(nx, ny))
    with pytest.raises(ValueError, match=r"\(the SSIM window\), got 10"):
        run_case(case, tmp_path / "small")
    assert not (tmp_path / "small").exists()


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


def test_read_answers_reads_the_case_files(tmp_path):
    totals = [9.0, 7.5, 8.25, 6.0, 6.5, 7.0]
    write_case(tmp_path / "case_a", totals)
    rec = read_answers(tmp_path / "case_a")
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


def test_read_answers_keeps_the_first_of_equal_lowest_E(tmp_path):
    write_case(tmp_path / "case_a", [3.0, 2.0, 2.5, 2.0])
    rec = read_answers(tmp_path / "case_a")
    assert (rec["lowest_E"], rec["lowest_E_iteration"], rec["E_rises"]) == (2.0, 1, 1)


def test_read_answers_counts_no_rise_within_rounding(tmp_path):
    # E settled at 193.918714991416 and moving by an ulp or two, as in
    # suite 3's sigma 1, gamma 10 cell; then one rise of 1e-9 relative
    e = 193.918714991416
    up = math.nextafter(e, math.inf)
    totals = [200.0, e, up, e, up, math.nextafter(up, math.inf), e]
    write_case(tmp_path / "settled", totals)
    assert read_answers(tmp_path / "settled")["E_rises"] == 0
    write_case(tmp_path / "rising", totals + [e * (1 + 1e-9)])
    assert read_answers(tmp_path / "rising")["E_rises"] == 1
