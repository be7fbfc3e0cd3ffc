"""The suite-3 score table, written from each cell's scores, and the
paper-scale suite sizes."""

import csv
from dataclasses import replace

import pytest

import tomoflow.experiments as experiments
from conftest import tiny_suite_case
from tomoflow import Grid2D
from tomoflow.experiments import CaseResult, _write_suite3_table, run_suite, suite_cases


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
