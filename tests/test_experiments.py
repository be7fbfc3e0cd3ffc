"""The suite-3 score table, written from each cell's scores."""

from tomoflow.experiments import CaseResult, _write_suite3_table, suite_cases


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
