import csv
import dataclasses
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest

from tomoflow.cli import (
    EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, ConfigError, build_parser, load_experiment_config, main,
)
from tomoflow.experiments import SuiteCase
from tomoflow.io import read_igrd, read_isin

CONFIG = """
[phantom]
template_kind = single-star-template
target_kind = single-star-target
size = 32

[geometry]
n_angles = 6
n_detectors = 48

[noise]
snr_db = 6.0
seed = 11

[registration]
gamma = 1e-7
sigma = 4.0
alpha = 0.02
n_steps = 5
max_iters = 3

[output]
dir = out
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return path


def test_config_parses(config_path):
    case = load_experiment_config(config_path)
    assert case.name == "run"
    assert case.grid.nx == case.grid.ny == 32
    assert case.cfg.n_steps == 5
    assert case.noise_seed == 11
    assert case.fbp_freq_scaling is None and case.tv_mu is None


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.replace("sigma = 4.0", "sigma = 4.0\nwhatever = 1"))
    with pytest.raises(ConfigError, match="whatever"):
        load_experiment_config(path)


def test_config_rejects_bad_sigma(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.replace("sigma = 4.0", "sigma = 0"))
    with pytest.raises(ConfigError, match="sigma"):
        load_experiment_config(path)


@pytest.mark.parametrize("key", ["n_steps", "max_iters", "grad_tol", "action"])
def test_config_error_names_registration_key(tmp_path, key):
    path = tmp_path / "bad.ini"
    text = CONFIG.replace("n_steps = 5\n", "").replace("max_iters = 3\n", "")
    path.write_text(text.replace("alpha = 0.02", f"alpha = 0.02\n{key} = five"))
    with pytest.raises(ConfigError, match=rf"^bad value for \[registration\] {key} = 'five': "):
        load_experiment_config(path)


def test_register_command_outputs(tmp_path, config_path):
    out = tmp_path / "results"
    rc = main(["register", "--config", str(config_path), "--out", str(out)])
    assert rc == EXIT_OK
    trajectories = sorted(out.glob("trajectory_*.igrd"))
    assert len(trajectories) == 6  # n_steps + 1
    assert (out / "objective.csv").exists()
    assert (out / "metrics.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["case"]["noise_seed"] == 11
    assert len(manifest["config_sha256"]) == 64
    assert "numpy" in manifest["versions"]
    with open(out / "objective.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # max_iters + 1 evaluations
    assert float(rows[-1]["total"]) < float(rows[0]["total"])


def test_manifest_holds_the_case_record_it_hashes(tmp_path, config_path):
    out = tmp_path / "results"
    assert main(["register", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    canonical = json.dumps(manifest["case"], sort_keys=True)
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == manifest["config_sha256"]
    assert set(manifest["case"]) == {f.name for f in dataclasses.fields(SuiteCase)}
    assert manifest["case"]["cfg"]["action"] == "geometric"
    assert manifest["case"]["template_kind"] == "single-star-template"
    assert manifest["case"]["tv_mu"] is None


def test_register_rerun_is_bit_identical(tmp_path, config_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["register", "--config", str(config_path), "--out", str(out1)]) == EXIT_OK
    assert main(["register", "--config", str(config_path), "--out", str(out2)]) == EXIT_OK
    for name in ("trajectory_005.igrd", "data.isin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_register_without_noise_section(tmp_path):
    path = tmp_path / "clean.ini"
    path.write_text(CONFIG.replace("[noise]\nsnr_db = 6.0\nseed = 11\n", ""))
    out = tmp_path / "results"
    assert main(["register", "--config", str(path), "--out", str(out)]) == EXIT_OK
    with open(out / "metrics.csv") as fh:
        row = next(csv.DictReader(fh))
    assert list(row) == ["name", "ssim", "psnr_db", "snr_db", "iterations", "stop_reason"]
    assert row["name"] == "clean"
    assert math.isinf(float(row["snr_db"]))
    assert row["iterations"] == "3"


def test_register_and_suite_take_their_own_flags():
    args = build_parser().parse_args(["register", "--config", "run.ini", "--out", "d", "--seed", "5"])
    assert (args.out, args.seed) == ("d", 5)
    with pytest.raises(SystemExit) as exc:
        main(["register", "--config", "run.ini", "--log-csv", "log.csv"])
    assert exc.value.code == EXIT_USAGE
    args = build_parser().parse_args(["suite", "--id", "1", "--out", "d"])
    assert (args.id, args.out) == (1, "d")
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "suite", "--id", "1", "--out", "d"])
    assert exc.value.code == EXIT_USAGE


def test_register_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.replace("sigma = 4.0", "sigma = 0"))
    rc = main(["register", "--config", str(path)])
    assert rc == EXIT_USAGE


def test_register_numerical_failure_reports_detail(tmp_path, capsys):
    path = tmp_path / "violent.ini"
    path.write_text(CONFIG.replace("alpha = 0.02", "alpha = 1e6").replace("n_steps = 5", "n_steps = 2"))
    rc = main(["register", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "time index" in err


@pytest.mark.parametrize("snr_db", ["nan", "-inf"])
def test_noise_rejects_undefined_snr(tmp_path, capsys, snr_db):
    phantom_path = tmp_path / "p.igrd"
    sino_path = tmp_path / "clean.isin"
    noisy_path = tmp_path / "noisy.isin"
    assert main(["phantom", "--kind", "shepp-logan", "--size", "16", "--out", str(phantom_path)]) == EXIT_OK
    assert main(["project", "--image", str(phantom_path), "--angles", "4", "--detectors", "24",
                 "--out", str(sino_path)]) == EXIT_OK
    rc = main(["noise", "--sinogram", str(sino_path), f"--snr-db={snr_db}", "--out", str(noisy_path)])
    assert rc == EXIT_USAGE
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not noisy_path.exists()


def test_register_rejects_nan_snr(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text(CONFIG.replace("snr_db = 6.0", "snr_db = nan"))
    out = tmp_path / "results"
    assert main(["register", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("key,bound", [("gamma", ">= 0"), ("sigma", "> 0"), ("alpha", "> 0")])
def test_register_rejects_nan_registration_value(tmp_path, capsys, key, bound):
    path = tmp_path / "nan.ini"
    path.write_text(re.sub(rf"^{key} = .*$", f"{key} = nan", CONFIG, flags=re.MULTILINE))
    out = tmp_path / "results"
    assert main(["register", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [f"config error: invalid [registration] {key} must be {bound}, got nan"]
    assert not out.exists()


def test_evaluate_non_finite_image_is_usage_error(tmp_path, capsys):
    good = tmp_path / "good.igrd"
    bad = tmp_path / "bad.igrd"
    assert main(["phantom", "--kind", "shepp-logan", "--size", "16", "--out", str(good)]) == EXIT_OK
    raw = bytearray(good.read_bytes())
    raw[-8:] = struct.pack("<d", math.nan)
    bad.write_bytes(bytes(raw))
    scores = tmp_path / "s.csv"
    rc = main(["evaluate", "--image", str(bad), "--reference", str(good), "--out", str(scores)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [f"error: {bad}: non-finite value in IGRD payload"]
    assert not scores.exists()


def test_evaluate_truncated_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.igrd"
    bad.write_bytes(b"IGRD\x01\x00")
    rc = main(["evaluate", "--image", str(bad), "--reference", str(bad), "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [f"error: {bad}: truncated IGRD header"]


def test_evaluate_oversized_header_is_usage_error(tmp_path, capsys):
    # a 61-byte IGRD file (45-byte header, 16 payload bytes) declaring 2^32-1 x 2^32-1
    bad = tmp_path / "huge.igrd"
    bad.write_bytes(b"IGRD\x01" + struct.pack("<IIdddd", 2**32 - 1, 2**32 - 1, -1.0, 1.0, -1.0, 1.0)
                    + bytes(16))
    assert bad.stat().st_size == 61
    rc = main(["evaluate", "--image", str(bad), "--reference", str(bad), "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [f"error: {bad}: truncated IGRD payload"]


def test_phantom_project_noise_fbp_tv_evaluate_pipeline(tmp_path):
    phantom_path = tmp_path / "target.igrd"
    sino_path = tmp_path / "clean.isin"
    noisy_path = tmp_path / "noisy.isin"
    fbp_path = tmp_path / "fbp.igrd"
    tv_path = tmp_path / "tv.igrd"
    eval_path = tmp_path / "scores.csv"

    assert main(["phantom", "--kind", "shepp-logan", "--size", "32", "--out", str(phantom_path)]) == EXIT_OK
    assert main(["project", "--image", str(phantom_path), "--angles", "12", "--detectors", "48",
                 "--out", str(sino_path)]) == EXIT_OK
    assert main(["noise", "--sinogram", str(sino_path), "--snr-db", "10", "--seed", "3",
                 "--out", str(noisy_path)]) == EXIT_OK
    assert main(["fbp", "--sinogram", str(noisy_path), "--size", "32", "--freq-scaling", "0.6",
                 "--out", str(fbp_path)]) == EXIT_OK
    assert main(["tv", "--sinogram", str(noisy_path), "--size", "32", "--mu", "1.0",
                 "--iters", "50", "--out", str(tv_path)]) == EXIT_OK
    assert main(["evaluate", "--image", str(fbp_path), "--reference", str(phantom_path),
                 "--out", str(eval_path)]) == EXIT_OK

    img = read_igrd(fbp_path)
    assert img.grid.nx == 32
    sino = read_isin(noisy_path)
    assert sino.geometry.n_angles == 12
    with open(eval_path) as fh:
        row = next(csv.DictReader(fh))
    assert 0.0 < float(row["ssim"]) <= 1.0


def test_unknown_phantom_kind_exit(tmp_path):
    rc = main(["phantom", "--kind", "nonsense", "--size", "16", "--out", str(tmp_path / "x.igrd")])
    assert rc == EXIT_USAGE


def test_invalid_suite_id():
    assert main(["suite", "--id", "9"]) == EXIT_USAGE
