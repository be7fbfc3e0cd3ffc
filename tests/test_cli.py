import csv
import dataclasses
import hashlib
import json
import math
import re
import struct
from pathlib import Path

import pytest

import tomoflow.cli as cli
import tomoflow.experiments as experiments
from conftest import tiny_suite_case
from tomoflow.cli import (
    EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, ConfigError, build_parser, load_experiment_config, main,
)
from tomoflow.experiments import SuiteCase
from tomoflow.io import read_igrd, read_isin
from tomoflow.phantom import NoiseSpec
from tomoflow.tv import TVConfig

README = Path(__file__).resolve().parents[1] / "README.md"

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
    assert case.noise == NoiseSpec(6.0, seed=11)
    assert case.fbp_freq_scaling is None and case.tv is None


def test_config_parses_baselines(tmp_path):
    path = tmp_path / "baselines.ini"
    path.write_text(CONFIG + "[fbp]\nfreq_scaling = 0.5\n\n[tv]\nmu = 2.0\n")
    case = load_experiment_config(path)
    assert case.fbp_freq_scaling == 0.5
    assert case.tv == TVConfig(mu=2.0)
    assert case.tv.n_iters == TVConfig.n_iters
    path.write_text(CONFIG + "[tv]\nmu = 2.0\nn_iters = 7\n")
    assert load_experiment_config(path).tv == TVConfig(mu=2.0, n_iters=7)


def test_config_rejects_old_tv_iters_key(tmp_path):
    path = tmp_path / "old.ini"
    path.write_text(CONFIG + "[tv]\nmu = 2.0\niters = 7\n")
    with pytest.raises(ConfigError, match=r"^unknown key 'iters' in section \[tv\]$"):
        load_experiment_config(path)


@pytest.mark.parametrize("old,new", [
    # an optional section appended after [registration], the last one of CONFIG
    pytest.param("max_iters = 3\n", "max_iters = 3\n\n[fbp]\nfreq_scaling = 1.5\n", id="fbp_freq_scaling_1.5"),
    pytest.param("max_iters = 3\n", "max_iters = 3\n\n[tv]\nmu = 0\n", id="tv_mu_0"),
    pytest.param("max_iters = 3\n", "max_iters = 3\n\n[tv]\nmu = 1.0\nn_iters = 0\n", id="tv_n_iters_0"),
    ("size = 32", "size = 1"),
    ("n_angles = 6", "n_angles = 0"),
    ("n_detectors = 48", "n_detectors = 1"),
    ("size = 32", "size = 8"),
])
def test_register_rejects_out_of_range_setting(tmp_path, capsys, old, new):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.replace(old, new))
    out = tmp_path / "results"
    assert main(["register", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert not out.exists()
    if old.startswith("n_"):  # a [geometry] key: the line names its section and the bad value
        value = new.split(" = ")[1]
        assert err[0].startswith("config error: invalid [geometry] ") and err[0].endswith(f"got {value}")
    if "freq_scaling" in new:  # checked by the rule that fbp applies, before anything is built
        assert err == ["config error: invalid [fbp] freq_scaling must be in (0, 1], got 1.5"]
    if new == "size = 8":  # too small for ssim, which scores the result: checked by ssim's rule
        assert err == ["config error: invalid [phantom] size must be at least 11 pixels (the SSIM window), got 8"]


@pytest.mark.parametrize("edit,out_name,code,line", [
    (None, "results", EXIT_USAGE, "config error: cannot read config file {config}"),
    (lambda text: text + "[extra]\nkey = 1\n", "results", EXIT_USAGE,
     "config error: unknown config section [extra]"),
    # configparser copies [DEFAULT]'s keys into every section: named as itself, not as the first section
    (lambda text: "[DEFAULT]\nn_steps = 5\n" + text, "results", EXIT_USAGE,
     "config error: unknown config section [DEFAULT]"),
    # the output directory is --out alone
    (lambda text: text + "[output]\ndir = results\n", "results", EXIT_USAGE,
     "config error: unknown config section [output]"),
    (lambda text: text.replace("[geometry]\nn_angles = 6\nn_detectors = 48\n", ""), "results", EXIT_USAGE,
     "config error: missing required section [geometry]"),
    (lambda text: text.replace("gamma = 1e-7\n", ""), "results", EXIT_USAGE,
     "config error: missing key 'gamma' in section [registration]"),
    (lambda text: text, "file/results", EXIT_IO, "i/o error: [Errno 20] Not a directory: '{out}'"),
    # configparser's own errors, flattened to one line
    (lambda text: text.replace("sigma = 4.0\n", "sigma = 4.0\nsigma = 5.0\n"), "results", EXIT_USAGE,
     "config error: cannot parse config file {config}: While reading from '{config}' [line 18]: "
     "option 'sigma' in section 'registration' already exists"),
    (lambda text: text + "[phantom]\nsize = 16\n", "results", EXIT_USAGE,
     "config error: cannot parse config file {config}: While reading from '{config}' [line 21]: "
     "section 'phantom' already exists"),
    (lambda text: "size = 32" + text, "results", EXIT_USAGE,
     "config error: cannot parse config file {config}: File contains no section headers. "
     "file: '{config}', line: 1 'size = 32\\n'"),
    (lambda text: text.replace("sigma = 4.0\n", "sigma = 4.0\nwhatever\n"), "results", EXIT_USAGE,
     "config error: cannot parse config file {config}: Source contains parsing errors: '{config}' "
     "[line 18]: 'whatever\\n'"),
    # a '%' is a plain character: no interpolation error, a value that does not parse
    (lambda text: text.replace("sigma = 4.0", "sigma = 6%"), "results", EXIT_USAGE,
     "config error: bad value for [registration] sigma = '6%': could not convert string to float: '6%'"),
    (lambda text: text.replace("sigma = 4.0", "sigma = %(size)s"), "results", EXIT_USAGE,
     "config error: bad value for [registration] sigma = '%(size)s': "
     "could not convert string to float: '%(size)s'"),
], ids=["unreadable_file", "unknown_section", "default_section", "output_section", "missing_section",
        "missing_key", "out_below_a_file", "duplicate_key", "duplicate_section", "no_section_header",
        "line_without_equals", "percent_sign", "interpolation_syntax"])
def test_register_error_paths(tmp_path, capsys, edit, out_name, code, line):
    """edit None leaves the config file unwritten."""
    config = tmp_path / "run.ini"
    if edit:
        config.write_text(edit(CONFIG))
    (tmp_path / "file").write_text("a regular file, not a directory")
    out = tmp_path / out_name
    assert main(["register", "--config", str(config), "--out", str(out)]) == code
    assert capsys.readouterr().err.strip().splitlines() == [line.format(config=config, out=out)]
    assert not out.exists()


def test_readme_config_is_suite_1(tmp_path):
    """The README's INI example loads as written, to suite 1's case."""
    block, = re.findall(r"^```ini\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    path = tmp_path / "suite1.ini"
    path.write_text(block)
    assert load_experiment_config(path) == experiments.suite_cases(1)[0]


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
    assert manifest["case"]["noise"]["seed"] == 11
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
    assert manifest["case"]["tv"] is None


def test_register_rerun_is_bit_identical(tmp_path, config_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["register", "--config", str(config_path), "--out", str(out1)]) == EXIT_OK
    assert main(["register", "--config", str(config_path), "--out", str(out2)]) == EXIT_OK
    for name in ("trajectory_005.igrd", "data.isin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_register_writes_the_same_run_wherever_out_points(tmp_path, config_path):
    case = experiments.case_record(load_experiment_config(config_path))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["register", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    manifests = [json.loads((out / "manifest.json").read_text()) for out in runs]
    assert [m["case"] for m in manifests] == [case, case]
    assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_register_writes_into_out_by_default(tmp_path, monkeypatch, config_path):
    monkeypatch.chdir(tmp_path)
    assert main(["register", "--config", str(config_path)]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.ini"]
    assert (tmp_path / "out" / "manifest.json").exists()


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
    args = build_parser().parse_args(["register", "--config", "run.ini", "--out", "d"])
    assert (args.config, args.out) == ("run.ini", "d")
    for flag in (["--log-csv", "log.csv"], ["--seed", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["register", "--config", "run.ini"] + flag)
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


@pytest.mark.parametrize("snr_db", ["nan", "-inf", "4000", "-4000"])
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
    assert err.strip().splitlines() == [f"config error: invalid [registration] {key} must be {bound} and finite, got nan"]
    assert not out.exists()


@pytest.mark.parametrize("old,new,message", [
    ("gamma = 1e-7", "gamma = inf", "[registration] gamma must be >= 0 and finite, got inf"),
    ("sigma = 4.0", "sigma = inf", "[registration] sigma must be > 0 and finite, got inf"),
    ("alpha = 0.02", "alpha = inf", "[registration] alpha must be > 0 and finite, got inf"),
    ("max_iters = 3\n", "max_iters = 3\n\n[tv]\nmu = inf\n", "[tv] mu must be > 0 and finite, got inf"),
    ("seed = 11", "seed = -1", "[noise] seed must be an integer >= 0, got -1"),
    ("snr_db = 6.0", "snr_db = 4000", "[noise] snr_db must be an SNR in [-3000, 3000] dB or inf, got 4000.0"),
], ids=["gamma", "sigma", "alpha", "tv_mu", "noise_seed", "noise_snr"])
def test_register_rejects_infinite_or_negative_setting(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.replace(old, new))
    out = tmp_path / "results"
    assert main(["register", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.strip().splitlines() == [f"config error: invalid {message}"]
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


def test_evaluate_file_with_trailing_bytes_is_usage_error(tmp_path, capsys):
    good = tmp_path / "good.igrd"
    bad = tmp_path / "bad.igrd"
    assert main(["phantom", "--kind", "shepp-logan", "--size", "16", "--out", str(good)]) == EXIT_OK
    bad.write_bytes(good.read_bytes() + bytes(2400))
    scores = tmp_path / "s.csv"
    rc = main(["evaluate", "--image", str(bad), "--reference", str(good), "--out", str(scores)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {bad}: 2400 bytes after the IGRD payload"]
    assert not scores.exists()


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


def test_project_rejects_one_detector(tmp_path, capsys):
    phantom_path = tmp_path / "p.igrd"
    sino_path = tmp_path / "p.isin"
    assert main(["phantom", "--kind", "shepp-logan", "--size", "16", "--out", str(phantom_path)]) == EXIT_OK
    rc = main(["project", "--image", str(phantom_path), "--angles", "4", "--detectors", "1",
               "--out", str(sino_path)])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.strip().splitlines() == ["error: n_detectors must be an integer >= 2, got 1"]
    assert not sino_path.exists()


def test_fbp_rejects_infinite_detector_extent(tmp_path, capsys):
    phantom_path = tmp_path / "p.igrd"
    sino_path = tmp_path / "p.isin"
    assert main(["phantom", "--kind", "shepp-logan", "--size", "16", "--out", str(phantom_path)]) == EXIT_OK
    assert main(["project", "--image", str(phantom_path), "--angles", "4", "--detectors", "24",
                 "--out", str(sino_path)]) == EXIT_OK
    raw = bytearray(sino_path.read_bytes())
    raw[13:29] = struct.pack("<dd", -math.inf, math.inf)  # s_min, s_max after magic, version, sizes
    sino_path.write_bytes(bytes(raw))
    rec_path = tmp_path / "rec.igrd"
    rc = main(["fbp", "--sinogram", str(sino_path), "--size", "16", "--out", str(rec_path)])
    assert rc == EXIT_USAGE
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.igrd", "p.isin", "p.pgm"]


def test_unknown_phantom_kind_exit(tmp_path):
    rc = main(["phantom", "--kind", "nonsense", "--size", "16", "--out", str(tmp_path / "x.igrd")])
    assert rc == EXIT_USAGE


def test_invalid_suite_id(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default --out, suite9_out, is made here if anywhere
    assert main(["suite", "--id", "9"]) == EXIT_USAGE
    assert capsys.readouterr().err.strip().splitlines() == ["error: unknown suite id 9; valid ids: (1, 2, 3, 4)"]
    assert not any(tmp_path.iterdir())


def count_calls(monkeypatch, module, names):
    """Wrap the named functions where ``module`` looks them up; the returned
    dict counts each one's calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv, out", [
    (["register", "--config", "{config}", "--out", "{file}/run"], "{file}/run"),
    (["suite", "--id", "1", "--out", "{file}/s"], "{file}/s/suite1"),
], ids=["register", "suite"])
def test_an_output_directory_below_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch, argv, out):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    file = tmp_path / "file"
    file.write_text("a regular file, not a directory")
    calls = count_calls(monkeypatch, experiments, ["register", "fbp", "tv_reconstruct"])
    assert main([arg.format(config=config, file=file) for arg in argv]) == EXIT_IO
    assert capsys.readouterr().err.strip().splitlines() == [
        f"i/o error: [Errno 20] Not a directory: '{out.format(file=file)}'"]
    assert calls == {"register": 0, "fbp": 0, "tv_reconstruct": 0}


IMAGE_COMMANDS = {
    "phantom": ["phantom", "--kind", "shepp-logan", "--size", "16"],
    "fbp": ["fbp", "--sinogram", "{sino}", "--size", "16"],
    "tv": ["tv", "--sinogram", "{sino}", "--size", "16", "--mu", "1.0", "--iters", "5"],
}


@pytest.mark.parametrize("command", list(IMAGE_COMMANDS))
def test_image_commands_write_a_preview_and_refuse_a_pgm_out(tmp_path, capsys, monkeypatch, command):
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    sino = inputs / "p.isin"
    assert main(["phantom", "--kind", "shepp-logan", "--size", "16", "--out", str(inputs / "p.igrd")]) == EXIT_OK
    assert main(["project", "--image", str(inputs / "p.igrd"), "--angles", "4", "--detectors", "24",
                 "--out", str(sino)]) == EXIT_OK
    argv = [arg.format(sino=sino) for arg in IMAGE_COMMANDS[command]]
    assert main(argv + ["--out", str(outputs / "rec.igrd")]) == EXIT_OK
    assert sorted(p.name for p in outputs.iterdir()) == ["rec.igrd", "rec.pgm"]
    assert read_igrd(outputs / "rec.igrd").grid.nx == 16
    assert (outputs / "rec.pgm").read_bytes().startswith(b"P5\n16 16\n65535\n")
    (outputs / "rec.igrd").unlink()
    (outputs / "rec.pgm").unlink()
    capsys.readouterr()
    # the preview would overwrite the image it was made from: refused before
    # the command reads or computes anything
    calls = count_calls(monkeypatch, cli, ["make_phantom", "read_isin", "fbp", "tv_reconstruct"])
    bad = outputs / "rec.pgm"
    assert main(argv + ["--out", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {bad}: an image path must not end in .pgm, the suffix of its preview"]
    assert not any(outputs.iterdir())
    assert calls == {"make_phantom": 0, "read_isin": 0, "fbp": 0, "tv_reconstruct": 0}


def test_phantom_has_no_preview_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["phantom", "--kind", "shepp-logan", "--size", "16", "--preview", "--out", str(tmp_path / "p.igrd")])
    assert exc.value.code == EXIT_USAGE
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["IGRD", "ISIN"])
def test_unsupported_format_version_is_usage_error(tmp_path, capsys, kind):
    phantom_path = tmp_path / "p.igrd"
    sino_path = tmp_path / "p.isin"
    assert main(["phantom", "--kind", "shepp-logan", "--size", "16", "--out", str(phantom_path)]) == EXIT_OK
    assert main(["project", "--image", str(phantom_path), "--angles", "4", "--detectors", "24",
                 "--out", str(sino_path)]) == EXIT_OK
    bad = phantom_path if kind == "IGRD" else sino_path
    raw = bytearray(bad.read_bytes())
    raw[4] = 2  # the version byte after the magic
    bad.write_bytes(bytes(raw))
    out = tmp_path / "result.igrd"
    if kind == "IGRD":
        argv = ["evaluate", "--image", str(bad), "--reference", str(bad), "--out", str(out)]
    else:
        argv = ["fbp", "--sinogram", str(bad), "--size", "16", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {bad}: unsupported {kind} version 2"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.igrd", "p.isin", "p.pgm"]


def test_suite_reports_each_numerical_failure(tmp_path, capsys, monkeypatch):
    cases = [tiny_suite_case("calm"), tiny_suite_case("violent_a", alpha=1e6, n_steps=2),
             tiny_suite_case("violent_b", alpha=1e6, n_steps=2)]
    monkeypatch.setattr(experiments, "suite_cases", lambda suite_id, full=False: cases)
    assert main(["suite", "--id", "1", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    out = captured.out.strip().splitlines()
    assert [line.split(":")[0] for line in out] == ["calm", "violent_a", "violent_b"]
    assert out[0].endswith("stop=max_iters")
    assert all(line.endswith("stop=numerical_failure") for line in out[1:])
    err = captured.err.strip().splitlines()
    assert [line.split(": ", 1)[0] for line in err] == ["violent_a", "violent_b"]
    assert all("time index" in line for line in err)
    for case in cases:  # a failed case still writes its files
        assert (tmp_path / case.name / "metrics.csv").exists()


# each INI section with the keys that make it whole, for the sections that
# CONFIG leaves out
OPTIONAL_SECTIONS = {"fbp": "freq_scaling = 0.5\n", "tv": "mu = 1.0\n"}


def with_section_keys(section, keys):
    """CONFIG with ``keys`` added to ``section``."""
    if f"[{section}]\n" in CONFIG:
        return CONFIG.replace(f"[{section}]\n", f"[{section}]\n{keys}")
    return CONFIG + f"\n[{section}]\n{OPTIONAL_SECTIONS[section]}{keys}"


@pytest.mark.parametrize("section,key", [
    ("phantom", "whatever"), ("geometry", "whatever"), ("noise", "whatever"), ("registration", "whatever"),
    ("fbp", "whatever"), ("tv", "whatever"),
    ("geometry", "grid"),  # the reader passes the grid itself
])
def test_every_section_rejects_an_unknown_key(tmp_path, capsys, section, key):
    path = tmp_path / "bad.ini"
    path.write_text(with_section_keys(section, f"{key} = 1\n"))
    out = tmp_path / "results"
    assert main(["register", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: unknown key {key!r} in section [{section}]"]
    assert not out.exists()


@pytest.mark.parametrize("section,key", [
    ("phantom", "size"), ("phantom", "template_kind"), ("phantom", "target_kind"),
    ("geometry", "n_angles"), ("geometry", "n_detectors"), ("noise", "snr_db"),
    ("registration", "gamma"), ("registration", "sigma"), ("registration", "alpha"),
    ("tv", "mu"), ("fbp", "freq_scaling"),
])
def test_every_required_key_is_named_when_missing(tmp_path, capsys, section, key):
    text = with_section_keys(section, "")
    path = tmp_path / "bad.ini"
    path.write_text(re.sub(rf"^{key} = .*\n", "", text, flags=re.MULTILINE))
    out = tmp_path / "results"
    assert main(["register", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.strip().splitlines() == [
        f"config error: missing key {key!r} in section [{section}]"]
    assert not out.exists()


@pytest.mark.parametrize("edit,stop", [
    (lambda text: text, "max_iters"),
    (lambda text: text.replace("alpha = 0.02", "alpha = 1e6").replace("n_steps = 5", "n_steps = 2"),
     "numerical_failure"),
], ids=["calm", "violent"])
def test_register_reports_its_case_as_suite_does(tmp_path, capsys, edit, stop):
    path = tmp_path / "run.ini"
    path.write_text(edit(CONFIG))
    out = tmp_path / "results"
    code = EXIT_OK if stop == "max_iters" else EXIT_NUMERICAL
    assert main(["register", "--config", str(path), "--out", str(out)]) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert re.fullmatch(rf"run: ssim=(-?\d+\.\d{{4}}) psnr=(-?\d+\.\d{{2}}) stop={stop}", lines[0])
    with open(out / "metrics.csv") as fh:
        row = next(csv.DictReader(fh))
    assert lines[0] == (f"run: ssim={float(row['ssim']):.4f} psnr={float(row['psnr_db']):.2f} "
                        f"stop={row['stop_reason']}")
    err = captured.err.splitlines()
    if stop == "max_iters":
        assert err == []
    else:
        assert len(err) == 1
        assert err[0].startswith("run: stopped on numerical failure (iteration ")
        assert err[0].endswith("); last finite iterate written")


SINGLE_STEP_COMMANDS = {
    "phantom": ["phantom", "--kind", "shepp-logan", "--size", "16", "--out", "{out}.igrd"],
    "project": ["project", "--image", "{image}", "--angles", "4", "--detectors", "24", "--out", "{out}.isin"],
    "noise": ["noise", "--sinogram", "{sino}", "--snr-db", "10", "--out", "{out}.isin"],
    "fbp": ["fbp", "--sinogram", "{sino}", "--size", "16", "--out", "{out}.igrd"],
    "tv": ["tv", "--sinogram", "{sino}", "--size", "16", "--mu", "1.0", "--iters", "5", "--out", "{out}.igrd"],
    "evaluate": ["evaluate", "--image", "{image}", "--reference", "{image}", "--out", "{out}.csv"],
}
OUT_BELOW = {  # an --out whose directory cannot be written into, and the errno that writing it raises
    "file": ("file/x", "[Errno 20] Not a directory"),
    "below_file": ("file/sub/x", "[Errno 20] Not a directory"),
    "missing_dir": ("missing/x", "[Errno 2] No such file or directory"),
}


@pytest.mark.parametrize("where", list(OUT_BELOW))
@pytest.mark.parametrize("command", list(SINGLE_STEP_COMMANDS))
def test_single_step_commands_check_their_output_directory_first(tmp_path, capsys, monkeypatch, command, where):
    image, sino = tmp_path / "p.igrd", tmp_path / "p.isin"
    assert main(["phantom", "--kind", "shepp-logan", "--size", "16", "--out", str(image)]) == EXIT_OK
    assert main(["project", "--image", str(image), "--angles", "4", "--detectors", "24",
                 "--out", str(sino)]) == EXIT_OK
    (tmp_path / "file").write_text("a regular file, not a directory")
    capsys.readouterr()
    below, error = OUT_BELOW[where]
    argv = [arg.format(image=image, sino=sino, out=tmp_path / below) for arg in SINGLE_STEP_COMMANDS[command]]
    calls = count_calls(monkeypatch, cli, ["make_phantom", "read_igrd", "read_isin", "ray_transform", "add_noise",
                                           "fbp", "tv_reconstruct", "ssim", "psnr"])
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err.strip().splitlines() == [f"i/o error: {error}: '{argv[-1]}'"]
    assert not any(calls.values())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "p.igrd", "p.isin", "p.pgm"]
