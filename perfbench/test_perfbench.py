"""Tests of the benchmark itself, at tiny iteration budgets.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = "2"  # iterations

# Calls per objective evaluation at n_steps = 20: three chains of 20
# pulls, 20 Jacobian steps each with a step-factor check, one gradient
# and one smoothing per time sample, one projection each way.
EXPECTED_PER_EVAL = {
    "objective.evaluate_objective": 1,
    "objective.objective_gradient": 1,
    "flow.build_flow_chain": 1,
    "flow.attach_backprop_field": 1,
    "grid.sample_bilinear": 60,
    "grid.divergence": 40,
    "grid.gradient": 21,
    "kernel.smooth": 21,
    "action.deform": 1,
    "tomo.ray_transform": 1,
    "tomo.back_projection": 1,
}


def bench(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def traced(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--mode", "traced",
         "--budget", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name):
    code, lines = bench("--workload", name, "--seed", "7", "--seconds", "0", "--trace", "0",
                        "--budget", TINY)
    assert code == 0
    env = json.loads(lines[-2].removeprefix("env "))
    assert env["nproc"] >= 1 and env["numpy"] and env["scipy"]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_trace_counts_are_exact_and_repeat(name):
    first, second = traced(name), traced(name)
    assert first["trace"]["absent"] == []
    assert first["trace"]["per_eval"] == EXPECTED_PER_EVAL
    calls = [{k: s["calls"] for k, s in r["trace"]["spans"].items()} for r in (first, second)]
    assert calls[0] == calls[1]
    for key in worker.ANSWER_KEYS:
        assert first[key] == second[key]


def test_traced_run_reports_every_per_layer_metric():
    code, lines = bench("--workload", "star64_geometric", "--seconds", "0", "--trace", "1",
                        "--budget", TINY)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 2
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    evals = int(TINY) + 1
    assert metrics["optimize.register.evals"] == evals
    assert metrics["grid.sample_bilinear.calls"] == 60 * evals
    assert metrics["grid.sample_bilinear.bytes_computed"] == 60 * evals * 4 * 8 * 64 * 64
    # set-up projection plus one per evaluation; TV and FBP baselines once
    assert metrics["tomo.ray_transform.calls"] == 1 + evals
    assert metrics["tv.tv_reconstruct.calls"] == 1 and metrics["tomo.fbp.calls"] == 1
    assert metrics["tomo.ray_transform.first_s"] > 0
    assert metrics["optimize.register.self_s"] < metrics["optimize.register.s"]


def test_missing_function_is_reported_absent(monkeypatch):
    worker.import_tomoflow()
    monkeypatch.setattr(tracer, "TRACED", (("grid", "renamed_away"), ("no_such_module", "f")))
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["grid.renamed_away", "no_such_module.f"]
    assert t.spans == {}


def test_failed_check_is_reported():
    w = WORKLOADS["star64_geometric"].with_budget(1)
    wrong = replace(w, reference={"ssim": 0.5, "psnr_db": 100.0, "ssim_fbp": 0.1366})
    out = worker.run(wrong, wrong.default_seed, "solve", 0.0)
    assert out["failed_checks"] == ["reference_ssim", "reference_psnr_db"]
    assert worker.run(wrong, wrong.default_seed + 1, "solve", 0.0)["failed_checks"] == []


def test_exits_nonzero_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "star64_geometric",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
