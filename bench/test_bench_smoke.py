"""Smoke test of the benchmark: each workload at a tiny size, untraced and
traced, through the same command line the benchmark is run with."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# every per-layer figure a traced run writes to its result file; the ones
# some workload never exercises are left out of BENCHMARK.json
LAYER_REPORT = [
    "cli.simulate_s", "funnel_sim.generate_s", "funnel_sim.observe_s",
    "funnel_sim.save_counterfactuals_s", "funnel_sim.load_counterfactuals_s",
    "dataset.save_csv_s", "dataset.load_csv_s", "dataset.csv_bytes", "dataset.batches_s",
    "dataset.batches_calls", "dataset.make_batch_s", "model.forward_s",
    "model.forward_calls", "model.predict_probs_s", "model.predict_probs_calls",
    "model.predict_probs_rows", "model.make_fused_forward_s", "model.save_checkpoint_s",
    "model.load_checkpoint_s", "loss.total_loss_s", "loss.fast_value_s",
    "loss.fast_value_calls", "numerics.backward_sweep_s", "numerics.tape_nodes_per_step",
    "numerics.finite_diff_check_s", "trainer.adam_step_s", "trainer.steps",
    "trainer.epochs", "trainer.train_run_s", "trainer.diagnostics_share",
    "evaluation.auc_s", "evaluation.auc_calls", "evaluation.evaluate_s",
]


def run_bench(cwd: Path, workload: str, trace: int, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(tmp_path, workload, trace):
    proc = run_bench(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    for name in result["metrics"]:
        assert NAME.fullmatch(name), name
    if trace:
        saved = json.loads((tmp_path / ".bench_out" /
                            f"result-{workload}-seed7-trace1.json").read_text())
        layers = saved["per_layer"]
        assert set(LAYER_REPORT) <= set(layers)
        assert 0 <= layers["trace.unaccounted_s"] < layers["trace.wall_s"]


def test_without_program_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
