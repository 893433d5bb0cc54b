"""Tests of the benchmark itself: call counts, checks, determinism, contract.

Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import dctau  # noqa: E402
from dctau import experiment  # noqa: E402
from dctau.experiment import run_experiment  # noqa: E402

import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A small cli_score split keeps set-up and each eval short.
SMALL_CLI = {"class_count": 10, "known_count": 6, "per_class": 60}


def _traced(wl, seconds=0.0):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.span("setup", "setup", wl.setup)
    finally:
        tracer.uninstall()
    ops = runner.run_ops(wl, seconds, 2, tracer)
    return tracer, ops


def _steps(wl) -> int:
    """Training steps of one operation, from the config: epoch_batches folds a 1-row tail."""
    cfg = wl.config(0)
    rows = experiment.make_split(cfg).train.n_rows
    batches = -(-rows // cfg.batch_size) - (rows % cfg.batch_size == 1)
    return cfg.contrastive_epochs * batches


def _layers(tracer, ops):
    assert all(not op.error for op in ops), [op.error for op in ops]
    return runner.per_layer(tracer, ops)


def test_install_leaves_no_untraced_binding_and_uninstall_restores():
    modules = [m for n, m in sys.modules.items() if n == "dctau" or n.startswith("dctau.")]
    originals = {
        id(getattr(sys.modules[mod], attr)): (mod, attr) for _, mod, attr in tracing.TRACED
    }
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        leftovers = [
            (m.__name__, k) for m in modules for k, v in vars(m).items() if id(v) in originals
        ]
        assert leftovers == []
        # the attribute the trainer looks up is wrapped, not only the definition
        assert dctau.model.make_universum.perfbench_original is dctau.universum.make_universum.perfbench_original
        assert dctau.cli.oscr_curve.perfbench_original is not None
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before


def test_train_dual_counts_one_universum_and_one_loss_call_per_step(tmp_path):
    wl = workloads.WORKLOADS["train_dual"](3, str(tmp_path))
    tracer, ops = _traced(wl)
    values = _layers(tracer, ops)
    steps = _steps(wl)
    assert steps == wl.base.contrastive_epochs * 5
    assert values["universum.calls"] == values["losses.calls"] == steps
    assert values["losses.supcon_s"] == 0.0 and values["losses.dc_total_s"] > 0.0
    # every step embeds its batch plus one universum row per anchor
    train_rows = ops[0].rows // wl.base.contrastive_epochs
    assert values["model.rows_embedded"] == 2 * wl.base.contrastive_epochs * train_rows
    assert values["metrics.oscr_curve_calls"] == 1
    assert values["trace_overhead"] > 0.0


def test_train_supcon_never_builds_universum_rows(tmp_path):
    wl = workloads.WORKLOADS["train_supcon"](3, str(tmp_path))
    tracer, ops = _traced(wl)
    values = _layers(tracer, ops)
    assert values["universum.calls"] == 0
    assert values["universum.make_universum_s"] == 0.0
    assert values["losses.calls"] == _steps(wl)
    assert values["losses.dc_total_s"] == 0.0 and values["losses.supcon_s"] > 0.0


def test_cli_score_computes_the_oscr_curve_twice_per_eval(tmp_path):
    wl = workloads.CliScoreWorkload(5, str(tmp_path), data=SMALL_CLI)
    tracer, ops = _traced(wl)
    values = _layers(tracer, ops)
    assert values["metrics.oscr_curve_calls"] == 2
    assert values["universum.calls"] == 0 and values["model.train_classifier_s"] == 0.0
    assert values["data.read_csv_s"] > 0.0 and values["checkpoint.load_s"] > 0.0
    assert values["data.write_csv_s"] > 0.0 and values["checkpoint.save_s"] > 0.0
    ckpt = os.path.join(wl.model_dir, "checkpoint.bin")
    assert values["checkpoint.bytes"] == os.path.getsize(ckpt) + os.path.getsize(ckpt + ".json")
    assert values["metrics.curve_points"] > 0
    spans_path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(spans_path)
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert len(spans) == len(tracer.spans)
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_train_dual_auroc_is_bitwise_a_direct_run_experiment(tmp_path):
    wl = workloads.WORKLOADS["train_dual"](11, str(tmp_path))
    ops = runner.run_ops(wl, 0.0, 2)
    for op in ops:
        cfg = dataclasses.replace(workloads.DIRECTIONAL, seed=workloads.op_seed(11, op.index))
        assert op.report["auroc"] == run_experiment(cfg)[2].auroc


def test_a_metric_outside_the_unit_interval_fails_the_check():
    report = {"auroc": 0.7, "oscr": float("nan"), "macro_f1": 0.5, "closed_accuracy": 0.5}
    with pytest.raises(workloads.CheckFailed, match="oscr"):
        workloads.check_report(report)


def test_a_training_workload_at_chance_fails_its_operations(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["train_supcon"](2, str(tmp_path))
    monkeypatch.setattr(experiment, "auroc", lambda known, unknown: 0.5)
    ops = runner.run_ops(wl, 0.0, runner.QUALITY_OPS)
    runner.check_quality(wl, ops)
    assert all("does not beat 0.5" in op.error for op in ops)


def test_a_cli_report_that_differs_from_in_process_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.CliScoreWorkload(5, str(tmp_path), data=SMALL_CLI)
    wl.setup()
    real = dctau.cli.evaluate_params

    def off_by_one_ulp(params, split, cfg):
        report = real(params, split, cfg)
        return dataclasses.replace(report, oscr=float(np.nextafter(report.oscr, 0)))

    monkeypatch.setattr(dctau.cli, "evaluate_params", off_by_one_ulp)
    ops = runner.run_ops(wl, 0.0, 1)
    assert ops[0].error and "differs from evaluate_params" in ops[0].error


def test_a_failing_oracle_fails_the_invocation(tmp_path, monkeypatch):
    bad = dctau.verify.CheckResult("injected", False, "wrong on purpose")
    monkeypatch.setattr(runner, "run_all", lambda quiet: [bad])
    with pytest.raises(runner.OracleFailed, match="injected"):
        runner.measure("train_supcon", 0, 0.0, False, str(tmp_path), 0.0)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in runner.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in runner.PER_LAYER
    ]


def test_launcher_prints_the_contract_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_supcon", "--seed", "4",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in runner.END_TO_END}


def test_launcher_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_dual", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
