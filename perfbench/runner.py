"""Measurement loops, metric definitions and the environment record.

Import this module only after the BLAS thread count is pinned (run.py
does that): numpy reads it once, at import.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from dctau.verify import run_all
from tracing import Tracer
from workloads import QUALITY, SETUP_REPEATS, WORKLOADS

# Quality metrics are the mean over the first QUALITY_OPS operations, which
# every run completes, so that they are deterministic at a fixed seed.
QUALITY_OPS = 10

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("rows_per_s", "rows/s", "higher"),
    ("auroc", "fraction", "higher"),
    ("oscr", "fraction", "higher"),
    ("macro_f1", "fraction", "higher"),
    ("closed_accuracy", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# (name, unit, better, span name or None, span field). Times and counts
# are per traced operation (median over them); the write-side metrics run
# only in set-up and are per set-up repeat.
PER_LAYER = (
    ("universum.make_universum_s", "s", "lower", "universum.make_universum", "s"),
    ("universum.calls", "count", "lower", "universum.make_universum", "calls"),
    ("losses.dc_total_s", "s", "lower", "losses.dc_total", "s"),
    ("losses.supcon_s", "s", "lower", "losses.supcon", "s"),
    ("losses.calls", "count", "lower", None, None),
    ("losses.skipped_share", "fraction", "lower", None, None),
    ("model.embed_s", "s", "lower", "model.embed", "s"),
    ("model.backprop_embedding_s", "s", "lower", "model.backprop_embedding", "s"),
    ("model.optimizer_step_s", "s", "lower", "model.optimizer_step", "s"),
    ("model.train_classifier_s", "s", "lower", "model.train_classifier", "s"),
    ("model.train_contrastive_self_s", "s", "lower", "model.train_contrastive", "self_s"),
    ("model.posteriors_s", "s", "lower", "model.posteriors", "s"),
    ("model.rows_embedded", "count", "lower", None, None),
    ("data.batching_s", "s", "lower", None, None),
    ("data.read_csv_s", "s", "lower", "data.read_csv", "s"),
    ("data.write_csv_s", "s", "lower", "data.write_csv", "s"),
    ("checkpoint.load_s", "s", "lower", "checkpoint.load", "s"),
    ("checkpoint.save_s", "s", "lower", "checkpoint.save", "s"),
    ("checkpoint.bytes", "bytes", "lower", None, None),
    ("metrics.oscr_curve_s", "s", "lower", "metrics.oscr_curve", "s"),
    ("metrics.oscr_s", "s", "lower", "metrics.oscr", "s"),
    ("metrics.oscr_curve_calls", "count", "lower", "metrics.oscr_curve", "calls"),
    ("metrics.curve_points", "count", "lower", None, None),
    ("metrics.auroc_s", "s", "lower", "metrics.auroc", "s"),
    ("openset.fit_thresholds_s", "s", "lower", "openset.fit_thresholds", "s"),
    ("openset.predict_open_many_s", "s", "lower", "openset.predict_open_many", "s"),
    ("experiment.make_split_s", "s", "lower", "experiment.make_split", "s"),
    ("experiment.evaluate_params_s", "s", "lower", "experiment.evaluate_params", "s"),
    ("op.self_s", "s", "lower", "op", "self_s"),
    ("trace_overhead", "ratio", "lower", None, None),
)
SETUP_SIDE = {"data.write_csv_s", "checkpoint.save_s"}


class OracleFailed(Exception):
    """dctau.verify found a wrong numeric result; nothing can be trusted."""


@dataclass
class OpResult:
    index: int
    seconds: float
    rows: int
    report: dict | None
    error: str = ""
    traced: bool = False


def median(values) -> float:
    return float(statistics.median(values))


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_ops(wl, seconds: float, min_ops: int, tracer: Tracer | None = None) -> list[OpResult]:
    """Operations back to back (a closed loop of one caller) for ``seconds``.

    With a tracer, even-numbered operations are traced and odd ones not.
    """
    results = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 0
        start = time.perf_counter()
        try:
            if traced:
                tracer.install()
                try:
                    report, rows = tracer.span("op", index, wl.op, index)
                finally:
                    tracer.uninstall()
            else:
                report, rows = wl.op(index)
            elapsed = time.perf_counter() - start
            wl.check(report)
            results.append(OpResult(index, elapsed, rows, report, traced=traced))
        except Exception:  # a failing operation is counted, and the run goes on
            error = traceback.format_exc()
            print(f"operation {index} failed:\n{error}", file=sys.stderr)
            results.append(OpResult(index, time.perf_counter() - start, 0, None, error, traced))
        index += 1
    return results


def check_quality(wl, ops: list[OpResult]) -> None:
    """Fail the quality operations if their mean AUROC is too low."""
    first = ops[:QUALITY_OPS]
    if wl.min_mean_auroc is None or any(op.error for op in first):
        return
    mean = float(np.mean([op.report["auroc"] for op in first]))
    if not mean > wl.min_mean_auroc:
        error = f"mean auroc {mean!r} of the first {len(first)} operations does not beat {wl.min_mean_auroc}"
        print(error, file=sys.stderr)
        for op in first:
            op.error = error


def _oracles() -> float:
    start = time.perf_counter()
    failed = [r for r in run_all(quiet=True) if not r.passed]
    if failed:
        raise OracleFailed("; ".join(f"{r.name}: {r.detail}" for r in failed))
    return time.perf_counter() - start


def end_to_end(wl, ops: list[OpResult], setup_s: float) -> dict:
    good = [op for op in ops if not op.error]
    first = [op.report for op in ops[:QUALITY_OPS] if not op.error]
    values = {
        "setup_s": setup_s,
        "op_s_p50": median(op.seconds for op in good),
        "rows_per_s": median(op.rows / op.seconds for op in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in QUALITY:
        values[name] = float(np.mean([r[name] for r in first])) if first else float("nan")
    return values


def per_layer(tracer: Tracer, ops: list[OpResult]) -> dict:
    traced = [op for op in ops if op.traced and not op.error]
    untraced = [op for op in ops if not op.traced and not op.error]
    per_op = [tracer.totals(op.index) for op in traced]
    counts = [tracer.counts[op.index] for op in traced]
    setup = tracer.totals("setup")

    def field(totals, span, key):
        return totals[span][key] if span in totals else 0.0

    values = {}
    for name, _, _, span, key in PER_LAYER:
        if span is None:
            continue
        if name in SETUP_SIDE:
            values[name] = field(setup, span, key) / SETUP_REPEATS
        else:
            values[name] = median(field(t, span, key) for t in per_op)
    values["losses.calls"] = median(
        field(t, "losses.dc_total", "calls") + field(t, "losses.supcon", "calls") for t in per_op
    )
    anchors = sum(c["losses.anchors"] for c in counts)
    values["losses.skipped_share"] = sum(c["losses.skipped_anchors"] for c in counts) / anchors if anchors else 0.0
    values["data.batching_s"] = median(
        field(t, "data.epoch_batches", "s") + field(t, "data.augment_gaussian", "s") for t in per_op
    )
    for name in ("model.rows_embedded", "checkpoint.bytes", "metrics.curve_points"):
        values[name] = median(c[name] for c in counts)
    values["trace_overhead"] = median(op.seconds for op in traced) / median(op.seconds for op in untraced)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
            import_s: float, spans_out: str | None = None) -> dict:
    """One benchmark invocation; returns the result and what it measured."""
    env = environment(workload, seed)
    env["verify_s"] = _oracles()
    wl = WORKLOADS[workload](seed, workdir)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        try:
            setup_times = tracer.span("setup", "setup", wl.setup)
        finally:
            tracer.uninstall()
        ops = run_ops(wl, seconds, QUALITY_OPS, tracer)
    else:
        setup_times = wl.setup()
        ops = run_ops(wl, seconds, QUALITY_OPS)
    check_quality(wl, ops)
    env["setup_repeats_s"] = setup_times
    env["op_s"] = [round(op.seconds, 6) for op in ops]
    env["import_s"] = import_s

    failed = sum(1 for op in ops if op.error)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed}
    if failed == len(ops):
        values = {}
    elif tracer is not None:
        values = per_layer(tracer, ops)
        if spans_out:
            tracer.write_jsonl(spans_out)
    else:
        values = end_to_end(wl, ops, import_s + median(setup_times))
    specs = PER_LAYER if trace else END_TO_END
    result["metrics"] = {
        spec[0]: {"value": values[spec[0]], "unit": spec[1]} for spec in specs if spec[0] in values
    }
    return {"result": result, "env": env, "ops": ops}
