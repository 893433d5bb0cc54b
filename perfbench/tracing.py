"""Spans and counters recorded from outside the dctau package.

The tracer replaces each traced function with a wrapper at every module
attribute of ``dctau`` that holds it. That includes the attribute the
caller looks up (``dctau.model.make_universum`` for the trainer, not only
``dctau.universum.make_universum``), so no call site is missed, and
``uninstall`` puts every original back. Spans are kept in memory as
(name, start, end, parent, unit) tuples; ``parent`` is the index of the
enclosing span, or -1.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (span name, defining module, function name). The span name's prefix is
# the dctau module that owns the layer.
TRACED = (
    ("universum.make_universum", "dctau.universum", "make_universum"),
    ("losses.dc_total", "dctau.losses", "dc_total_loss_grad"),
    ("losses.supcon", "dctau.losses", "supcon_loss_grad"),
    ("model.embed", "dctau.model", "embed"),
    ("model.backprop_embedding", "dctau.model", "backprop_embedding"),
    ("model.optimizer_step", "dctau.model", "optimizer_step"),
    ("model.train_contrastive", "dctau.model", "train_contrastive"),
    ("model.train_classifier", "dctau.model", "train_classifier"),
    ("model.posteriors", "dctau.model", "posteriors"),
    ("data.epoch_batches", "dctau.data", "epoch_batches"),
    ("data.augment_gaussian", "dctau.data", "augment_gaussian"),
    ("data.read_csv", "dctau.data", "read_dataset_csv"),
    ("data.write_csv", "dctau.data", "write_dataset_csv"),
    ("checkpoint.load", "dctau.checkpoint", "load_checkpoint"),
    ("checkpoint.save", "dctau.checkpoint", "save_checkpoint"),
    ("metrics.auroc", "dctau.metrics", "auroc"),
    ("metrics.oscr", "dctau.metrics", "oscr"),
    ("metrics.oscr_curve", "dctau.metrics", "oscr_curve"),
    ("openset.fit_thresholds", "dctau.openset", "fit_thresholds"),
    ("openset.predict_open_many", "dctau.openset", "predict_open_many"),
    ("experiment.make_split", "dctau.experiment", "make_split"),
    ("experiment.evaluate_params", "dctau.experiment", "evaluate_params"),
)


def _count_embed(tracer, args, result):
    tracer.count("model.rows_embedded", result[0].shape[0])


def _count_loss(tracer, args, result):
    # dc_total_loss_grad(z, labels, u, u_labels, cfg): universum rows anchor
    # too unless the dual term is switched off
    anchors = args[0].shape[0]
    if len(args) == 5 and args[4].include_universum_term:
        anchors += args[2].shape[0]
    tracer.count("losses.anchors", anchors)
    tracer.count("losses.skipped_anchors", result.skipped_anchors)


def _count_curve(tracer, args, result):
    tracer.count("metrics.curve_points", len(result))


def _count_checkpoint_read(tracer, args, result):
    path = args[0]
    tracer.count("checkpoint.bytes", os.path.getsize(path) + os.path.getsize(f"{path}.json"))


_COUNTERS = {
    "model.embed": _count_embed,
    "losses.dc_total": _count_loss,
    "losses.supcon": _count_loss,
    "metrics.oscr_curve": _count_curve,
    "checkpoint.load": _count_checkpoint_read,
}


class Tracer:
    """Records spans and counters for one traced unit of work at a time."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._unit = None
        self._patched: list = []

    def count(self, key: str, amount: int) -> None:
        self.counts[self._unit][key] += amount

    def span(self, name: str, unit, fn, *args, **kwargs):
        """Run fn inside a root span that opens traced unit ``unit``."""
        self._unit = unit
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        on_result = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._unit)
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.perfbench_original = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each dctau attribute bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "dctau" or n.startswith("dctau.")]
        for name, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []

    def totals(self, unit) -> dict:
        """Per span name: inclusive seconds, self seconds and call count."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, u in self.spans:
            if u == unit and parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for index, (name, start, end, parent, u) in enumerate(self.spans):
            if u != unit:
                continue
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["calls"] += 1
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, unit in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "unit": unit}
                ) + "\n")
