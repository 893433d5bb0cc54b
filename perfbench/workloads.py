"""The benchmark's workloads: set-up, one operation, and its output check.

Every operation's master seed is derived from the workload seed, and the
program receives only the config and the data generated from it. An
operation returns its report as a dict (at least the QUALITY keys) and
the number of rows it handled; a check raises ``CheckFailed`` when the
output is wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import time

import numpy as np

from dctau import cli
from dctau.config import TrainConfig
from dctau.experiment import evaluate_params, make_split, run_experiment, run_training

# The acceptance-test _DIRECTIONAL shape (default data: 10 classes x 150
# rows, 6 known; hidden 64,64; batch 128; temperature 0.2; k_plus_k), cut
# from 400/300 epochs so that one run holds enough operations for a median.
DIRECTIONAL = TrainConfig(contrastive_epochs=40, classifier_epochs=100, temperature=0.2)

# dctau generate/train/eval on a large split (30k rows, 17.4k of them test
# rows): oscr_curve and the CSV reads dominate an eval. Spreading the rows
# over 60 classes averages the open-set metrics over many unknown classes,
# which keeps them steady from seed to seed. A short supcon train keeps
# set-up small; training is not what this workload measures.
CLI_DATA = {"class_count": 60, "known_count": 36, "per_class": 500}
CLI_TRAIN = {"pseudo_scheme": "none", "contrastive_epochs": 1, "classifier_epochs": 20}

SETUP_REPEATS = 3
QUALITY = ("auroc", "oscr", "macro_f1", "closed_accuracy")


class CheckFailed(Exception):
    """An operation's output is wrong."""


def op_seed(seed: int, index: int) -> int:
    """Master seed of operation ``index`` under workload seed ``seed``."""
    return int(np.random.default_rng([seed, index]).integers(2**31))


def check_report(report: dict) -> None:
    for name in QUALITY:
        value = report[name]
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise CheckFailed(f"{name} = {value!r} is not a finite value in [0, 1]")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TrainWorkload:
    """One operation is one run_experiment at the directional shape.

    Single seeds of this shape can score an AUROC near or below 0.5 (the
    unknown classes may sit between known ones), so the AUROC check is on
    the workload's mean over its quality operations.
    """

    min_mean_auroc = 0.5

    def __init__(self, seed: int, workdir: str, base: TrainConfig):
        self.seed = seed
        self.base = base

    def config(self, index: int) -> TrainConfig:
        return dataclasses.replace(self.base, seed=op_seed(self.seed, index))

    def setup(self) -> list[float]:
        """Data synthesis, timed SETUP_REPEATS times."""
        cfg = self.config(0)
        return [_timed(lambda: make_split(cfg)) for _ in range(SETUP_REPEATS)]

    def op(self, index: int):
        _, split, report, _ = run_experiment(self.config(index))
        rows = self.base.contrastive_epochs * split.train.n_rows
        return {name: getattr(report, name) for name in QUALITY}, rows

    def check(self, report) -> None:
        check_report(report)


class CliScoreWorkload:
    """Set-up generates a split and trains; one operation is one dctau eval."""

    min_mean_auroc = None

    def __init__(self, seed: int, workdir: str, data: dict = CLI_DATA, train: dict = CLI_TRAIN):
        self.seed = seed
        self.workdir = workdir
        self.overrides = {**data, **train}
        self.cfg = TrainConfig(seed=op_seed(seed, 0), **self.overrides)

    def _cli(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise CheckFailed(f"dctau {argv[0]} exited with {code}")

    def _flags(self, out: str) -> list[str]:
        flags = ["--quiet", "--seed", str(self.cfg.seed), "--out", out]
        for key, value in self.overrides.items():
            flags += ["--set", f"{key}={value}"]
        return flags

    def _generate_and_train(self, rep: int) -> None:
        data_dir = os.path.join(self.workdir, f"data{rep}")
        model_dir = os.path.join(self.workdir, f"model{rep}")
        self._cli("generate", *self._flags(data_dir))
        self._cli("train", *self._flags(model_dir), "--set", f"data_dir={data_dir}")
        self.data_dir, self.model_dir = data_dir, model_dir

    def setup(self) -> list[float]:
        """generate + train, timed SETUP_REPEATS times; then the reference report.

        The reference trains in-process on the in-memory split, so the CLI
        report matches it only if the CSV and checkpoint round trips are
        exact.
        """
        times = []
        for rep in range(SETUP_REPEATS):
            times.append(_timed(lambda: self._generate_and_train(rep)))
            if rep + 1 < SETUP_REPEATS:
                shutil.rmtree(self.data_dir)
                shutil.rmtree(self.model_dir)
        split = make_split(self.cfg)
        params, _, _ = run_training(split, self.cfg)
        eval_cfg = dataclasses.replace(self.cfg, data_dir=self.data_dir)
        reference = evaluate_params(params, split, eval_cfg)
        self.expected = _comparable(json.loads(reference.to_json()))
        self.rows = split.test_known.n_rows + split.test_unknown.n_rows
        return times

    def op(self, index: int):
        out = os.path.join(self.workdir, "eval")
        checkpoint = os.path.join(self.model_dir, cli.CHECKPOINT_FILE)
        self._cli("eval", "--quiet", "--out", out, "--checkpoint", checkpoint)
        with open(os.path.join(out, cli.REPORT_FILE), encoding="utf-8") as fh:
            report = json.load(fh)
        for name in (cli.THRESHOLDS_FILE, cli.CURVE_FILE):
            if os.path.getsize(os.path.join(out, name)) == 0:
                raise CheckFailed(f"{name} is empty")
        return report, self.rows

    def check(self, report) -> None:
        check_report(report)
        if _comparable(report) != self.expected:
            raise CheckFailed("report.json differs from evaluate_params in-process")


def _comparable(report: dict) -> dict:
    """A report without its wall time, which is the one field that varies."""
    return {k: v for k, v in report.items() if k != "wall_seconds"}


WORKLOADS = {
    "train_dual": lambda seed, workdir: TrainWorkload(seed, workdir, DIRECTIONAL),
    "train_supcon": lambda seed, workdir: TrainWorkload(
        seed, workdir, dataclasses.replace(DIRECTIONAL, pseudo_scheme="none")
    ),
    "cli_score": CliScoreWorkload,
}
