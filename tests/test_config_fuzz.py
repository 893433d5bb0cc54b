"""Seeded config fuzz: a config trains, or is rejected up front with a typed error.

Every key is drawn over tiny shapes and 0-2 epochs, and each value is out
of range or non-finite with probability _BAD_SHARE. A draw may only
- train and evaluate;
- raise ConfigError from TrainConfig;
- raise the step-one NumericError of a projection with zero norm (the
  dead start: every bias starts at 0).
Anything else, a numeric warning included, is an escape.
"""

import collections
import dataclasses
import warnings

import numpy as np

from dctau.config import PSEUDO_SCHEMES, TrainConfig
from dctau.errors import ConfigError, NumericError
from dctau.experiment import make_split, run_experiment, save_split

_DRAWS = 600
_BAD_SHARE = 0.08
_NAN, _INF = float("nan"), float("inf")


def _uniform(lo, hi):
    return lambda rng, cfg: float(rng.uniform(lo, hi))


def _integers(lo, hi):
    return lambda rng, cfg: int(rng.integers(lo, hi + 1))


def _choice(options):
    return lambda rng, cfg: options[int(rng.integers(len(options)))]


# key -> (valid draw given the keys drawn before it, out-of-range values)
_SPACE = {
    "class_count": (_integers(2, 6), [1, 0]),
    "per_class": (_integers(2, 12), [0, -3]),
    "dim": (_integers(2, 5), [1]),
    "spread": (_uniform(0.0, 1.5), [-0.5, _INF, _NAN]),
    "known_count": (lambda rng, cfg: int(rng.integers(1, max(2, cfg["class_count"]))), [0]),
    "test_fraction": (_uniform(0.1, 0.7), [0.0, 1.0, -_INF, _NAN]),
    "lam": (_uniform(0.0, 1.0), [1.5, -0.1, _NAN]),
    "pseudo_scheme": (_choice(PSEUDO_SCHEMES), ["k_plus_two", ""]),
    "temperature": (lambda rng, cfg: float(10 ** rng.uniform(-2, 1)), [0.0, -0.1, _INF, _NAN]),
    "gamma": (_uniform(0.0, 2.0), [-1.0, _INF, _NAN]),
    "hidden": (_choice([(), (4,), (8,), (4, 4), (16,)]), [(0,), (4, -1)]),
    "proj_dim": (_integers(1, 6), [0]),
    "contrastive_epochs": (_integers(0, 2), [-1]),
    "classifier_epochs": (_integers(0, 2), [-1]),
    "batch_size": (_integers(3, 40), [2, 0]),
    "learning_rate": (lambda rng, cfg: float(10 ** rng.uniform(-4, -1)), [0.0, _INF, _NAN]),
    "weight_decay": (_uniform(0.0, 1e-2), [-1e-3, _INF, _NAN]),
    "warmup_epochs": (_integers(0, 2), [-1]),
    "sigma": (_uniform(0.0, 0.5), [-0.1, _INF, _NAN]),
    "percentile": (_uniform(0.5, 50.0), [0.0, 100.0, _NAN]),
    "seed": (_integers(0, 10_000), [-1]),
}


def _draw(rng, split_dir):
    cfg = {"data_dir": split_dir if rng.random() < 0.2 else ""}  # synthetic, or one saved split
    for key, (valid, bad) in _SPACE.items():
        if rng.random() < _BAD_SHARE:
            cfg[key] = bad[int(rng.integers(len(bad)))]
        else:
            cfg[key] = valid(rng, cfg)
    return cfg


def _outcome(values) -> str:
    try:
        cfg = TrainConfig(**values)
    except ConfigError:
        return "rejected"
    try:
        run_experiment(cfg)
    except NumericError as exc:
        if "zero norm" in str(exc):
            return "dead start"
        raise
    return "trained"


def test_every_drawn_config_trains_or_ends_in_a_documented_error(tmp_path):
    saved = make_split(TrainConfig(class_count=5, known_count=3, per_class=8, dim=3, seed=5))
    save_split(saved, tmp_path)
    rng = np.random.default_rng(20)
    assert set(_draw(rng, "")) == {f.name for f in dataclasses.fields(TrainConfig)}
    outcomes, escapes = collections.Counter(), []
    for _ in range(_DRAWS):
        values = _draw(rng, str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                outcomes[_outcome(values)] += 1
            except Exception as exc:
                escapes.append(f"{values}: {type(exc).__name__}: {exc}")
    assert not escapes, f"{len(escapes)} of {_DRAWS} draws escaped:\n" + "\n".join(escapes)
    assert outcomes["trained"] >= 30 and outcomes["rejected"] >= 300, outcomes
