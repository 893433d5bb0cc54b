"""Seeded API fuzz: an entry point that takes arrays returns a result, or
raises a dctau.errors type, whatever arrays it is given.

Each draw calls one entry point and replaces each of its array arguments,
with probability _BAD_SHARE, by a malformed array: ragged, 0-d, 3-d,
empty, object-dtype, or holding NaN or inf, or a valid array of another
shape. Anything but a finite result or a dctau.errors type is an
escape: a numeric warning, and a NaN or inf in what a call returns.
"""

import collections
import dataclasses
import warnings

import numpy as np

import dctau.errors
from dctau.data import Batch, Dataset, augment_gaussian
from dctau.losses import LossConfig, dc_total_loss_grad, supcon_loss_grad
from dctau.metrics import auroc, closed_accuracy, macro_f1, oscr, oscr_curve
from dctau.model import (
    backprop_embedding,
    cross_entropy_loss_grad,
    embed,
    forward_classifier,
    init_params,
    posteriors,
    softmax,
)
from dctau.openset import ThresholdTable, fit_thresholds, predict_open_many
from dctau.universum import make_universum
from dctau.verify import unit_rows

_DRAWS = 4000
_BAD_SHARE = 0.3
_ERRORS = tuple(
    value for value in vars(dctau.errors).values()
    if isinstance(value, type) and issubclass(value, Exception)
    and value.__module__ == "dctau.errors"
)

_RNG = np.random.default_rng(0)
_FEATS = _RNG.standard_normal((6, 3))
_Z, _U = unit_rows(_RNG, 6, 3), unit_rows(_RNG, 6, 3)
_LABELS = np.array([1, 1, 2, 2, 3, 3])
_POST = np.full((6, 3), 1 / 3)
_SCORES = _RNG.random(6)
_PARAMS = init_params(3, (4,), 2, 3, seed=1)
_CFG = LossConfig()


# entry point -> (the call, its valid arguments); an ndarray argument is fuzzed
_ENTRY_POINTS = {
    "Dataset": (Dataset, (_FEATS, _LABELS, 3)),
    "Batch": (Batch, (_FEATS, _LABELS)),
    "make_universum": (lambda x, y: make_universum(Batch(x, y), 0.5, np.random.default_rng(0)),
                       (_FEATS, _LABELS)),
    "augment_gaussian": (lambda x, y: augment_gaussian(Batch(x, y), 0.1, np.random.default_rng(0)),
                         (_FEATS, _LABELS)),
    "supcon_loss_grad": (lambda z, y: supcon_loss_grad(z, y, _CFG), (_Z, _LABELS)),
    "dc_total_loss_grad": (lambda z, y, u, t: dc_total_loss_grad(z, y, u, t, _CFG),
                           (_Z, _LABELS, _U, _LABELS)),
    "embed": (lambda x: embed(_PARAMS, x), (_FEATS,)),
    "posteriors": (lambda x: posteriors(_PARAMS, x), (_FEATS,)),
    "forward_classifier": (lambda x: forward_classifier(_PARAMS, x), (_FEATS,)),
    "backprop_embedding": (lambda d_z: backprop_embedding(_PARAMS, embed(_PARAMS, _FEATS)[1], d_z),
                           (_Z[:, :2],)),
    "softmax": (softmax, (_POST,)),
    "cross_entropy_loss_grad": (cross_entropy_loss_grad, (_POST, _LABELS)),
    "auroc": (auroc, (_SCORES, _SCORES[:4])),
    "oscr_curve": (oscr_curve, (_POST, _LABELS, _POST)),
    "oscr": (oscr, (_POST, _LABELS, _POST)),
    "fit_thresholds": (lambda p, y: fit_thresholds(p, y, 5.0), (_POST, _LABELS)),
    "predict_open_many": (lambda p, t: predict_open_many(p, ThresholdTable(t, 5.0)),
                          (_POST, np.full(3, 0.2))),
    "macro_f1": (lambda p, y: macro_f1(p, y, 3), (_LABELS, _LABELS)),
    "closed_accuracy": (closed_accuracy, (_LABELS, _LABELS)),
}


def _bad(rng, good):
    """A malformed stand-in for the valid array ``good``."""
    kind = ("ragged", "0-d", "3-d", "empty", "object", "nan", "inf", "reshaped")[
        int(rng.integers(8))]
    if kind == "ragged":
        rows = [np.atleast_1d(row).tolist() for row in good]
        rows[int(rng.integers(len(rows)))] *= 2
        return rows
    if kind == "0-d":
        return np.asarray(good.flat[0])
    if kind == "3-d":
        return good.reshape((1,) * int(rng.integers(1, 3)) + good.shape)
    if kind == "empty":
        shapes = [(0,), (0, 0), (0,) + good.shape[1:], good.shape[:1] + (0,), (0, 2, 0)]
        return np.empty(shapes[int(rng.integers(len(shapes)))], dtype=good.dtype)
    if kind == "object":
        return good.astype(object)
    if kind in ("nan", "inf"):
        bad = good.astype(np.float64)
        bad.flat[int(rng.integers(bad.size))] = np.nan if kind == "nan" else -np.inf
        return bad
    # a valid array of another shape: rows dropped or added, or a column
    rows = int(rng.integers(1, 9))
    return np.resize(good, (rows,) + good.shape[1:] if rng.random() < 0.5 else good.shape[::-1])


def _finite(result) -> bool:
    """Whether every float in result, through tuples and dataclasses, is finite."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return all(_finite(item) for item in result)
    return not isinstance(result, (float, np.ndarray)) or bool(np.isfinite(result).all())


def _outcome(call, args) -> str:
    try:
        result = call(*args)
    except _ERRORS as exc:
        return type(exc).__name__
    if not _finite(result):
        raise AssertionError("a NaN or inf in the result")
    return "result"


def test_every_drawn_call_returns_or_raises_a_dctau_error():
    rng = np.random.default_rng(28)
    names = sorted(_ENTRY_POINTS)
    outcomes, escapes = collections.Counter(), []
    for _ in range(_DRAWS):
        name = names[int(rng.integers(len(names)))]
        call, good = _ENTRY_POINTS[name]
        args = [_bad(rng, arg) if isinstance(arg, np.ndarray) and rng.random() < _BAD_SHARE
                else arg for arg in good]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                outcomes[_outcome(call, args)] += 1
            except Exception as exc:
                shapes = [getattr(a, "shape", type(a).__name__) for a in args]
                escapes.append(f"{name}{shapes}: {type(exc).__name__}: {exc}")
    assert not escapes, f"{len(escapes)} of {_DRAWS} draws escaped:\n" + "\n".join(escapes)
    assert outcomes["result"] >= 1000 and outcomes["InvalidArgumentError"] >= 1000, outcomes
