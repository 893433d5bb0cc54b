"""Open-set evaluation metrics.

Three views of the same test run:

* auroc measures pure known/unknown separation by confidence, as the
  probability a known sample outscores an unknown one (ties half).
* oscr folds classification quality in: sweeping a confidence cutoff,
  it trades the rate of correctly-classified-and-accepted knowns
  against the rate of wrongly accepted unknowns, and reports the area
  under that curve.
* macro_f1 scores the final hard decisions over K known classes plus
  the unknown class, each class weighted equally.

auroc uses the exact rank formulation rather than curve integration,
so there is no binning to argue about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN_LABEL
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class CurvePoint:
    """Correct-classification and false-positive rates at one cutoff."""

    delta: float
    ccr: float
    fpr: float


def _scores(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise InvalidArgumentError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite")
    return arr


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's mean rank."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    new_group = np.r_[True, sorted_vals[1:] != sorted_vals[:-1]]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    first_rank = np.cumsum(counts) - counts + 1
    mean_rank = first_rank + (counts - 1) / 2.0
    ranks = np.empty(values.size)
    ranks[order] = mean_rank[group]
    return ranks


def auroc(known_scores, unknown_scores) -> float:
    """P(known score > unknown score), counting ties as half."""
    known = _scores("known_scores", known_scores)
    unknown = _scores("unknown_scores", unknown_scores)
    ranks = _average_ranks(np.concatenate([known, unknown]))
    n_k, n_u = known.size, unknown.size
    u_stat = ranks[:n_k].sum() - n_k * (n_k + 1) / 2.0
    return float(u_stat / (n_k * n_u))


def oscr_curve(
    known_posteriors, known_true_labels, unknown_posteriors
) -> list[CurvePoint]:
    """One point per distinct confidence value, in ascending cutoff order.

    At cutoff delta, ccr counts known rows that are correctly argmax
    classified with confidence >= delta (over all knowns) and fpr
    counts unknown rows with confidence >= delta (over all unknowns).
    """
    kp = np.asarray(known_posteriors, dtype=np.float64)
    up = np.asarray(unknown_posteriors, dtype=np.float64)
    true_labels = np.asarray(known_true_labels, dtype=np.int64)
    if kp.ndim != 2 or kp.shape[0] == 0 or up.ndim != 2 or up.shape[0] == 0:
        raise InvalidArgumentError("need non-empty known and unknown posterior sets")
    if true_labels.shape != (kp.shape[0],):
        raise InvalidArgumentError("true labels must align with known posterior rows")

    known_conf = kp.max(axis=1)
    correct = kp.argmax(axis=1) + 1 == true_labels
    unknown_conf = up.max(axis=1)

    deltas = np.unique(np.concatenate([known_conf, unknown_conf]))

    def rate(conf: np.ndarray, total: int) -> list[float]:
        """Share of ``total`` rows with a ``conf`` value >= each delta."""
        ranked = np.sort(conf)
        return ((ranked.size - np.searchsorted(ranked, deltas, side="left")) / total).tolist()

    ccr = rate(known_conf[correct], known_conf.size)
    fpr = rate(unknown_conf, unknown_conf.size)
    return [CurvePoint(*pt) for pt in zip(deltas.tolist(), ccr, fpr)]


def oscr(known_posteriors, known_true_labels, unknown_posteriors) -> float:
    """Area under the ccr-vs-fpr sweep of oscr_curve.

    For each achieved fpr the best ccr is kept; the curve is then
    extended to fpr 0 and 1 by holding the extreme ccr values constant,
    and integrated with the trapezoid rule.
    """
    points = oscr_curve(known_posteriors, known_true_labels, unknown_posteriors)
    best_ccr: dict[float, float] = {}
    for pt in points:
        best_ccr[pt.fpr] = max(best_ccr.get(pt.fpr, 0.0), pt.ccr)
    fprs = sorted(best_ccr)
    xs = np.array(([0.0] if fprs[0] > 0.0 else []) + fprs + ([1.0] if fprs[-1] < 1.0 else []))
    ys = np.array(
        ([best_ccr[fprs[0]]] if fprs[0] > 0.0 else [])
        + [best_ccr[f] for f in fprs]
        + ([best_ccr[fprs[-1]]] if fprs[-1] < 1.0 else [])
    )
    return float(np.trapezoid(ys, xs))


def macro_f1(predicted, truth, num_known: int) -> float:
    """Unweighted mean F1 over the K known classes plus the unknown class.

    A class absent from both prediction and truth scores 0 and still
    counts toward the mean.
    """
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.shape != true.shape:
        raise InvalidArgumentError("predicted and truth must have equal length")
    if num_known < 1:
        raise InvalidArgumentError("num_known must be >= 1")

    f1s = []
    for c in [UNKNOWN_LABEL] + list(range(1, num_known + 1)):
        tp = np.sum((pred == c) & (true == c))
        fp = np.sum((pred == c) & (true != c))
        fn = np.sum((true == c) & (pred != c))
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(f1s))


def closed_accuracy(predicted, truth) -> float:
    """Fraction of exact matches; truth must not contain the unknown label."""
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.shape != true.shape:
        raise InvalidArgumentError("predicted and truth must have equal length")
    if true.size == 0:
        raise InvalidArgumentError("truth must be non-empty")
    if np.any(true == UNKNOWN_LABEL):
        raise InvalidArgumentError("truth labels must be known classes")
    return float(np.mean(pred == true))


def write_curve_csv(points: list[CurvePoint], path) -> None:
    """Export `delta,ccr,fpr` rows for external plotting."""
    lines = ["delta,ccr,fpr"] + [f"{pt.delta!r},{pt.ccr!r},{pt.fpr!r}" for pt in points]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
