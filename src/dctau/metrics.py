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

auroc and macro_f1 are exact counts divided once, and oscr integrates
the curve it sweeps at every distinct score, so there is no binning to
argue about. Scores and posteriors pass ``data.float_array``, so a NaN
is a bad argument, and auroc's scores are 1-d, never a flattened matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import float_array, int_labels, write_csv_rows
from .errors import InvalidArgumentError


@dataclass(frozen=True, eq=False)
class OscrCurve:
    """Correct-classification and false-positive rates at each cutoff.

    delta, ccr and fpr are float64 arrays of one length, one entry per
    cutoff, delta ascending; len() is the number of cutoffs.
    """

    delta: np.ndarray
    ccr: np.ndarray
    fpr: np.ndarray

    def __len__(self) -> int:
        return self.delta.size


def auroc(known_scores, unknown_scores) -> float:
    """P(known score > unknown score), counting ties as half, of two
    non-empty 1-d score vectors."""
    known = float_array("known_scores", known_scores, 1)
    unknown = np.sort(float_array("unknown_scores", unknown_scores, 1))
    if not (known.size and unknown.size):
        raise InvalidArgumentError("need non-empty known and unknown scores")
    below = np.searchsorted(unknown, known, side="left").sum()
    at_or_below = np.searchsorted(unknown, known, side="right").sum()
    return float((below + at_or_below) / (2 * known.size * unknown.size))


def oscr_curve(known_posteriors, known_true_labels, unknown_posteriors) -> OscrCurve:
    """One cutoff per distinct confidence value, in ascending order.

    At cutoff delta, ccr counts known rows that are correctly argmax
    classified with confidence >= delta (over all knowns) and fpr
    counts unknown rows with confidence >= delta (over all unknowns).
    ``known_true_labels`` holds one integer class id per known row.
    """
    kp = float_array("known_posteriors", known_posteriors, 2)
    up = float_array("unknown_posteriors", unknown_posteriors, 2)
    if not (kp.size and up.size):
        raise InvalidArgumentError("need non-empty known and unknown posterior sets")
    true_labels = int_labels("known_true_labels", known_true_labels, kp.shape[0],
                             align="known posterior rows")

    known_conf = kp.max(axis=1)
    correct = kp.argmax(axis=1) + 1 == true_labels
    unknown_conf = up.max(axis=1)

    deltas = np.unique(np.concatenate([known_conf, unknown_conf]))

    def rate(conf: np.ndarray, total: int) -> np.ndarray:
        """Share of ``total`` rows with a ``conf`` value >= each delta."""
        ranked = np.sort(conf)
        return (ranked.size - np.searchsorted(ranked, deltas, side="left")) / total

    return OscrCurve(deltas, rate(known_conf[correct], known_conf.size),
                     rate(unknown_conf, unknown_conf.size))


def oscr(known_posteriors, known_true_labels, unknown_posteriors) -> float:
    """Area under the ccr-vs-fpr sweep of oscr_curve.

    For each achieved fpr the best ccr is kept; the curve is then
    extended to fpr 0 and 1 by holding the extreme ccr values constant,
    and integrated with the trapezoid rule.
    """
    curve = oscr_curve(known_posteriors, known_true_labels, unknown_posteriors)
    fpr = curve.fpr[::-1]  # fpr falls as delta rises: reversed, it is sorted
    starts = np.flatnonzero(np.r_[True, fpr[1:] != fpr[:-1]])
    xs = fpr[starts]
    ys = np.maximum.reduceat(curve.ccr[::-1], starts)
    if xs[0] > 0.0:
        xs, ys = np.r_[0.0, xs], np.r_[ys[0], ys]
    if xs[-1] < 1.0:
        xs, ys = np.r_[xs, 1.0], np.r_[ys, ys[-1]]
    return float(np.trapezoid(ys, xs))


def macro_f1(predicted, truth, num_known: int) -> float:
    """Unweighted mean F1 over the K known classes plus the unknown class.

    ``predicted`` and ``truth`` are 1-d integer arrays of one length,
    every label in 0..num_known (0 is the unknown class); a non-integer
    dtype is rejected, never cast. A class absent from both prediction
    and truth scores 0 and still counts toward the mean.
    """
    if num_known < 1:
        raise InvalidArgumentError("num_known must be >= 1")
    true = int_labels("truth", truth, None, 0, num_known)
    pred = int_labels("predicted", predicted, true.size, 0, num_known, align="truth")

    m = num_known + 1
    hits = np.bincount(pred[pred == true], minlength=m)
    # 2tp + fp + fn of a class is its predicted count plus its true count
    denom = np.bincount(pred, minlength=m) + np.bincount(true, minlength=m)
    f1s = np.divide(2 * hits, denom, out=np.zeros(m), where=denom > 0)
    return float(np.mean(f1s))


def closed_accuracy(predicted, truth) -> float:
    """Fraction of exact matches of two integer label arrays of one length
    (a non-integer dtype is rejected, never cast); truth labels are >= 1."""
    true = int_labels("truth", truth, None, 1)
    pred = int_labels("predicted", predicted, true.size, align="truth")
    if true.size == 0:
        raise InvalidArgumentError("truth must be non-empty")
    return float(np.mean(pred == true))


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float64 value, computed once per distinct bit pattern."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = [repr(v) for v in distinct.view(np.float64).tolist()]
    return [texts[i] for i in inverse.tolist()]


def write_curve_csv(curve: OscrCurve, path) -> None:
    """Export `delta,ccr,fpr` rows for external plotting, values as repr, a
    block of rows at a time: the bytes of formatting the whole curve at once."""

    def lines(block):
        rows = zip(map(repr, curve.delta[block].tolist()),
                   _reprs(curve.ccr[block]), _reprs(curve.fpr[block]))
        return [",".join(row) for row in rows]

    write_csv_rows(path, "delta,ccr,fpr", len(curve), lines)
