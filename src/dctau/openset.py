"""Percentile-threshold rejection on top of classifier posteriors.

Thresholds are fit on training data: for each class, take the
max-posterior confidences of the rows the classifier got right, and set
the class threshold at a low percentile of them (linear interpolation).
At prediction time the argmax class is kept only if its confidence
clears that class's threshold; otherwise the row is marked unknown.

A low percentile means "reject anything less confident than the
classifier's own bottom few percent on data it classified correctly",
so the unknown decision is calibrated per class rather than by one
magic number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNKNOWN_LABEL, float_array, int_labels
from .errors import InvalidArgumentError

_POSTERIOR_ATOL = 1e-6


@dataclass(frozen=True)
class ThresholdTable:
    """Per-class acceptance thresholds; thresholds[i] guards class i+1."""

    thresholds: np.ndarray
    percentile: float

    def __post_init__(self):
        object.__setattr__(self, "thresholds", float_array("thresholds", self.thresholds, 1))
        if not (self.thresholds.size and np.all((self.thresholds >= 0) & (self.thresholds <= 1))):
            raise InvalidArgumentError("thresholds must be a non-empty vector in [0, 1]")

    @property
    def num_classes(self) -> int:
        return self.thresholds.size


def _check_posteriors(name: str, posteriors: np.ndarray) -> np.ndarray:
    posteriors = float_array(name, posteriors, 2)
    if not (posteriors.size and np.all(np.abs(posteriors.sum(axis=1) - 1.0) <= _POSTERIOR_ATOL)):
        raise InvalidArgumentError(f"{name} must be non-empty, its rows summing to 1 within 1e-6")
    return posteriors


def fit_thresholds(
    train_posteriors: np.ndarray,
    train_labels,
    percentile: float,
) -> ThresholdTable:
    """Estimate rejection thresholds from training confidences.

    ``train_labels`` are integer class ids in 1..k, never cast. Class i's
    threshold is the given percentile (linear interpolation)
    of the max-posterior confidences of its correctly classified rows.
    A class with no correct rows falls back to the global percentile
    over the correct rows of every class (over all rows if none is
    correct).
    """
    if not 0.0 < percentile < 100.0:
        raise InvalidArgumentError("percentile must lie in (0, 100)")
    posteriors = _check_posteriors("train_posteriors", train_posteriors)
    k = posteriors.shape[1]
    labels = int_labels("train_labels", train_labels, posteriors.shape[0], 1, k,
                        align="posterior rows")

    conf = posteriors.max(axis=1)
    predicted = posteriors.argmax(axis=1) + 1
    keep = predicted == labels

    pool = conf[keep] if keep.any() else conf
    global_eps = float(np.percentile(pool, percentile))

    eps = np.empty(k)
    for c in range(1, k + 1):
        vals = conf[keep & (labels == c)]
        eps[c - 1] = np.percentile(vals, percentile) if vals.size else global_eps
    return ThresholdTable(eps, percentile)


def predict_open_many(posteriors: np.ndarray, table: ThresholdTable) -> np.ndarray:
    """Per-row argmax with per-class acceptance; returns the int64 labels.

    A row keeps its argmax class (ties break to the smallest class) only
    if that confidence meets the class's threshold; otherwise it is
    UNKNOWN_LABEL.
    """
    posteriors = _check_posteriors("posteriors", posteriors)
    if posteriors.shape[1] != table.num_classes:
        raise InvalidArgumentError("posterior width must match the threshold table")
    best = posteriors.argmax(axis=1)
    conf = posteriors[np.arange(posteriors.shape[0]), best]
    return np.where(conf >= table.thresholds[best], best + 1, UNKNOWN_LABEL)


def write_thresholds_csv(table: ThresholdTable, path) -> None:
    """Export `class,threshold` rows under a percentile comment line."""
    lines = [f"# percentile={table.percentile!r}", "class,threshold"]
    lines += [f"{c},{eps!r}" for c, eps in enumerate(table.thresholds.tolist(), start=1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
