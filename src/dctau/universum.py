"""Target-aware universum construction.

For every anchor x_i in a batch, the universum row is a convex blend of
the anchor with the mean of one randomly drawn instance from each other
class present in the batch:

    u_i = lam * x_i + (1 - lam) * mean_{c != y_i} x_draw(c)

Because lam weights the anchor more than any single donor row, each
universum row stays near its targeted class: it is a hard negative for
class y_i specifically, hence "target-aware". The trainer labels the
rows: under the default k-plus-k scheme row i carries pseudo label
y_i + K, giving K synthetic classes alongside the K known ones;
k-plus-one collapses them all to K + 1.
"""

from __future__ import annotations

import numpy as np

from .data import Batch
from .errors import InsufficientClassesError, InvalidArgumentError


def make_universum(batch: Batch, lam: float, rng: np.random.Generator) -> np.ndarray:
    """Build one universum row per anchor row of ``batch``.

    For each anchor, one donor instance is drawn uniformly from every
    *other* class present in the batch (fresh draws per anchor), the
    donors are averaged, and the row is lam*anchor + (1-lam)*average.
    Returns the (rows, dim) blended features; row r blends anchor r.

    Draw order, the reproducibility contract: one bounded-integer draw
    per (anchor, other class) pair, anchor-major with the other classes
    in ascending label order. Each draw picks a position among that
    class's rows in batch order; a single-row class consumes no entropy.
    All draws come from one ``rng.integers`` call, which yields the same
    stream as one scalar call per pair.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidArgumentError("lam must lie in [0, 1]")
    present, cls, counts = np.unique(batch.labels, return_inverse=True, return_counts=True)
    if present.size < 2:
        raise InsufficientClassesError("universum construction needs >= 2 classes in the batch")

    by_class = np.argsort(cls, kind="stable")  # row indices grouped by class
    starts = np.cumsum(counts) - counts
    others = np.arange(present.size - 1)
    donor_cls = others + (others >= cls[:, None])  # (rows, C-1), skips the anchor's class
    pos = rng.integers(0, counts[donor_cls])
    avg = batch.features[by_class[starts[donor_cls] + pos]].mean(axis=1)
    return lam * batch.features + (1.0 - lam) * avg
