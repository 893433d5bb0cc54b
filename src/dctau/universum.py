"""Target-aware universum construction.

For every anchor x_i in a batch, the universum row is a convex blend of
the anchor with the mean of one randomly drawn instance from each other
class present in the batch:

    u_i = lam * x_i + (1 - lam) * mean_{c != y_i} x_draw(c)

Row i targets class y_i, hence "target-aware". With C classes in the
batch each donor row gets weight (1 - lam)/(C - 1), so the anchor
outweighs every single donor exactly when lam > 1/C; the row then stays
near its targeted class, a hard negative for class y_i specifically.
At lam = 0.1 with 6 classes, say, every donor outweighs the anchor.
Under the default k-plus-k scheme the trainer hands the loss each row's
target class, and the loss tells the known and universum rows apart by
position, which gives K target-aligned universum classes; k-plus-one
collapses every row into one class, K + 1.
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
