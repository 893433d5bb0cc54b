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
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidArgumentError("lam must lie in [0, 1]")
    present = batch.present_classes
    if present.size < 2:
        raise InsufficientClassesError("universum construction needs >= 2 classes in the batch")

    rows_by_class = {int(c): np.flatnonzero(batch.labels == c) for c in present}
    feats = np.empty_like(batch.features)
    for i in range(batch.size):
        donors = []
        for c in present:
            if c == batch.labels[i]:
                continue
            idx = rows_by_class[int(c)]
            donors.append(batch.features[idx[rng.integers(idx.size)]])
        avg = np.mean(donors, axis=0)
        feats[i] = lam * batch.features[i] + (1.0 - lam) * avg
    return feats
