"""Supervised and dual contrastive losses with analytic gradients.

Every loss is one masked softmax over the stacked rows x = [z; u]: known
embeddings z with their labels, then universum embeddings u with the
known class each one targets. Row i, with anchor weight w_i and positive
set P(i) (the other rows on its side with its target), contributes

    w_i * (-1/|P(i)|) * sum_{p in P(i)} log[ exp(x_i.x_p/tau) / S_i ]

where S_i sums exp(x_i.x_k/tau) over every other row k on the same side
(known or universum) as i or targeting the same class. Anchors with
empty P(i) are skipped and counted. From the one Gram matrix x x^T/tau
with softmax W and row-normalized positive mask P, the gradient is
(M + M^T) x / tau for M = diag(w)(W - P). The losses differ only in w:

* supcon: no universum rows, every weight 1.
* dual-contrastive total (the training loss): 1 for known anchors and
  gamma for universum anchors (gamma 0 leaves the known term alone), so
  each universum row repels exactly the class it targets.

Log-sum-exp uses max subtraction, and since every loss shares this code
the known term with zero universum rows is bitwise identical to supcon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatchError, InvalidArgumentError, NumericError

_UNIT_NORM_ATOL = 1e-3


@dataclass(frozen=True)
class LossConfig:
    """Temperature and universum balance; gamma 0 drops the dual term."""

    temperature: float = 0.1
    gamma: float = 1.0

    def __post_init__(self):
        if self.temperature <= 0:
            raise InvalidArgumentError("temperature must be > 0")
        if self.gamma < 0:
            raise InvalidArgumentError("gamma must be >= 0")

    @property
    def include_universum_term(self) -> bool:
        """Whether universum rows anchor, i.e. gamma > 0.

        Read-only; the perfbench tracer reads it to count anchors.
        """
        return self.gamma > 0


@dataclass(frozen=True)
class LossResult:
    """Loss value and analytic gradients over the stacked rows [z; u].

    grad is d(loss)/d([z; u]); grad_z and grad_u are its known and
    universum slices, and grad_u is None when there are no universum
    rows. per_anchor holds each stacked row's weighted term (0 where the
    row does not anchor), so it sums to value and its known and universum
    slices are the two sides' terms. anchor_partial[i] is the part of
    grad[i] that row i's own term gives; skipped_anchors counts anchors
    without positives.
    """

    value: float
    grad: np.ndarray
    grad_z: np.ndarray
    grad_u: np.ndarray | None
    per_anchor: np.ndarray
    anchor_partial: np.ndarray
    skipped_anchors: int


class LossWorkspace:
    """The loss core's n x n buffers, kept between calls.

    A training run makes one and passes it to every loss call, so the
    core neither allocates nor page-faults in about 3 MB of temporaries
    per step. Each buffer is flat and grows on demand; a call at n rows
    works in contiguous views of its first n*n entries, so one workspace
    serves every batch size. Nothing the core returns aliases these
    buffers.
    """

    _DTYPES = (np.float64, np.float64, bool, bool, bool)

    def __init__(self):
        self._bufs = tuple(np.empty(0, dtype=dtype) for dtype in self._DTYPES)

    def views(self, n: int):
        """(sims, w, pos_mask, off_pos, off_den) as n x n views of the buffers."""
        if self._bufs[0].size < n * n:
            self._bufs = tuple(np.empty(n * n, dtype=dtype) for dtype in self._DTYPES)
        return tuple(buf[: n * n].reshape(n, n) for buf in self._bufs)


def _check_rows(name: str, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise InvalidArgumentError(f"{name} must be a 2-d matrix")
    if rows.shape[0]:
        norms = np.linalg.norm(rows, axis=1)
        if np.any(np.abs(norms - 1.0) > _UNIT_NORM_ATOL):
            raise InvalidArgumentError(f"{name} rows must be (approximately) unit-norm")
    return rows


def _stacked_core(
    x: np.ndarray,
    targets: np.ndarray,
    n_known: int,
    weight: np.ndarray,
    tau: float,
    work: LossWorkspace | None = None,
) -> LossResult:
    """One masked softmax over the stacked rows; see the module docstring.

    Rows before n_known are known, the rest universum. Two rows are
    positives exactly when they are on the same side and target the same
    class, so the positives and the denominator both come from one
    comparison of the targets. Rows with zero weight do not anchor but
    still enter other anchors' softmaxes. Without a workspace the core
    makes a throwaway one.
    """
    n = x.shape[0]
    active = weight > 0
    if np.count_nonzero(active) < 2:
        raise InvalidArgumentError("need at least 2 anchor rows")

    # targets as codes 0..n-1: a row's positives are the other rows of its
    # (code, side) group, and the codes compare in a narrow integer type
    _, codes = np.unique(targets, return_inverse=True)
    group = codes.copy()
    group[n_known:] += n
    pos_count = np.bincount(group)[group] - 1
    codes = codes.astype(np.min_scalar_type(n))
    valid = (pos_count > 0) & active
    if not valid.any():
        raise DegenerateBatchError("every anchor lacks positives")
    invalid = ~valid

    if work is None:
        work = LossWorkspace()
    sims, w, pos_mask, off_pos, off_den = work.views(n)
    # one target comparison gives both masks: positives share the target
    # and the side, the denominator spans the same side or the same
    # target. Each mask is also kept as its complement, because filling
    # the lanes outside a mask with np.putmask is several times faster
    # than a where= copy or a multiply by a bool mask.
    np.equal(codes[:, None], codes[None, :], out=pos_mask)
    np.logical_not(pos_mask, out=off_den)
    off_den[:n_known, :n_known] = False
    off_den[n_known:, n_known:] = False
    pos_mask[:n_known, n_known:] = False
    pos_mask[n_known:, :n_known] = False
    np.fill_diagonal(pos_mask, False)
    np.fill_diagonal(off_den, True)
    np.logical_not(pos_mask, out=off_pos)

    np.matmul(x, x.T, out=sims)
    sims /= tau
    # the row max over the denominator mask, with -inf outside it; the
    # positives lie inside it, so zeroing the rest leaves their sum
    np.copyto(w, sims)
    np.putmask(w, off_den, -np.inf)
    mx = w.max(axis=1)
    mx[invalid] = 0.0
    np.putmask(w, off_pos, 0.0)
    pos_sim = w.sum(axis=1)
    # every entry inside the mask is at most its row's max, so the clamp
    # changes none of them; it only keeps exp off the masked-out lanes,
    # which are then zeroed
    np.subtract(sims, mx[:, None], out=w)
    np.minimum(w, 0.0, out=w)
    np.exp(w, out=w)
    np.putmask(w, off_den, 0.0)
    # rows that anchor nothing get an all-zero softmax row and a unit
    # denominator, so their log stays finite
    w[invalid] = 0.0
    denom = w.sum(axis=1)
    denom[invalid] = 1.0
    log_s = mx + np.log(denom)

    per_anchor = weight * np.where(valid, log_s - pos_sim / np.maximum(pos_count, 1), 0.0)
    value = float(per_anchor.sum())
    if not np.isfinite(value):
        raise NumericError("contrastive loss is non-finite")

    # M = diag(weight)(W - P) in place of W
    w /= denom[:, None]
    np.subtract(w, (valid / np.maximum(pos_count, 1))[:, None], out=w, where=pos_mask)
    if np.any(weight != 1.0):  # x * 1.0 is x: supcon and gamma 1 skip the pass
        w *= weight[:, None]
    anchor_partial = (w @ x) / tau
    grad = anchor_partial + (w.T @ x) / tau

    return LossResult(
        value=value,
        grad=grad,
        grad_z=grad[:n_known],
        grad_u=grad[n_known:] if n_known < n else None,
        per_anchor=per_anchor,
        anchor_partial=anchor_partial,
        skipped_anchors=int(np.count_nonzero(active & (pos_count == 0))),
    )


def supcon_loss_grad(
    z: np.ndarray, labels, cfg: LossConfig, *, work: LossWorkspace | None = None
) -> LossResult:
    """Supervised contrastive loss summed over anchors, with gradient."""
    z = _check_rows("z", z)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (z.shape[0],):
        raise InvalidArgumentError("labels must align with embedding rows")
    return _stacked_core(z, labels, len(z), np.ones(len(z)), cfg.temperature, work)


def _dc_core(z, labels, u, u_targets, tau, known_weight, universum_weight, work=None):
    """Check the inputs once and run the core over [z; u] with these weights.

    The sides are told apart by row position, so any int labels and
    targets work.
    """
    z = _check_rows("z", z)
    u = _check_rows("u", u)
    if z.shape[1] != u.shape[1]:
        raise InvalidArgumentError("z and u must share the embedding dimension")
    labels = np.asarray(labels, dtype=np.int64)
    u_targets = np.asarray(u_targets, dtype=np.int64)
    if labels.shape != (z.shape[0],) or u_targets.shape != (u.shape[0],):
        raise InvalidArgumentError("labels must align with embedding rows")

    x = np.concatenate([z, u])
    weight = np.repeat([known_weight, universum_weight], [len(z), len(u)])
    targets = np.concatenate([labels, u_targets])
    return _stacked_core(x, targets, len(z), weight, tau, work)


def dc_total_loss_grad(
    z: np.ndarray,
    labels,
    u: np.ndarray,
    u_targets,
    cfg: LossConfig,
    *,
    work: LossWorkspace | None = None,
) -> LossResult:
    """Combined loss: known term plus gamma times the universum term.

    u_targets[r] is the known class universum row r targets. At gamma 0
    only the known term is evaluated (universum rows still receive
    gradient through its denominators).
    """
    return _dc_core(z, labels, u, u_targets, cfg.temperature, 1.0, cfg.gamma, work)
