"""Supervised and dual contrastive losses with analytic gradients.

Every loss is one masked softmax over the stacked rows x = [z; u]: known
embeddings z with their labels, then universum embeddings u with the
known class each one targets. Row i, with anchor weight w_i and positive
set P(i) (the other rows on its side with its target), contributes

    w_i * (-1/|P(i)|) * sum_{p in P(i)} log[ exp(x_i.x_p/tau) / S_i ]

where S_i sums exp(x_i.x_k/tau) over every other row k on the same side
(known or universum) as i, and over the rows of the other side that
target i's class. Anchors with empty P(i) are skipped and counted. With
softmax W over those lanes and row-normalized positive mask P, the
gradient is (M + M^T) x / tau for M = diag(w)(W - P). The losses differ
only in w:

* supcon: no universum rows, every weight 1.
* dual-contrastive total (the training loss): 1 for known anchors and
  gamma for universum anchors (gamma 0 leaves the known term alone), so
  each universum row repels exactly the class it targets.

The core computes only the lanes the loss reads, by side blocks. A side
that anchors gets one block of every stacked row's similarity to each of
its anchors, one anchor per column, with the rows in stacked order. Its
same-side rows are each a denominator lane but the diagonal; of its
other side's rows, a 0/1 mask from one comparison of targets keeps the
lanes that target the anchor's class. A side none of whose rows anchors,
such as the universum side at gamma 0, has no block. Each block's exps E give
E x and the denominators in one gemm and E^T x in another; P and the
positive similarity sums come from per-(side, target) row sums instead
of an n x n mask. One side is finished, its share of E^T x included,
before the other's block is built, so the two sides share one block
buffer, and the cross mask is built once: the universum side reads the
known side's mask transposed. Both live in a LossWorkspace that training
reuses every step.

Log-sum-exp shifts each anchor by its maximum over its denominator
lanes, and since every loss shares this code the known term with zero
universum rows is bitwise identical to supcon.

Both losses take z and u as finite float matrices (``data.float_array``)
of rows within 1e-3 of unit norm, and integer labels (``data.int_labels``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import float_array, int_labels
from .errors import DegenerateBatchError, InvalidArgumentError, NumericError

# a row is unit-norm when | |row| - 1 | <= 1e-3, checked on its squared norm
_UNIT_SQ_NORM = ((1 - 1e-3) ** 2, (1 + 1e-3) ** 2)


@dataclass(frozen=True)
class LossConfig:
    """Temperature and universum balance; gamma 0 drops the dual term."""

    temperature: float = 0.1
    gamma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise InvalidArgumentError(
                f"temperature must be a finite number > 0, got {self.temperature}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise InvalidArgumentError(f"gamma must be a finite number >= 0, got {self.gamma}")

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
    """The training step's large buffers, kept between calls: the loss
    core's block and cross mask, and the forward pass's layer outputs.

    A training run makes one and passes it to every embed and loss call,
    so a step's arrays stay within a core's L2 cache. Each buffer is flat
    and grows on demand; a call works in contiguous views of its first
    entries, so one workspace serves every batch size. Arrays made fresh
    on every call cost page faults instead: glibc hands a large freed
    block back to the system, and the next call faults it in again.
    Nothing the loss core returns aliases these buffers; what embed
    returns does, until the next embed on the same workspace.
    """

    def __init__(self):
        self._bufs: dict[str, np.ndarray] = {}

    def buffer(self, name: str, rows: int, cols: int) -> np.ndarray:
        """A rows x cols float view of the named buffer, grown if too small."""
        buf = self._bufs.get(name)
        if buf is None or buf.size < rows * cols:
            buf = self._bufs[name] = np.empty(rows * cols)
        return buf[: rows * cols].reshape(rows, cols)


def _check_rows(name: str, rows: np.ndarray, cols=None) -> np.ndarray:
    rows = float_array(name, rows, 2, cols=cols)
    sq_norms = np.vecdot(rows, rows)
    if not np.all((sq_norms >= _UNIT_SQ_NORM[0]) & (sq_norms <= _UNIT_SQ_NORM[1])):
        raise InvalidArgumentError(f"{name} rows must be (approximately) unit-norm")
    return rows


def _positive_terms(x: np.ndarray, group: np.ndarray, a_pos: np.ndarray, tau: float):
    """Each row's positive similarity sum, and the positives' parts of
    M x tau and M^T x tau: -a_pos P x and -P^T (a_pos x).

    All three come from per-group row sums: a row's positives are the
    other rows of its group.
    """
    members = np.equal.outer(group, np.arange(group.max() + 1)).astype(np.float64)
    pos_ax = a_pos[:, None] * x
    transposed = members @ (members.T @ pos_ax)
    transposed -= pos_ax
    np.negative(transposed, out=transposed)
    pos_x = members @ (members.T @ x)
    pos_x -= x
    pos_sim = np.vecdot(x, pos_x) / tau
    pos_x *= -a_pos[:, None]
    return pos_sim, pos_x, transposed


def _exp_side(work, x, xs, mask, side, other):
    """The exps of one side's anchors' lanes, and the anchors' shifts.

    The block holds every stacked row's lane against the side's anchors,
    one anchor per column, with the rows in stacked order: block[side]
    holds the same-side lanes and block[other] the cross lanes, which
    mask, 1 where the row targets the anchor's class, keeps. Each column
    is shifted by its maximum over the anchor's denominator lanes. The
    diagonal, and the other side's rows that target another class, are
    not denominator lanes and end as 0. Both sides share the block
    buffer.
    """
    n, m = x.shape[0], side.stop - side.start
    block = work.buffer("block", n, m)
    np.matmul(x, xs[side].T, out=block)
    same, cross = block[side], block[other]
    diagonal = same.reshape(-1)[:: m + 1]  # a view: same is contiguous
    diagonal[:] = -np.inf
    shift = same.max(axis=0)  # finite: a side with an anchor has another row
    # the other side's rows that target the anchor's class may lift its
    # shift: with the rest masked to 0, a column's maximum of cross - shift,
    # floored at 0, is the lift
    cross -= shift
    cross *= mask
    lift = np.max(cross, axis=0, initial=0.0)
    cross -= lift
    shift += lift
    same -= shift
    # exp never sees the -inf diagonal, and an off-target lane holds
    # -lift, at most about 2/tau below 0; both end as 0
    diagonal[:] = 0.0
    np.exp(block, out=block)
    diagonal[:] = 0.0
    cross *= mask
    return block, shift


def _stacked_core(
    x: np.ndarray,
    targets: np.ndarray,
    n_known: int,
    weight: np.ndarray,
    tau: float,
    work: LossWorkspace | None = None,
) -> LossResult:
    """The masked softmax over the stacked rows, by blocks; see the module
    docstring.

    Rows before n_known are known, the rest universum. Rows with zero
    weight do not anchor but still enter other anchors' softmaxes, and a
    side none of whose rows anchors gets no block. Without a workspace
    the core makes a throwaway one.
    """
    n, d = x.shape
    active = weight > 0
    if np.count_nonzero(active) < 2:
        raise InvalidArgumentError("need at least 2 anchor rows")

    # targets as codes 0..c-1, and a row's (side, target) group as a code,
    # the known side's first
    classes = np.unique(targets)
    codes = np.searchsorted(classes, targets)
    group = codes.copy()
    group[n_known:] += len(classes)
    pos_count = np.bincount(group)[group] - 1
    valid = (pos_count > 0) & active
    if not valid.any():
        raise DegenerateBatchError("every anchor lacks positives")
    n_pos = np.maximum(pos_count, 1)
    a_pos = np.where(valid, weight / n_pos, 0.0)  # P's weight in M = diag(w)(W - P)
    pos_sim, anchor_partial, transposed = _positive_terms(x, group, a_pos, tau)

    if work is None:
        work = LossWorkspace()
    known, univ = slice(0, n_known), slice(n_known, n)
    # 1 where a universum row targets a known row's class
    mask = work.buffer("cross mask", n - n_known, n_known)
    np.equal(codes[univ, None], codes[None, known], out=mask)
    xs = x / tau
    x_ones = np.hstack([x, np.ones((n, 1))])
    # E [x | 1] stacks each anchor's exp-weighted sum of x and its
    # denominator, which rides on the same gemm as a column of ones
    e_x1 = np.zeros((n, d + 1))
    denom = e_x1[:, d]
    per_anchor = np.zeros(n)
    a_exp = np.zeros(n)
    for side, other, side_mask in ((known, univ, mask), (univ, known, mask.T)):
        ok = valid[side]
        if not ok.any():
            continue
        block, shift = _exp_side(work, x, xs, side_mask, side, other)
        np.matmul(block.T, x_ones, out=e_x1[side])
        denom[side][~ok] = 1.0
        per_anchor[side] = weight[side] * np.where(
            ok, shift + np.log(denom[side]) - pos_sim[side] / n_pos[side], 0.0)
        if not np.isfinite(per_anchor[side]).all():
            raise NumericError("contrastive loss is non-finite")
        # W = diag(1/denom) E, so with a_exp = weight/denom, M x adds
        # a_exp E x, and M^T x adds this side's E^T (a_exp x)
        a_exp[side] = np.where(ok, weight[side] / denom[side], 0.0)
        transposed += block @ (a_exp[side, None] * x[side])
    value = float(per_anchor.sum())
    if not np.isfinite(value):
        raise NumericError("contrastive loss is non-finite")

    e_x = e_x1[:, :d]
    e_x *= a_exp[:, None]
    anchor_partial += e_x
    anchor_partial /= tau
    grad = transposed
    grad /= tau
    grad += anchor_partial

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
    labels = int_labels("labels", labels, len(z), align="embedding rows")
    return _stacked_core(z, labels, len(z), np.ones(len(z)), cfg.temperature, work)


def _dc_core(z, labels, u, u_targets, tau, known_weight, universum_weight, work=None):
    """Check the inputs once and run the core over [z; u] with these weights.

    The sides are told apart by row position, so any int labels and
    targets work.
    """
    z = _check_rows("z", z)
    u = _check_rows("u", u, z.shape[1])
    labels = int_labels("labels", labels, len(z), align="embedding rows")
    u_targets = int_labels("u_targets", u_targets, len(u), align="embedding rows")

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
