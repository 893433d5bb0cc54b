"""Supervised and dual contrastive losses with analytic gradients.

Every loss is one masked softmax over the stacked rows x = [z; u]: known
embeddings z with their labels, then universum embeddings u with pseudo
labels (targeted class + K). Row i, with anchor weight w_i and positive
set P(i) (the other rows with its stacked label), contributes

    w_i * (-1/|P(i)|) * sum_{p in P(i)} log[ exp(x_i.x_p/tau) / S_i ]

where S_i sums exp(x_i.x_k/tau) over every other row k on the same side
(known or universum) as i or targeting the same class. Anchors with
empty P(i) are skipped and counted. From the one Gram matrix x x^T/tau
with softmax W and row-normalized positive mask P, the gradient is
(M + M^T) x / tau for M = diag(w)(W - P). The losses differ only in w:

* supcon: no universum rows, every weight 1.
* dual-contrastive total (the training loss): 1 for known anchors and
  gamma for universum anchors (0 with include_universum_term off, which
  leaves the known term alone), so each universum row repels exactly
  the class it targets.

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
    """Temperature, universum balance, and the w/o-dual-term switch."""

    temperature: float = 0.1
    gamma: float = 1.0
    include_universum_term: bool = True

    def __post_init__(self):
        if self.temperature <= 0:
            raise InvalidArgumentError("temperature must be > 0")
        if self.gamma < 0:
            raise InvalidArgumentError("gamma must be >= 0")


@dataclass(frozen=True)
class LossResult:
    """Loss value and analytic gradients.

    grad is d(loss)/d(stacked rows [z; u]); grad_z and grad_u are its
    known and universum slices, and grad_u is None when no universum rows
    were involved. per_anchor holds each anchor's term (0 for skipped
    anchors) and is None for combined losses whose anchors span two sets.
    """

    value: float
    grad_z: np.ndarray
    grad_u: np.ndarray | None
    skipped_anchors: int
    per_anchor: np.ndarray | None
    grad: np.ndarray


@dataclass(frozen=True)
class _CoreResult:
    """Core output over all stacked rows; inactive anchors hold zeros."""

    value: float
    per_anchor: np.ndarray
    grad: np.ndarray
    anchor_partial: np.ndarray
    skipped: int


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
) -> _CoreResult:
    """One masked softmax over the stacked rows; see the module docstring.

    Rows before n_known are known, the rest universum. Two rows share a
    stacked label exactly when they are on the same side and target the
    same class (pseudo labels are the targets offset past every known
    label), so the positives and the denominator both come from one
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

    per_anchor = np.where(valid, log_s - pos_sim / np.maximum(pos_count, 1), 0.0)
    value = float((weight * per_anchor).sum())
    if not np.isfinite(value):
        raise NumericError("contrastive loss is non-finite")

    # M = diag(weight)(W - P) in place of W
    w /= denom[:, None]
    np.subtract(w, (valid / np.maximum(pos_count, 1))[:, None], out=w, where=pos_mask)
    if np.any(weight != 1.0):  # x * 1.0 is x: supcon and gamma 1 skip the pass
        w *= weight[:, None]
    anchor_partial = (w @ x) / tau
    grad = anchor_partial + (w.T @ x) / tau

    return _CoreResult(
        value=value,
        per_anchor=per_anchor,
        grad=grad,
        anchor_partial=anchor_partial,
        skipped=int(np.count_nonzero(active & (pos_count == 0))),
    )


def _infer_num_known(
    labels: np.ndarray, u_labels: np.ndarray, num_known: int | None
) -> int:
    """Recover K and validate that pseudo labels target classes in 1..K.

    Without an explicit K the universum batch must be row-aligned with
    the anchors, as in training, and K is the constant offset
    u_labels - labels; anything else is a broken bijection. Either way
    no known label may equal a pseudo label, so a stacked label names
    one side and one targeted class.
    """
    if num_known is None:
        if u_labels.shape != labels.shape or not u_labels.size:
            raise InvalidArgumentError(
                "universum rows not aligned with the anchors need an explicit num_known"
            )
        diffs = u_labels - labels
        if not np.all(diffs == diffs[0]):
            raise InvalidArgumentError(
                "universum labels do not map to anchors by a constant class-count offset"
            )
        num_known = int(diffs[0])
    if u_labels.size:
        targets = u_labels - num_known
        if targets.min() < 1 or targets.max() > num_known:
            raise InvalidArgumentError(
                "universum labels must equal a known label plus the class count"
            )
        if labels.max() > num_known:
            raise InvalidArgumentError("known labels must not exceed the class count")
    return num_known


def supcon_loss_grad(
    z: np.ndarray, labels, cfg: LossConfig, *, work: LossWorkspace | None = None
) -> LossResult:
    """Supervised contrastive loss summed over anchors, with gradient."""
    z = _check_rows("z", z)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (z.shape[0],):
        raise InvalidArgumentError("labels must align with embedding rows")
    core = _stacked_core(z, labels, len(z), np.ones(len(z)), cfg.temperature, work)
    return LossResult(core.value, core.grad, None, core.skipped, core.per_anchor, core.grad)


def _dc_core(z, labels, u, u_labels, num_known, tau, known_weight, universum_weight,
             work=None):
    """Check the inputs once and run the core over [z; u] with these weights.

    Returns the core result, the stacked rows, their targeted classes and
    the number of known rows.
    """
    z = _check_rows("z", z)
    u = _check_rows("u", u)
    if z.shape[1] != u.shape[1]:
        raise InvalidArgumentError("z and u must share the embedding dimension")
    labels = np.asarray(labels, dtype=np.int64)
    u_labels = np.asarray(u_labels, dtype=np.int64)
    if labels.shape != (z.shape[0],) or u_labels.shape != (u.shape[0],):
        raise InvalidArgumentError("labels must align with embedding rows")
    k = _infer_num_known(labels, u_labels, num_known)

    nz = z.shape[0]
    x = np.concatenate([z, u])
    weight = np.repeat([known_weight, universum_weight], [nz, u.shape[0]])
    targets = np.concatenate([labels, u_labels - k])
    core = _stacked_core(x, targets, nz, weight, tau, work)
    return core, x, targets, nz


def _split_result(core: _CoreResult, nz: int, per_anchor) -> LossResult:
    """The core's stacked gradient with its first nz rows as grad_z."""
    return LossResult(
        core.value, core.grad[:nz], core.grad[nz:], core.skipped, per_anchor, core.grad
    )


def dc_total_loss_grad(
    z: np.ndarray,
    labels,
    u: np.ndarray,
    u_labels,
    cfg: LossConfig,
    num_known: int | None = None,
    *,
    work: LossWorkspace | None = None,
) -> LossResult:
    """Combined loss: known term plus gamma times the universum term.

    With include_universum_term off only the known term is evaluated
    (universum rows still receive gradient through its denominators).
    """
    gamma = cfg.gamma if cfg.include_universum_term else 0.0
    core, _, _, nz = _dc_core(
        z, labels, u, u_labels, num_known, cfg.temperature, 1.0, gamma, work
    )
    per_anchor = None if gamma else core.per_anchor[:nz]
    return _split_result(core, nz, per_anchor)
