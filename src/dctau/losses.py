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
  gamma for universum anchors (0 with include_universum_term off), so
  each universum row repels exactly the class it targets.
* known and universum terms: the total with the other side's weights 0,
  kept as oracle entry points for verify, tests and demos.

Log-sum-exp uses max subtraction, and since every loss shares this code
the known term with zero universum rows is bitwise identical to supcon.

GradientDecomposition is an oracle that the training path never builds;
only dc_known_loss_grad computes it. It splits each known anchor's own
partial gradient into an attractive positive term and two repulsive
softmax-weighted sums (over known rows and over matched universum rows)
from plain exponentials, independent of the stabilized path, so
reassembly against the core's anchor partial is a real check. Those
plain exponentials overflow at small temperatures.
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

    grad_z is d(loss)/d(known embedding); grad_u is d(loss)/d(universum
    embedding) and is None when no universum rows were involved.
    per_anchor holds each anchor's term (0 for skipped anchors) and is
    None for combined losses whose anchors span two sets.
    """

    value: float
    grad_z: np.ndarray
    grad_u: np.ndarray | None
    skipped_anchors: int
    per_anchor: np.ndarray | None


@dataclass(frozen=True)
class GradientDecomposition:
    """Per-anchor three-part split of the anchor-side partial gradient.

    pos_term[i] is the mean of anchor i's positive embeddings
    (attractive); g_nk[i] and g_tau[i] are the softmax-weighted sums
    over the other known embeddings and the matched universum
    embeddings, stored with the repulsive sign folded in. For every
    anchor, -(1/tau) * (pos_term + g_nk + g_tau) reconstructs
    anchor_partial, the derivative of the anchor's own term with
    respect to its embedding (the total gradient adds the contributions
    an embedding receives from other anchors' terms).

    known_exp[i, k] = exp(z_i.z_k/tau) for k != i (0 on the diagonal);
    tau_exp[i, j] = exp(z_i.u_j/tau) for matched universum rows (0
    elsewhere); normalizer[i] is exactly their row sum. These are
    computed without stabilization, on purpose: reassembly then checks
    the stabilized path against independent arithmetic.
    """

    pos_term: np.ndarray
    g_nk: np.ndarray
    g_tau: np.ndarray
    known_exp: np.ndarray
    tau_exp: np.ndarray
    normalizer: np.ndarray
    anchor_partial: np.ndarray
    temperature: float


@dataclass(frozen=True)
class _CoreResult:
    """Core output over all stacked rows; inactive anchors hold zeros."""

    value: float
    per_anchor: np.ndarray
    grad: np.ndarray
    anchor_partial: np.ndarray
    pos_mask: np.ndarray
    den_mask: np.ndarray
    valid: np.ndarray
    skipped: int


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
    labels: np.ndarray,
    targets: np.ndarray,
    n_known: int,
    weight: np.ndarray,
    tau: float,
) -> _CoreResult:
    """One masked softmax over the stacked rows; see the module docstring.

    Rows before n_known are known, the rest universum. Rows with zero
    weight do not anchor but still enter other anchors' softmaxes.
    """
    n = x.shape[0]
    active = weight > 0
    if np.count_nonzero(active) < 2:
        raise InvalidArgumentError("need at least 2 anchor rows")

    off_diag = ~np.eye(n, dtype=bool)
    side = np.arange(n) >= n_known
    den_mask = (side[:, None] == side[None, :]) | (targets[:, None] == targets[None, :])
    den_mask &= off_diag
    pos_mask = (labels[:, None] == labels[None, :]) & off_diag
    pos_count = pos_mask.sum(axis=1)
    valid = (pos_count > 0) & active
    if not valid.any():
        raise DegenerateBatchError("every anchor lacks positives")

    sims = x @ x.T
    sims /= tau
    # rows that anchor nothing get an all-zero softmax row and a unit
    # denominator, so their log stays finite
    w = np.where(den_mask & valid[:, None], sims, -np.inf)
    mx = np.where(valid, w.max(axis=1), 0.0)
    w -= mx[:, None]
    np.exp(w, out=w)
    denom = w.sum(axis=1)
    denom[~valid] = 1.0
    log_s = mx + np.log(denom)

    pos_sim = np.where(pos_mask, sims, 0.0).sum(axis=1)
    per_anchor = np.where(valid, log_s - pos_sim / np.maximum(pos_count, 1), 0.0)
    value = float((weight * per_anchor).sum())
    if not np.isfinite(value):
        raise NumericError("contrastive loss is non-finite")

    w /= denom[:, None]
    w -= pos_mask * (valid / np.maximum(pos_count, 1))[:, None]
    w *= weight[:, None]
    anchor_partial = (w @ x) / tau
    grad = anchor_partial + (w.T @ x) / tau

    return _CoreResult(
        value=value,
        per_anchor=per_anchor,
        grad=grad,
        anchor_partial=anchor_partial,
        pos_mask=pos_mask,
        den_mask=den_mask,
        valid=valid,
        skipped=int(np.count_nonzero(active & (pos_count == 0))),
    )


def _infer_num_known(
    labels: np.ndarray, u_labels: np.ndarray, num_known: int | None
) -> int:
    """Recover K and validate that pseudo labels target classes in 1..K.

    When the universum batch is row-aligned with the anchors (the usual
    case) K must be the constant offset u_labels - labels; anything else
    is a broken bijection. Unaligned row counts are allowed for
    experiments as long as K is given explicitly or max(labels) covers
    every targeted class.
    """
    if num_known is None:
        if u_labels.shape == labels.shape and u_labels.size:
            diffs = u_labels - labels
            if not np.all(diffs == diffs[0]) or diffs[0] < labels.max():
                raise InvalidArgumentError(
                    "universum labels do not map to anchors by a constant class-count offset"
                )
            return int(diffs[0])
        num_known = int(labels.max())
    if u_labels.size:
        targets = u_labels - num_known
        if targets.min() < 1 or targets.max() > num_known:
            raise InvalidArgumentError(
                "universum labels must equal a known label plus the class count"
            )
        if labels.max() > num_known:
            raise InvalidArgumentError("known labels must not exceed the class count")
    return num_known


def supcon_loss_grad(z: np.ndarray, labels, cfg: LossConfig) -> LossResult:
    """Supervised contrastive loss summed over anchors, with gradient."""
    z = _check_rows("z", z)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (z.shape[0],):
        raise InvalidArgumentError("labels must align with embedding rows")
    core = _stacked_core(z, labels, labels, len(z), np.ones(len(z)), cfg.temperature)
    return LossResult(core.value, core.grad, None, core.skipped, core.per_anchor)


def _dc_core(z, labels, u, u_labels, num_known, tau, known_weight, universum_weight):
    """Check the inputs once and run the core over [z; u] with these weights."""
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
    core = _stacked_core(x, np.concatenate([labels, u_labels]), targets, nz, weight, tau)
    return core, x, nz


def dc_known_loss_grad(
    z: np.ndarray,
    labels,
    u: np.ndarray,
    u_labels,
    cfg: LossConfig,
    num_known: int | None = None,
) -> tuple[LossResult, GradientDecomposition]:
    """Known-anchor dual-contrastive term with its gradient decomposition.

    Anchors and positives are the known embeddings exactly as in supcon;
    each anchor's denominator additionally sums over the universum rows
    targeting the anchor's class. With zero universum rows the result is
    bitwise identical to supcon_loss_grad.
    """
    core, x, nz = _dc_core(z, labels, u, u_labels, num_known, cfg.temperature, 1.0, 0.0)
    result = LossResult(
        core.value, core.grad[:nz], core.grad[nz:], core.skipped, core.per_anchor[:nz]
    )
    return result, _decompose(x, nz, core, cfg.temperature)


def dc_universum_loss_grad(
    u: np.ndarray,
    u_labels,
    z: np.ndarray,
    labels,
    cfg: LossConfig,
    num_known: int | None = None,
) -> LossResult:
    """Universum-anchor dual term: the known-anchor term with roles swapped.

    Universum rows anchor; positives are other rows with the same pseudo
    label; the denominator spans the other universum rows plus the known
    rows of the anchor's targeted class.
    """
    core, _, nz = _dc_core(z, labels, u, u_labels, num_known, cfg.temperature, 0.0, 1.0)
    return LossResult(
        core.value, core.grad[:nz], core.grad[nz:], core.skipped, core.per_anchor[nz:]
    )


def dc_total_loss_grad(
    z: np.ndarray,
    labels,
    u: np.ndarray,
    u_labels,
    cfg: LossConfig,
    num_known: int | None = None,
) -> LossResult:
    """Combined loss: known term plus gamma times the universum term.

    With include_universum_term off only the known term is evaluated
    (universum rows still receive gradient through its denominators).
    """
    gamma = cfg.gamma if cfg.include_universum_term else 0.0
    core, _, nz = _dc_core(z, labels, u, u_labels, num_known, cfg.temperature, 1.0, gamma)
    per_anchor = None if gamma else core.per_anchor[:nz]
    return LossResult(core.value, core.grad[:nz], core.grad[nz:], core.skipped, per_anchor)


def _decompose(x: np.ndarray, nz: int, core: _CoreResult, tau: float) -> GradientDecomposition:
    """Three-part split of each known anchor's own partial gradient.

    Built from plain (unstabilized) exponentials so that reassembly
    against core.anchor_partial crosses two arithmetic paths.
    """
    z, u = x[:nz], x[nz:]
    pos_mask = core.pos_mask[:nz, :nz]
    valid = core.valid[:nz]
    known_exp = np.exp((z @ z.T) / tau)
    np.fill_diagonal(known_exp, 0.0)
    tau_exp = np.where(core.den_mask[:nz, nz:], np.exp((z @ u.T) / tau), 0.0)
    normalizer = known_exp.sum(axis=1) + tau_exp.sum(axis=1)

    pos_count = pos_mask.sum(axis=1)
    pn = np.where(valid[:, None], pos_mask / np.maximum(pos_count, 1)[:, None], 0.0)
    pos_term = pn @ z
    g_nk = -(known_exp / normalizer[:, None]) @ z
    g_tau = -(tau_exp / normalizer[:, None]) @ u
    g_nk[~valid] = 0.0
    g_tau[~valid] = 0.0

    return GradientDecomposition(
        pos_term=pos_term,
        g_nk=g_nk,
        g_tau=g_tau,
        known_exp=known_exp,
        tau_exp=tau_exp,
        normalizer=normalizer,
        anchor_partial=core.anchor_partial[:nz],
        temperature=tau,
    )


def reassemble_anchor_partial(decomp: GradientDecomposition) -> np.ndarray:
    """-(1/tau)(pos_term + g_nk + g_tau); should match anchor_partial."""
    return -(decomp.pos_term + decomp.g_nk + decomp.g_tau) / decomp.temperature


def hard_negative_weights(
    decomp: GradientDecomposition,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized repulsion weights per anchor.

    Returns (known_weights, tau_weights): known_weights[i, k] is the
    share exp(z_i.z_k/tau)/S_i each other known row receives of anchor
    i's repulsive gradient, tau_weights[i, j] the share of each matched
    universum row. Rows sum to 1 across both matrices together, and a
    row's weight grows strictly with its similarity to the anchor, so
    harder negatives dominate.
    """
    s = decomp.normalizer[:, None]
    return decomp.known_exp / s, decomp.tau_exp / s
