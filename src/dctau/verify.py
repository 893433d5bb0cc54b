"""Self-contained numeric oracle suite, runnable via `dctau verify`.

Each check recomputes an expected value by an independent route (hand
arithmetic, finite differences, brute-force counting) and compares the
library against it. The suite is a fast release gate; the test suite
runs the same families of checks at larger sample counts.

`inject_sign_error=True` flips the sign of the universum-side gradient
before checking, as a self-test that the gradient oracles can actually
fail: with it set, the finite-difference and reassembly checks must
report failures.

The gradient decomposition lives here, not in the losses, because
training never builds it. `decompose` splits each known anchor's own
partial gradient into an attractive positive term and two repulsive
softmax-weighted sums (over known rows and over matched universum rows)
from plain exponentials, independent of the stabilized loss core, so
reassembly against the core's anchor partial is a real check. Those
plain exponentials overflow at small temperatures.
`dc_universum_loss_grad` is the universum-anchored term alone, which
training only ever sees folded into dc_total_loss_grad.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .losses import (
    LossConfig,
    LossResult,
    _dc_core,
    dc_total_loss_grad,
    supcon_loss_grad,
)
from .metrics import auroc, macro_f1, oscr
from .model import backprop_embedding, embed, init_params
from .openset import ThresholdTable, fit_thresholds, predict_open_many
from .universum import make_universum
from .data import Batch

_FD_H = 1e-5
_FD_RTOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _labels_with_positives(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    while True:
        labels = rng.integers(1, k + 1, size=n)
        counts = np.bincount(labels, minlength=k + 1)
        if np.unique(labels).size >= 2 and (counts[counts > 0] >= 2).all():
            return labels


def _fd_grad(fn, x: np.ndarray, h: float = _FD_H) -> np.ndarray:
    """Central finite differences of a scalar function of an array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return grad


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def _maybe_inject(result, inject: bool):
    if not inject or result.grad_u is None:
        return result
    return dc_replace(result, grad_u=-result.grad_u)


# --- the gradient decomposition oracle ----------------------------------


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


def decompose(
    z: np.ndarray,
    labels,
    u: np.ndarray,
    u_targets,
    cfg: LossConfig,
) -> GradientDecomposition:
    """Three-part split of each known anchor's own partial gradient.

    The anchor partial comes from the loss core with the known term
    alone; the split is built from plain (unstabilized) exponentials so
    that reassembly against it crosses two arithmetic paths.
    """
    tau = cfg.temperature
    anchor_partial = _dc_core(z, labels, u, u_targets, tau, 1.0, 0.0).anchor_partial[: len(z)]
    z, u = np.asarray(z, dtype=np.float64), np.asarray(u, dtype=np.float64)
    # a known row's target is its label; a universum row counts in a
    # known anchor's denominator when it targets the anchor's class
    z_targets = np.asarray(labels, dtype=np.int64)
    u_targets = np.asarray(u_targets, dtype=np.int64)
    pos_mask = z_targets[:, None] == z_targets[None, :]
    np.fill_diagonal(pos_mask, False)
    pos_count = pos_mask.sum(axis=1)
    valid = pos_count > 0
    known_exp = np.exp((z @ z.T) / tau)
    np.fill_diagonal(known_exp, 0.0)
    tau_exp = np.where(z_targets[:, None] == u_targets[None, :], np.exp((z @ u.T) / tau), 0.0)
    normalizer = known_exp.sum(axis=1) + tau_exp.sum(axis=1)

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
        anchor_partial=anchor_partial,
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


def dc_universum_loss_grad(
    u: np.ndarray,
    u_targets,
    z: np.ndarray,
    labels,
    cfg: LossConfig,
) -> LossResult:
    """Universum-anchor dual term: the known-anchor term with roles swapped.

    Universum rows anchor; positives are other universum rows with the
    same target; the denominator spans the other universum rows plus the
    known rows of the anchor's targeted class.
    """
    return _dc_core(z, labels, u, u_targets, cfg.temperature, 0.0, 1.0)


# --- individual checks --------------------------------------------------


def check_supcon_worked_example() -> CheckResult:
    z = np.eye(4)
    labels = np.array([1, 1, 2, 2])
    res = supcon_loss_grad(z, labels, LossConfig(temperature=1.0))
    expected = 4 * math.log(3.0)
    ok = abs(res.value - expected) < 1e-12
    return CheckResult(
        "supcon_worked_example", ok, f"value={res.value:.6f} expected={expected:.6f}"
    )


def check_gradient_fd(inject_sign_error: bool = False) -> CheckResult:
    """Analytic vs central-difference gradients for all four losses."""
    rng = np.random.default_rng(11)
    worst = 0.0
    cfg = LossConfig(temperature=0.3, gamma=0.7)
    known_cfg = dc_replace(cfg, gamma=0.0)
    for _ in range(3):
        n, d, k = 10, 6, 3
        z = _unit_rows(rng, n, d)
        labels = _labels_with_positives(rng, n, k)
        u = _unit_rows(rng, n, d)

        res = supcon_loss_grad(z, labels, cfg)
        fd = _fd_grad(lambda zz: supcon_loss_grad(zz, labels, cfg).value, z.copy())
        worst = max(worst, _rel_err(res.grad_z, fd))

        res = dc_total_loss_grad(z, labels, u, labels, known_cfg)
        res = _maybe_inject(res, inject_sign_error)
        fd_z = _fd_grad(lambda zz: dc_total_loss_grad(zz, labels, u, labels, known_cfg).value, z.copy())
        fd_u = _fd_grad(lambda uu: dc_total_loss_grad(z, labels, uu, labels, known_cfg).value, u.copy())
        worst = max(worst, _rel_err(res.grad_z, fd_z), _rel_err(res.grad_u, fd_u))

        res = dc_universum_loss_grad(u, labels, z, labels, cfg)
        fd_u = _fd_grad(lambda uu: dc_universum_loss_grad(uu, labels, z, labels, cfg).value, u.copy())
        fd_z = _fd_grad(lambda zz: dc_universum_loss_grad(u, labels, zz, labels, cfg).value, z.copy())
        worst = max(worst, _rel_err(res.grad_u, fd_u), _rel_err(res.grad_z, fd_z))

        res = dc_total_loss_grad(z, labels, u, labels, cfg)
        res = _maybe_inject(res, inject_sign_error)
        fd_z = _fd_grad(lambda zz: dc_total_loss_grad(zz, labels, u, labels, cfg).value, z.copy())
        fd_u = _fd_grad(lambda uu: dc_total_loss_grad(z, labels, uu, labels, cfg).value, u.copy())
        worst = max(worst, _rel_err(res.grad_z, fd_z), _rel_err(res.grad_u, fd_u))
    ok = worst < _FD_RTOL
    return CheckResult("gradient_fd", ok, f"worst relative error {worst:.2e}")


def check_network_gradient_fd() -> CheckResult:
    """Loss through encoder/projection vs finite differences on parameters."""
    rng = np.random.default_rng(4)
    params = init_params(dim=5, hidden=(7,), proj_dim=4, num_classes=3, seed=9)
    x = rng.standard_normal((8, 5))
    labels = _labels_with_positives(rng, 8, 3)
    cfg = LossConfig(temperature=0.5)

    def loss_of(p) -> float:
        z, _ = embed(p, x)
        return supcon_loss_grad(z, labels, cfg).value

    z, trace = embed(params, x)
    res = supcon_loss_grad(z, labels, cfg)
    grads = backprop_embedding(params, trace, res.grad_z)

    layers, n_enc = params.encoder + params.projection, len(params.encoder)
    worst = 0.0
    for li, grad in enumerate(grads):
        for kind in ("weight", "bias"):

            def fn(a, _li=li, _kind=kind):
                chain = list(layers)
                chain[_li] = dc_replace(chain[_li], **{_kind: a})
                return loss_of(dc_replace(
                    params, encoder=tuple(chain[:n_enc]), projection=tuple(chain[n_enc:])))

            fd = _fd_grad(fn, getattr(layers[li], kind).copy())
            worst = max(worst, _rel_err(getattr(grad, kind), fd))
    ok = worst < _FD_RTOL
    return CheckResult("network_gradient_fd", ok, f"worst relative error {worst:.2e}")


def check_reduction_identity() -> CheckResult:
    rng = np.random.default_rng(23)
    cfg = LossConfig(temperature=0.15, gamma=0.0)
    empty_u = np.zeros((0, 5))
    empty_labels = np.zeros(0, dtype=np.int64)
    for _ in range(20):
        z = _unit_rows(rng, 12, 5)
        labels = _labels_with_positives(rng, 12, 4)
        plain = supcon_loss_grad(z, labels, cfg)
        dual = dc_total_loss_grad(z, labels, empty_u, empty_labels, cfg)
        if plain.value != dual.value or not np.array_equal(plain.grad_z, dual.grad_z):
            return CheckResult("reduction_identity", False, "bitwise mismatch")
    return CheckResult("reduction_identity", True, "20/20 draws bitwise equal")


def check_decomposition(inject_sign_error: bool = False) -> CheckResult:
    rng = np.random.default_rng(37)
    cfg = LossConfig(temperature=0.2)
    worst = 0.0
    shrink_ok = True
    for _ in range(20):
        z = _unit_rows(rng, 10, 6)
        labels = _labels_with_positives(rng, 10, 3)
        u = _unit_rows(rng, 10, 6)
        decomp = decompose(z, labels, u, labels, cfg)
        injected = dc_replace(decomp, g_tau=-decomp.g_tau) if inject_sign_error else decomp
        rebuilt = reassemble_anchor_partial(injected)
        worst = max(worst, float(np.abs(rebuilt - decomp.anchor_partial).max()))
        s_exact = decomp.known_exp.sum(axis=1) + decomp.tau_exp.sum(axis=1)
        if not np.array_equal(s_exact, decomp.normalizer):
            return CheckResult("decomposition", False, "normalizer is not the exact sum")
        known_w, _ = hard_negative_weights(decomp)
        supcon_w = decomp.known_exp / decomp.known_exp.sum(axis=1, keepdims=True)
        off_diag = ~np.eye(10, dtype=bool)
        shrink_ok &= bool(np.all(known_w[off_diag] < supcon_w[off_diag]))
    ok = worst <= 1e-10 and shrink_ok
    return CheckResult(
        "decomposition", ok, f"max reassembly error {worst:.2e}; weight shrinkage {shrink_ok}"
    )


def check_hard_negative_situations() -> CheckResult:
    tau = 0.5
    cfg = LossConfig(temperature=tau)
    d = 8

    # one anchor nearly colinear with a known negative while its universum
    # row is orthogonal: the known weight must dominate by exp(delta/tau)
    z = np.zeros((4, d))
    z[0, 0] = 1.0
    z[1, 0] = 1.0          # hard known negative, dot = 1 with anchor 0
    z[2, 1] = 1.0
    z[3, 1] = 1.0
    labels = np.array([1, 2, 1, 2])
    u = np.zeros((4, d))
    u[0, 2] = 1.0          # orthogonal to anchor 0, dot = 0
    u[1, 3] = 1.0
    u[2, 4] = 1.0
    u[3, 5] = 1.0
    decomp = decompose(z, labels, u, labels, cfg)
    known_w, tau_w = hard_negative_weights(decomp)
    ratio = known_w[0, 1] / tau_w[0, 0]
    expected = math.exp((1.0 - 0.0) / tau)
    sit1_ok = abs(ratio - expected) < 1e-9

    # all pairwise dots equal (orthogonal rows): every weight is exactly
    # 1/(number of denominator entries)
    basis = np.eye(8)
    z, u_all = basis[:4], basis[4:]
    decomp = decompose(z, np.array([1, 1, 2, 2]), u_all, np.array([1, 1, 2, 2]), cfg)
    known_w, tau_w = hard_negative_weights(decomp)
    per_anchor_entries = 3 + 2  # 3 other knowns + 2 matched universum rows
    expect_w = 1.0 / per_anchor_entries
    offd = ~np.eye(4, dtype=bool)
    sit3_ok = np.all(known_w[offd] == expect_w) and np.all(
        tau_w[decomp.tau_exp > 0] == expect_w
    )
    sums = known_w.sum(axis=1) + tau_w.sum(axis=1)
    sum_ok = np.allclose(sums, 1.0, atol=1e-12)

    ok = bool(sit1_ok and sit3_ok and sum_ok)
    return CheckResult(
        "hard_negative_situations",
        ok,
        f"ratio={ratio:.6f} expected={expected:.6f}; equal-weight case {bool(sit3_ok)}",
    )


def check_universum_examples() -> CheckResult:
    rng = np.random.default_rng(3)
    batch = Batch(rng.standard_normal((6, 4)), np.array([1, 1, 2, 2, 3, 3]))
    u1 = make_universum(batch, 1.0, np.random.default_rng(0))
    lam1_ok = np.array_equal(u1, batch.features)

    two = Batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 2]))
    u2 = make_universum(two, 0.5, np.random.default_rng(0))
    pair_ok = np.allclose(u2, np.array([[0.5, 0.5], [0.5, 0.5]]))

    # anchor (1,0) with other-class draws (0,1) and (-1,0) at lam 0.5:
    # average is (-0.5, 0.5), blend gives (0.25, 0.25)
    tri = Batch(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), np.array([1, 2, 3])
    )
    u3 = make_universum(tri, 0.5, np.random.default_rng(0))
    hand_ok = np.allclose(u3[0], np.array([0.25, 0.25]))

    ok = bool(lam1_ok and pair_ok and hand_ok)
    return CheckResult(
        "universum_examples", ok, f"lam1={lam1_ok} pair={pair_ok} hand={hand_ok}"
    )


def check_metric_oracles() -> CheckResult:
    a = auroc([0.9, 0.4], [0.5, 0.1])
    auroc_ok = abs(a - 0.75) < 1e-15
    trivia_ok = (
        auroc([0.9, 0.8], [0.1, 0.2]) == 1.0 and auroc([0.5, 0.5], [0.5, 0.5]) == 0.5
    )

    kp = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    up = np.array([[0.55, 0.45], [0.3, 0.7]])
    labels = np.array([1, 2, 2])
    got = oscr(kp, labels, up)
    # brute force: enumerate distinct confidences as cutoffs
    confs = sorted(set(kp.max(axis=1)) | set(up.max(axis=1)))
    correct = kp.argmax(axis=1) + 1 == labels
    pts = {}
    for delta in confs:
        fpr = np.mean(up.max(axis=1) >= delta)
        ccr = np.mean(correct & (kp.max(axis=1) >= delta))
        pts[fpr] = max(pts.get(fpr, 0.0), ccr)
    xs = sorted(pts)
    ys = [pts[x] for x in xs]
    if xs[0] > 0:
        xs, ys = [0.0] + xs, [ys[0]] + ys
    if xs[-1] < 1:
        xs, ys = xs + [1.0], ys + [ys[-1]]
    expected = float(np.trapezoid(ys, xs))
    oscr_ok = abs(got - expected) < 1e-12

    f1 = macro_f1([1, 2, 0, 1], [1, 0, 0, 2], 2)
    # class 0: tp=1 fp=0 fn=1 -> 2/3; class 1: tp=1 fp=1 fn=0 -> 2/3;
    # class 2: tp=0 fp=1 fn=1 -> 0; mean = 4/9
    f1_ok = abs(f1 - 4.0 / 9.0) < 1e-12

    ok = bool(auroc_ok and trivia_ok and oscr_ok and f1_ok)
    return CheckResult(
        "metric_oracles",
        ok,
        f"auroc={a} oscr={got:.6f}~{expected:.6f} macro_f1={f1:.6f}",
    )


def check_threshold_rules() -> CheckResult:
    post = np.zeros((5, 2))
    post[:, 0] = [0.2, 0.4, 0.6, 0.8, 1.0]
    post[:, 1] = 1.0 - post[:, 0]
    labels = np.full(5, 1)
    # rows 0 and 1 are argmax class 2, so class 1's correct rows have
    # confidences {0.6, 0.8, 1.0}; their 50th percentile is 0.8
    table = fit_thresholds(post, labels, 50.0)
    fit_ok = abs(table.thresholds[0] - 0.8) < 1e-12

    direct = float(np.percentile([0.2, 0.4, 0.6, 0.8, 1.0], 50.0))
    interp_ok = abs(direct - 0.6) < 1e-12

    row = np.array([[0.55, 0.45]])
    reject, _ = predict_open_many(row, ThresholdTable(np.array([0.6, 0.5]), 5.0))
    accept, _ = predict_open_many(row, ThresholdTable(np.array([0.5, 0.5]), 5.0))
    rule_ok = reject[0] == 0 and accept[0] == 1

    ok = bool(fit_ok and interp_ok and rule_ok)
    return CheckResult(
        "threshold_rules", ok, f"fit={fit_ok} percentile={interp_ok} decision={rule_ok}"
    )


ALL_CHECKS = (
    check_supcon_worked_example,
    check_gradient_fd,
    check_network_gradient_fd,
    check_reduction_identity,
    check_decomposition,
    check_hard_negative_situations,
    check_universum_examples,
    check_metric_oracles,
    check_threshold_rules,
)


def run_all(inject_sign_error: bool = False, quiet: bool = False) -> list[CheckResult]:
    """Run every check; the injection flag only affects gradient checks."""
    results = []
    start = time.perf_counter()
    for check in ALL_CHECKS:
        if check in (check_gradient_fd, check_decomposition):
            result = check(inject_sign_error)
        else:
            result = check()
        results.append(result)
        if not quiet:
            flag = "PASS" if result.passed else "FAIL"
            print(f"{flag}  {result.name}: {result.detail}")
    if not quiet:
        elapsed = time.perf_counter() - start
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} checks passed in {elapsed:.2f}s")
    return results
