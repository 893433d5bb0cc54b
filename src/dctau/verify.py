"""Self-contained numeric oracle suite, runnable via `dctau verify`.

Each check recomputes an expected value by an independent route (hand
arithmetic, finite differences, brute-force counting) and compares the
library against it. The suite is a fast release gate; the test suite
runs the same families of checks at larger sample counts, with the
oracles written once here:

- `unit_rows`, `labels_with_positives` and `paired_labels` draw random
  unit rows and labels;
- `fd_grad` takes central finite differences of a zero-argument closure,
  perturbing its array in place, and `rel_err` compares a gradient with
  them;
- `auroc_pairs`, `oscr_sweep` and `macro_f1_loops` score by brute-force
  loops.

None of these calls the `losses` or `metrics` code it checks. The module
also exports the gradient decomposition (`decompose`,
`reassemble_anchor_partial`, `hard_negative_weights`), the
universum-anchored term `dc_universum_loss_grad`, the checks in
`ALL_CHECKS`, their `CheckResult` and `run_all`.

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
from .data import Batch, float_array

_FD_H = 1e-5
_FD_RTOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# --- oracles shared with the tests and demos ------------------------------


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n random rows of dimension d, each scaled to unit norm."""
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def labels_with_positives(
    rng: np.random.Generator, n: int, k: int, min_classes: int = 2
) -> np.ndarray:
    """Labels over 1..k, redrawn until every present class holds >= 2
    rows (so every anchor has a positive) and >= min_classes are present."""
    while True:
        labels = rng.integers(1, k + 1, size=n)
        counts = np.bincount(labels)
        counts = counts[counts > 0]
        if counts.size >= min_classes and (counts >= 2).all():
            return labels


def paired_labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Labels over 1..k, redrawn until >= 2 classes are present and at
    least one of them holds >= 2 rows; other classes may hold one."""
    while True:
        labels = rng.integers(1, k + 1, size=n)
        if np.unique(labels).size >= 2 and np.bincount(labels).max() >= 2:
            return labels


def fd_grad(fn, x: np.ndarray, h: float = _FD_H) -> np.ndarray:
    """Central finite differences of the zero-argument scalar fn in every
    entry of x, which fn reads and which is perturbed in place, in C order,
    and restored exactly."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + h
        up = fn()
        x[idx] = orig - h
        down = fn()
        x[idx] = orig
        grad[idx] = (up - down) / (2 * h)
    return grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """|analytic - numeric| / |numeric| in the L2 norm, the divisor floored at 1e-12."""
    denom = max(np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def auroc_pairs(known, unknown) -> float:
    """AUROC as wins plus half ties over every (known, unknown) pair."""
    total = 0.0
    for a in known:
        for b in unknown:
            total += 1.0 if a > b else (0.5 if a == b else 0.0)
    return total / (len(known) * len(unknown))


def oscr_sweep(known_post, known_true, unknown_post) -> float:
    """OSCR from a loop over every distinct confidence as the cutoff: the
    best CCR per FPR, padded to FPR 0 and 1, trapezoid-integrated."""
    known_conf = [max(row) for row in known_post]
    correct = [int(np.argmax(r)) + 1 == t for r, t in zip(known_post, known_true)]
    unknown_conf = [max(row) for row in unknown_post]
    best = {}
    for delta in sorted(set(known_conf) | set(unknown_conf)):
        ccr = sum(1 for c, ok in zip(known_conf, correct) if ok and c >= delta)
        fpr = sum(1 for c in unknown_conf if c >= delta)
        ccr /= len(known_conf)
        fpr /= len(unknown_conf)
        best[fpr] = max(best.get(fpr, 0.0), ccr)
    xs = sorted(best)
    ys = [best[f] for f in xs]
    if xs[0] > 0.0:
        xs.insert(0, 0.0)
        ys.insert(0, ys[0])
    if xs[-1] < 1.0:
        xs.append(1.0)
        ys.append(ys[-1])
    return sum((xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2.0 for i in range(1, len(xs)))


def macro_f1_loops(pred, true, k: int) -> float:
    """Mean F1 over the unknown label 0 and classes 1..k, counted by loops."""
    f1s = []
    for c in range(k + 1):
        tp = sum(1 for p, t in zip(pred, true) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, true) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, true) if p != c and t == c)
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return sum(f1s) / len(f1s)


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
    z, u = float_array("z", z, 2), float_array("u", u, 2)
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


def check_gradient_fd() -> CheckResult:
    """Analytic vs central-difference gradients for all four losses, and
    for the dual loss with fewer universum rows than known rows."""
    rng = np.random.default_rng(11)
    worst = 0.0
    cfg = LossConfig(temperature=0.3, gamma=0.7)
    known_cfg = dc_replace(cfg, gamma=0.0)
    for _ in range(3):
        n, d, k = 10, 6, 3
        z = unit_rows(rng, n, d)
        labels = labels_with_positives(rng, n, k)
        u = unit_rows(rng, n, d)

        res = supcon_loss_grad(z, labels, cfg)
        fd = fd_grad(lambda: supcon_loss_grad(z, labels, cfg).value, z)
        worst = max(worst, rel_err(res.grad_z, fd))

        res = dc_total_loss_grad(z, labels, u, labels, known_cfg)
        fd_z = fd_grad(lambda: dc_total_loss_grad(z, labels, u, labels, known_cfg).value, z)
        fd_u = fd_grad(lambda: dc_total_loss_grad(z, labels, u, labels, known_cfg).value, u)
        worst = max(worst, rel_err(res.grad_z, fd_z), rel_err(res.grad_u, fd_u))

        res = dc_universum_loss_grad(u, labels, z, labels, cfg)
        fd_u = fd_grad(lambda: dc_universum_loss_grad(u, labels, z, labels, cfg).value, u)
        fd_z = fd_grad(lambda: dc_universum_loss_grad(u, labels, z, labels, cfg).value, z)
        worst = max(worst, rel_err(res.grad_u, fd_u), rel_err(res.grad_z, fd_z))

        res = dc_total_loss_grad(z, labels, u, labels, cfg)
        fd_z = fd_grad(lambda: dc_total_loss_grad(z, labels, u, labels, cfg).value, z)
        fd_u = fd_grad(lambda: dc_total_loss_grad(z, labels, u, labels, cfg).value, u)
        worst = max(worst, rel_err(res.grad_z, fd_z), rel_err(res.grad_u, fd_u))

    # fewer universum rows than known rows, their targets permuted against
    # the labels; a generator of its own leaves the draws above as they were
    rng = np.random.default_rng(29)
    z = unit_rows(rng, 10, 6)
    labels = labels_with_positives(rng, 10, 3)
    u = unit_rows(rng, 6, 6)
    u_targets = rng.permutation(labels)[:6]
    res = dc_total_loss_grad(z, labels, u, u_targets, cfg)
    fd_z = fd_grad(lambda: dc_total_loss_grad(z, labels, u, u_targets, cfg).value, z)
    fd_u = fd_grad(lambda: dc_total_loss_grad(z, labels, u, u_targets, cfg).value, u)
    worst = max(worst, rel_err(res.grad_z, fd_z), rel_err(res.grad_u, fd_u))
    ok = worst < _FD_RTOL
    return CheckResult("gradient_fd", ok, f"worst relative error {worst:.2e}")


def check_network_gradient_fd() -> CheckResult:
    """Loss through encoder/projection vs finite differences on parameters."""
    rng = np.random.default_rng(4)
    params = init_params(dim=5, hidden=(7,), proj_dim=4, num_classes=3, seed=9)
    x = rng.standard_normal((8, 5))
    labels = labels_with_positives(rng, 8, 3)
    cfg = LossConfig(temperature=0.5)

    def loss() -> float:
        return supcon_loss_grad(embed(params, x)[0], labels, cfg).value

    z, trace = embed(params, x)
    res = supcon_loss_grad(z, labels, cfg)
    grads = backprop_embedding(params, trace, res.grad_z)

    worst = 0.0
    for layer, grad in zip(params.encoder + params.projection, grads):
        for kind in ("weight", "bias"):
            fd = fd_grad(loss, getattr(layer, kind))
            worst = max(worst, rel_err(getattr(grad, kind), fd))
    ok = worst < _FD_RTOL
    return CheckResult("network_gradient_fd", ok, f"worst relative error {worst:.2e}")


def check_reduction_identity() -> CheckResult:
    rng = np.random.default_rng(23)
    cfg = LossConfig(temperature=0.15, gamma=0.0)
    empty_u = np.zeros((0, 5))
    empty_labels = np.zeros(0, dtype=np.int64)
    for _ in range(20):
        z = unit_rows(rng, 12, 5)
        labels = labels_with_positives(rng, 12, 4)
        plain = supcon_loss_grad(z, labels, cfg)
        dual = dc_total_loss_grad(z, labels, empty_u, empty_labels, cfg)
        if plain.value != dual.value or not np.array_equal(plain.grad_z, dual.grad_z):
            return CheckResult("reduction_identity", False, "bitwise mismatch")
    return CheckResult("reduction_identity", True, "20/20 draws bitwise equal")


def check_decomposition() -> CheckResult:
    rng = np.random.default_rng(37)
    cfg = LossConfig(temperature=0.2)
    worst = 0.0
    shrink_ok = True
    for _ in range(20):
        z = unit_rows(rng, 10, 6)
        labels = labels_with_positives(rng, 10, 3)
        u = unit_rows(rng, 10, 6)
        decomp = decompose(z, labels, u, labels, cfg)
        rebuilt = reassemble_anchor_partial(decomp)
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
    expected = oscr_sweep(kp, labels, up)
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
    reject = predict_open_many(row, ThresholdTable(np.array([0.6, 0.5]), 5.0))
    accept = predict_open_many(row, ThresholdTable(np.array([0.5, 0.5]), 5.0))
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


def run_all(quiet: bool = False) -> list[CheckResult]:
    """Run every check, printing a PASS or FAIL line for each unless quiet."""
    results = []
    start = time.perf_counter()
    for check in ALL_CHECKS:
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
