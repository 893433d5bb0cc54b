"""Contrastive losses against naive references and finite differences.

The reference implementations below are deliberate triple loops over
the loss definition, and gradients are checked against central finite
differences of those loop values. Nothing here reuses the library's
vectorized paths. _reference_core keeps the allocating form of the
vectorized core that the workspace core must match bit for bit.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dctau.errors import DegenerateBatchError, InvalidArgumentError
from dctau.losses import (
    LossConfig,
    LossWorkspace,
    _stacked_core,
    dc_total_loss_grad,
    supcon_loss_grad,
)
from dctau.verify import (
    dc_universum_loss_grad,
    decompose,
    hard_negative_weights,
    reassemble_anchor_partial,
)

_FD_H = 1e-5
_FD_RTOL = 1e-4


def _unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _labels_with_positives(rng, n, k):
    """Labels over 1..k where every present class has >= 2 members."""
    while True:
        labels = rng.integers(1, k + 1, size=n)
        _, counts = np.unique(labels, return_counts=True)
        if np.all(counts >= 2):
            return labels.astype(np.int64)


def _loop_reference(anchors, anchor_labels, cross, cross_match, tau):
    """Loop transcription of the shared loss definition; value only."""
    n = anchors.shape[0]
    total = 0.0
    for i in range(n):
        positives = [p for p in range(n) if p != i and anchor_labels[p] == anchor_labels[i]]
        if not positives:
            continue
        denom = 0.0
        for k in range(n):
            if k != i:
                denom += math.exp(float(anchors[i] @ anchors[k]) / tau)
        for j in range(cross.shape[0]):
            if cross_match[j] == anchor_labels[i]:
                denom += math.exp(float(anchors[i] @ cross[j]) / tau)
        for p in positives:
            total -= math.log(math.exp(float(anchors[i] @ anchors[p]) / tau) / denom) / len(positives)
    return total


def _reference_core(x, labels, targets, n_known, weight, tau):
    """The core as it was before the workspace: fresh n x n arrays each call.

    Returns (value, per_anchor, grad, skipped).
    """
    n = x.shape[0]
    active = weight > 0
    off_diag = ~np.eye(n, dtype=bool)
    side = np.arange(n) >= n_known
    den_mask = (side[:, None] == side[None, :]) | (targets[:, None] == targets[None, :])
    den_mask &= off_diag
    pos_mask = (labels[:, None] == labels[None, :]) & off_diag
    pos_count = pos_mask.sum(axis=1)
    valid = (pos_count > 0) & active

    sims = x @ x.T
    sims /= tau
    w = np.where(den_mask & valid[:, None], sims, -np.inf)
    mx = np.where(valid, w.max(axis=1), 0.0)
    w -= mx[:, None]
    np.exp(w, out=w)
    denom = w.sum(axis=1)
    denom[~valid] = 1.0
    log_s = mx + np.log(denom)

    pos_sim = np.where(pos_mask, sims, 0.0).sum(axis=1)
    per_anchor = weight * np.where(valid, log_s - pos_sim / np.maximum(pos_count, 1), 0.0)
    value = float(per_anchor.sum())

    w /= denom[:, None]
    w -= pos_mask * (valid / np.maximum(pos_count, 1))[:, None]
    w *= weight[:, None]
    grad = (w @ x) / tau + (w.T @ x) / tau
    return value, per_anchor, grad, int(np.count_nonzero(active & (pos_count == 0)))


def reference_supcon(z, labels, tau):
    return _loop_reference(z, labels, np.zeros((0, z.shape[1])), np.zeros(0), tau)


def reference_dc_known(z, labels, u, u_targets, tau):
    return _loop_reference(z, labels, u, u_targets, tau)


def reference_dc_universum(u, u_targets, z, labels, tau):
    return _loop_reference(u, u_targets, z, labels, tau)


def _fd_grad(f, x):
    """Central finite differences of scalar f at x, coordinate by coordinate."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + _FD_H
        hi = f()
        x[idx] = orig - _FD_H
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * _FD_H)
        it.iternext()
    return g


def _rel_err(a, b):
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def _known_only(cfg):
    """cfg at gamma 0: dc_total_loss_grad is then the known term."""
    return dataclasses.replace(cfg, gamma=0.0)


def _draw(seed, n=8, d=5, k=3):
    """Known rows, their labels, and universum rows targeting those labels."""
    rng = np.random.default_rng(seed)
    z = _unit_rows(rng, n, d)
    labels = _labels_with_positives(rng, n, k)
    u = _unit_rows(rng, n, d)
    return z, labels, u, labels.copy()


def test_supcon_value_matches_loop_reference():
    cfg = LossConfig(temperature=0.37)
    for seed in range(10):
        z, labels, _, _ = _draw(seed)
        res = supcon_loss_grad(z, labels, cfg)
        ref = reference_supcon(z, labels, cfg.temperature)
        assert abs(res.value - ref) <= 1e-9 * max(1.0, abs(ref))
        assert res.grad_u is None
        assert res.skipped_anchors == 0
        assert abs(res.per_anchor.sum() - res.value) < 1e-12


def test_dc_values_match_loop_references():
    cfg = LossConfig(temperature=0.21)
    for seed in range(10):
        z, labels, u, u_targets = _draw(seed)
        known = dc_total_loss_grad(z, labels, u, u_targets, _known_only(cfg))
        dual = dc_universum_loss_grad(u, u_targets, z, labels, cfg)
        ref_known = reference_dc_known(z, labels, u, u_targets, cfg.temperature)
        ref_dual = reference_dc_universum(u, u_targets, z, labels, cfg.temperature)
        assert abs(known.value - ref_known) <= 1e-9 * max(1.0, abs(ref_known))
        assert abs(dual.value - ref_dual) <= 1e-9 * max(1.0, abs(ref_dual))


def test_gradients_match_finite_differences_of_reference():
    cfg = LossConfig(temperature=0.3, gamma=0.7)
    for seed in range(5):
        z, labels, u, u_targets = _draw(seed, n=7, d=4)

        res = supcon_loss_grad(z, labels, cfg)
        fd = _fd_grad(lambda: reference_supcon(z, labels, cfg.temperature), z)
        assert _rel_err(res.grad_z, fd) < _FD_RTOL

        known = dc_total_loss_grad(z, labels, u, u_targets, _known_only(cfg))
        fd_z = _fd_grad(lambda: reference_dc_known(z, labels, u, u_targets, cfg.temperature), z)
        fd_u = _fd_grad(lambda: reference_dc_known(z, labels, u, u_targets, cfg.temperature), u)
        assert _rel_err(known.grad_z, fd_z) < _FD_RTOL
        assert _rel_err(known.grad_u, fd_u) < _FD_RTOL

        dual = dc_universum_loss_grad(u, u_targets, z, labels, cfg)
        fd_z = _fd_grad(lambda: reference_dc_universum(u, u_targets, z, labels, cfg.temperature), z)
        fd_u = _fd_grad(lambda: reference_dc_universum(u, u_targets, z, labels, cfg.temperature), u)
        assert _rel_err(dual.grad_z, fd_z) < _FD_RTOL
        assert _rel_err(dual.grad_u, fd_u) < _FD_RTOL

        def ref_total():
            return reference_dc_known(
                z, labels, u, u_targets, cfg.temperature
            ) + cfg.gamma * reference_dc_universum(u, u_targets, z, labels, cfg.temperature)

        total = dc_total_loss_grad(z, labels, u, u_targets, cfg)
        assert _rel_err(total.grad_z, _fd_grad(ref_total, z)) < _FD_RTOL
        assert _rel_err(total.grad_u, _fd_grad(ref_total, u)) < _FD_RTOL


def test_total_is_linear_combination():
    cfg = LossConfig(temperature=0.15, gamma=1.7)
    z, labels, u, u_targets = _draw(3)
    known = dc_total_loss_grad(z, labels, u, u_targets, _known_only(cfg))
    dual = dc_universum_loss_grad(u, u_targets, z, labels, cfg)
    total = dc_total_loss_grad(z, labels, u, u_targets, cfg)
    assert total.value == pytest.approx(known.value + cfg.gamma * dual.value, rel=1e-12)
    assert np.allclose(total.grad_z, known.grad_z + cfg.gamma * dual.grad_z, atol=1e-12)
    assert np.allclose(total.grad_u, known.grad_u + cfg.gamma * dual.grad_u, atol=1e-12)
    assert total.value == total.per_anchor.sum()
    nz = len(z)
    assert total.per_anchor[:nz].sum() == pytest.approx(known.value, rel=1e-12)
    assert total.per_anchor[nz:].sum() == pytest.approx(cfg.gamma * dual.value, rel=1e-12)
    assert len(total.per_anchor) == nz + len(u)


def test_without_universum_term_keeps_known_term_only():
    cfg_on = LossConfig(temperature=0.2, gamma=1.0)
    cfg_zero = LossConfig(temperature=0.2, gamma=0.0)
    z, labels, u, u_targets = _draw(4)
    zero = dc_total_loss_grad(z, labels, u, u_targets, cfg_zero)
    on = dc_total_loss_grad(z, labels, u, u_targets, cfg_on)
    # gamma 0 is the known-anchored term of the loop reference
    ref = reference_dc_known(z, labels, u, u_targets, cfg_zero.temperature)
    assert abs(zero.value - ref) <= 1e-9 * max(1.0, abs(ref))
    # universum rows still matter through the known denominators
    assert np.linalg.norm(zero.grad_u) > 0
    assert on.value != zero.value


def test_dual_term_switch_is_gamma():
    assert LossConfig(gamma=0.0).include_universum_term is False
    assert LossConfig(gamma=0.5).include_universum_term is True
    with pytest.raises(TypeError):
        LossConfig(include_universum_term=False)


def test_reduction_to_supcon_is_bitwise():
    cfg = LossConfig(temperature=0.11, gamma=0.0)
    for seed in range(20):
        z, labels, _, _ = _draw(seed)
        empty_u = np.zeros((0, z.shape[1]))
        empty_labels = np.zeros(0, dtype=np.int64)
        sup = supcon_loss_grad(z, labels, cfg)
        red = dc_total_loss_grad(z, labels, empty_u, empty_labels, cfg)
        assert red.value == sup.value
        assert np.array_equal(red.grad_z, sup.grad_z)
        assert red.grad_u is None


def test_skipped_anchors_and_degenerate_batch():
    cfg = LossConfig()
    rng = np.random.default_rng(0)
    z = _unit_rows(rng, 3, 4)
    res = supcon_loss_grad(z, np.array([1, 1, 2]), cfg)
    assert res.skipped_anchors == 1
    assert res.per_anchor[2] == 0.0

    with pytest.raises(DegenerateBatchError):
        supcon_loss_grad(_unit_rows(rng, 3, 4), np.array([1, 2, 3]), cfg)
    with pytest.raises(InvalidArgumentError):
        supcon_loss_grad(_unit_rows(rng, 1, 4), np.array([1]), cfg)


def test_input_validation():
    cfg = LossConfig()
    rng = np.random.default_rng(1)
    z = _unit_rows(rng, 6, 4)
    labels = np.array([1, 1, 2, 2, 3, 3])
    u = _unit_rows(rng, 6, 4)

    with pytest.raises(InvalidArgumentError):
        supcon_loss_grad(z * 2.0, labels, cfg)  # not unit-norm
    with pytest.raises(InvalidArgumentError):
        supcon_loss_grad(z, labels[:-1], cfg)  # label misalignment
    with pytest.raises(InvalidArgumentError):
        dc_total_loss_grad(z, labels, _unit_rows(rng, 6, 3), labels, cfg)  # dim mismatch
    with pytest.raises(InvalidArgumentError):
        dc_total_loss_grad(z, labels, u, labels[:-1], cfg)  # target misalignment
    with pytest.raises(InvalidArgumentError):
        LossConfig(temperature=0.0)
    with pytest.raises(InvalidArgumentError):
        LossConfig(gamma=-0.1)


def test_unaligned_universum_targets():
    cfg = LossConfig(temperature=0.4)
    rng = np.random.default_rng(6)
    z = _unit_rows(rng, 6, 5)
    labels = np.array([1, 1, 2, 2, 3, 3])
    u = _unit_rows(rng, 2, 5)
    u_targets = np.array([1, 3])
    res = dc_total_loss_grad(z, labels, u, u_targets, _known_only(cfg))
    ref = reference_dc_known(z, labels, u, u_targets, cfg.temperature)
    assert abs(res.value - ref) <= 1e-9 * max(1.0, abs(ref))


def test_decomposition_identities():
    cfg = LossConfig(temperature=0.25)
    for seed in range(20):
        z, labels, u, u_targets = _draw(seed)
        decomp = decompose(z, labels, u, u_targets, cfg)

        # reassembly crosses the stabilized and raw arithmetic paths
        err = np.abs(reassemble_anchor_partial(decomp) - decomp.anchor_partial).max()
        assert err <= 1e-10

        # the normalizer is exactly the row sum of both exponential blocks
        expected = decomp.known_exp.sum(axis=1) + decomp.tau_exp.sum(axis=1)
        assert np.array_equal(decomp.normalizer, expected)

        known_w, tau_w = hard_negative_weights(decomp)
        sums = known_w.sum(axis=1) + tau_w.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

        # adding universum mass to the denominator shrinks every known weight
        supcon_w = decomp.known_exp / decomp.known_exp.sum(axis=1, keepdims=True)
        has_tau = decomp.tau_exp.sum(axis=1) > 0
        off_diag = ~np.eye(z.shape[0], dtype=bool)
        assert np.all(known_w[has_tau][:, :][off_diag[has_tau]]
                      < supcon_w[has_tau][:, :][off_diag[has_tau]])


def test_harder_negatives_get_larger_weights():
    cfg = LossConfig(temperature=0.5)
    # anchor e0; one negative at similarity 1, another orthogonal
    z = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
    ])
    labels = np.array([1, 2, 2])
    u = np.array([[0.0, 0.0, 1.0]])
    u_targets = np.array([1])
    decomp = decompose(z, labels, u, u_targets, cfg)
    known_w, tau_w = hard_negative_weights(decomp)
    # similarity 1 vs 0 at tau 0.5: weight ratio must be e^2
    ratio = known_w[0, 1] / known_w[0, 2]
    assert ratio == pytest.approx(math.exp(2.0), rel=1e-12)
    # the matched universum row is orthogonal too, so it ties the easy one
    assert tau_w[0, 0] == pytest.approx(known_w[0, 2], rel=1e-12)


def _core_case(seed):
    """Stacked core inputs for one seeded case, cycling over the label
    layouts, temperatures and universum weights training uses.

    Every fourth case gives class 1 a single row, so some anchors have
    no positives. Row counts run from 3 to 300, so a workspace reused
    across cases grows and shrinks.
    """
    rng = np.random.default_rng(seed)
    layout = ("supcon", "k_plus_one", "k_plus_k")[seed % 3]
    tau = (1e-3, 0.2, 1.0)[(seed // 3) % 3]
    gamma = (0.0, 0.5, 1.0)[(seed // 9) % 3]
    k = int(rng.integers(2, 11))
    nb = int(rng.integers(3, 151))
    y = _labels_with_positives(rng, nb, k)
    if seed % 4 == 0:
        y[y == 1] = 2
        y[0] = 1
    x = _unit_rows(rng, 2 * nb, int(rng.integers(2, 33)))
    if layout == "supcon":
        return x[:nb], y, y, nb, np.ones(nb), tau
    if layout == "k_plus_one":
        labels = np.concatenate([y, np.full(nb, k + 1)])
        return x, labels, labels, 2 * nb, np.ones(2 * nb), tau
    weight = np.repeat([1.0, gamma], nb)
    return x, np.concatenate([y, y + k]), np.concatenate([y, y]), nb, weight, tau


def _core(args, work):
    """The library core on a case's arguments; it takes no labels."""
    x, _, targets, n_known, weight, tau = args
    return _stacked_core(x, targets, n_known, weight, tau, work)


def test_workspace_core_matches_reference_bitwise():
    work = LossWorkspace()
    sizes, skipped = set(), 0
    for seed in range(324):
        args = _core_case(seed)
        core = _core(args, work)
        value, per_anchor, grad, skip = _reference_core(*args)
        assert np.float64(core.value).tobytes() == np.float64(value).tobytes(), seed
        assert core.per_anchor.tobytes() == per_anchor.tobytes(), seed
        assert core.grad.tobytes() == grad.tobytes(), seed
        assert core.skipped_anchors == skip, seed
        sizes.add(len(args[0]))
        skipped += skip
    # the cases reach both ends of the row range and skip some anchors
    assert min(sizes) <= 10 and max(sizes) >= 280 and skipped > 0


def test_results_do_not_alias_the_workspace():
    cfg = LossConfig(temperature=0.2, gamma=0.5)
    work = LossWorkspace()
    z, labels, u, u_targets = _draw(0, n=40, d=6, k=4)
    first = dc_total_loss_grad(z, labels, u, u_targets, cfg, work=work)
    alone = dc_total_loss_grad(z, labels, u, u_targets, cfg)
    kept = (first.grad_z.tobytes(), first.grad_u.tobytes())
    assert kept == (alone.grad_z.tobytes(), alone.grad_u.tobytes())
    assert first.value == alone.value

    # a second call on the same workspace, at fewer and then more rows
    z2, labels2, u2, u_targets2 = _draw(1, n=10, d=6, k=3)
    dc_total_loss_grad(z2, labels2, u2, u_targets2, cfg, work=work)
    sup = supcon_loss_grad(z, labels, cfg, work=work)
    before = sup.per_anchor.copy()
    supcon_loss_grad(z2, labels2, cfg, work=work)
    assert (first.grad_z.tobytes(), first.grad_u.tobytes()) == kept
    assert np.array_equal(sup.per_anchor, before)

    core = _core(_core_case(7), work)
    saved = (core.per_anchor.copy(), core.grad.copy(), core.anchor_partial.copy())
    _core(_core_case(8), work)
    assert all(np.array_equal(a, b) for a, b in zip(
        saved, (core.per_anchor, core.grad, core.anchor_partial)))


def _assert_core_matches_reference(core, args):
    value, per_anchor, grad, skipped = _reference_core(*args)
    assert np.float64(core.value).tobytes() == np.float64(value).tobytes()
    assert core.per_anchor.tobytes() == per_anchor.tobytes()
    assert core.grad.tobytes() == grad.tobytes()
    assert core.skipped_anchors == skipped


def _strict_peak(fn):
    """fn() under warnings-as-errors; returns its result and peak traced bytes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("label_set", [
    (3, 17, 40, 41),  # not contiguous
    (-7, -1, 0, -2),  # negative and zero
    (10**12, -(10**12), 2**62, 5),  # far beyond any array length
])
@pytest.mark.parametrize("tau", [1e-3, 0.2])
def test_supcon_core_takes_any_int_labels(label_set, tau):
    rng = np.random.default_rng(abs(label_set[0]) % 1000)
    labels = np.asarray(label_set, dtype=np.int64)[_labels_with_positives(rng, 60, 3) - 1]
    labels[0] = label_set[3]  # a class of one row: its anchor is skipped
    z = _unit_rows(rng, 60, 8)

    res, peak = _strict_peak(lambda: supcon_loss_grad(z, labels, LossConfig(temperature=tau)))
    args = (z, labels, labels, 60, np.ones(60), tau)
    _assert_core_matches_reference(_core(args, None), args)
    assert res.skipped_anchors == 1
    # the call allocates by row count only (two 60 x 60 float buffers and
    # the gradient are under 100 kB), never by label value
    assert peak < 2**20

    # the dual loss tells the sides apart by row position, so universum
    # rows may target these same labels, 0 and 10**12 included
    u = _unit_rows(rng, 60, 8)
    u_targets = rng.permutation(labels)
    cfg = LossConfig(temperature=tau, gamma=0.5)
    res, peak = _strict_peak(lambda: dc_total_loss_grad(z, labels, u, u_targets, cfg))
    targets = np.concatenate([labels, u_targets])
    _, codes = np.unique(targets, return_inverse=True)
    stacked = codes + np.repeat([0, 120], 60)  # one reference label per (side, target)
    value, _, grad, skipped = _reference_core(
        np.concatenate([z, u]), stacked, targets, 60, np.repeat([1.0, 0.5], 60), tau
    )
    assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
    assert res.grad.tobytes() == grad.tobytes()
    assert res.skipped_anchors == skipped == 2
    assert peak < 2**20


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("tau", [1e-3, 0.2])
def test_k_plus_k_core_with_a_single_row_class(gamma, tau):
    rng = np.random.default_rng(int(gamma * 10) + 3)
    nb, k = 40, 4
    y = _labels_with_positives(rng, nb, k)
    y[y == 1] = 2
    y[0] = 1
    x = _unit_rows(rng, 2 * nb, 8)
    args = (x, np.concatenate([y, y + k]), np.concatenate([y, y]), nb,
            np.repeat([1.0, gamma], nb), tau)

    core, _ = _strict_peak(lambda: _core(args, LossWorkspace()))
    _assert_core_matches_reference(core, args)
    # the lone known row and, when universum rows anchor, its pseudo row
    assert core.skipped_anchors == (2 if gamma else 1)
    cfg = LossConfig(temperature=tau, gamma=gamma)
    res, _ = _strict_peak(lambda: dc_total_loss_grad(x[:nb], y, x[nb:], y, cfg))
    assert res.grad.tobytes() == core.grad.tobytes()
    assert res.grad_z.tobytes() == core.grad[:nb].tobytes()
    assert res.grad_u.tobytes() == core.grad[nb:].tobytes()
