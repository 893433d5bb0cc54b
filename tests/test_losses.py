"""Contrastive losses against naive references and finite differences.

The reference implementations below are deliberate triple loops over
the loss definition, and gradients are checked against central finite
differences of those loop values. Nothing here reuses the library's
vectorized paths.
"""

import math

import numpy as np
import pytest

from dctau.errors import DegenerateBatchError, InvalidArgumentError
from dctau.losses import (
    LossConfig,
    dc_known_loss_grad,
    dc_total_loss_grad,
    dc_universum_loss_grad,
    hard_negative_weights,
    reassemble_anchor_partial,
    supcon_loss_grad,
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


def _reference_core(anchors, anchor_labels, cross, cross_match, tau):
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


def reference_supcon(z, labels, tau):
    return _reference_core(z, labels, np.zeros((0, z.shape[1])), np.zeros(0), tau)


def reference_dc_known(z, labels, u, u_labels, tau, k):
    return _reference_core(z, labels, u, u_labels - k, tau)


def reference_dc_universum(u, u_labels, z, labels, tau, k):
    return _reference_core(u, u_labels, z, labels + k, tau)


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


def _draw(seed, n=8, d=5, k=3):
    rng = np.random.default_rng(seed)
    z = _unit_rows(rng, n, d)
    labels = _labels_with_positives(rng, n, k)
    u = _unit_rows(rng, n, d)
    u_labels = labels + k
    return z, labels, u, u_labels, k


def test_supcon_value_matches_loop_reference():
    cfg = LossConfig(temperature=0.37)
    for seed in range(10):
        z, labels, _, _, _ = _draw(seed)
        res = supcon_loss_grad(z, labels, cfg)
        ref = reference_supcon(z, labels, cfg.temperature)
        assert abs(res.value - ref) <= 1e-9 * max(1.0, abs(ref))
        assert res.grad_u is None
        assert res.skipped_anchors == 0
        assert abs(res.per_anchor.sum() - res.value) < 1e-12


def test_dc_values_match_loop_references():
    cfg = LossConfig(temperature=0.21)
    for seed in range(10):
        z, labels, u, u_labels, k = _draw(seed)
        known, _ = dc_known_loss_grad(z, labels, u, u_labels, cfg)
        dual = dc_universum_loss_grad(u, u_labels, z, labels, cfg)
        ref_known = reference_dc_known(z, labels, u, u_labels, cfg.temperature, k)
        ref_dual = reference_dc_universum(u, u_labels, z, labels, cfg.temperature, k)
        assert abs(known.value - ref_known) <= 1e-9 * max(1.0, abs(ref_known))
        assert abs(dual.value - ref_dual) <= 1e-9 * max(1.0, abs(ref_dual))


def test_gradients_match_finite_differences_of_reference():
    cfg = LossConfig(temperature=0.3, gamma=0.7)
    for seed in range(5):
        z, labels, u, u_labels, k = _draw(seed, n=7, d=4)

        res = supcon_loss_grad(z, labels, cfg)
        fd = _fd_grad(lambda: reference_supcon(z, labels, cfg.temperature), z)
        assert _rel_err(res.grad_z, fd) < _FD_RTOL

        known, _ = dc_known_loss_grad(z, labels, u, u_labels, cfg)
        fd_z = _fd_grad(lambda: reference_dc_known(z, labels, u, u_labels, cfg.temperature, k), z)
        fd_u = _fd_grad(lambda: reference_dc_known(z, labels, u, u_labels, cfg.temperature, k), u)
        assert _rel_err(known.grad_z, fd_z) < _FD_RTOL
        assert _rel_err(known.grad_u, fd_u) < _FD_RTOL

        dual = dc_universum_loss_grad(u, u_labels, z, labels, cfg)
        fd_z = _fd_grad(lambda: reference_dc_universum(u, u_labels, z, labels, cfg.temperature, k), z)
        fd_u = _fd_grad(lambda: reference_dc_universum(u, u_labels, z, labels, cfg.temperature, k), u)
        assert _rel_err(dual.grad_z, fd_z) < _FD_RTOL
        assert _rel_err(dual.grad_u, fd_u) < _FD_RTOL

        def ref_total():
            return reference_dc_known(
                z, labels, u, u_labels, cfg.temperature, k
            ) + cfg.gamma * reference_dc_universum(u, u_labels, z, labels, cfg.temperature, k)

        total = dc_total_loss_grad(z, labels, u, u_labels, cfg)
        assert _rel_err(total.grad_z, _fd_grad(ref_total, z)) < _FD_RTOL
        assert _rel_err(total.grad_u, _fd_grad(ref_total, u)) < _FD_RTOL


def test_total_is_linear_combination():
    cfg = LossConfig(temperature=0.15, gamma=1.7)
    z, labels, u, u_labels, _ = _draw(3)
    known, _ = dc_known_loss_grad(z, labels, u, u_labels, cfg)
    dual = dc_universum_loss_grad(u, u_labels, z, labels, cfg)
    total = dc_total_loss_grad(z, labels, u, u_labels, cfg)
    assert total.value == pytest.approx(known.value + cfg.gamma * dual.value, rel=1e-12)
    assert np.allclose(total.grad_z, known.grad_z + cfg.gamma * dual.grad_z, atol=1e-12)
    assert np.allclose(total.grad_u, known.grad_u + cfg.gamma * dual.grad_u, atol=1e-12)
    assert total.per_anchor is None


def test_without_universum_term_keeps_known_term_only():
    cfg_on = LossConfig(temperature=0.2, gamma=1.0, include_universum_term=True)
    cfg_off = LossConfig(temperature=0.2, gamma=1.0, include_universum_term=False)
    z, labels, u, u_labels, _ = _draw(4)
    known, _ = dc_known_loss_grad(z, labels, u, u_labels, cfg_off)
    off = dc_total_loss_grad(z, labels, u, u_labels, cfg_off)
    on = dc_total_loss_grad(z, labels, u, u_labels, cfg_on)
    assert off.value == known.value
    assert np.array_equal(off.grad_z, known.grad_z)
    assert np.array_equal(off.grad_u, known.grad_u)
    # universum rows still matter through the known denominators
    assert np.linalg.norm(off.grad_u) > 0
    assert on.value != off.value


def test_reduction_to_supcon_is_bitwise():
    cfg = LossConfig(temperature=0.11)
    for seed in range(20):
        z, labels, _, _, k = _draw(seed)
        empty_u = np.zeros((0, z.shape[1]))
        empty_labels = np.zeros(0, dtype=np.int64)
        sup = supcon_loss_grad(z, labels, cfg)
        red, _ = dc_known_loss_grad(z, labels, empty_u, empty_labels, cfg, num_known=k)
        assert red.value == sup.value
        assert np.array_equal(red.grad_z, sup.grad_z)


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
        dc_known_loss_grad(z, labels, _unit_rows(rng, 6, 3), labels + 3, cfg)  # dim mismatch
    with pytest.raises(InvalidArgumentError):
        LossConfig(temperature=0.0)
    with pytest.raises(InvalidArgumentError):
        LossConfig(gamma=-0.1)

    # row-aligned pseudo labels must be a constant offset of the labels
    bad = labels + 3
    bad[0] += 1
    with pytest.raises(InvalidArgumentError):
        dc_known_loss_grad(z, labels, u, bad, cfg)
    # collapsed single pseudo class is not a valid bijection either
    with pytest.raises(InvalidArgumentError):
        dc_known_loss_grad(z, labels, u, np.full(6, 4), cfg)
    # offset below the class count cannot be the class count
    with pytest.raises(InvalidArgumentError):
        dc_known_loss_grad(z, labels, u, labels + 2, cfg)
    # pseudo labels must target real classes even with explicit num_known
    with pytest.raises(InvalidArgumentError):
        dc_known_loss_grad(z, labels, u[:2], np.array([8, 9]), cfg, num_known=3)
    # a known label above K would share a stacked label with a pseudo label
    with pytest.raises(InvalidArgumentError):
        dc_known_loss_grad(z, labels, u[:2], np.array([3, 4]), cfg, num_known=2)


def test_unaligned_universum_with_explicit_num_known():
    cfg = LossConfig(temperature=0.4)
    rng = np.random.default_rng(6)
    z = _unit_rows(rng, 6, 5)
    labels = np.array([1, 1, 2, 2, 3, 3])
    u = _unit_rows(rng, 2, 5)
    u_labels = np.array([4, 6])  # targets classes 1 and 3 of K=3
    res, _ = dc_known_loss_grad(z, labels, u, u_labels, cfg, num_known=3)
    ref = reference_dc_known(z, labels, u, u_labels, cfg.temperature, 3)
    assert abs(res.value - ref) <= 1e-9 * max(1.0, abs(ref))


def test_decomposition_identities():
    cfg = LossConfig(temperature=0.25)
    for seed in range(20):
        z, labels, u, u_labels, _ = _draw(seed)
        _, decomp = dc_known_loss_grad(z, labels, u, u_labels, cfg)

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
    u_labels = np.array([3])  # targets class 1 with K = 2
    _, decomp = dc_known_loss_grad(z, labels, u, u_labels, cfg, num_known=2)
    known_w, tau_w = hard_negative_weights(decomp)
    # similarity 1 vs 0 at tau 0.5: weight ratio must be e^2
    ratio = known_w[0, 1] / known_w[0, 2]
    assert ratio == pytest.approx(math.exp(2.0), rel=1e-12)
    # the matched universum row is orthogonal too, so it ties the easy one
    assert tau_w[0, 0] == pytest.approx(known_w[0, 2], rel=1e-12)
