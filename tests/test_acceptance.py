"""Acceptance gate: the properties this library is contractually held to.

Every test prints one PASS line with its measured margin. The oracles
(finite differences, random unit rows and labels, brute-force AUROC,
OSCR and macro F1) come from `dctau.verify`, where each is written once
from plain numpy and loops and calls none of the `losses` or `metrics`
code it checks, so a library bug cannot hide inside it.
"""

import dataclasses
import math
import time

import numpy as np

from dctau.config import TrainConfig
from dctau.experiment import DEFAULT_GRIDS, run_experiment, run_sweep
from dctau.losses import LossConfig, dc_total_loss_grad, supcon_loss_grad
from dctau.metrics import auroc, macro_f1, oscr
from dctau.model import backprop_embedding, embed, init_params
from dctau.verify import (
    auroc_pairs,
    dc_universum_loss_grad,
    decompose,
    fd_grad,
    hard_negative_weights,
    macro_f1_loops,
    oscr_sweep,
    paired_labels,
    reassemble_anchor_partial,
    rel_err,
    unit_rows,
)

_GRAD_RTOL = 1e-4


# --- gradient correctness ------------------------------------------------


def test_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    worst = 0.0

    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        cfg = LossConfig(
            temperature=float(rng.uniform(0.1, 0.8)),
            gamma=float(rng.uniform(0.2, 2.0)),
        )

        n = int(rng.integers(6, 33))
        d = int(rng.integers(3, 17))
        z = unit_rows(rng, n, d)
        labels = paired_labels(rng, n, k)
        res = supcon_loss_grad(z, labels, cfg)
        fd = fd_grad(lambda: supcon_loss_grad(z, labels, cfg).value, z)
        worst = max(worst, rel_err(res.grad_z, fd))

        m = int(rng.integers(5, 17))
        zz = unit_rows(rng, m, d)
        zl = paired_labels(rng, m, k)
        u = unit_rows(rng, m, d)
        ul = zl.copy()

        known_cfg = dataclasses.replace(cfg, gamma=0.0)
        res = dc_total_loss_grad(zz, zl, u, ul, known_cfg)
        fd_z = fd_grad(lambda: dc_total_loss_grad(zz, zl, u, ul, known_cfg).value, zz)
        fd_u = fd_grad(lambda: dc_total_loss_grad(zz, zl, u, ul, known_cfg).value, u)
        worst = max(worst, rel_err(res.grad_z, fd_z), rel_err(res.grad_u, fd_u))

        res = dc_universum_loss_grad(u, ul, zz, zl, cfg)
        fd_u = fd_grad(lambda: dc_universum_loss_grad(u, ul, zz, zl, cfg).value, u)
        fd_z = fd_grad(lambda: dc_universum_loss_grad(u, ul, zz, zl, cfg).value, zz)
        worst = max(worst, rel_err(res.grad_u, fd_u), rel_err(res.grad_z, fd_z))

        res = dc_total_loss_grad(zz, zl, u, ul, cfg)
        fd_z = fd_grad(lambda: dc_total_loss_grad(zz, zl, u, ul, cfg).value, zz)
        fd_u = fd_grad(lambda: dc_total_loss_grad(zz, zl, u, ul, cfg).value, u)
        worst = max(worst, rel_err(res.grad_z, fd_z), rel_err(res.grad_u, fd_u))

    assert worst < _GRAD_RTOL
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS gradient suite: worst rel err {worst:.3e} in {elapsed:.1f}s")


def _smooth_network_case(seed):
    """A batch whose ReLU pre-activations sit safely away from their kinks."""
    rng = np.random.default_rng(seed)
    k = 3
    proj_dim = int(rng.integers(4, 17))
    n = int(rng.integers(5, 9))
    labels = paired_labels(rng, n, k)
    for attempt in range(200):
        if attempt % 10 == 0:
            params = init_params(4, (7,), proj_dim, k, seed=int(rng.integers(2**31)))
        x = rng.uniform(0.1, 1.5, (n, 4))
        xu = rng.uniform(0.1, 1.5, (n, 4))
        try:
            _, tz = embed(params, x)
            _, tu = embed(params, xu)
        except Exception:
            continue
        # the hidden pre-activations, recomputed from the layer inputs
        layers = params.encoder + params.projection
        margin = min(
            min(np.abs(x @ layer.weight + layer.bias).min()
                for x, layer in zip(t.inputs[:-1], layers[:-1]))
            for t in (tz, tu)
        )
        if margin > 2e-3 and min(tz.p_norm.min(), tu.p_norm.min()) > 1e-2:
            return params, x, labels, xu, labels.copy()
    raise AssertionError(f"no smooth batch found for seed {seed}")


def test_loss_through_network_gradient_matches_finite_differences():
    start = time.perf_counter()
    worst = 0.0
    cfg = LossConfig(temperature=0.4, gamma=0.8)

    for seed in range(20):
        params, x, labels, xu, u_targets = _smooth_network_case(seed)

        def value():
            z, _ = embed(params, x)
            u, _ = embed(params, xu)
            return dc_total_loss_grad(z, labels, u, u_targets, cfg).value

        z, tz = embed(params, x)
        u, tu = embed(params, xu)
        res = dc_total_loss_grad(z, labels, u, u_targets, cfg)
        grads_z = backprop_embedding(params, tz, res.grad_z)
        grads_u = backprop_embedding(params, tu, res.grad_u)
        analytic = [
            getattr(gz, kind) + getattr(gu, kind)
            for gz, gu in zip(grads_z, grads_u)
            for kind in ("weight", "bias")
        ]

        arrays = []
        for layer in params.encoder + params.projection:
            arrays.extend([layer.weight, layer.bias])
        for arr, grad in zip(arrays, analytic):
            worst = max(worst, rel_err(grad, fd_grad(value, arr)))

    assert worst < _GRAD_RTOL
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS network gradient: worst rel err {worst:.3e} in {elapsed:.1f}s")


def test_known_term_with_no_universum_rows_is_bitwise_supcon():
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 24))
        d = int(rng.integers(3, 12))
        k = int(rng.integers(2, 5))
        z = unit_rows(rng, n, d)
        labels = paired_labels(rng, n, k)
        cfg = LossConfig(temperature=float(rng.uniform(0.05, 1.0)))

        sup = supcon_loss_grad(z, labels, cfg)
        empty = np.empty((0, d))
        dc = dc_total_loss_grad(z, labels, empty, np.empty(0, dtype=np.int64),
                                dataclasses.replace(cfg, gamma=0.0))
        assert dc.value == sup.value
        assert np.array_equal(dc.grad_z, sup.grad_z)
        assert dc.skipped_anchors == sup.skipped_anchors
        checked += 1
    print(f"PASS reduction identity: bitwise equal on {checked} random inputs")


def test_gradient_split_reassembles_and_universum_shrinks_weights():
    worst_gap = 0.0
    anchors_checked = 0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(4, 16))
        d = int(rng.integers(3, 10))
        k = int(rng.integers(2, 4))
        tau = float(rng.uniform(0.1, 0.9))
        z = unit_rows(rng, n, d)
        labels = paired_labels(rng, n, k)
        u = unit_rows(rng, n, d)
        ul = labels.copy()
        decomp = decompose(z, labels, u, ul, LossConfig(temperature=tau))

        gap = np.abs(
            reassemble_anchor_partial(decomp) - decomp.anchor_partial
        ).max()
        worst_gap = max(worst_gap, float(gap))
        assert gap <= 1e-10

        # shrinkage, from exponentials recomputed here
        my_known = np.exp((z @ z.T) / tau)
        np.fill_diagonal(my_known, 0.0)
        match = ul[None, :] == labels[:, None]
        my_tau = np.where(match, np.exp((z @ u.T) / tau), 0.0)
        s_full = my_known.sum(axis=1) + my_tau.sum(axis=1)
        s_sup = my_known.sum(axis=1)

        lib_known, lib_tau = hard_negative_weights(decomp)
        assert np.allclose(lib_known, my_known / s_full[:, None], atol=1e-12)
        assert np.allclose(lib_tau, my_tau / s_full[:, None], atol=1e-12)

        for i in range(n):
            assert my_tau[i].sum() > 0.0  # every anchor faces >= 1 matched row
            for j in range(n):
                if j == i:
                    continue
                assert my_known[i, j] / s_full[i] < my_known[i, j] / s_sup[i]
            anchors_checked += 1
    print(
        f"PASS decomposition: worst reassembly gap {worst_gap:.2e}, "
        f"weight shrinkage on {anchors_checked} anchors"
    )


def test_hard_negative_weight_ratios():
    tau = 0.5
    k = 2

    def weights(known_neg, tau_neg):
        z = np.array([
            [1.0, 0.0, 0.0],   # anchor, class 1
            [1.0, 0.0, 0.0],   # its positive
            known_neg,          # class 2
        ])
        u = np.array([tau_neg])
        decomp = decompose(
            z, np.array([1, 1, 2]), u, np.array([1]), LossConfig(temperature=tau),
        )
        kw, tw = hard_negative_weights(decomp)
        return float(kw[0, 2]), float(tw[0, 0])

    # closer row on the universum side: its weight leads by exp(gap / tau)
    hi, lo = 0.9, 0.4
    far = [lo, math.sqrt(1 - lo * lo), 0.0]
    near = [hi, math.sqrt(1 - hi * hi), 0.0]
    kw, tw = weights(far, near)
    expected = math.exp((hi - lo) / tau)
    err1 = abs(tw / kw - expected) / expected
    assert err1 < 1e-9

    # closer row on the known side: the same factor, other direction
    kw, tw = weights(near, far)
    err2 = abs(kw / tw - expected) / expected
    assert err2 < 1e-9

    # equal similarities: exactly equal weights
    kw, tw = weights([0.6, 0.8, 0.0], [0.6, -0.8, 0.0])
    assert kw == tw

    print(
        f"PASS hard-negative ratios: e^(gap/tau) within {max(err1, err2):.2e}, "
        f"symmetric weights exactly equal"
    )


def test_metrics_match_brute_force_oracles():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(6):
        n_k = int(rng.integers(20, 101))
        n_u = int(rng.integers(20, 100))
        known = rng.integers(0, 15, n_k).astype(float) / 15.0
        unknown = rng.integers(0, 15, n_u).astype(float) / 15.0
        worst = max(worst, abs(auroc(known, unknown) - auroc_pairs(known, unknown)))

        k = int(rng.integers(2, 6))
        kp = rng.dirichlet(np.ones(k), size=n_k)
        up = rng.dirichlet(np.ones(k) * 0.8, size=n_u)
        true = rng.integers(1, k + 1, n_k)
        worst = max(worst, abs(oscr(kp, true, up) - oscr_sweep(kp, true, up)))

        pred = rng.integers(0, k + 1, n_k)
        truth = rng.integers(0, k + 1, n_k)
        worst = max(
            worst, abs(macro_f1(pred, truth, k) - macro_f1_loops(pred, truth, k))
        )
    assert worst < 1e-9

    assert auroc([0.9, 0.8, 0.7], [0.3, 0.2]) == 1.0
    assert auroc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5
    assert auroc([0.1], [0.4, 0.5]) == 0.0
    print(f"PASS metric oracles: worst brute-force gap {worst:.2e}, trivia exact")


# --- desk-scale experiments ----------------------------------------------

_DIRECTIONAL = TrainConfig(
    contrastive_epochs=400, classifier_epochs=300, temperature=0.2
)
_DIRECTIONAL_SEEDS = (0, 1, 3, 7, 8)

_OVERLAP_HEAVY = TrainConfig(
    spread=1.2, contrastive_epochs=400, classifier_epochs=300
)
_OVERLAP_SEEDS = (0, 1, 2, 3, 4)


def _mean_auroc(cfg, seeds):
    vals = []
    for seed in seeds:
        _, _, report, _ = run_experiment(dataclasses.replace(cfg, seed=seed))
        vals.append(report.auroc)
    return float(np.mean(vals)), vals


def test_per_class_pseudo_labels_beat_collapsed_and_plain():
    start = time.perf_counter()
    means = {}
    for scheme in ("k_plus_k", "k_plus_one", "none"):
        cfg = dataclasses.replace(_DIRECTIONAL, pseudo_scheme=scheme)
        means[scheme], _ = _mean_auroc(cfg, _DIRECTIONAL_SEEDS)
    elapsed = time.perf_counter() - start

    assert means["k_plus_k"] >= means["k_plus_one"]
    assert means["k_plus_k"] >= means["none"]
    assert elapsed < 600.0
    print(
        f"PASS directional: mean AUROC k_plus_k {means['k_plus_k']:.4f} "
        f">= k_plus_one {means['k_plus_one']:.4f} and >= none "
        f"{means['none']:.4f} over {len(_DIRECTIONAL_SEEDS)} seeds "
        f"in {elapsed:.0f}s"
    )


def test_blend_weight_sweep_emits_full_grid():
    cfg = TrainConfig(
        class_count=5, per_class=20, dim=4, spread=0.4, known_count=3,
        hidden=(16,), proj_dim=4, contrastive_epochs=2, classifier_epochs=2,
        batch_size=16, warmup_epochs=1, seed=4,
    )
    rows = run_sweep(cfg, "lambda")
    values = [row.value for row in rows]
    assert values == list(DEFAULT_GRIDS["lambda"]) == [0.1, 0.3, 0.5, 0.7, 0.9]
    assert all(np.isfinite(row.auroc) for row in rows)
    assert all(row.n_seeds == 1 for row in rows)
    print(f"PASS blend sweep: one row per value {values}")


def test_dropping_the_universum_anchor_term_does_not_help():
    start = time.perf_counter()
    full_mean, full_vals = _mean_auroc(_OVERLAP_HEAVY, _OVERLAP_SEEDS)
    ablated = dataclasses.replace(_OVERLAP_HEAVY, gamma=0.0)
    wo_mean, wo_vals = _mean_auroc(ablated, _OVERLAP_SEEDS)
    elapsed = time.perf_counter() - start

    assert wo_mean <= full_mean
    print(
        f"PASS dual-term ablation: mean AUROC without universum anchors "
        f"{wo_mean:.4f} <= full {full_mean:.4f} over {len(_OVERLAP_SEEDS)} "
        f"seeds in {elapsed:.0f}s"
    )
