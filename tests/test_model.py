"""Network forward/backward passes, optimizer math, and training loops."""

import dataclasses
import math

import numpy as np
import pytest

import dctau.losses
from dctau.config import TrainConfig
from dctau.data import Dataset, OpenSplit
from dctau.errors import InvalidArgumentError, NumericError
from dctau.model import (
    DenseLayer,
    OptimizerState,
    Schedule,
    backprop_classifier,
    backprop_embedding,
    backprop_encoder,
    classify,
    cross_entropy_loss_grad,
    embed,
    forward_classifier,
    init_params,
    optimizer_step,
    posteriors,
    softmax,
    train_classifier,
    train_contrastive,
)

_FD_H = 1e-6
_FD_RTOL = 1e-4


def _flat_params(params):
    """All parameter arrays of a model in a stable order."""
    arrays = []
    for section in (params.encoder, params.projection, params.classifier):
        for layer in section:
            arrays.extend([layer.weight, layer.bias])
    return arrays


def _easy_split(seed=0, classes=3, per_class=18, dim=4):
    """Well-separated blobs split 2/1 train/test per class."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, dim)) * 4.0
    feats = np.repeat(centers, per_class, axis=0)
    feats = feats + rng.normal(0, 0.2, feats.shape)
    labels = np.repeat(np.arange(1, classes + 1), per_class)
    third = per_class // 3
    train_idx = np.concatenate(
        [np.flatnonzero(labels == c)[: per_class - third] for c in range(1, classes + 1)]
    )
    test_idx = np.concatenate(
        [np.flatnonzero(labels == c)[per_class - third :] for c in range(1, classes + 1)]
    )
    train = Dataset(feats[train_idx], labels[train_idx], classes)
    test = Dataset(feats[test_idx], labels[test_idx], classes)
    unknown = Dataset(rng.standard_normal((10, dim)) * 6.0, np.zeros(10, dtype=np.int64), 0)
    return OpenSplit(train, test, unknown, tuple(range(1, classes + 1)))


def test_init_params_shapes_and_bounds():
    a = init_params(5, (8, 6), 3, 4, seed=1)
    b = init_params(5, (8, 6), 3, 4, seed=1)
    for x, y in zip(_flat_params(a), _flat_params(b)):
        assert np.array_equal(x, y)

    assert [l.weight.shape for l in a.encoder] == [(5, 8), (8, 6)]
    assert [l.weight.shape for l in a.projection] == [(6, 6), (6, 3)]
    assert [l.weight.shape for l in a.classifier] == [(6, 4)]
    assert a.input_dim == 5 and a.encoder_dim == 6 and a.proj_dim == 3 and a.num_classes == 4

    for section in (a.encoder, a.projection, a.classifier):
        for layer in section:
            limit = math.sqrt(6.0 / layer.weight.shape[0])
            assert np.all(np.abs(layer.weight) <= limit)
            assert np.all(layer.bias == 0.0)


def test_init_params_variants_and_validation():
    ident = init_params(4, (), 3, 2, seed=0)
    assert ident.encoder == ()
    assert ident.encoder_dim == 4

    deep_cls = init_params(4, (6,), 3, 2, seed=0, classifier_hidden=5)
    assert [l.weight.shape for l in deep_cls.classifier] == [(6, 5), (5, 2)]

    with pytest.raises(InvalidArgumentError):
        init_params(0, (4,), 3, 2, seed=0)
    with pytest.raises(InvalidArgumentError):
        init_params(4, (0,), 3, 2, seed=0)
    with pytest.raises(InvalidArgumentError):
        init_params(4, (4,), 3, 2, seed=0, classifier_hidden=-1)


def test_embed_unit_norm_and_validation():
    params = init_params(4, (6,), 5, 3, seed=3)
    x = np.random.default_rng(0).standard_normal((7, 4))
    z, trace = embed(params, x)
    assert z.shape == (7, 5)
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
    assert trace.z is z and trace.p is not None

    with pytest.raises(InvalidArgumentError):
        embed(params, np.zeros((3, 5)))
    with pytest.raises(NumericError):
        embed(params, np.array([[np.nan, 0, 0, 0]]))


def test_embed_zero_projection_raises():
    params = init_params(4, (6,), 5, 3, seed=3)
    dead = dataclasses.replace(
        params,
        projection=tuple(DenseLayer(np.zeros_like(l.weight), np.zeros_like(l.bias))
                         for l in params.projection),
    )
    with pytest.raises(NumericError):
        embed(dead, np.ones((2, 4)))


def test_backprop_embedding_matches_finite_differences():
    params = init_params(3, (5,), 4, 2, seed=12)
    x = np.abs(np.random.default_rng(8).standard_normal((6, 3))) + 0.1
    g = np.random.default_rng(9).standard_normal((6, 4))

    z, trace = embed(params, x)
    enc_grads, proj_grads = backprop_embedding(params, trace, g)
    analytic = [a for dw, db in enc_grads + proj_grads for a in (dw, db)]

    def value():
        z2, _ = embed(params, x)
        return float((z2 * g).sum())

    arrays = _flat_params(params)[: len(analytic)]
    worst = 0.0
    for arr, grad in zip(arrays, analytic):
        it = np.nditer(arr, flags=["multi_index"])
        fd = np.zeros_like(arr)
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + _FD_H
            hi = value()
            arr[idx] = orig - _FD_H
            lo = value()
            arr[idx] = orig
            fd[idx] = (hi - lo) / (2 * _FD_H)
            it.iternext()
        denom = max(np.linalg.norm(fd), 1e-10)
        worst = max(worst, np.linalg.norm(grad - fd) / denom)
    assert worst < _FD_RTOL


def test_classifier_backprop_matches_finite_differences():
    params = init_params(3, (5,), 4, 3, seed=21)
    x = np.random.default_rng(2).standard_normal((8, 3))
    labels = np.array([1, 2, 3, 1, 2, 3, 1, 2])

    logits, trace = forward_classifier(params, x)
    _, d_logits = cross_entropy_loss_grad(logits, labels)
    cls_grads, d_enc = backprop_classifier(params, trace, d_logits)
    enc_grads = backprop_encoder(params, trace, d_enc)
    analytic = (
        [a for dw, db in enc_grads for a in (dw, db)]
        + [a for dw, db in cls_grads for a in (dw, db)]
    )

    def value():
        lg, _ = forward_classifier(params, x)
        v, _ = cross_entropy_loss_grad(lg, labels)
        return v

    arrays = []
    for layer in params.encoder:
        arrays.extend([layer.weight, layer.bias])
    for layer in params.classifier:
        arrays.extend([layer.weight, layer.bias])

    worst = 0.0
    for arr, grad in zip(arrays, analytic):
        it = np.nditer(arr, flags=["multi_index"])
        fd = np.zeros_like(arr)
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + _FD_H
            hi = value()
            arr[idx] = orig - _FD_H
            lo = value()
            arr[idx] = orig
            fd[idx] = (hi - lo) / (2 * _FD_H)
            it.iternext()
        denom = max(np.linalg.norm(fd), 1e-10)
        worst = max(worst, np.linalg.norm(grad - fd) / denom)
    assert worst < _FD_RTOL


def test_softmax_posteriors_and_cross_entropy():
    assert np.allclose(softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])
    logits = np.array([[0.0, math.log(3.0)]])
    p = softmax(logits)
    assert np.allclose(p, [[0.25, 0.75]], atol=1e-15)

    value, grad = cross_entropy_loss_grad(logits, np.array([2]))
    assert value == pytest.approx(-math.log(0.75), rel=1e-12)
    assert np.allclose(grad, p - np.array([[0.0, 1.0]]), atol=1e-15)

    params = init_params(3, (), 2, 2, seed=0)
    post = posteriors(params, np.random.default_rng(0).standard_normal((5, 3)))
    assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)

    with pytest.raises(InvalidArgumentError):
        cross_entropy_loss_grad(logits, np.array([0]))
    with pytest.raises(InvalidArgumentError):
        cross_entropy_loss_grad(logits, np.array([3]))


def test_schedule_warmup_and_cosine():
    s = Schedule(base_lr=1.0, warmup_epochs=4, total_epochs=14)
    assert s.lr_at(0) == 0.25
    assert s.lr_at(1) == 0.5
    assert s.lr_at(3) == 1.0
    assert s.lr_at(4) == 1.0  # cosine starts at full rate
    assert s.lr_at(9) == pytest.approx(0.5)  # halfway through the decay span
    assert s.lr_at(14) == pytest.approx(0.0, abs=1e-15)
    assert s.lr_at(99) == pytest.approx(0.0, abs=1e-15)

    const = Schedule(base_lr=0.3, kind="constant")
    assert const.lr_at(0) == const.lr_at(50) == 0.3

    with pytest.raises(InvalidArgumentError):
        Schedule(kind="linear").lr_at(0)


def test_adam_step_matches_hand_formula():
    lr, wd = 0.01, 0.1
    state = OptimizerState(schedule=Schedule(lr, 0, 1, kind="constant"), weight_decay=wd)
    p = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])

    (p1,), state = optimizer_step(state, [p], [g])
    m1 = 0.1 * g
    v1 = 0.001 * g * g
    step1 = (m1 / 0.1) / (np.sqrt(v1 / 0.001) + 1e-8)
    assert np.allclose(p1, p - lr * step1 - lr * wd * p, atol=1e-15)

    g2 = np.array([-0.5, 1.0])
    (p2,), state = optimizer_step(state, [p1], [g2])
    m2 = 0.9 * m1 + 0.1 * g2
    v2 = 0.999 * v1 + 0.001 * g2 * g2
    step2 = (m2 / (1 - 0.9**2)) / (np.sqrt(v2 / (1 - 0.999**2)) + 1e-8)
    assert np.allclose(p2, p1 - lr * step2 - lr * wd * p1, atol=1e-15)
    assert state.step_count == 2


def test_sgd_momentum_and_decoupled_decay():
    lr = 0.1
    state = OptimizerState(
        algorithm="sgd_momentum", schedule=Schedule(lr, 0, 1, kind="constant"),
        weight_decay=0.0,
    )
    p = np.array([1.0])
    g1, g2 = np.array([0.2]), np.array([-0.1])
    (p1,), state = optimizer_step(state, [p], [g1])
    assert np.allclose(p1, p - lr * g1)
    (p2,), state = optimizer_step(state, [p1], [g2])
    assert np.allclose(p2, p1 - lr * (0.9 * g1 + g2))

    # zero gradients leave only the decay term
    decay = OptimizerState(
        algorithm="sgd_momentum", schedule=Schedule(lr, 0, 1, kind="constant"),
        weight_decay=0.5,
    )
    (p3,), _ = optimizer_step(decay, [np.array([2.0])], [np.array([0.0])])
    assert np.allclose(p3, 2.0 - lr * 0.5 * 2.0)


def test_optimizer_validation():
    state = OptimizerState()
    with pytest.raises(InvalidArgumentError):
        optimizer_step(state, [np.zeros(2)], [])
    with pytest.raises(NumericError):
        optimizer_step(state, [np.zeros(2)], [np.array([np.nan, 0.0])])
    with pytest.raises(InvalidArgumentError):
        OptimizerState(algorithm="rmsprop")


def _tiny_cfg(**kw):
    base = dict(
        class_count=4, per_class=12, dim=4, spread=0.3, known_count=3,
        hidden=(8,), proj_dim=4, contrastive_epochs=10, classifier_epochs=10,
        batch_size=8, warmup_epochs=2, sigma=0.05,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_train_contrastive_reduces_loss():
    split = _easy_split()
    cfg = _tiny_cfg(contrastive_epochs=30)
    params, history = train_contrastive(split, cfg, np.random.default_rng(0))
    assert len(history) == 30
    assert history[-1] < history[0]
    z, _ = embed(params, split.train.features)
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)


def test_train_contrastive_scheme_variants_run():
    split = _easy_split()
    for scheme in ("k_plus_k", "k_plus_one", "none"):
        cfg = _tiny_cfg(contrastive_epochs=2, pseudo_scheme=scheme)
        _, history = train_contrastive(split, cfg, np.random.default_rng(1))
        assert len(history) == 2 and all(np.isfinite(h) for h in history)

    cfg = _tiny_cfg(contrastive_epochs=2, two_views=True)
    _, history = train_contrastive(split, cfg, np.random.default_rng(1))
    assert len(history) == 2 and all(np.isfinite(h) for h in history)


def test_training_never_builds_the_gradient_decomposition(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the gradient decomposition is an oracle, not a training step")

    monkeypatch.setattr(dctau.losses, "_decompose", forbidden)
    cfg = _tiny_cfg(contrastive_epochs=1, pseudo_scheme="k_plus_k")
    _, history = train_contrastive(_easy_split(), cfg, np.random.default_rng(2))
    assert len(history) == 1 and np.isfinite(history[0])


def test_train_contrastive_initial_params_resume():
    split = _easy_split()
    cfg = _tiny_cfg(contrastive_epochs=2)
    start = init_params(4, cfg.hidden, cfg.proj_dim, 3, seed=99)
    params, _ = train_contrastive(split, cfg, np.random.default_rng(0), initial=start)
    assert not np.array_equal(params.encoder[0].weight, start.encoder[0].weight)


def test_train_classifier_freezes_encoder():
    split = _easy_split()
    cfg = _tiny_cfg(classifier_epochs=5)
    params = init_params(4, cfg.hidden, cfg.proj_dim, 3, seed=7)

    history = []
    trained = train_classifier(params, split, cfg, np.random.default_rng(0), history_out=history)
    assert len(history) == 5
    assert history[-1] < history[0]
    for before, after in zip(params.encoder, trained.encoder):
        assert np.array_equal(before.weight, after.weight)
        assert np.array_equal(before.bias, after.bias)
    assert not np.array_equal(params.classifier[0].weight, trained.classifier[0].weight)

    unfrozen = train_classifier(
        params, split, dataclasses.replace(cfg, unfreeze_encoder=True),
        np.random.default_rng(0),
    )
    assert not np.array_equal(params.encoder[0].weight, unfrozen.encoder[0].weight)


def test_trained_probe_separates_easy_blobs():
    split = _easy_split()
    cfg = _tiny_cfg(contrastive_epochs=60, classifier_epochs=200, learning_rate=3e-3)
    rng = np.random.default_rng(0)
    params, _ = train_contrastive(split, cfg, rng)
    params = train_classifier(params, split, cfg, rng)
    pred = classify(params, split.test_known.features).argmax(axis=1) + 1
    acc = float(np.mean(pred == split.test_known.labels))
    assert acc > 0.9
