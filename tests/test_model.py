"""Network forward/backward passes, optimizer math, and training loops."""

import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import dctau.model
import dctau.verify
from dctau.config import TrainConfig
from dctau.data import Dataset, OpenSplit, augment_gaussian, epoch_batches
from dctau.errors import InvalidArgumentError, NumericError
from dctau.losses import LossConfig, LossWorkspace, dc_total_loss_grad, supcon_loss_grad
from dctau.model import (
    DenseLayer,
    OptimizerState,
    Schedule,
    _chain_backward,
    _chain_forward,
    _encode,
    _flatten,
    backprop_embedding,
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
from dctau.verify import fd_grad, labels_with_positives, rel_err

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
    assert a.input_dim == 5

    for section in (a.encoder, a.projection, a.classifier):
        for layer in section:
            limit = math.sqrt(6.0 / layer.weight.shape[0])
            assert np.all(np.abs(layer.weight) <= limit)
            assert np.all(layer.bias == 0.0)


def test_init_params_variants_and_validation():
    ident = init_params(4, (), 3, 2, seed=0)
    assert ident.encoder == ()
    assert ident.projection[0].weight.shape[0] == 4

    with pytest.raises(InvalidArgumentError):
        init_params(0, (4,), 3, 2, seed=0)
    with pytest.raises(InvalidArgumentError):
        init_params(4, (0,), 3, 2, seed=0)


def test_embed_unit_norm_and_validation():
    x = np.random.default_rng(0).standard_normal((7, 4))
    for hidden in [(), (7,), (9, 5, 6)]:
        params = init_params(4, hidden, 5, 3, seed=3)
        z, trace = embed(params, x)
        assert z.shape == (7, 5)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
        assert trace.z is z and trace.p_norm.shape == (7,)
        # one chain of encoder then projection layers, a ReLU between each two
        n_layers = len(params.encoder + params.projection)
        layers = params.encoder + params.projection
        assert len(trace.inputs) == n_layers
        assert trace.inputs[0].tobytes() == x.tobytes()
        for k in range(n_layers - 1):
            want = np.maximum(trace.inputs[k] @ layers[k].weight + layers[k].bias, 0)
            assert trace.inputs[k + 1].tobytes() == want.tobytes()

    with pytest.raises(InvalidArgumentError):
        embed(params, np.zeros((3, 5)))
    with pytest.raises(InvalidArgumentError, match="^inputs must be finite"):
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
    grads = backprop_embedding(params, trace, g)
    assert len(grads) == len(params.encoder + params.projection)
    analytic = [a for layer in grads for a in (layer.weight, layer.bias)]

    def value():
        z2, _ = embed(params, x)
        return float((z2 * g).sum())

    arrays = _flat_params(params)[: len(analytic)]
    worst = max(rel_err(grad, fd_grad(value, arr, h=_FD_H))
                for arr, grad in zip(arrays, analytic))
    assert worst < _FD_RTOL


def test_classifier_backprop_matches_finite_differences():
    # the probe's gradient as train_classifier takes it: fixed encoder
    # features, one linear layer, cross entropy
    params = init_params(3, (5,), 4, 3, seed=21)
    x = np.random.default_rng(2).standard_normal((8, 3))
    labels = np.array([1, 2, 3, 1, 2, 3, 1, 2])
    feats = _encode(params, x)
    (probe,) = params.classifier

    logits, cls_in = _chain_forward(params.classifier, feats)
    assert np.array_equal(logits, forward_classifier(params, x))
    _, d_logits = cross_entropy_loss_grad(logits, labels)
    _, (probe_grad,) = _flatten(params.classifier, copy=False)
    _chain_backward(params.classifier, cls_in, d_logits, (probe_grad,))
    analytic = (probe_grad.weight, probe_grad.bias)

    def value():
        v, _ = cross_entropy_loss_grad(feats @ probe.weight + probe.bias, labels)
        return v

    arrays = [probe.weight, probe.bias]
    worst = max(rel_err(grad, fd_grad(value, arr, h=_FD_H))
                for arr, grad in zip(arrays, analytic))
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
    # numpy's AxisError used to escape from a 1-d array
    for shape in [(), (4,), (2, 3, 4)]:
        with pytest.raises(InvalidArgumentError, match="logits must be a 2-d matrix"):
            softmax(np.zeros(shape))

    with pytest.raises(InvalidArgumentError):
        cross_entropy_loss_grad(logits, np.array([0]))
    with pytest.raises(InvalidArgumentError):
        cross_entropy_loss_grad(logits, np.array([3]))
    # 2.5 would truncate to class 2
    with pytest.raises(InvalidArgumentError, match="integer"):
        cross_entropy_loss_grad(logits, np.array([2.5]))
    # zero rows: no mean to take, and no RuntimeWarning either
    with pytest.raises(InvalidArgumentError, match="at least one logit row"):
        cross_entropy_loss_grad(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))


def _with_random_biases(params, seed):
    """params with every bias drawn at random, so the bias add is exercised."""
    rng = np.random.default_rng(seed)

    def section(layers):
        return tuple(DenseLayer(l.weight, rng.standard_normal(l.bias.shape)) for l in layers)

    return replace(params, encoder=section(params.encoder), classifier=section(params.classifier))


def _reference_inference(params, x):
    """Probe features, logits and posteriors from _chain_forward and the
    allocating softmax."""
    feats = np.maximum(_chain_forward(params.encoder, x)[0], 0.0) if params.encoder else x
    logits, _ = _chain_forward(params.classifier, feats)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return feats, logits, e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("hidden", [(), (7,), (9, 5, 6)])
@pytest.mark.parametrize("rows", [0, 1, 33])
def test_inference_forward_is_bitwise_the_training_chain(hidden, rows):
    params = _with_random_biases(init_params(4, hidden, 3, 5, seed=rows), seed=len(hidden))
    x = np.random.default_rng(rows).standard_normal((rows, 4)) * 3.0
    feats, logits, post = _reference_inference(params, x)
    for got, want in (
        (_encode(params, x), feats),
        (forward_classifier(params, x), logits),
        (posteriors(params, x), post),
    ):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_softmax_leaves_the_logits_unchanged():
    logits = np.random.default_rng(4).standard_normal((6, 4)) * 40.0
    before = logits.copy()
    p = softmax(logits)
    assert logits.tobytes() == before.tobytes()
    assert not np.shares_memory(p, logits)


def test_overflowing_weights_raise_numeric_error():
    params = init_params(3, (4,), 2, 2, seed=0)
    huge = replace(
        params,
        encoder=tuple(DenseLayer(l.weight * 1e200, l.bias) for l in params.encoder),
        classifier=tuple(DenseLayer(l.weight * 1e200, l.bias) for l in params.classifier),
    )
    x = np.random.default_rng(0).standard_normal((5, 3))
    with pytest.raises(NumericError):
        posteriors(huge, x)


def test_schedule_warmup_and_cosine():
    s = Schedule(base_lr=1.0, warmup_epochs=4, total_epochs=14)
    assert s.lr_at(0) == 0.25
    assert s.lr_at(1) == 0.5
    assert s.lr_at(3) == 1.0
    assert s.lr_at(4) == 1.0  # cosine starts at full rate
    assert s.lr_at(9) == pytest.approx(0.5)  # halfway through the decay span
    assert s.lr_at(14) == pytest.approx(0.0, abs=1e-15)
    assert s.lr_at(99) == pytest.approx(0.0, abs=1e-15)

    # a one-epoch schedule with no warmup holds the base rate at epoch 0
    assert Schedule(base_lr=0.3, total_epochs=1).lr_at(0) == 0.3


def test_adam_step_matches_hand_formula():
    lr, wd = 0.01, 0.1
    state = OptimizerState(schedule=Schedule(lr, 0, 1), weight_decay=wd)
    p = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])

    p1 = p.copy()
    optimizer_step(state, p1, g)
    m1 = 0.1 * g
    v1 = 0.001 * g * g
    step1 = (m1 / 0.1) / (np.sqrt(v1 / 0.001) + 1e-8)
    assert np.allclose(p1, p - lr * step1 - lr * wd * p, atol=1e-15)

    g2 = np.array([-0.5, 1.0])
    p2 = p1.copy()
    optimizer_step(state, p2, g2)
    m2 = 0.9 * m1 + 0.1 * g2
    v2 = 0.999 * v1 + 0.001 * g2 * g2
    step2 = (m2 / (1 - 0.9**2)) / (np.sqrt(v2 / (1 - 0.999**2)) + 1e-8)
    assert np.allclose(p2, p1 - lr * step2 - lr * wd * p1, atol=1e-15)
    assert state.step_count == 2

    # decay is decoupled: zero gradients leave only the decay term
    decay = OptimizerState(schedule=Schedule(lr, 0, 1), weight_decay=0.5)
    p3 = np.array([2.0])
    optimizer_step(decay, p3, np.array([0.0]))
    assert p3 == 2.0 - lr * 0.5 * 2.0


def test_optimizer_validation():
    state = OptimizerState()
    with pytest.raises(InvalidArgumentError):
        optimizer_step(state, np.zeros(2), np.zeros(0))
    with pytest.raises(NumericError):
        optimizer_step(state, np.zeros(2), np.array([np.nan, 0.0]))


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


def test_training_never_builds_the_gradient_decomposition(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the gradient decomposition is an oracle, not a training step")

    monkeypatch.setattr(dctau.verify, "decompose", forbidden)
    cfg = _tiny_cfg(contrastive_epochs=1, pseudo_scheme="k_plus_k")
    _, history = train_contrastive(_easy_split(), cfg, np.random.default_rng(2))
    assert len(history) == 1 and np.isfinite(history[0])


def test_training_step_pseudo_label_schemes(monkeypatch):
    calls, keywords = {}, {}

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls[name] = args
            keywords.setdefault(name, []).append(kwargs)
            return real(*args, **kwargs)
        return wrapper

    for name, attr in (("supcon", "supcon_loss_grad"), ("dc_total", "dc_total_loss_grad")):
        monkeypatch.setattr(dctau.model, attr, spy(name, getattr(dctau.model, attr)))
    split = _easy_split()
    k = split.num_known

    # k_plus_k: universum row r targets its anchor's class y_r in the dual loss
    train_contrastive(split, _tiny_cfg(contrastive_epochs=1), np.random.default_rng(3))
    _, labels, u, u_targets, _ = calls.pop("dc_total")
    assert "supcon" not in calls
    assert u.shape[0] == labels.size
    assert np.array_equal(u_targets, labels)
    # the workspace is the only keyword, and every step of a run shares it
    dc_kwargs = keywords.pop("dc_total")
    assert all(set(kw) == {"work"} for kw in dc_kwargs)
    assert len(dc_kwargs) > 1 and len({id(kw["work"]) for kw in dc_kwargs}) == 1
    assert isinstance(dc_kwargs[0]["work"], LossWorkspace)

    # k_plus_one: supcon sees the batch, then its universum rows all labelled K + 1
    cfg = _tiny_cfg(contrastive_epochs=1, pseudo_scheme="k_plus_one")
    train_contrastive(split, cfg, np.random.default_rng(3))
    z_all, stacked, _ = calls.pop("supcon")
    assert "dc_total" not in calls
    nb = stacked.size // 2
    assert z_all.shape[0] == 2 * nb
    assert np.all((stacked[:nb] >= 1) & (stacked[:nb] <= k))
    assert np.all(stacked[nb:] == k + 1)
    assert all(isinstance(kw["work"], LossWorkspace) for kw in keywords.pop("supcon"))


def test_a_warm_training_step_allocates_no_activation():
    """With one run workspace, a warm k_plus_k step (embed, the dual loss,
    backprop and Adam) allocates no array as large as one hidden activation.

    The layer outputs, the deltas written over them, the loss block and
    Adam's temporaries all live in buffers kept between steps; fresh ones
    cost page faults, as glibc hands large freed blocks back to the
    system. The rows are many enough that one 1024 x 256 activation
    (2 MiB) dwarfs numpy's ufunc buffers of up to 64 KiB per operand.
    """
    rng = np.random.default_rng(6)
    nb, dim, hidden, proj_dim = 512, 8, (256, 256), 8
    params = init_params(dim, hidden, proj_dim, 4, seed=1)
    n_enc = len(params.encoder)
    flat, layers = _flatten(params.encoder + params.projection)
    grad, grad_layers = _flatten(layers, copy=False)
    params = replace(params, encoder=layers[:n_enc], projection=layers[n_enc:])
    state, work, cfg = OptimizerState(), LossWorkspace(), LossConfig(temperature=0.2)
    labels = labels_with_positives(rng, nb, 4)
    x = rng.standard_normal((2 * nb, dim))

    def step():
        z, trace = embed(params, x, work=work)
        res = dc_total_loss_grad(z[:nb], labels, z[nb:], labels, cfg, work=work)
        backprop_embedding(params, trace, res.grad / nb, grad_layers)
        optimizer_step(state, flat, grad)

    step()
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    activation = 2 * nb * hidden[0] * 8
    assert peak < activation, (peak, activation)


def test_train_classifier_freezes_encoder():
    split = _easy_split()
    cfg = _tiny_cfg(classifier_epochs=5)
    params = init_params(4, cfg.hidden, cfg.proj_dim, 3, seed=7)

    trained, history = train_classifier(params, split, cfg, np.random.default_rng(0))
    assert len(history) == 5
    assert history[-1] < history[0]
    for before, after in zip(params.encoder, trained.encoder):
        assert np.array_equal(before.weight, after.weight)
        assert np.array_equal(before.bias, after.bias)
    assert not np.array_equal(params.classifier[0].weight, trained.classifier[0].weight)
    for before, after in zip(params.projection, trained.projection):
        assert np.array_equal(before.weight, after.weight)


def test_trained_probe_separates_easy_blobs():
    split = _easy_split()
    cfg = _tiny_cfg(contrastive_epochs=60, classifier_epochs=200, learning_rate=3e-3)
    rng = np.random.default_rng(0)
    params, _ = train_contrastive(split, cfg, rng)
    params, _ = train_classifier(params, split, cfg, rng)
    pred = posteriors(params, split.test_known.features).argmax(axis=1) + 1
    acc = float(np.mean(pred == split.test_known.labels))
    assert acc > 0.9


def test_non_finite_gradient_names_the_layer_and_step(monkeypatch):
    real_backprop, real_backward = dctau.model.backprop_embedding, dctau.model._chain_backward
    calls = []

    def poisoned_backprop(*args, **kwargs):
        grads = real_backprop(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            grads[-1].weight[0, 0] = np.nan
        return grads

    monkeypatch.setattr(dctau.model, "backprop_embedding", poisoned_backprop)
    split, cfg = _easy_split(), _tiny_cfg(contrastive_epochs=2)
    with pytest.raises(NumericError, match=r"in projection layer 1 weight at step 3$"):
        train_contrastive(split, cfg, np.random.default_rng(0))

    def poisoned_backward(layers, inputs, d_out, grads):
        real_backward(layers, inputs, d_out, grads)
        grads[0].bias[1] = np.inf

    monkeypatch.setattr(dctau.model, "_chain_backward", poisoned_backward)
    params = init_params(4, cfg.hidden, cfg.proj_dim, 3, seed=5)
    with pytest.raises(NumericError, match=r"in classifier layer 0 bias at step 1$"):
        train_classifier(params, split, cfg, np.random.default_rng(0))

    # without names the optimizer still says where the first bad entry is
    with pytest.raises(NumericError, match=r"in entry 1 at step 1$"):
        optimizer_step(OptimizerState(), np.zeros(3), np.array([0.0, np.nan, np.inf]))


# --- the per-array training loop the flat one replaced --------------------


class _ReferenceAdam:
    """Adam with decoupled weight decay over a list of arrays, each updated
    by fresh arrays: the textbook form the flat in-place update must match."""

    def __init__(self, schedule, weight_decay):
        self.schedule, self.weight_decay = schedule, weight_decay
        self.step_count, self.m, self.v = 0, None, None

    def step(self, arrays, grads, epoch):
        lr = self.schedule.lr_at(epoch)
        if self.m is None:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
        self.step_count += 1
        t = self.step_count
        out = []
        for i, (p, g) in enumerate(zip(arrays, grads)):
            self.m[i] = 0.9 * self.m[i] + (1 - 0.9) * g
            self.v[i] = 0.999 * self.v[i] + (1 - 0.999) * g * g
            m_hat = self.m[i] / (1 - 0.9**t)
            v_hat = self.v[i] / (1 - 0.999**t)
            step = m_hat / (np.sqrt(v_hat) + 1e-8)
            out.append(p - lr * step - lr * self.weight_decay * p)
        return out


def _reference_backward(layers, inputs, d_out):
    """Per-layer gradients, each ReLU's mask taken from pre-activations
    recomputed from the layer inputs and the weights."""
    pres = [x @ layer.weight + layer.bias for x, layer in zip(inputs, layers)]
    grads = [None] * len(layers)
    for idx in range(len(layers) - 1, -1, -1):
        ds = d_out if idx == len(layers) - 1 else d_out * (pres[idx] > 0)
        grads[idx] = (inputs[idx].T @ ds, ds.sum(axis=0))
        if idx:
            d_out = ds @ layers[idx].weight.T
    return grads


def _arrays(layers):
    return [a for layer in layers for a in (layer.weight, layer.bias)]


def _layers(arrays):
    return tuple(DenseLayer(arrays[i], arrays[i + 1]) for i in range(0, len(arrays), 2))


def _reference_loss_step(params, view, k, cfg, loss_cfg, rng, work):
    """The step that stacked the known and universum gradients with vstack."""
    if cfg.pseudo_scheme == "none":
        z, trace = embed(params, view.features)
        res = supcon_loss_grad(z, view.labels, loss_cfg, work=work)
        return res.value, res.grad_z / view.size, trace
    u = dctau.model.make_universum(view, cfg.lam, rng)
    z_all, trace = embed(params, np.vstack([view.features, u]))
    nb = view.size
    if cfg.pseudo_scheme == "k_plus_one":
        labels = np.concatenate([view.labels, np.full(nb, k + 1)])
        res = supcon_loss_grad(z_all, labels, loss_cfg, work=work)
        return res.value, res.grad_z / nb, trace
    res = dc_total_loss_grad(z_all[:nb], view.labels, z_all[nb:], view.labels, loss_cfg, work=work)
    return res.value, np.vstack([res.grad_z, res.grad_u]) / nb, trace


def _reference_train_contrastive(split, cfg, rng, params):
    loss_cfg = LossConfig(cfg.temperature, cfg.gamma)
    adam = _ReferenceAdam(
        Schedule(cfg.learning_rate, cfg.warmup_epochs, max(1, cfg.contrastive_epochs)),
        cfg.weight_decay,
    )
    work, history, n_enc = LossWorkspace(), [], len(params.encoder)
    for epoch in range(cfg.contrastive_epochs):
        batch_means = []
        for batch in epoch_batches(split.train, cfg.batch_size, rng):
            view = augment_gaussian(batch, cfg.sigma, rng)
            value, d_z, trace = _reference_loss_step(
                params, view, split.num_known, cfg, loss_cfg, rng, work)
            d_p = (d_z - (d_z * trace.z).sum(axis=1, keepdims=True) * trace.z) / trace.p_norm[:, None]
            grads = _reference_backward(params.encoder + params.projection, trace.inputs, d_p)
            arrays = adam.step(_arrays(params.encoder + params.projection),
                               [a for pair in grads for a in pair], epoch)
            params = replace(
                params, encoder=_layers(arrays[: 2 * n_enc]), projection=_layers(arrays[2 * n_enc :]))
            batch_means.append(value / view.size)
        history.append(float(np.mean(batch_means)))
    return params, history


def _reference_train_classifier(params, split, cfg, rng, history):
    train = split.train
    feats = _encode(params, train.features)
    adam = _ReferenceAdam(Schedule(cfg.learning_rate, 0, max(1, cfg.classifier_epochs)),
                          cfg.weight_decay)
    classifier = params.classifier
    for epoch in range(cfg.classifier_epochs):
        perm = rng.permutation(train.n_rows)
        losses = []
        for lo in range(0, train.n_rows, cfg.batch_size):
            rows = perm[lo : lo + cfg.batch_size]
            logits, cls_in = _chain_forward(classifier, feats[rows])
            value, d_logits = cross_entropy_loss_grad(logits, train.labels[rows])
            grads = _reference_backward(classifier, cls_in, d_logits)
            classifier = _layers(
                adam.step(_arrays(classifier), [a for pair in grads for a in pair], epoch))
            losses.append(value)
        history.append(float(np.mean(losses)))
    return replace(params, classifier=classifier)


def _param_bytes(params):
    return [a.tobytes() for a in _flat_params(params)]


@pytest.mark.parametrize("scheme", ["k_plus_k", "k_plus_one", "none"])
def test_flat_training_matches_per_array_reference_bitwise(scheme):
    split = _easy_split(seed=4)
    cfg = _tiny_cfg(contrastive_epochs=4, classifier_epochs=4, pseudo_scheme=scheme)
    # the reference starts where the trainer does: one seed drawn from its rng
    ref_rng = np.random.default_rng(6)
    start = init_params(4, cfg.hidden, cfg.proj_dim, 3, int(ref_rng.integers(2**32)))

    params, history = train_contrastive(split, cfg, np.random.default_rng(6))
    ref, ref_history = _reference_train_contrastive(split, cfg, ref_rng, start)
    assert _param_bytes(params) == _param_bytes(ref)
    assert np.array(history).tobytes() == np.array(ref_history).tobytes()

    trained_before = _param_bytes(params)
    ref_cls_history = []
    probe, cls_history = train_classifier(params, split, cfg, np.random.default_rng(7))
    ref_probe = _reference_train_classifier(ref, split, cfg, np.random.default_rng(7), ref_cls_history)
    assert _param_bytes(probe) == _param_bytes(ref_probe)
    assert np.array(cls_history).tobytes() == np.array(ref_cls_history).tobytes()
    assert _param_bytes(params) == trained_before
