"""Dense encoder, projection head, classifier, optimizer, and training.

The network is small and explicit: an MLP encoder of ReLU layers, a
two-layer projection head whose output is L2-normalized onto the unit
sphere, and a classifier head that consumes encoder features directly
(the projection exists only for the contrastive step). Forward passes
cache enough to make backward passes exact; there is no autodiff.

Training happens in two steps. Step one fits encoder + projection with
the contrastive loss over augmented batches and their universum rows.
Step two freezes the encoder (flag to unfreeze) and fits the classifier
with cross entropy on the same training rows. Both steps share the
optimizer (Adam or SGD with momentum, decoupled weight decay) and a
cosine learning-rate schedule; linear warmup applies to step one only.

Gradients passed to the optimizer are scaled by 1/batch_rows so step
sizes do not grow with the batch size (the loss functions themselves
return sums over anchors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import TrainConfig
from .data import Batch, OpenSplit, augment_gaussian, epoch_batches
from .errors import InvalidArgumentError, NumericError
from .losses import LossConfig, dc_total_loss_grad, supcon_loss_grad
from .universum import K_PLUS_ONE, assign_pseudo_labels, make_universum

_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class DenseLayer:
    """One affine map; weight is (fan_in, fan_out), bias is (fan_out,)."""

    weight: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class ModelParams:
    encoder: tuple[DenseLayer, ...]
    projection: tuple[DenseLayer, ...]
    classifier: tuple[DenseLayer, ...]

    @property
    def input_dim(self) -> int:
        chain = self.encoder or self.projection
        return chain[0].weight.shape[0]

    @property
    def encoder_dim(self) -> int:
        return self.encoder[-1].weight.shape[1] if self.encoder else self.input_dim

    @property
    def proj_dim(self) -> int:
        return self.projection[-1].weight.shape[1]

    @property
    def num_classes(self) -> int:
        return self.classifier[-1].weight.shape[1]


@dataclass
class ForwardTrace:
    """Cached layer inputs and pre-activations for exact backprop.

    encoder/projection sections are filled by embed; the classifier
    section by forward_classifier (which also fills the encoder
    section so the unfrozen-encoder path can keep going backward).
    """

    inputs: np.ndarray
    encoder_inputs: list[np.ndarray]
    encoder_pre: list[np.ndarray]
    encoder_out: np.ndarray
    proj_inputs: list[np.ndarray] = field(default_factory=list)
    proj_pre: list[np.ndarray] = field(default_factory=list)
    p: np.ndarray | None = None
    p_norm: np.ndarray | None = None
    z: np.ndarray | None = None
    cls_inputs: list[np.ndarray] = field(default_factory=list)
    cls_pre: list[np.ndarray] = field(default_factory=list)
    logits: np.ndarray | None = None


def init_params(
    dim: int,
    hidden,
    proj_dim: int,
    num_classes: int,
    seed: int,
    classifier_hidden: int = 0,
) -> ModelParams:
    """He-uniform weights (limit sqrt(6/fan_in)), zero biases.

    An empty hidden list makes the encoder the identity map. A nonzero
    classifier_hidden inserts one ReLU layer of that width before the
    final class logits.
    """
    hidden = tuple(int(h) for h in hidden)
    if dim < 1 or proj_dim < 1 or num_classes < 1:
        raise InvalidArgumentError("dim, proj_dim, and num_classes must be >= 1")
    if any(h < 1 for h in hidden) or classifier_hidden < 0:
        raise InvalidArgumentError("hidden widths must be >= 1")

    rng = np.random.default_rng(seed)

    def make_layer(fan_in: int, fan_out: int) -> DenseLayer:
        limit = math.sqrt(6.0 / fan_in)
        weight = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return DenseLayer(weight, np.zeros(fan_out))

    encoder = []
    width = dim
    for h in hidden:
        encoder.append(make_layer(width, h))
        width = h
    projection = (make_layer(width, width), make_layer(width, proj_dim))
    if classifier_hidden:
        classifier = (make_layer(width, classifier_hidden), make_layer(classifier_hidden, num_classes))
    else:
        classifier = (make_layer(width, num_classes),)
    return ModelParams(tuple(encoder), projection, classifier)


def _chain_forward(layers, x, relu_last: bool):
    """Run x through dense layers with ReLU between (and after, if asked)."""
    inputs, pres = [], []
    for idx, layer in enumerate(layers):
        inputs.append(x)
        s = x @ layer.weight + layer.bias
        pres.append(s)
        last = idx == len(layers) - 1
        x = s if (last and not relu_last) else np.maximum(s, 0.0)
    return x, inputs, pres


def _chain_backward(layers, inputs, pres, d_out, relu_last: bool):
    """Backward through _chain_forward; returns per-layer grads and d_input."""
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    for idx in range(len(layers) - 1, -1, -1):
        last = idx == len(layers) - 1
        ds = d_out if (last and not relu_last) else d_out * (pres[idx] > 0)
        grads[idx] = (inputs[idx].T @ ds, ds.sum(axis=0))
        d_out = ds @ layers[idx].weight.T
    return grads, d_out


def _check_inputs(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.input_dim:
        raise InvalidArgumentError(
            f"inputs must be (rows, {params.input_dim}), got {inputs.shape}"
        )
    if not np.isfinite(inputs).all():
        raise NumericError("inputs contain non-finite values")
    return inputs


def embed(params: ModelParams, inputs: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Encoder + projection + L2 normalization; rows of z are unit-norm."""
    inputs = _check_inputs(params, inputs)
    enc_out, enc_in, enc_pre = _chain_forward(params.encoder, inputs, relu_last=True)
    p, proj_in, proj_pre = _chain_forward(params.projection, enc_out, relu_last=False)
    if not np.isfinite(p).all():
        raise NumericError("projection output is non-finite")
    norms = np.linalg.norm(p, axis=1)
    if np.any(norms < _NORM_FLOOR):
        raise NumericError("projection output has (near-)zero norm; cannot normalize")
    z = p / norms[:, None]
    trace = ForwardTrace(
        inputs=inputs,
        encoder_inputs=enc_in,
        encoder_pre=enc_pre,
        encoder_out=enc_out,
        proj_inputs=proj_in,
        proj_pre=proj_pre,
        p=p,
        p_norm=norms,
        z=z,
    )
    return z, trace


def backprop_embedding(params: ModelParams, trace: ForwardTrace, d_z: np.ndarray):
    """Exact parameter gradients for d(loss)/d(z).

    Returns (encoder_grads, projection_grads), each a list of
    (d_weight, d_bias) pairs aligned with the parameter layers. The
    normalization Jacobian (I - z z^T)/|p| is applied first, so any
    gradient component parallel to z is discarded.
    """
    d_z = np.asarray(d_z, dtype=np.float64)
    if trace.z is None or d_z.shape != trace.z.shape:
        raise InvalidArgumentError("d_z shape must match the embedding rows")
    d_p = (d_z - (d_z * trace.z).sum(axis=1, keepdims=True) * trace.z) / trace.p_norm[:, None]
    proj_grads, d_enc = _chain_backward(
        params.projection, trace.proj_inputs, trace.proj_pre, d_p, relu_last=False
    )
    enc_grads, _ = _chain_backward(
        params.encoder, trace.encoder_inputs, trace.encoder_pre, d_enc, relu_last=True
    )
    return enc_grads, proj_grads


def forward_classifier(params: ModelParams, inputs: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Logits = classifier(E(x)); the projection head is not involved."""
    inputs = _check_inputs(params, inputs)
    enc_out, enc_in, enc_pre = _chain_forward(params.encoder, inputs, relu_last=True)
    logits, cls_in, cls_pre = _chain_forward(params.classifier, enc_out, relu_last=False)
    if not np.isfinite(logits).all():
        raise NumericError("classifier logits are non-finite")
    trace = ForwardTrace(
        inputs=inputs,
        encoder_inputs=enc_in,
        encoder_pre=enc_pre,
        encoder_out=enc_out,
        cls_inputs=cls_in,
        cls_pre=cls_pre,
        logits=logits,
    )
    return logits, trace


def classify(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    logits, _ = forward_classifier(params, inputs)
    return logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def posteriors(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Class posterior matrix; rows sum to 1."""
    return softmax(classify(params, inputs))


def cross_entropy_loss_grad(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross entropy over rows; labels are 1-based class ids."""
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,) or labels.min() < 1 or labels.max() > k:
        raise InvalidArgumentError("labels must be 1-based class ids matching the logits")
    idx = labels - 1
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = float(-log_probs[np.arange(n), idx].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), idx] -= 1.0
    return value, grad / n


def backprop_classifier(params: ModelParams, trace: ForwardTrace, d_logits: np.ndarray):
    """Classifier-head gradients plus d(loss)/d(encoder output)."""
    if trace.logits is None or d_logits.shape != trace.logits.shape:
        raise InvalidArgumentError("d_logits shape must match the logits")
    cls_grads, d_enc = _chain_backward(
        params.classifier, trace.cls_inputs, trace.cls_pre, d_logits, relu_last=False
    )
    return cls_grads, d_enc


def backprop_encoder(params: ModelParams, trace: ForwardTrace, d_enc_out: np.ndarray):
    """Encoder gradients given d(loss)/d(encoder output)."""
    enc_grads, _ = _chain_backward(
        params.encoder, trace.encoder_inputs, trace.encoder_pre, d_enc_out, relu_last=True
    )
    return enc_grads


# --- optimizer ---------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Cosine decay with optional linear warmup; or a constant rate."""

    base_lr: float = 1e-3
    warmup_epochs: int = 0
    total_epochs: int = 1
    kind: str = "cosine"

    def lr_at(self, epoch: int) -> float:
        if self.kind == "constant":
            return self.base_lr
        if self.kind != "cosine":
            raise InvalidArgumentError(f"unknown schedule kind {self.kind!r}")
        if self.warmup_epochs > 0 and epoch < self.warmup_epochs:
            return self.base_lr * (epoch + 1) / self.warmup_epochs
        span = max(1, self.total_epochs - self.warmup_epochs)
        progress = min(1.0, (epoch - self.warmup_epochs) / span)
        return self.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """Adam or SGD-with-momentum over a flat list of parameter arrays.

    Moment accumulators are created lazily to mirror the first gradient
    shapes. Weight decay is decoupled: applied directly to parameters,
    scaled by the current learning rate, never entering the moments.
    """

    algorithm: str = "adam"
    schedule: Schedule = field(default_factory=Schedule)
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum: float = 0.9
    step_count: int = 0
    m: list | None = None
    v: list | None = None

    def __post_init__(self):
        if self.algorithm not in ("adam", "sgd_momentum"):
            raise InvalidArgumentError(f"unknown optimizer {self.algorithm!r}")


def optimizer_step(
    state: OptimizerState, arrays: list, grads: list, epoch: int = 0
) -> tuple[list, OptimizerState]:
    """One update over aligned parameter/gradient arrays."""
    if len(arrays) != len(grads):
        raise InvalidArgumentError("parameter and gradient lists must align")
    for idx, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in array {idx} at step {state.step_count + 1}")

    lr = state.schedule.lr_at(epoch)
    if state.m is None:
        state.m = [np.zeros_like(a) for a in arrays]
        state.v = [np.zeros_like(a) for a in arrays]
    state.step_count += 1
    t = state.step_count

    out = []
    for i, (p, g) in enumerate(zip(arrays, grads)):
        if state.algorithm == "adam":
            state.m[i] = state.beta1 * state.m[i] + (1 - state.beta1) * g
            state.v[i] = state.beta2 * state.v[i] + (1 - state.beta2) * g * g
            m_hat = state.m[i] / (1 - state.beta1**t)
            v_hat = state.v[i] / (1 - state.beta2**t)
            step = m_hat / (np.sqrt(v_hat) + state.eps)
        else:
            state.m[i] = state.momentum * state.m[i] + g
            step = state.m[i]
        out.append(p - lr * step - lr * state.weight_decay * p)
    return out, state


def _layer_arrays(layers) -> list:
    arrays = []
    for layer in layers:
        arrays.extend([layer.weight, layer.bias])
    return arrays


def _grad_arrays(grads) -> list:
    arrays = []
    for dw, db in grads:
        arrays.extend([dw, db])
    return arrays


def _arrays_to_layers(arrays) -> tuple[DenseLayer, ...]:
    return tuple(DenseLayer(arrays[i], arrays[i + 1]) for i in range(0, len(arrays), 2))


# --- training ----------------------------------------------------------


def _loss_step(params: ModelParams, view: Batch, num_known: int, cfg: TrainConfig,
               loss_cfg: LossConfig, rng: np.random.Generator):
    """Forward + loss for one batch; returns (loss value, d_z for all rows, trace)."""
    if cfg.pseudo_scheme == "none":
        z, trace = embed(params, view.features)
        res = supcon_loss_grad(z, view.labels, loss_cfg)
        return res.value, res.grad_z / view.size, trace

    ub = make_universum(view, num_known, cfg.lam, rng)
    z_all, trace = embed(params, np.vstack([view.features, ub.features]))
    nb = view.size
    if cfg.pseudo_scheme == K_PLUS_ONE:
        # one collapsed pseudo class: the batch and its universum rows are
        # a single supervised-contrastive problem over K+1 labels
        ub = assign_pseudo_labels(ub, K_PLUS_ONE)
        res = supcon_loss_grad(z_all, np.concatenate([view.labels, ub.labels]), loss_cfg)
        return res.value, res.grad_z / nb, trace
    res = dc_total_loss_grad(z_all[:nb], view.labels, z_all[nb:], ub.labels, loss_cfg)
    return res.value, np.vstack([res.grad_z, res.grad_u]) / nb, trace


def train_contrastive(
    split: OpenSplit,
    cfg: TrainConfig,
    rng: np.random.Generator,
    initial: ModelParams | None = None,
) -> tuple[ModelParams, list[float]]:
    """Step one: fit encoder + projection with the contrastive loss.

    Returns the trained parameters and the per-epoch mean of
    (batch loss / batch rows). Aborts with a diagnostic naming the
    epoch and batch if the loss ever turns non-finite.
    """
    num_known = split.num_known
    if initial is None:
        init_seed = int(rng.integers(2**32))
        params = init_params(
            split.train.dim, cfg.hidden, cfg.proj_dim, num_known, init_seed,
            classifier_hidden=cfg.classifier_hidden,
        )
    else:
        params = initial

    loss_cfg = LossConfig(cfg.temperature, cfg.gamma, cfg.include_universum_term)
    state = OptimizerState(
        algorithm=cfg.optimizer,
        schedule=Schedule(cfg.learning_rate, cfg.warmup_epochs, max(1, cfg.contrastive_epochs)),
        weight_decay=cfg.weight_decay,
    )

    history: list[float] = []
    for epoch in range(cfg.contrastive_epochs):
        batch_means = []
        for b_idx, batch in enumerate(epoch_batches(split.train, cfg.batch_size, rng)):
            view = augment_gaussian(batch, cfg.sigma, rng)
            if cfg.two_views:
                second = augment_gaussian(batch, cfg.sigma, rng)
                view = Batch(
                    np.vstack([view.features, second.features]),
                    np.concatenate([view.labels, second.labels]),
                )
            value, d_z_all, trace = _loss_step(params, view, num_known, cfg, loss_cfg, rng)
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {b_idx}")
            enc_grads, proj_grads = backprop_embedding(params, trace, d_z_all)
            arrays = _layer_arrays(params.encoder) + _layer_arrays(params.projection)
            gradl = _grad_arrays(enc_grads) + _grad_arrays(proj_grads)
            arrays, state = optimizer_step(state, arrays, gradl, epoch)
            n_enc = 2 * len(params.encoder)
            params = replace(
                params,
                encoder=_arrays_to_layers(arrays[:n_enc]),
                projection=_arrays_to_layers(arrays[n_enc:]),
            )
            batch_means.append(value / view.size)
        history.append(float(np.mean(batch_means)))
    return params, history


def train_classifier(
    params: ModelParams,
    split: OpenSplit,
    cfg: TrainConfig,
    rng: np.random.Generator,
    history_out: list | None = None,
) -> ModelParams:
    """Step two: fit the classifier head with cross entropy.

    The encoder stays bit-identical unless cfg.unfreeze_encoder is set.
    No augmentation here: the classifier is calibrated on the same raw
    rows the rejection thresholds will later be fit on.
    """
    train = split.train
    schedule = Schedule(cfg.learning_rate, 0, max(1, cfg.classifier_epochs))
    state = OptimizerState(
        algorithm=cfg.optimizer, schedule=schedule, weight_decay=cfg.weight_decay
    )

    for epoch in range(cfg.classifier_epochs):
        perm = rng.permutation(train.n_rows)
        epoch_losses = []
        for lo in range(0, train.n_rows, cfg.batch_size):
            rows = perm[lo : lo + cfg.batch_size]
            logits, trace = forward_classifier(params, train.features[rows])
            value, d_logits = cross_entropy_loss_grad(logits, train.labels[rows])
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite classifier loss at epoch {epoch}, batch {lo // cfg.batch_size}"
                )
            cls_grads, d_enc = backprop_classifier(params, trace, d_logits)
            arrays = _layer_arrays(params.classifier)
            gradl = _grad_arrays(cls_grads)
            if cfg.unfreeze_encoder:
                arrays = arrays + _layer_arrays(params.encoder)
                gradl = gradl + _grad_arrays(backprop_encoder(params, trace, d_enc))
            arrays, state = optimizer_step(state, arrays, gradl, epoch)
            n_cls = 2 * len(params.classifier)
            new_cls = _arrays_to_layers(arrays[:n_cls])
            if cfg.unfreeze_encoder:
                params = replace(
                    params, classifier=new_cls, encoder=_arrays_to_layers(arrays[n_cls:])
                )
            else:
                params = replace(params, classifier=new_cls)
            epoch_losses.append(value)
        if history_out is not None:
            history_out.append(float(np.mean(epoch_losses)))
    return params
