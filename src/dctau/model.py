"""Dense encoder, projection head, linear probe, optimizer, and training.

The network is small and explicit: an MLP encoder of ReLU layers, a
two-layer projection head whose output is L2-normalized onto the unit
sphere, and a linear classifier (the probe) that consumes encoder
features directly (the projection exists only for the contrastive
step). Forward passes cache enough to make backward passes exact; there
is no autodiff.

Training happens in two steps. Step one fits encoder + projection with
the contrastive loss over augmented batches and their universum rows.
Step two is a linear probe: the encoder is frozen, its features of the
training rows are computed once, and the classifier is fit on them with
cross entropy. Both steps share the optimizer (Adam with decoupled
weight decay) and a cosine learning-rate schedule; linear warmup
applies to step one only.

Gradients passed to the optimizer are scaled by 1/batch_rows so step
sizes do not grow with the batch size (the loss functions themselves
return sums over anchors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import TrainConfig
from .data import Batch, OpenSplit, augment_gaussian, epoch_batches, float_array, int_labels
from .errors import InvalidArgumentError, NumericError
from .losses import LossConfig, LossWorkspace, dc_total_loss_grad, supcon_loss_grad
from .universum import make_universum

_NORM_FLOOR = 1e-12
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


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


@dataclass
class ForwardTrace:
    """What exact backprop needs of embed's chain of encoder then
    projection layers: each layer's input, the projection's row norms
    and z.

    The first input is embed's input and each later one a ReLU output,
    whose sign is that ReLU's mask. backprop_embedding consumes the
    trace: it overwrites z and every layer input but the first.
    """

    inputs: list[np.ndarray]
    p_norm: np.ndarray
    z: np.ndarray


def init_params(dim: int, hidden, proj_dim: int, num_classes: int, seed: int) -> ModelParams:
    """He-uniform weights (limit sqrt(6/fan_in)), zero biases.

    An empty hidden list makes the encoder the identity map; the
    classifier is one linear layer from the encoder output to the logits.
    """
    hidden = tuple(int(h) for h in hidden)
    if dim < 1 or proj_dim < 1 or num_classes < 1:
        raise InvalidArgumentError("dim, proj_dim, and num_classes must be >= 1")
    if any(h < 1 for h in hidden):
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
    return ModelParams(tuple(encoder), projection, (make_layer(width, num_classes),))


def _chain_forward(layers, x, work=None):
    """Run x through dense layers with a ReLU between consecutive ones;
    returns the output and each layer's input.

    Each layer's product is written into its buffer of the workspace
    (without one, of a throwaway one), and its bias and ReLU are applied
    in place, so the output and every input but x are workspace views.
    """
    if work is None:
        work = LossWorkspace()
    inputs = []
    for idx, layer in enumerate(layers):
        if idx:
            np.maximum(x, 0.0, out=x)
        inputs.append(x)
        x = np.matmul(x, layer.weight, out=work.buffer(f"layer {idx}", len(x), layer.bias.size))
        x += layer.bias
    return x, inputs


def _chain_backward(layers, inputs, d_out, grads) -> None:
    """Backward through _chain_forward, whose chains never end in a ReLU;
    writes each layer's d_weight and d_bias into the matching layer of
    grads.

    Consumes inputs: once layer idx has its d_weight, its input is needed
    only for the sign that is the previous ReLU's mask, so the mask is
    taken and the delta for layer idx - 1 is written over that input.
    No caller needs the gradient with respect to the chain's input, so
    it is never computed and inputs[0] is left alone.
    """
    for idx in range(len(layers) - 1, -1, -1):
        np.matmul(inputs[idx].T, d_out, out=grads[idx].weight)
        d_out.sum(axis=0, out=grads[idx].bias)
        if idx:
            mask = inputs[idx] > 0
            d_out = np.matmul(d_out, layers[idx].weight.T, out=inputs[idx])
            d_out *= mask


def _flatten(layers, copy: bool = True):
    """One float64 vector laid out as the layers, and DenseLayer views into it.

    With copy the vector holds the layers' values; without, it is left
    uninitialized, to take gradients of that layout.
    """
    vec = np.empty(sum(layer.weight.size + layer.bias.size for layer in layers))
    views, end = [], 0
    for layer in layers:
        pair = []
        for src in (layer.weight, layer.bias):
            view = vec[end : end + src.size].reshape(src.shape)
            end += src.size
            if copy:
                view[...] = src
            pair.append(view)
        views.append(DenseLayer(*pair))
    return vec, tuple(views)


def _array_names(**sections) -> tuple[tuple[str, int], ...]:
    """Each array's name and end offset in the flat layout of the sections."""
    names, end = [], 0
    for section, layers in sections.items():
        for idx, layer in enumerate(layers):
            for kind in ("weight", "bias"):
                end += getattr(layer, kind).size
                names.append((f"{section} layer {idx} {kind}", end))
    return tuple(names)


def embed(
    params: ModelParams, inputs: np.ndarray, work: LossWorkspace | None = None
) -> tuple[np.ndarray, ForwardTrace]:
    """Encoder + projection + L2 normalization; rows of z are unit-norm.

    z and the trace's layer outputs are views into the workspace (a
    throwaway one without it), valid until the next embed on it.
    """
    inputs = float_array("inputs", inputs, 2, cols=params.input_dim)
    p, layer_inputs = _chain_forward(params.encoder + params.projection, inputs, work)
    if not np.isfinite(p).all():
        raise NumericError("projection output is non-finite")
    norms = np.linalg.norm(p, axis=1)
    if np.any(norms < _NORM_FLOOR):
        raise NumericError("projection output has (near-)zero norm; cannot normalize")
    z = p
    z /= norms[:, None]
    return z, ForwardTrace(layer_inputs, norms, z)


def backprop_embedding(
    params: ModelParams, trace: ForwardTrace, d_z: np.ndarray, grads=None
):
    """Exact parameter gradients for d(loss)/d(z).

    The gradients are written into grads, dense layers laid out as the
    encoder then the projection (in training, views into one flat
    gradient vector); without it a throwaway one is made. Returns grads,
    one DenseLayer per encoder and projection layer. The normalization
    Jacobian (I - z z^T)/|p| is applied first, so any gradient component
    parallel to z is discarded.

    The trace is consumed: d(loss)/d(p) is written over trace.z, and each
    layer's delta over the layer input that the pass no longer needs, so
    a trace backs one call only, and z is spent after it.
    """
    d_z = float_array("d_z", d_z, 2, rows=trace.z.shape[0], cols=trace.z.shape[1])
    d_p = trace.z
    d_p *= (d_z * d_p).sum(axis=1, keepdims=True)
    np.subtract(d_z, d_p, out=d_p)
    d_p /= trace.p_norm[:, None]
    layers = params.encoder + params.projection
    if grads is None:
        grads = _flatten(layers, copy=False)[1]
    _chain_backward(layers, trace.inputs, d_p, grads)
    return grads


def _encode(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Encoder features E(x) of checked inputs: the encoder's chain and
    its last ReLU, the bits embed's chain feeds the first projection layer."""
    x = float_array("inputs", inputs, 2, cols=params.input_dim)
    if params.encoder:
        x = _chain_forward(params.encoder, x)[0]
        np.maximum(x, 0.0, out=x)
    return x


def _classify(classifier, feats: np.ndarray):
    """Classifier forward on encoder features; returns (logits, inputs)."""
    logits, cls_in = _chain_forward(classifier, feats)
    if not np.isfinite(logits).all():
        raise NumericError("classifier logits are non-finite")
    return logits, cls_in


def forward_classifier(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Logits = classifier(E(x)); the projection head is not involved."""
    return _classify(params.classifier, _encode(params, inputs))[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a 2-d array; logits are left unchanged."""
    logits = float_array("logits", logits, 2)
    e = logits - logits.max(axis=1, keepdims=True, initial=-np.inf)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def posteriors(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Class posterior matrix; rows sum to 1.

    Weights large enough to overflow the forward pass (a corrupt
    checkpoint, say) raise NumericError, not a RuntimeWarning.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            return softmax(forward_classifier(params, inputs))
    except FloatingPointError as exc:
        raise NumericError(f"posteriors: {exc}") from exc


def cross_entropy_loss_grad(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross entropy over rows of finite float logits; labels are class ids in 1..k."""
    logits = float_array("logits", logits, 2)
    n, k = logits.shape
    if n == 0:
        raise InvalidArgumentError("cross entropy needs at least one logit row")
    return _cross_entropy(logits, int_labels("labels", labels, n, 1, k, align="logit rows") - 1)


def _cross_entropy(logits: np.ndarray, idx: np.ndarray) -> tuple[float, np.ndarray]:
    """cross_entropy_loss_grad of checked logits and 0-based class ids."""
    n = len(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = float(-log_probs[np.arange(n), idx].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), idx] -= 1.0
    return value, grad / n


# --- optimizer ---------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Cosine decay with optional linear warmup."""

    base_lr: float = 1e-3
    warmup_epochs: int = 0
    total_epochs: int = 1

    def lr_at(self, epoch: int) -> float:
        if self.warmup_epochs > 0 and epoch < self.warmup_epochs:
            return self.base_lr * (epoch + 1) / self.warmup_epochs
        span = max(1, self.total_epochs - self.warmup_epochs)
        progress = min(1.0, (epoch - self.warmup_epochs) / span)
        return self.base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


@dataclass
class OptimizerState:
    """Adam over one flat float64 parameter vector, updated in place.

    The moments m and v, and two rows of scratch for the update's
    temporaries, are created at the first step, shaped like the vector. Weight decay is decoupled: applied directly to parameters,
    scaled by the current learning rate, never entering the moments.
    names holds each array's name and end offset in the vector, so a
    non-finite gradient is reported by layer.
    """

    schedule: Schedule = field(default_factory=Schedule)
    weight_decay: float = 1e-4
    step_count: int = 0
    names: tuple[tuple[str, int], ...] = ()
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = None


def _locate(names, grads: np.ndarray) -> str:
    """The name of the array holding the first non-finite gradient entry."""
    first = int(np.flatnonzero(~np.isfinite(grads))[0])
    return next((name for name, end in names if first < end), f"entry {first}")


def optimizer_step(
    state: OptimizerState, params: np.ndarray, grads: np.ndarray, epoch: int = 0
) -> None:
    """One Adam update of the flat vector params by grads, in place.

    The textbook update (Kingma & Ba, with Loshchilov & Hutter's decoupled
    decay), written in the per-array form's order of operations, so the
    result is bit for bit what that form gives each array.
    """
    if params.dtype != np.float64 or params.ndim != 1 or grads.shape != params.shape:
        raise InvalidArgumentError("parameters and gradients must be float64 vectors of one length")
    if not np.isfinite(grads).all():
        raise NumericError(
            f"non-finite gradient in {_locate(state.names, grads)} at step {state.step_count + 1}"
        )

    lr = state.schedule.lr_at(epoch)
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
        state.scratch = np.empty((2, params.size))
    state.step_count += 1
    t, m, v = state.step_count, state.m, state.v
    step, tmp = state.scratch
    m *= _ADAM_BETA1
    m += np.multiply(grads, 1 - _ADAM_BETA1, out=tmp)
    v *= _ADAM_BETA2
    np.multiply(grads, 1 - _ADAM_BETA2, out=tmp)
    tmp *= grads
    v += tmp
    np.divide(m, 1 - _ADAM_BETA1**t, out=step)
    np.divide(v, 1 - _ADAM_BETA2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += _ADAM_EPS
    step /= tmp
    step *= lr
    # decoupled decay, of the parameters before this step
    np.multiply(params, lr * state.weight_decay, out=tmp)
    params -= step
    params -= tmp


# --- training ----------------------------------------------------------


def _loss_step(params: ModelParams, view: Batch, num_known: int, cfg: TrainConfig,
               loss_cfg: LossConfig, rng: np.random.Generator, work: LossWorkspace):
    """Forward + loss for one batch; returns (loss value, d_z for all rows, trace)."""
    nb = view.size
    if cfg.pseudo_scheme == "none":
        z, trace = embed(params, view.features, work=work)
        res = supcon_loss_grad(z, view.labels, loss_cfg, work=work)
        return res.value, res.grad / nb, trace

    u = make_universum(view, cfg.lam, rng)
    z_all, trace = embed(params, np.vstack([view.features, u]), work=work)
    if cfg.pseudo_scheme == "k_plus_one":
        # one collapsed pseudo class: the batch and its universum rows are
        # a single supervised-contrastive problem over K+1 labels
        u_labels = np.full(nb, num_known + 1, dtype=np.int64)
        res = supcon_loss_grad(
            z_all, np.concatenate([view.labels, u_labels]), loss_cfg, work=work
        )
    else:
        # k_plus_k: universum row r targets the class y_r of its anchor
        res = dc_total_loss_grad(
            z_all[:nb], view.labels, z_all[nb:], view.labels, loss_cfg, work=work
        )
    return res.value, res.grad / nb, trace


def train_contrastive(
    split: OpenSplit, cfg: TrainConfig, rng: np.random.Generator
) -> tuple[ModelParams, list[float]]:
    """Step one: initialize from cfg and rng, then fit encoder + projection
    with the contrastive loss.

    Returns the trained parameters and the per-epoch mean of
    (batch loss / batch rows). The steps run with numpy's overflow and
    invalid-operation flags raising, so a temperature small enough to
    overflow the loss or Adam's moments stops the run instead of
    training on inf. That FloatingPointError, and a NumericError of a
    step (a zero-norm projection, a non-finite loss or gradient), is
    re-raised as NumericError with the epoch and batch in front of its
    message. Encoder and projection train as views into one flat vector.
    """
    num_known = split.num_known
    init_seed = int(rng.integers(2**32))
    params = init_params(split.train.dim, cfg.hidden, cfg.proj_dim, num_known, init_seed)

    n_enc = len(params.encoder)
    flat, layers = _flatten(params.encoder + params.projection)
    grad, grad_layers = _flatten(layers, copy=False)
    params = replace(params, encoder=layers[:n_enc], projection=layers[n_enc:])
    loss_cfg = LossConfig(cfg.temperature, cfg.gamma)
    state = OptimizerState(
        schedule=Schedule(cfg.learning_rate, cfg.warmup_epochs, max(1, cfg.contrastive_epochs)),
        weight_decay=cfg.weight_decay,
        names=_array_names(encoder=params.encoder, projection=params.projection),
    )

    work = LossWorkspace()
    history: list[float] = []
    with np.errstate(over="raise", invalid="raise"):
        for epoch in range(cfg.contrastive_epochs):
            batch_means = []
            for b_idx, batch in enumerate(epoch_batches(split.train, cfg.batch_size, rng)):
                try:
                    view = augment_gaussian(batch, cfg.sigma, rng)
                    value, d_z_all, trace = _loss_step(
                        params, view, num_known, cfg, loss_cfg, rng, work)
                    backprop_embedding(params, trace, d_z_all, grad_layers)
                    optimizer_step(state, flat, grad, epoch)
                except (NumericError, FloatingPointError) as exc:
                    raise NumericError(f"epoch {epoch}, batch {b_idx}: {exc}") from exc
                batch_means.append(value / view.size)
            history.append(float(np.mean(batch_means)))
    return params, history


def train_classifier(
    params: ModelParams,
    split: OpenSplit,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[ModelParams, list[float]]:
    """Step two: fit the linear probe with cross entropy; the encoder is frozen.

    Returns the parameters with the trained probe and the per-epoch mean
    batch loss. The encoder features of the training rows are computed
    once, and every batch fits the classifier layers on its rows of them.
    No augmentation here: the classifier is calibrated on the same raw
    rows the rejection thresholds will later be fit on. The classifier
    trains as views into one flat copy of its parameters.
    """
    train = split.train
    feats = _encode(params, train.features)
    classes = int_labels("labels", train.labels, None, 1, params.classifier[-1].bias.size) - 1
    flat, classifier = _flatten(params.classifier)
    grad, grad_layers = _flatten(classifier, copy=False)
    state = OptimizerState(
        schedule=Schedule(cfg.learning_rate, 0, max(1, cfg.classifier_epochs)),
        weight_decay=cfg.weight_decay,
        names=_array_names(classifier=classifier),
    )

    history: list[float] = []
    for epoch in range(cfg.classifier_epochs):
        perm = rng.permutation(train.n_rows)
        epoch_losses = []
        for lo in range(0, train.n_rows, cfg.batch_size):
            rows = perm[lo : lo + cfg.batch_size]
            logits, cls_in = _classify(classifier, feats[rows])
            value, d_logits = _cross_entropy(logits, classes[rows])
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite classifier loss at epoch {epoch}, batch {lo // cfg.batch_size}"
                )
            _chain_backward(classifier, cls_in, d_logits, grad_layers)
            optimizer_step(state, flat, grad, epoch)
            epoch_losses.append(value)
        history.append(float(np.mean(epoch_losses)))
    return replace(params, classifier=classifier), history
