"""Model checkpointing: an ``np.savez`` archive plus a JSON sidecar.

The archive holds one float64 member per parameter, named
``<section>.<layer>.<kind>`` (``encoder.0.weight``, ``classifier.0.bias``);
the member names are the format, and ``numpy.load(path, allow_pickle=False)``
reads it. It is read through ``data.read_npz``, the split companions'
reader, so a damaged, truncated or extended file is rejected.

The sidecar (<path>.json) is ``{"config": ...}``, whose ``seed`` is the
master seed; a load without it raises FileNotFoundError. A sidecar with no
config, or whose config names an unknown key (one a newer version removed,
say) or holds a value of the wrong type, is rejected as corrupt; other
top-level keys older versions wrote are ignored. Both files are written to
temporaries in the same directory and renamed into place, so an
interrupted save never leaves a half-written checkpoint.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re

import numpy as np

from .config import TrainConfig
from .data import read_npz
from .errors import InvalidArgumentError
from .model import DenseLayer, ModelParams

_SECTIONS = ("encoder", "projection", "classifier")
_MEMBER = re.compile(rf"({'|'.join(_SECTIONS)})\.(0|[1-9][0-9]*)\.(weight|bias)")


def sidecar_path(path) -> str:
    return f"{path}.json"


def save_checkpoint(path, params: ModelParams, cfg: TrainConfig) -> None:
    arrays = {
        f"{section}.{idx}.{kind}": np.ascontiguousarray(getattr(layer, kind), dtype=np.float64)
        for section in _SECTIONS
        for idx, layer in enumerate(getattr(params, section))
        for kind in ("weight", "bias")
    }
    sidecar = {"config": dataclasses.asdict(cfg)}
    sidecar_bytes = (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("utf-8")

    # Stage both files beside their targets, then rename each over its
    # target: a failed write leaves the previous checkpoint and no
    # temporary file behind. np.savez on an open file adds no suffix.
    staged = {}
    try:
        for target, write in (
            (path, lambda fh: np.savez(fh, **arrays)),
            (sidecar_path(path), lambda fh: fh.write(sidecar_bytes)),
        ):
            staged[target] = tmp = f"{target}.tmp{os.getpid()}"
            with open(tmp, "wb") as fh:
                write(fh)
    except BaseException:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    for target, tmp in staged.items():
        os.replace(tmp, target)


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig]:
    """Read a checkpoint and its required sidecar; returns (params, config)."""
    try:
        arrays = read_npz(path)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: not a checkpoint file ({exc})") from exc

    sections: dict[str, dict[int, dict[str, np.ndarray]]] = {s: {} for s in _SECTIONS}
    for name, arr in arrays.items():
        match = _MEMBER.fullmatch(name)
        if match is None:
            raise InvalidArgumentError(f"{path}: unexpected checkpoint member {name!r}")
        if arr.dtype != np.float64:
            raise InvalidArgumentError(f"{path}: {name} is {arr.dtype}, not float64")
        section, idx, kind = match.groups()
        sections[section].setdefault(int(idx), {})[kind] = arr

    def build(section: str, fan_in: int | None) -> tuple[DenseLayer, ...]:
        layers = sections[section]
        if not layers and section != "encoder":
            raise InvalidArgumentError(f"{path}: checkpoint has no {section} layers")
        out = []
        for idx in range(len(layers)):
            if idx not in layers or set(layers[idx]) != {"weight", "bias"}:
                raise InvalidArgumentError(f"{path}: incomplete {section} layer {idx}")
            weight, bias = layers[idx]["weight"], layers[idx]["bias"]
            if weight.ndim != 2 or bias.shape != weight.shape[1:] or (
                fan_in is not None and weight.shape[0] != fan_in
            ):
                raise InvalidArgumentError(f"{path}: mismatched shapes in {section} layer {idx}")
            if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
                raise InvalidArgumentError(f"{path}: non-finite values in {section} layer {idx}")
            out.append(DenseLayer(weight, bias))
            fan_in = weight.shape[1]
        return tuple(out)

    encoder = build("encoder", None)
    encoder_dim = encoder[-1].weight.shape[1] if encoder else None
    projection = build("projection", encoder_dim)
    params = ModelParams(encoder, projection, build("classifier", projection[0].weight.shape[0]))

    try:
        with open(sidecar_path(path), "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        return params, TrainConfig(**sidecar["config"])
    except (ValueError, TypeError, KeyError) as exc:
        raise InvalidArgumentError(f"{sidecar_path(path)}: corrupt sidecar ({exc})") from exc
