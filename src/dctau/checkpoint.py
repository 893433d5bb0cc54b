"""Model checkpointing: one binary file plus a JSON sidecar.

Binary layout, all integers little-endian:

    8 bytes   magic b"DCTAUCKP"
    u32       format version (currently 1)
    u32       manifest length in bytes
    ...       manifest: UTF-8 JSON listing each parameter block's
              section (encoder/projection/classifier), layer index,
              kind (weight/bias), and shape, in file order
    ...       parameter blocks: float64 little-endian, row-major,
              concatenated in manifest order

The sidecar (<path>.json) records the full config, whose ``seed`` is the
master seed, so a checkpoint is reproducible without guessing; a load
without it raises FileNotFoundError. A sidecar with no config, or whose
config names an unknown key (one a newer version removed, say) or holds
a value of the wrong type, is rejected as corrupt; the top-level
``seed`` older versions wrote is ignored. Both files are written to
temporaries in the same directory and renamed into place, so an
interrupted save never leaves a half-written checkpoint.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct

import numpy as np

from .config import TrainConfig
from .errors import InvalidArgumentError
from .model import DenseLayer, ModelParams

MAGIC = b"DCTAUCKP"
FORMAT_VERSION = 1

_SECTIONS = ("encoder", "projection", "classifier")
_HEADER = struct.Struct("<8sII")  # magic, format version, manifest length


def _valid_entry(entry) -> bool:
    """One manifest block: a known section and kind, a layer index, a shape."""
    return (
        isinstance(entry, dict)
        and entry.get("section") in _SECTIONS
        and entry.get("kind") in ("weight", "bias")
        and type(entry.get("layer")) is int
        and entry["layer"] >= 0
        and isinstance(entry.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in entry["shape"])
    )


def sidecar_path(path) -> str:
    return f"{path}.json"


def save_checkpoint(path, params: ModelParams, cfg: TrainConfig) -> None:
    manifest = []
    blocks = []
    for section in _SECTIONS:
        for layer_idx, layer in enumerate(getattr(params, section)):
            for kind in ("weight", "bias"):
                arr = np.asarray(getattr(layer, kind), dtype=np.float64)
                manifest.append(
                    {
                        "section": section,
                        "layer": layer_idx,
                        "kind": kind,
                        "shape": list(arr.shape),
                    }
                )
                blocks.append(arr.astype("<f8").tobytes(order="C"))

    manifest_bytes = json.dumps({"blocks": manifest}).encode("utf-8")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, len(manifest_bytes))
    sidecar = {"format_version": FORMAT_VERSION, "config": dataclasses.asdict(cfg)}
    sidecar_bytes = (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("utf-8")

    # Stage both files beside their targets, then rename each over its
    # target: a failed write leaves the previous checkpoint and no
    # temporary file behind.
    staged = {}
    try:
        for target, chunks in (
            (path, [header, manifest_bytes, *blocks]),
            (sidecar_path(path), [sidecar_bytes]),
        ):
            staged[target] = tmp = f"{target}.tmp{os.getpid()}"
            with open(tmp, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
    except BaseException:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    for target, tmp in staged.items():
        os.replace(tmp, target)


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig]:
    """Read a checkpoint and its required sidecar; returns (params, config)."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if header[: len(MAGIC)] != MAGIC:
            raise InvalidArgumentError(f"{path}: not a checkpoint file")
        if len(header) < _HEADER.size:
            raise InvalidArgumentError(f"{path}: checkpoint header truncated")
        _, version, manifest_len = _HEADER.unpack(header)
        if version != FORMAT_VERSION:
            raise InvalidArgumentError(f"{path}: unsupported checkpoint version {version}")
        try:
            manifest = json.loads(fh.read(manifest_len).decode("utf-8"))["blocks"]
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidArgumentError(f"{path}: corrupt checkpoint manifest") from exc
        payload = fh.read()
    if not isinstance(manifest, list) or not all(_valid_entry(e) for e in manifest):
        raise InvalidArgumentError(f"{path}: corrupt checkpoint manifest")

    sections: dict[str, dict[int, dict[str, np.ndarray]]] = {s: {} for s in _SECTIONS}
    offset = 0
    for entry in manifest:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise InvalidArgumentError(f"{path}: checkpoint payload truncated")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += nbytes
        sections[entry["section"]].setdefault(entry["layer"], {})[entry["kind"]] = arr.copy()
    if offset != len(payload):
        raise InvalidArgumentError(f"{path}: trailing bytes in checkpoint payload")

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
