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

The sidecar (<path>.json) records the full config and the master seed
so a checkpoint is reproducible and resumable without guessing.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .config import TrainConfig
from .errors import InvalidArgumentError
from .model import DenseLayer, ModelParams

MAGIC = b"DCTAUCKP"
FORMAT_VERSION = 1

_SECTIONS = ("encoder", "projection", "classifier")
_HEADER = struct.Struct("<8sII")  # magic, format version, manifest length


def sidecar_path(path) -> str:
    return f"{path}.json"


def save_checkpoint(path, params: ModelParams, cfg: TrainConfig, seed: int) -> None:
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
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(manifest_bytes)))
        fh.write(manifest_bytes)
        for block in blocks:
            fh.write(block)

    sidecar = {
        "format_version": FORMAT_VERSION,
        "seed": int(seed),
        "config": dataclasses.asdict(cfg),
    }
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig | None, int | None]:
    """Read a checkpoint; returns (params, config, seed).

    Config and seed come from the sidecar and are None if it is absent.
    """
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
        except (ValueError, KeyError) as exc:
            raise InvalidArgumentError(f"{path}: corrupt checkpoint manifest") from exc
        payload = fh.read()

    sections: dict[str, dict[int, dict[str, np.ndarray]]] = {s: {} for s in _SECTIONS}
    offset = 0
    for entry in manifest:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise InvalidArgumentError(f"{path}: checkpoint payload truncated")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += nbytes
        sections[entry["section"]].setdefault(entry["layer"], {})[entry["kind"]] = arr.copy()
    if offset != len(payload):
        raise InvalidArgumentError(f"{path}: trailing bytes in checkpoint payload")

    def build(section: str) -> tuple[DenseLayer, ...]:
        layers = sections[section]
        out = []
        for idx in range(len(layers)):
            if idx not in layers or set(layers[idx]) != {"weight", "bias"}:
                raise InvalidArgumentError(f"{path}: incomplete {section} layer {idx}")
            out.append(DenseLayer(layers[idx]["weight"], layers[idx]["bias"]))
        return tuple(out)

    params = ModelParams(build("encoder"), build("projection"), build("classifier"))

    try:
        with open(sidecar_path(path), "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        raw = dict(sidecar.get("config", {}))
        if "hidden" in raw:
            raw["hidden"] = tuple(raw["hidden"])
        return params, TrainConfig(**raw), int(sidecar["seed"])
    except FileNotFoundError:
        return params, None, None
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise InvalidArgumentError(f"{sidecar_path(path)}: corrupt sidecar ({exc})") from exc
