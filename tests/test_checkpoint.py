"""Binary checkpoint format: roundtrips and corruption handling."""

import itertools
import json
import os
import struct
from dataclasses import replace

import numpy as np
import pytest

from dctau import checkpoint
from dctau.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
    sidecar_path,
)
from dctau.config import TrainConfig
from dctau.errors import InvalidArgumentError
from dctau.model import init_params


def _params():
    return init_params(5, (8, 6), 4, 3, seed=42)


def _cfg():
    return TrainConfig(class_count=6, known_count=4, hidden=(8, 6), seed=17)


def test_roundtrip_is_bitwise(tmp_path):
    path = tmp_path / "model.bin"
    params = _params()
    save_checkpoint(path, params, _cfg())
    loaded, cfg = load_checkpoint(path)

    for section in ("encoder", "projection", "classifier"):
        orig = getattr(params, section)
        back = getattr(loaded, section)
        assert len(orig) == len(back)
        for a, b in zip(orig, back):
            assert np.array_equal(a.weight, b.weight)
            assert a.weight.dtype == b.weight.dtype == np.float64
            assert np.array_equal(a.bias, b.bias)

    assert cfg == _cfg()
    assert isinstance(cfg.hidden, tuple)


def test_sidecar_contents(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    with open(sidecar_path(path), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    assert set(sidecar) == {"format_version", "config"}
    assert sidecar["format_version"] == FORMAT_VERSION
    assert sidecar["config"]["seed"] == 17
    assert sidecar["config"]["known_count"] == 4
    assert sidecar["config"]["hidden"] == [8, 6]


def test_older_sidecar_with_a_top_level_seed_loads(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    with open(sidecar_path(path), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    with open(sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump({**sidecar, "seed": 5}, fh)
    _, cfg = load_checkpoint(path)
    assert cfg == _cfg() and cfg.seed == 17


def test_missing_sidecar_is_not_found(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    (tmp_path / "model.bin.json").unlink()
    with pytest.raises(FileNotFoundError, match="model.bin.json"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(InvalidArgumentError, match="not a checkpoint"):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION + 9) + b"\x00" * 8)
    with pytest.raises(InvalidArgumentError, match="version"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(InvalidArgumentError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(InvalidArgumentError, match="trailing"):
        load_checkpoint(path)


def test_corrupt_manifest_rejected(tmp_path):
    path = tmp_path / "model.bin"
    garbage = b"{not json"
    path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION)
                     + struct.pack("<I", len(garbage)) + garbage)
    with pytest.raises(InvalidArgumentError, match="manifest"):
        load_checkpoint(path)


def test_incomplete_layer_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    data = bytearray(path.read_bytes())
    (manifest_len,) = struct.unpack_from("<I", data, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    manifest = json.loads(data[start : start + manifest_len].decode("utf-8"))
    manifest["blocks"][1]["kind"] = "weight"  # duplicate kind, bias now missing
    new_manifest = json.dumps(manifest).encode("utf-8")
    rebuilt = (
        bytes(data[: len(MAGIC) + 4])
        + struct.pack("<I", len(new_manifest))
        + new_manifest
        + bytes(data[start + manifest_len :])
    )
    path.write_bytes(rebuilt)
    with pytest.raises(InvalidArgumentError, match="incomplete"):
        load_checkpoint(path)


def test_empty_encoder_roundtrip(tmp_path):
    path = tmp_path / "id.bin"
    params = init_params(4, (), 3, 2, seed=0)
    save_checkpoint(path, params, _cfg())
    loaded, _ = load_checkpoint(path)
    assert loaded.encoder == ()
    assert np.array_equal(loaded.projection[0].weight, params.projection[0].weight)


class _FailingFile:
    """Delegates to a real file, except that write number ``fail_at``,
    counted across every file opened since the last reset, raises."""

    writes = 0

    def __init__(self, fh, fail_at):
        self._fh, self._fail_at = fh, fail_at

    def write(self, data):
        _FailingFile.writes += 1
        if _FailingFile.writes == self._fail_at:
            raise OSError("disk full")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    params = _params()
    save_checkpoint(path, params, _cfg())
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    newer = init_params(5, (8, 6), 4, 3, seed=43)

    # fail each write of the save in turn, until a save has none left to fail
    for fail_at in itertools.count(1):
        _FailingFile.writes = 0
        monkeypatch.setattr(
            checkpoint, "open", lambda *a, **k: _FailingFile(open(*a, **k), fail_at), raising=False
        )
        try:
            save_checkpoint(path, newer, replace(_cfg(), seed=18))
            break
        except OSError as exc:
            assert "disk full" in str(exc)
        assert sorted(os.listdir(tmp_path)) == sorted(before), fail_at
        assert all((tmp_path / n).read_bytes() == b for n, b in before.items()), fail_at
        loaded, cfg = load_checkpoint(path)
        assert cfg.seed == 17 and np.array_equal(loaded.encoder[0].weight, params.encoder[0].weight)

    assert fail_at > 3  # header, manifest, each block and the sidecar each failed once
    loaded, cfg = load_checkpoint(path)
    assert cfg.seed == 18 and np.array_equal(loaded.encoder[0].weight, newer.encoder[0].weight)
    assert sorted(os.listdir(tmp_path)) == sorted(before)
