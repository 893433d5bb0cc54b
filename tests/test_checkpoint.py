"""npz checkpoint format: roundtrips and corruption handling."""

import io
import itertools
import json
import os
import struct
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from dctau import checkpoint
from dctau.checkpoint import load_checkpoint, save_checkpoint, sidecar_path
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
    assert set(sidecar) == {"config"}
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


def _assert_same_params(a, b):
    for section in ("encoder", "projection", "classifier"):
        assert len(getattr(a, section)) == len(getattr(b, section))
        for la, lb in zip(getattr(a, section), getattr(b, section)):
            for kind in ("weight", "bias"):
                x, y = getattr(la, kind), getattr(lb, kind)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _rewrite_members(path, edit):
    """Rewrite the checkpoint archive with its members ``edit(members)``."""
    with np.load(path) as npz:
        members = edit(dict(npz))
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in members.items():
            buf = io.BytesIO()
            np.save(buf, array)
            zf.writestr(f"{name}.npy", buf.getvalue())


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    # a file that is no zip archive, and the header of the raw binary
    # format checkpoints had before they became npz archives
    old_format = b"DCTAUCKP" + struct.pack("<II", 1, 2) + b"{}"
    for data in (b"NOTACKPT" + b"\x00" * 16, old_format):
        path.write_bytes(data)
        with pytest.raises(InvalidArgumentError, match="not a checkpoint"):
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


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: {**m, "encoder.0.scale": m["encoder.0.bias"]},
        lambda m: {**m, "encoder.0.weight.extra": m["encoder.0.bias"]},
        lambda m: {("encoder.00.weight" if k == "encoder.0.weight" else k): v
                   for k, v in m.items()},
        lambda m: {k.replace("classifier", "Classifier"): v for k, v in m.items()},
    ],
    ids=["extra-kind", "extra-suffix", "padded-index", "misnamed-section"],
)
def test_extra_or_misnamed_member_rejected(tmp_path, edit):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    _rewrite_members(path, edit)
    with pytest.raises(InvalidArgumentError, match="unexpected checkpoint member"):
        load_checkpoint(path)


def test_incomplete_layer_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    _rewrite_members(path, lambda m: {k: v for k, v in m.items() if k != "encoder.1.bias"})
    with pytest.raises(InvalidArgumentError, match="incomplete encoder layer 1"):
        load_checkpoint(path)


def test_a_rewritten_archive_of_the_same_members_loads(tmp_path):
    # the member edits above change only what they name
    path = tmp_path / "model.bin"
    save_checkpoint(path, _params(), _cfg())
    _rewrite_members(path, lambda m: m)
    _assert_same_params(load_checkpoint(path)[0], _params())


def test_a_checkpoint_is_a_standard_npz(tmp_path):
    path = tmp_path / "model.bin"
    params = _params()
    save_checkpoint(path, params, _cfg())
    assert not (tmp_path / "model.bin.npz").exists()
    with np.load(path, allow_pickle=False) as npz:
        members = dict(npz)
    expected = {
        f"{section}.{idx}.{kind}": getattr(layer, kind)
        for section in ("encoder", "projection", "classifier")
        for idx, layer in enumerate(getattr(params, section))
        for kind in ("weight", "bias")
    }
    assert list(members) == list(expected)
    for name, array in expected.items():
        assert members[name].dtype == np.float64
        assert members[name].tobytes() == array.tobytes(), name


def test_every_flipped_byte_loads_the_same_params_or_is_rejected(tmp_path):
    path = tmp_path / "model.bin"
    params = init_params(4, (8,), 4, 3, seed=0)
    save_checkpoint(path, params, _cfg())
    original = path.read_bytes()
    masks = np.random.default_rng(1).integers(1, 256, size=len(original)).tolist()
    loaded = 0
    for offset, mask in enumerate(masks):
        flipped = bytearray(original)
        flipped[offset] ^= mask
        path.write_bytes(bytes(flipped))
        try:
            back, _ = load_checkpoint(path)
        except InvalidArgumentError:
            continue
        _assert_same_params(back, params)
        loaded += 1
    # a flip in a zip field the reader does not use (a timestamp, say) is
    # harmless; every other flip is caught
    assert 0 < loaded < len(original)
    for cut in range(len(original)):
        path.write_bytes(original[:cut])
        with pytest.raises(InvalidArgumentError):
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

    assert fail_at > 3  # each write of the archive and of the sidecar failed once
    loaded, cfg = load_checkpoint(path)
    assert cfg.seed == 18 and np.array_equal(loaded.encoder[0].weight, newer.encoder[0].weight)
    assert sorted(os.listdir(tmp_path)) == sorted(before)
