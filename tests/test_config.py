"""TrainConfig typing and ranges, the key = value text format, and removed keys."""

import dataclasses
import json

import pytest

from dctau.checkpoint import save_checkpoint, sidecar_path
from dctau.cli import CHECKPOINT_FILE, main
from dctau.config import TrainConfig, parse_config_text, serialize_config
from dctau.errors import ConfigError
from dctau.model import init_params

# one value per field that differs from its default
_NON_DEFAULT = {
    "class_count": 7,
    "per_class": 33,
    "dim": 5,
    "spread": 0.45,
    "known_count": 4,
    "test_fraction": 0.25,
    "data_dir": "some/dir",
    "lam": 0.3,
    "pseudo_scheme": "k_plus_one",
    "temperature": 0.07,
    "gamma": 2.5,
    "hidden": (32, 16, 8),
    "proj_dim": 12,
    "contrastive_epochs": 11,
    "classifier_epochs": 13,
    "batch_size": 64,
    "learning_rate": 3e-3,
    "weight_decay": 0.0,
    "warmup_epochs": 0,
    "sigma": 0.0,
    "percentile": 12.5,
    "seed": 4242,
}

_REMOVED = {
    "two_views": "true",
    "unfreeze_encoder": "true",
    "classifier_hidden": "8",
    "optimizer": "adam",
    "per_class_thresholds": "false",
    "thresholds_on_correct_only": "false",
    "include_universum_term": "false",
    "resume_from": "run/checkpoint.bin",
}


def test_non_default_values_cover_every_field():
    fields = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    assert len(fields) == 22
    assert set(_NON_DEFAULT) == set(fields)
    assert all(_NON_DEFAULT[k] != v for k, v in fields.items())


@pytest.mark.parametrize(
    "cfg", [TrainConfig(), TrainConfig(**_NON_DEFAULT), TrainConfig(hidden=())],
    ids=["default", "non-default", "identity-encoder"],
)
def test_serialize_then_parse_round_trips_every_field(cfg):
    values = parse_config_text(serialize_config(cfg))
    assert list(values) == [f.name for f in dataclasses.fields(TrainConfig)]
    back = TrainConfig(**values)
    assert back == cfg
    for name, value in values.items():
        assert type(value) is type(getattr(cfg, name)), name
    # a key set twice in one file is an error naming both lines
    with pytest.raises(ConfigError, match=r"^line 24: 'gamma' is already set on line 11$"):
        parse_config_text(serialize_config(cfg) + "# again\ngamma = 0.5\n")


def test_declared_types_are_enforced_for_library_callers():
    cfg = TrainConfig(spread=1, hidden=[8, 4])
    assert type(cfg.spread) is float and cfg.spread == 1.0  # floats take ints
    assert cfg.hidden == (8, 4)  # any int sequence becomes a tuple
    for bad in ({"per_class": True}, {"dim": 4.0}, {"seed": 1.5}, {"data_dir": 5},
                {"hidden": [8.5]}, {"hidden": 8}, {"temperature": "0.1"},
                {"pseudo_scheme": None}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig(**bad)


@pytest.mark.parametrize("key", sorted(_REMOVED))
def test_set_of_a_removed_key_exits_2(tmp_path, capsys, key):
    code = main(["generate", "--out", str(tmp_path), "--quiet",
                 "--set", f"{key}={_REMOVED[key]}"])
    assert code == 2
    assert key in capsys.readouterr().err

    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {_REMOVED[key]}\n", encoding="utf-8")
    code = main(["generate", "--out", str(tmp_path), "--quiet", "--config", str(cfg_file)])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--epochs-contrastive", "--epochs-classifier", "--resume"])
def test_train_has_no_flag_that_renames_a_key(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--out", str(tmp_path), flag, "3"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _checkpoint_with_sidecar_config(tmp_path, edit):
    ckpt = tmp_path / CHECKPOINT_FILE
    save_checkpoint(ckpt, init_params(4, (8,), 4, 3, seed=0), TrainConfig())
    path = sidecar_path(ckpt)
    with open(path, encoding="utf-8") as fh:
        sidecar = json.load(fh)
    edit(sidecar["config"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    return ckpt


def test_sidecar_naming_a_removed_key_exits_2(tmp_path, capsys):
    for key in ("two_views", "include_universum_term", "resume_from"):
        ckpt = _checkpoint_with_sidecar_config(tmp_path, lambda c: c.update({key: _REMOVED[key]}))
        code = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")])
        assert code == 2, key
        err = capsys.readouterr().err
        assert "corrupt sidecar" in err and key in err


@pytest.mark.parametrize(
    "key, value",
    [("data_dir", 5), ("seed", 1.5), ("dim", 4.0), ("hidden", [8.5]), ("batch_size", 16.5),
     ("per_class", True)],
)
def test_ill_typed_sidecar_value_exits_2(tmp_path, capsys, key, value):
    ckpt = _checkpoint_with_sidecar_config(tmp_path, lambda c: c.update({key: value}))
    code = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert "corrupt sidecar" in err and key in err


_FLOAT_KEYS = [f.name for f in dataclasses.fields(TrainConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=str)
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_a_float_key_rejects_a_non_finite_value(key, value):
    with pytest.raises(ConfigError, match=rf"^{key}: expected finite float"):
        TrainConfig(**{key: value})


def test_a_float_key_rejects_an_int_too_large_for_a_float():
    with pytest.raises(ConfigError, match="^gamma: expected finite float"):
        TrainConfig(gamma=10**400)


def test_set_of_an_infinite_temperature_exits_2(tmp_path, capsys):
    code = main(["train", "--out", str(tmp_path), "--quiet", "--set", "temperature=inf"])
    assert code == 2
    assert "temperature" in capsys.readouterr().err
    assert not (tmp_path / CHECKPOINT_FILE).exists()


@pytest.mark.parametrize("key, value", [("temperature", float("inf")), ("gamma", 10**400)],
                         ids=["Infinity", "int-too-large"])
def test_sidecar_with_a_non_finite_float_exits_2(tmp_path, capsys, key, value):
    ckpt = _checkpoint_with_sidecar_config(tmp_path, lambda c: c.update({key: value}))
    with open(sidecar_path(ckpt), encoding="utf-8") as fh:
        assert f'"{key}": {json.dumps(value)}' in fh.read()  # json writes and reads Infinity
    code = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert "corrupt sidecar" in err and key in err


@pytest.mark.parametrize(
    "per_class, test_fraction",
    [(3, 0.3), (2, 0.5), (1, 0.5), (9, 0.1), (10, 0.95)],
    ids=["no-test-row", "one-train-row", "one-row", "floor-to-0", "one-train-row-of-10"],
)
def test_a_synthetic_split_a_known_class_cannot_fill_is_rejected(per_class, test_fraction):
    with pytest.raises(ConfigError, match=r"per_class=.* test_fraction=.*not >= 1 and >= 2"):
        TrainConfig(per_class=per_class, test_fraction=test_fraction)
    # a saved split is read as it is; the config's shape keys do not describe it
    TrainConfig(per_class=per_class, test_fraction=test_fraction, data_dir="saved")


@pytest.mark.parametrize("per_class, test_fraction", [(3, 0.34), (4, 0.3), (10, 0.8)])
def test_a_synthetic_split_with_one_test_and_two_training_rows_is_accepted(per_class, test_fraction):
    TrainConfig(per_class=per_class, test_fraction=test_fraction)


def test_one_known_class_needs_a_saved_split_or_no_contrastive_step():
    with pytest.raises(ConfigError, match=r"^known_count=1 on a synthetic split"):
        TrainConfig(known_count=1, contrastive_epochs=1)
    TrainConfig(known_count=1, contrastive_epochs=0)
    TrainConfig(known_count=1, contrastive_epochs=1, data_dir="saved")


def test_set_of_a_split_without_two_training_rows_exits_2(tmp_path, capsys):
    code = main(["train", "--out", str(tmp_path), "--quiet",
                 "--set", "per_class=2", "--set", "test_fraction=0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "per_class" in err and "test_fraction" in err


# int() and float() alone take these; a split CSV's reader does not
_NOT_PLAIN_ASCII = [("batch_size", "1_28"), ("seed", "١٢"), ("lam", "０.5"),
                    ("hidden", "6_4,8")]


@pytest.mark.parametrize("key, raw", _NOT_PLAIN_ASCII, ids=["underscore", "arabic-indic",
                                                          "fullwidth", "hidden-underscore"])
def test_a_config_number_must_be_plain_ascii(tmp_path, capsys, key, raw):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {raw}\n", encoding="utf-8")
    for flags in (["--config", str(cfg_file)], ["--set", f"{key}={raw}"]):
        code = main(["generate", "--out", str(tmp_path / "out"), "--quiet", *flags])
        assert code == 2, flags
        assert capsys.readouterr().err.startswith(f"error: {key}: expected"), flags
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--seed", "١٢"], ["--seed", "1_2"],
                                   ["--sweep", "lambda", "--values", "0_5"],
                                   ["--sweep", "lambda", "--seeds", "1,٢"]],
                         ids=["seed-digits", "seed-underscore", "values", "seeds"])
def test_a_number_flag_must_be_plain_ascii(tmp_path, capsys, flags):
    command = "ablate" if "--sweep" in flags else "generate"
    code = main([command, "--out", str(tmp_path), "--quiet", *flags])
    assert code == 2
    assert "expected" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep_*.csv")) and not list(tmp_path.glob("*.csv"))


def test_plain_numbers_still_parse():
    assert parse_config_text("batch_size = +16\nlam = 1e-1\nseed = 007\nhidden = 8, 4\n") == {
        "batch_size": 16, "lam": 0.1, "seed": 7, "hidden": (8, 4)}
