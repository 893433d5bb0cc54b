"""Command-line entry point, exercised in process through main(argv)."""

import dataclasses
import io
import json
import os
import struct
import sys
import warnings
import zipfile

import numpy as np
import pytest

import dctau.cli
import dctau.data
import dctau.metrics
import dctau.model
from dctau.cli import (
    CHECKPOINT_FILE,
    CURVE_FILE,
    EFFECTIVE_CONFIG_FILE,
    HISTORY_FILE,
    REPORT_FILE,
    THRESHOLDS_FILE,
    main,
)
from dctau.checkpoint import load_checkpoint, save_checkpoint
from dctau.config import TrainConfig
from dctau.model import init_params

_FAST = [
    "--set", "class_count=5", "--set", "per_class=16", "--set", "dim=4",
    "--set", "known_count=3", "--set", "hidden=8", "--set", "proj_dim=4",
    "--set", "contrastive_epochs=2", "--set", "classifier_epochs=2",
    "--set", "batch_size=16", "--set", "warmup_epochs=1",
]


def _run(argv):
    return main(argv)


def test_generate_writes_csvs_and_config(tmp_path, capsys):
    out = tmp_path / "data"
    code = _run(["generate", "--out", str(out), "--seed", "3", *_FAST])
    assert code == 0
    for name in ("train.csv", "test_known.csv", "test_unknown.csv", "manifest.json"):
        assert (out / name).exists()
    effective = (out / EFFECTIVE_CONFIG_FILE).read_text(encoding="utf-8")
    assert "seed = 3" in effective
    assert "class_count = 5" in effective
    captured = capsys.readouterr()
    assert "# effective config" in captured.out
    assert "wrote train/test_known/test_unknown CSVs" in captured.out


def test_train_then_eval_roundtrip(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert _run(["train", "--out", str(run_dir), "--seed", "5", *_FAST]) == 0
    ckpt = run_dir / CHECKPOINT_FILE
    assert ckpt.exists()
    history = (run_dir / HISTORY_FILE).read_text(encoding="utf-8").splitlines()
    assert history[0] == "phase,epoch,loss"
    assert sum(1 for l in history if l.startswith("contrastive,")) == 2
    assert sum(1 for l in history if l.startswith("classifier,")) == 2

    eval_dir = tmp_path / "eval"
    capsys.readouterr()
    assert _run(["eval", "--checkpoint", str(ckpt), "--out", str(eval_dir)]) == 0
    report = json.loads((eval_dir / REPORT_FILE).read_text(encoding="utf-8"))
    assert 0.0 <= report["auroc"] <= 1.0
    assert report["config"]["seed"] == 5  # sidecar config is the base
    assert (eval_dir / THRESHOLDS_FILE).exists()
    curve = (eval_dir / CURVE_FILE).read_text(encoding="utf-8").splitlines()
    assert curve[0] == "delta,ccr,fpr"
    assert len(curve) > 1
    stdout = capsys.readouterr().out
    assert "# effective config" in stdout
    assert '"auroc"' in stdout  # the report JSON is echoed


def _trained_checkpoint(tmp_path):
    run_dir = tmp_path / "run"
    assert _run(["train", "--out", str(run_dir), "--seed", "5", "--quiet", *_FAST]) == 0
    return run_dir / CHECKPOINT_FILE


def _counting(fn, calls, key):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_eval_scores_each_row_set_once(tmp_path, monkeypatch):
    ckpt = _trained_checkpoint(tmp_path)
    calls = {"posteriors": 0, "cli.oscr_curve": 0, "metrics.oscr_curve": 0}
    real_posteriors, real_curve = dctau.model.posteriors, dctau.metrics.oscr_curve
    counted = _counting(real_posteriors, calls, "posteriors")
    for name, module in list(sys.modules.items()):
        if name == "dctau" or name.startswith("dctau."):
            for attr, value in list(vars(module).items()):
                if value is real_posteriors:
                    monkeypatch.setattr(module, attr, counted)
    # cmd_eval's own binding, and the one oscr looks up inside metrics
    monkeypatch.setattr(dctau.cli, "oscr_curve", _counting(real_curve, calls, "cli.oscr_curve"))
    monkeypatch.setattr(
        dctau.metrics, "oscr_curve", _counting(real_curve, calls, "metrics.oscr_curve")
    )
    assert _run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval"),
                 "--quiet"]) == 0
    # train, test_known and test_unknown once each; the curve file reuses
    # the test posteriors that evaluate_params scored
    assert calls == {"posteriors": 3, "cli.oscr_curve": 1, "metrics.oscr_curve": 1}


def test_report_json_comes_from_the_patched_evaluate_params(tmp_path, monkeypatch):
    ckpt = _trained_checkpoint(tmp_path)
    argv = ["eval", "--checkpoint", str(ckpt), "--quiet"]
    assert _run([*argv, "--out", str(tmp_path / "a")]) == 0
    real = dctau.cli.evaluate_params

    def off_by_one_ulp(params, split, cfg):
        report = real(params, split, cfg)
        return dataclasses.replace(report, oscr=float(np.nextafter(report.oscr, 0)))

    monkeypatch.setattr(dctau.cli, "evaluate_params", off_by_one_ulp)
    assert _run([*argv, "--out", str(tmp_path / "b")]) == 0
    a, b = (json.loads((tmp_path / d / REPORT_FILE).read_text(encoding="utf-8")) for d in "ab")
    assert b["oscr"] == float(np.nextafter(a["oscr"], 0)) != a["oscr"]
    for report in (a, b):
        del report["oscr"], report["wall_seconds"]
    assert a == b
    for name in (THRESHOLDS_FILE, CURVE_FILE):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_a_generated_split_is_read_back_without_parsing(tmp_path, monkeypatch):
    parsed = []
    real = dctau.data._parse_csv

    def counted(path, data):
        parsed.append(os.path.basename(path))
        return real(path, data)

    monkeypatch.setattr(dctau.data, "_parse_csv", counted)
    data, run = tmp_path / "data", tmp_path / "run"
    assert _run(["generate", "--out", str(data), "--quiet", *_FAST]) == 0
    assert _run(["train", "--out", str(run), "--quiet", *_FAST,
                 "--set", f"data_dir={data}"]) == 0

    def evaluate(out):
        argv = ["eval", "--checkpoint", str(run / CHECKPOINT_FILE), "--out", str(out), "--quiet"]
        assert _run(argv) == 0
        report = json.loads((out / REPORT_FILE).read_text(encoding="utf-8"))
        del report["wall_seconds"]
        return report, (out / THRESHOLDS_FILE).read_bytes(), (out / CURVE_FILE).read_bytes()

    from_companions = evaluate(tmp_path / "a")
    assert parsed == []
    # a trailing blank line changes the bytes but not the rows
    with open(data / "test_known.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert evaluate(tmp_path / "b") == from_companions
    assert parsed == ["test_known.csv"]
    for companion in data.glob("*.csv.npz"):
        companion.unlink()
    assert evaluate(tmp_path / "c") == from_companions
    assert sorted(parsed) == ["test_known.csv", "test_known.csv", "test_unknown.csv", "train.csv"]


def test_eval_with_overflowing_weights_exits_3(tmp_path, capsys):
    ckpt = _trained_checkpoint(tmp_path)
    params, cfg = load_checkpoint(ckpt)

    def scaled(layers):
        return tuple(dataclasses.replace(l, weight=l.weight * 1e200) for l in layers)

    huge = dataclasses.replace(params, encoder=scaled(params.encoder),
                               classifier=scaled(params.classifier))
    save_checkpoint(ckpt, huge, cfg)
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval"), "--quiet"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_train_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["train", "--out", str(a), "--seed", "7", "--quiet", *_FAST]) == 0
    assert _run(["train", "--out", str(b), "--seed", "7", "--quiet", *_FAST]) == 0
    pa, _ = load_checkpoint(a / CHECKPOINT_FILE)
    pb, _ = load_checkpoint(b / CHECKPOINT_FILE)
    assert np.array_equal(pa.projection[0].weight, pb.projection[0].weight)
    assert (a / HISTORY_FILE).read_text() == (b / HISTORY_FILE).read_text()


def test_eval_flags_override_sidecar(tmp_path):
    run_dir = tmp_path / "run"
    assert _run(["train", "--out", str(run_dir), "--seed", "5", "--quiet", *_FAST]) == 0
    eval_dir = tmp_path / "eval"
    assert _run([
        "eval", "--checkpoint", str(run_dir / CHECKPOINT_FILE),
        "--out", str(eval_dir), "--quiet", "--set", "percentile=20.0",
    ]) == 0
    report = json.loads((eval_dir / REPORT_FILE).read_text(encoding="utf-8"))
    assert report["percentile"] == 20.0
    assert report["config"]["class_count"] == 5  # untouched keys keep sidecar values


@pytest.mark.parametrize(
    "key, value", [("hidden", "16"), ("hidden", "8,8"), ("hidden", ""), ("proj_dim", "3")]
)
def test_eval_rejects_an_architecture_the_checkpoint_lacks(tmp_path, capsys, key, value):
    ckpt = _trained_checkpoint(tmp_path)
    out = tmp_path / "eval"
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(out), "--quiet",
                 "--set", f"{key}={value}"])
    assert code == 2
    assert f"error: {key}:" in capsys.readouterr().err
    assert not (out / REPORT_FILE).exists()


@pytest.mark.parametrize("source", ["set", "data_dir"])
def test_eval_rejects_a_split_of_another_class_count(tmp_path, capsys, source):
    ckpt = _trained_checkpoint(tmp_path)  # known_count=3: a 3-output classifier
    if source == "set":
        flags = ["--set", "known_count=2"]
    else:
        data = tmp_path / "data"
        assert _run(["generate", "--out", str(data), "--quiet", *_FAST,
                     "--set", "known_count=2"]) == 0
        flags = ["--set", f"data_dir={data}"]
    out = tmp_path / "eval"
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(out), "--quiet", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert "the split has 2 known classes, the classifier has 3 outputs" in err
    assert not (out / REPORT_FILE).exists()


def test_a_trained_sidecar_describes_its_weights(tmp_path):
    run_dir = tmp_path / "run"
    assert _run(["train", "--out", str(run_dir), "--quiet", *_FAST,
                 "--set", "hidden=8,4", "--set", "proj_dim=3"]) == 0
    params, cfg = load_checkpoint(run_dir / CHECKPOINT_FILE)
    widths = tuple(layer.weight.shape[1] for layer in params.encoder)
    assert widths == cfg.hidden == (8, 4)
    assert params.projection[-1].weight.shape[1] == cfg.proj_dim == 3


def test_quiet_suppresses_stdout_but_writes_config(tmp_path, capsys):
    out = tmp_path / "q"
    assert _run(["generate", "--out", str(out), "--quiet", *_FAST]) == 0
    assert capsys.readouterr().out == ""
    assert (out / EFFECTIVE_CONFIG_FILE).exists()


def test_config_file_and_set_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("class_count = 5\nknown_count = 3\nper_class = 16\n"
                        "dim = 4\nhidden = 8\nproj_dim = 4\n"
                        "contrastive_epochs = 2\nclassifier_epochs = 2\n"
                        "batch_size = 16\nwarmup_epochs = 1\nseed = 9\n",
                        encoding="utf-8")
    out = tmp_path / "out"
    assert _run([
        "generate", "--config", str(cfg_file), "--out", str(out), "--quiet",
        "--set", "known_count=2", "--set", "known_count=4", "--seed", "21",
    ]) == 0
    text = (out / EFFECTIVE_CONFIG_FILE).read_text(encoding="utf-8")
    assert "known_count = 4" in text  # --set beats the file, and the last --set wins
    assert "seed = 21" in text  # --seed beats the file
    assert "class_count = 5" in text


def test_ablate_writes_sweep_table(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert _run([
        "ablate", "--sweep", "lambda", "--values", "0.3,0.7",
        "--out", str(out), "--seed", "2", *_FAST,
        "--set", "contrastive_epochs=1", "--set", "classifier_epochs=1",
    ]) == 0
    lines = (out / "sweep_lambda.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("lambda,0.3,")
    assert lines[2].startswith("lambda,0.7,")
    assert "lambda=0.3" in capsys.readouterr().out


def test_ablate_scheme_values_stay_strings(tmp_path):
    out = tmp_path / "sweep"
    assert _run([
        "ablate", "--sweep", "scheme", "--values", "none,k_plus_k",
        "--out", str(out), "--seed", "2", "--quiet", *_FAST,
        "--set", "contrastive_epochs=1", "--set", "classifier_epochs=1",
    ]) == 0
    lines = (out / "sweep_scheme.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("scheme,none,")
    assert lines[2].startswith("scheme,k_plus_k,")


def test_bad_config_exits_2(tmp_path, capsys):
    code = _run(["generate", "--out", str(tmp_path), *_FAST, "--set", "known_count=99"])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    code = _run(["generate", "--out", str(tmp_path), "--set", "nonsense=1"])
    assert code == 2

    code = _run(["generate", "--out", str(tmp_path), "--set", "oops"])
    assert code == 2

    # a 2-row batch of two classes can never hold a positive pair
    capsys.readouterr()
    code = _run(["generate", "--out", str(tmp_path), *_FAST, "--set", "batch_size=2"])
    assert code == 2
    assert "batch_size must be >= 3" in capsys.readouterr().err

    # one known class on a synthetic split: every contrastive batch holds one class
    code = _run(["train", "--out", str(tmp_path), *_FAST, "--set", "known_count=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: known_count=1") and "contrastive_epochs" in err

    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"seed = 1\n# caf\xe9\n")  # Latin-1, not UTF-8
    code = _run(["generate", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and str(cfg_file) in err and "UTF-8" in err

    cfg_file.write_text("seed = 1\ndim = 4\n\nseed = 2\n", encoding="utf-8")
    code = _run(["generate", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: line 4: 'seed' is already set on line 1\n"


def test_numeric_failure_exits_3(tmp_path, capsys):
    # the dead start: at seed 1 every projection ReLU is off for some row
    # of the first batch, which then projects to zero
    code = _run([
        "train", "--out", str(tmp_path), "--quiet",
        "--set", "class_count=5", "--set", "per_class=20", "--set", "dim=4",
        "--set", "spread=0.4", "--set", "known_count=3", "--set", "hidden=8",
        "--set", "proj_dim=4", "--set", "contrastive_epochs=1",
        "--set", "classifier_epochs=1", "--set", "batch_size=16",
        "--set", "warmup_epochs=1", "--seed", "1",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: epoch 0, batch 0:") and "zero norm" in err


@pytest.mark.parametrize("scheme", ["k_plus_k", "k_plus_one", "none"])
@pytest.mark.parametrize("temperature", ["1e-200", "1e-300", "1e-310", "5e-324"])
def test_a_temperature_that_overflows_training_exits_3(tmp_path, capsys, temperature, scheme):
    # 1e-200 and 1e-300 overflow Adam's second moment, the subnormal two
    # the similarities divided by the temperature: neither may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run(["train", "--out", str(tmp_path), "--quiet", *_FAST,
                     "--set", f"temperature={temperature}", "--set", f"pseudo_scheme={scheme}"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: epoch 0, batch 0: overflow encountered")


def test_a_saved_split_with_one_known_class_needs_contrastive_epochs_0(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    assert _run(["generate", "--out", str(data), "--quiet",
                 "--set", "class_count=3", "--set", "known_count=1", "--set", "per_class=16",
                 "--set", "dim=4", "--set", "contrastive_epochs=0"]) == 0
    train = ["train", "--out", str(run), "--quiet", *_FAST, "--set", f"data_dir={data}"]
    assert _run(train) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data} holds one known class") and "contrastive_epochs=0" in err
    assert not (run / CHECKPOINT_FILE).exists()

    assert _run([*train, "--set", "contrastive_epochs=0"]) == 0
    assert _run(["eval", "--checkpoint", str(run / CHECKPOINT_FILE),
                 "--out", str(tmp_path / "eval"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_an_empty_test_unknown_csv_trains_but_eval_names_the_file(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    assert _run(["generate", "--out", str(data), "--quiet", *_FAST]) == 0
    path = data / "test_unknown.csv"
    path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    for stale in (data / "test_unknown.csv.npz", data / "manifest.json"):
        stale.unlink()
    assert _run(["train", "--out", str(run), "--quiet", *_FAST,
                 "--set", f"data_dir={data}"]) == 0
    out = tmp_path / "eval"
    code = _run(["eval", "--checkpoint", str(run / CHECKPOINT_FILE), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: no rows, and evaluation scores unknown rows\n"
    assert not (out / REPORT_FILE).exists()


def test_missing_files_exit_codes(tmp_path, capsys):
    code = _run(["eval", "--checkpoint", str(tmp_path / "absent.bin"),
                 "--out", str(tmp_path)])
    assert code == 4

    # a checkpoint without its sidecar is not scored under defaults
    ckpt = tmp_path / CHECKPOINT_FILE
    save_checkpoint(ckpt, init_params(8, (64, 64), 16, 6, seed=0), TrainConfig())
    (tmp_path / f"{CHECKPOINT_FILE}.json").unlink()
    out = tmp_path / "eval"
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(out), "--quiet"])
    assert code == 4
    assert f"{CHECKPOINT_FILE}.json" in capsys.readouterr().err
    assert not (out / REPORT_FILE).exists()

    code = _run(["generate", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)])
    assert code == 4
    capsys.readouterr()


def test_eval_truncated_checkpoint_header_exits_2(tmp_path, capsys):
    ckpt = tmp_path / CHECKPOINT_FILE
    save_checkpoint(ckpt, init_params(8, (64, 64), 16, 6, seed=0), TrainConfig())
    ckpt.write_bytes(ckpt.read_bytes()[:20])  # inside the first member's 30-byte zip header
    out = tmp_path / "eval"
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(out)])
    assert code == 2
    assert "truncated" in capsys.readouterr().err
    assert not (out / REPORT_FILE).exists()


def test_eval_malformed_sidecar_exits_2(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert _run(["train", "--out", str(run_dir), "--seed", "5", "--quiet", *_FAST]) == 0
    ckpt = run_dir / CHECKPOINT_FILE
    (run_dir / f"{CHECKPOINT_FILE}.json").write_text('{"seed": 5, "config": {', encoding="utf-8")
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")])
    assert code == 2
    assert "corrupt sidecar" in capsys.readouterr().err


@pytest.mark.parametrize("sidecar", [{"seed": 9}, {}], ids=["seed-only", "empty"])
def test_eval_sidecar_without_config_exits_2(tmp_path, capsys, sidecar):
    # params shaped for the default config, so a fallback to TrainConfig()
    # would score them and write the default percentile
    ckpt = tmp_path / CHECKPOINT_FILE
    save_checkpoint(ckpt, init_params(8, (64, 64), 16, 6, seed=0), TrainConfig(percentile=20.0))
    (tmp_path / f"{CHECKPOINT_FILE}.json").write_text(json.dumps(sidecar), encoding="utf-8")
    out = tmp_path / "eval"
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(out), "--quiet"])
    assert code == 2
    assert "corrupt sidecar" in capsys.readouterr().err
    assert not (out / REPORT_FILE).exists()


def _first_feature(cell):
    """An edit of a generated CSV that sets its first feature cell to cell."""
    def edit(text):
        header, first, rest = text.split("\n", 2)
        return "\n".join([header, cell + first[first.index(","):], rest])
    return edit


def _every_label(label):
    """An edit of a generated CSV that sets every row's label to label."""
    def edit(text):
        header, *rows = text.splitlines()
        return "\n".join([header, *(row[: row.rindex(",") + 1] + label for row in rows)]) + "\n"
    return edit


@pytest.mark.parametrize(
    "name, text",
    [
        ("train.csv", ""),
        ("test_known.csv", "f0,f1,label\n0.5,oops,1\n"),
        ("test_unknown.csv", "f0,f1,label\n0.5,0.25,zero\n"),
        ("train.csv", "f0,f1,label\n0.5,0.25,1\n0.5,2\n"),
        ("test_known.csv", _first_feature("nan")),
        ("train.csv", _first_feature("inf")),
        ("test_unknown.csv", _first_feature("-inf")),
        ("test_unknown.csv", _every_label("1")),
    ],
    ids=["empty", "feature-cell", "label-cell", "short-row", "nan-cell", "inf-cell",
         "minus-inf-cell", "known-label"],
)
def test_malformed_split_csv_exits_2(tmp_path, capsys, name, text):
    data = tmp_path / "data"
    assert _run(["generate", "--out", str(data), "--quiet", *_FAST]) == 0
    if callable(text):
        text = text((data / name).read_text(encoding="utf-8"))
    (data / name).write_text(text, encoding="utf-8")
    code = _run(["generate", "--out", str(tmp_path / "again"), "--quiet",
                 "--set", f"data_dir={data}"])
    assert code == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "{", "[1, 2]", '{"original_known_ids": 3}', '{"rows": [1, 2]}', '{"dim": 99}',
        '{"original_known_ids": [1.5, 2, 3]}', '{"original_known_ids": [1]}',
        '{"original_known_ids": [2, 2, 2]}', '{"original_known_ids": [true, 2, 3]}',
    ],
)
def test_malformed_split_manifest_exits_2(tmp_path, capsys, text):
    data = tmp_path / "data"
    assert _run(["generate", "--out", str(data), "--quiet", *_FAST]) == 0
    (data / "manifest.json").write_text(text, encoding="utf-8")
    code = _run(["generate", "--out", str(tmp_path / "again"), "--quiet",
                 "--set", f"data_dir={data}"])
    assert code == 2
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("num_known, code", [(99, 2), (2, 2), ("3", 2), (None, 0)])
def test_eval_checks_the_split_manifest_num_known(tmp_path, capsys, num_known, code):
    ckpt = _trained_checkpoint(tmp_path)  # known_count=3
    data = tmp_path / "data"
    assert _run(["generate", "--out", str(data), "--quiet", *_FAST]) == 0
    manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    if num_known is None:
        del manifest["num_known"]  # a manifest without the key still loads
    else:
        manifest["num_known"] = num_known
    (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert _run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval"),
                 "--quiet", "--set", f"data_dir={data}"]) == code
    if code:
        assert "manifest.json: corrupt split manifest (num_known must be 3" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("name", ["train.csv", "test_known.csv", "test_unknown.csv"])
def test_split_csv_missing_a_row_exits_2(tmp_path, capsys, name):
    data = tmp_path / "data"
    assert _run(["generate", "--out", str(data), "--quiet", *_FAST]) == 0
    lines = (data / name).read_text(encoding="utf-8").splitlines(keepends=True)
    (data / name).write_text("".join(lines[:-1]), encoding="utf-8")
    code = _run(["generate", "--out", str(tmp_path / "again"), "--quiet",
                 "--set", f"data_dir={data}"])
    assert code == 2
    err = capsys.readouterr().err
    assert name in err and "rows" in err


@pytest.mark.parametrize("drop", [2, 3])  # 3 is the highest known class of _FAST
def test_a_split_csv_without_a_known_class_names_the_file_and_class(tmp_path, capsys, drop):
    # a middle class is missed when the CSV is read, the highest one only
    # when load_split widens the split to the train set's class count
    data = tmp_path / "data"
    assert _run(["generate", "--out", str(data), "--quiet", *_FAST]) == 0
    path = data / "test_known.csv"
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    kept = [row for row in rows if not row.endswith(f",{drop}")]
    assert len(kept) < len(rows)
    path.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
    code = _run(["train", "--out", str(tmp_path / "run"), "--quiet", *_FAST,
                 "--set", f"data_dir={data}"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {path}: every class in 1..3 needs at least one row; missing: {drop}\n")


def _npy_header(text):
    """An npy member whose header is the dict literal ``text``, over 32 doubles."""
    header = text.encode("latin1")
    header += b" " * (-(10 + len(header) + 1) % 64) + b"\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header + bytes(256)


def _rewrite_members(path, edit):
    """Rewrite the checkpoint archive with its members ``edit(members)``;
    a member given as bytes is written as those npy bytes."""
    with np.load(path) as npz:
        members = edit(dict(npz))
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in members.items():
            if not isinstance(value, bytes):
                buf = io.BytesIO()
                np.save(buf, value)
                value = buf.getvalue()
            zf.writestr(f"{name}.npy", value)


def _set_member(name, value):
    def edit(members):
        members[name] = value(members[name]) if callable(value) else value
        return members
    return edit


def _rename(old, new):
    return lambda members: {new if k == old else k: v for k, v in members.items()}


@pytest.mark.parametrize(
    "edit",
    [
        _set_member("encoder.0.weight", lambda w: w.T),
        _set_member("encoder.0.bias", lambda b: b.astype(np.int64)),
        _set_member("encoder.0.weight", np.ravel),
        lambda m: {k.replace("encoder.0", "encoder.1"): v for k, v in m.items()},
        _rename("encoder.0.weight", "decoder.0.weight"),
        _rename("encoder.0.weight", "encoder.0"),
        _set_member("encoder.0.bias", np.array([[1.0]], dtype=object)),
        _set_member("encoder.0.weight",
                    _npy_header("{'descr': '<f8', 'fortran_order': False, }")),
        _set_member("encoder.0.weight",
                    _npy_header("{'descr': '<f8', 'fortran_order': False, 'shape': '4x8', }")),
        _set_member("encoder.0.weight",
                    _npy_header("{'descr': '<f8', 'fortran_order': False, 'shape': (-4, -8), }")),
    ],
    ids=["transposed-shape", "int64-member", "1d-weight", "no-layer", "unknown-section",
         "no-kind", "pickled-member", "no-shape", "string-shape", "negative-shape"],
)
def test_malformed_checkpoint_manifest_exits_2(tmp_path, capsys, edit):
    # the member names and npy headers are the checkpoint's manifest
    ckpt = tmp_path / CHECKPOINT_FILE
    cfg = TrainConfig(dim=4, hidden=(8,), proj_dim=4, class_count=5, known_count=3)
    save_checkpoint(ckpt, init_params(4, (8,), 4, 3, seed=0), cfg)
    load_checkpoint(ckpt)
    _rewrite_members(ckpt, edit)
    out = tmp_path / "eval"
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(out), "--quiet"])
    assert code == 2
    assert f"error: {ckpt}: " in capsys.readouterr().err
    assert not (out / REPORT_FILE).exists()


@pytest.mark.parametrize("flag, raw", [("--values", "a,b"), ("--seeds", "x"), ("--seeds", ",")])
def test_ablate_unparseable_list_exits_2(tmp_path, capsys, flag, raw):
    code = _run(["ablate", "--sweep", "lambda", flag, raw, "--out", str(tmp_path),
                 "--quiet", *_FAST])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sweep, flag, raw", [
    ("percentile", "--values", "5,5.0,10"), ("percentile", "--seeds", "4,5,4"),
    ("lambda", "--values", "0.3,0.3"), ("lambda", "--seeds", "4,4"),
])
def test_ablate_repeated_value_or_seed_exits_2(tmp_path, capsys, sweep, flag, raw):
    code = _run(["ablate", "--sweep", sweep, flag, raw, "--out", str(tmp_path),
                 "--quiet", *_FAST])
    assert code == 2
    assert f"sweep {flag[2:]} must be distinct" in capsys.readouterr().err
    assert not (tmp_path / f"sweep_{sweep}.csv").exists()


def test_truncated_artifacts_never_raise(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    assert _run(["generate", "--out", str(data), "--quiet", *_FAST]) == 0
    assert _run(["train", "--out", str(run), "--quiet", *_FAST,
                 "--set", f"data_dir={data}"]) == 0
    ckpt = run / CHECKPOINT_FILE
    artifacts = [data / name for name in
                 ("train.csv", "test_known.csv", "test_unknown.csv", "manifest.json")]
    artifacts += [ckpt, run / f"{CHECKPOINT_FILE}.json"]
    argv = ["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval"), "--quiet"]
    masks = np.random.default_rng(0)
    for path in artifacts:
        original = path.read_bytes()
        n = len(original)
        cuts = {0, 1, n - 1, *np.linspace(2, n - 2, 16).astype(int).tolist()}
        for cut in sorted(cuts):
            path.write_bytes(original[:cut])
            code = _run(argv)
            assert code in (0, 2), (path.name, cut, code)
            if path == ckpt:
                assert code == 2, cut
            # the same offset with one byte flipped instead: the flip may
            # score (0), be rejected (2), overflow the forward pass (3) or
            # point data_dir at no file (4), but never raise
            flipped = bytearray(original)
            flipped[cut] ^= int(masks.integers(1, 256))
            path.write_bytes(bytes(flipped))
            code = _run(argv)
            assert code in (0, 2, 3, 4), (path.name, cut, code)
        path.write_bytes(original)
    assert _run(argv) == 0
    capsys.readouterr()


def test_missing_subcommand_raises_systemexit():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_verify_command_passes(capsys):
    assert _run(["verify", "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flag", [["--set", "x=1"], ["--seed", "3"], ["--out", "o"], ["--config", "c.txt"]]
)
def test_verify_takes_only_quiet(flag):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", *flag])
    assert excinfo.value.code == 2
