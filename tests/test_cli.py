"""Command-line entry point, exercised in process through main(argv)."""

import dataclasses
import json
import struct
import sys

import numpy as np
import pytest

import dctau.cli
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
from dctau.checkpoint import MAGIC, load_checkpoint, save_checkpoint
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
        "--set", "known_count=4", "--seed", "21",
    ]) == 0
    text = (out / EFFECTIVE_CONFIG_FILE).read_text(encoding="utf-8")
    assert "known_count = 4" in text  # --set beats the file
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


def test_train_resume_flag(tmp_path):
    warm = tmp_path / "warm"
    assert _run(["train", "--out", str(warm), "--seed", "5", "--quiet", *_FAST]) == 0
    resumed = tmp_path / "resumed"
    assert _run([
        "train", "--out", str(resumed), "--seed", "5", "--quiet", *_FAST,
        "--set", f"resume_from={warm / CHECKPOINT_FILE}",
    ]) == 0
    cold, _ = load_checkpoint(warm / CHECKPOINT_FILE)
    hot, _ = load_checkpoint(resumed / CHECKPOINT_FILE)
    assert not np.array_equal(cold.projection[0].weight, hot.projection[0].weight)
    text = (resumed / EFFECTIVE_CONFIG_FILE).read_text(encoding="utf-8")
    assert f"resume_from = {warm / CHECKPOINT_FILE}" in text


def test_bad_config_exits_2(tmp_path, capsys):
    code = _run(["generate", "--out", str(tmp_path), *_FAST, "--set", "known_count=99"])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    code = _run(["generate", "--out", str(tmp_path), "--set", "nonsense=1"])
    assert code == 2

    code = _run(["generate", "--out", str(tmp_path), "--set", "oops"])
    assert code == 2


def test_numeric_failure_exits_3(tmp_path, capsys):
    # a single known class cannot feed batches that need a second class
    code = _run([
        "train", "--out", str(tmp_path), "--quiet",
        "--set", "class_count=3", "--set", "known_count=1",
        "--set", "per_class=16", "--set", "dim=4", "--set", "hidden=8",
        "--set", "proj_dim=4", "--set", "contrastive_epochs=1",
        "--set", "classifier_epochs=1", "--set", "batch_size=8",
        "--set", "warmup_epochs=0",
    ])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_missing_files_exit_codes(tmp_path, capsys):
    code = _run(["eval", "--checkpoint", str(tmp_path / "absent.bin"),
                 "--out", str(tmp_path)])
    assert code == 4

    code = _run(["generate", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)])
    assert code == 4
    capsys.readouterr()


def test_eval_truncated_checkpoint_header_exits_2(tmp_path, capsys):
    ckpt = tmp_path / CHECKPOINT_FILE
    ckpt.write_bytes(MAGIC + b"\x01\x00")  # shorter than the 16-byte header
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")])
    assert code == 2
    assert "header truncated" in capsys.readouterr().err


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
    ],
    ids=["empty", "feature-cell", "label-cell", "short-row", "nan-cell", "inf-cell",
         "minus-inf-cell"],
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
    "text", ["{", "[1, 2]", '{"original_known_ids": 3}', '{"rows": [1, 2]}', '{"dim": 99}']
)
def test_malformed_split_manifest_exits_2(tmp_path, capsys, text):
    data = tmp_path / "data"
    assert _run(["generate", "--out", str(data), "--quiet", *_FAST]) == 0
    (data / "manifest.json").write_text(text, encoding="utf-8")
    code = _run(["generate", "--out", str(tmp_path / "again"), "--quiet",
                 "--set", f"data_dir={data}"])
    assert code == 2
    assert "manifest.json" in capsys.readouterr().err


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


def _rewrite_manifest(path, edit):
    """Replace the checkpoint's JSON manifest with ``edit(manifest)``."""
    data = path.read_bytes()
    (manifest_len,) = struct.unpack_from("<I", data, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    manifest = json.loads(data[start : start + manifest_len].decode("utf-8"))
    new_manifest = json.dumps(edit(manifest)).encode("utf-8")
    path.write_bytes(
        data[: len(MAGIC) + 4] + struct.pack("<I", len(new_manifest))
        + new_manifest + data[start + manifest_len :]
    )


def _set_block(key, value):
    def edit(manifest):
        manifest["blocks"][0][key] = value
        return manifest
    return edit


def _drop_key(key):
    def edit(manifest):
        del manifest["blocks"][0][key]
        return manifest
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: {"blocks": 5},
        lambda m: {"blocks": [1, 2]},
        lambda m: [m],
        _set_block("section", "decoder"),
        _drop_key("layer"),
        _drop_key("kind"),
        _drop_key("shape"),
        _set_block("shape", "4x8"),
        _set_block("shape", [-4, -8]),
        _set_block("shape", [8, 4]),  # same byte count, transposed
    ],
    ids=["blocks-int", "blocks-of-ints", "top-level-list", "unknown-section",
         "no-layer", "no-kind", "no-shape", "string-shape", "negative-shape",
         "transposed-shape"],
)
def test_malformed_checkpoint_manifest_exits_2(tmp_path, capsys, edit):
    ckpt = tmp_path / CHECKPOINT_FILE
    save_checkpoint(ckpt, init_params(4, (8,), 4, 3, seed=0), TrainConfig())
    _rewrite_manifest(ckpt, edit)
    code = _run(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
