"""Command-line entry point, exercised in process through main(argv)."""

import json

import numpy as np
import pytest

from dctau.cli import (
    CHECKPOINT_FILE,
    CURVE_FILE,
    EFFECTIVE_CONFIG_FILE,
    HISTORY_FILE,
    REPORT_FILE,
    THRESHOLDS_FILE,
    main,
)
from dctau.checkpoint import MAGIC, load_checkpoint

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


def test_train_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["train", "--out", str(a), "--seed", "7", "--quiet", *_FAST]) == 0
    assert _run(["train", "--out", str(b), "--seed", "7", "--quiet", *_FAST]) == 0
    pa, _, _ = load_checkpoint(a / CHECKPOINT_FILE)
    pb, _, _ = load_checkpoint(b / CHECKPOINT_FILE)
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
        "--resume", str(warm / CHECKPOINT_FILE),
    ]) == 0
    cold, _, _ = load_checkpoint(warm / CHECKPOINT_FILE)
    hot, _, _ = load_checkpoint(resumed / CHECKPOINT_FILE)
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


def test_missing_subcommand_raises_systemexit():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_verify_command_passes(capsys):
    assert _run(["verify", "--quiet"]) == 0
    assert capsys.readouterr().err == ""
