"""End-to-end run orchestration: splits, reports, and sweeps."""

import csv
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

import dctau.experiment
from dctau.config import TrainConfig
from dctau.errors import ConfigError, InvalidArgumentError, NumericError
from dctau.experiment import (
    DEFAULT_GRIDS,
    SWEEP_KEYS,
    EvalReport,
    derive_seeds,
    load_split,
    make_split,
    run_experiment,
    run_sweep,
    save_split,
    write_sweep_csv,
)
from dctau.model import posteriors
from dctau.openset import ThresholdTable


def _tiny_cfg(**kw):
    base = dict(
        class_count=5, per_class=20, dim=4, spread=0.4, known_count=3,
        hidden=(8,), proj_dim=4, contrastive_epochs=3, classifier_epochs=3,
        batch_size=16, warmup_epochs=1, seed=11,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_derive_seeds_named_and_deterministic():
    seeds = derive_seeds(123)
    assert set(seeds) == {"data", "known_choice", "split", "train"}
    assert seeds == derive_seeds(123)
    assert seeds != derive_seeds(124)
    rng = np.random.default_rng(123)
    assert seeds["data"] == int(rng.integers(2**63))


def test_a_zero_norm_projection_names_its_epoch_and_batch():
    # at seed 1 the ReLU after projection layer 0 is off on every unit for
    # some rows of the first step, so their projection output is all zero
    with pytest.raises(NumericError, match=r"^epoch 0, batch 0: .*zero norm") as excinfo:
        run_experiment(_tiny_cfg(contrastive_epochs=1, classifier_epochs=1, seed=1))
    assert isinstance(excinfo.value.__cause__, NumericError)


def test_make_split_deterministic_and_sized():
    cfg = _tiny_cfg()
    a = make_split(cfg)
    b = make_split(cfg)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.test_unknown.features, b.test_unknown.features)
    assert a.num_known == 3
    assert len(a.original_known_ids) == 3
    assert a.test_unknown.n_rows == 2 * 20  # two unknown classes, all rows


def test_split_roundtrip_through_csv(tmp_path):
    split = make_split(_tiny_cfg())
    manifest = save_split(split, tmp_path)
    assert manifest["rows"]["train"] == split.train.n_rows

    loaded = load_split(tmp_path)
    assert np.array_equal(loaded.train.features, split.train.features)
    assert np.array_equal(loaded.train.labels, split.train.labels)
    assert np.array_equal(loaded.test_known.features, split.test_known.features)
    assert np.array_equal(loaded.test_unknown.features, split.test_unknown.features)
    assert loaded.original_known_ids == split.original_known_ids
    assert loaded.num_known == split.num_known


def test_load_split_without_manifest_defaults_ids(tmp_path):
    split = make_split(_tiny_cfg())
    save_split(split, tmp_path)
    (tmp_path / "manifest.json").unlink()
    loaded = load_split(tmp_path)
    assert loaded.original_known_ids == (1, 2, 3)
    assert np.array_equal(loaded.train.labels, split.train.labels)


def test_make_split_prefers_data_dir(tmp_path):
    split = make_split(_tiny_cfg())
    save_split(split, tmp_path)
    via_dir = make_split(_tiny_cfg(data_dir=str(tmp_path), seed=999))
    assert np.array_equal(via_dir.train.features, split.train.features)


def test_run_experiment_report_and_reproducibility():
    cfg = _tiny_cfg()
    params, split, report, histories = run_experiment(cfg)
    assert len(histories["contrastive"]) == cfg.contrastive_epochs
    assert len(histories["classifier"]) == cfg.classifier_epochs
    assert 0.0 <= report.auroc <= 1.0
    assert report.config == cfg
    assert report.thresholds.num_classes == split.num_known
    assert report.wall_seconds > 0

    params2, _, report2, _ = run_experiment(cfg)
    assert np.array_equal(params.projection[0].weight, params2.projection[0].weight)
    assert report2.auroc == report.auroc
    assert report2.macro_f1 == report.macro_f1

    payload = json.loads(report.to_json())
    assert payload["auroc"] == report.auroc
    assert payload["config"]["seed"] == cfg.seed
    assert len(payload["thresholds"]) == split.num_known

    # the report keeps the test posteriors it scored, outside the JSON
    # and outside report equality
    for kept, rows in ((report.known_posteriors, split.test_known),
                       (report.unknown_posteriors, split.test_unknown)):
        assert kept.tobytes() == posteriors(params, rows.features).tobytes()
    assert not {"known_posteriors", "unknown_posteriors"} & set(payload)
    assert dataclasses.replace(report, known_posteriors=None, unknown_posteriors=None) == report


def test_eval_report_rejects_out_of_range_metrics():
    table = ThresholdTable(np.array([0.5]), 50.0)
    with pytest.raises(InvalidArgumentError):
        EvalReport(
            auroc=1.5, oscr=0.5, macro_f1=0.5, closed_accuracy=0.5,
            thresholds=table, config=_tiny_cfg(), wall_seconds=0.0,
        )


def test_lambda_sweep_emits_default_grid():
    rows = run_sweep(_tiny_cfg(contrastive_epochs=1, classifier_epochs=1), "lambda")
    assert [row.value for row in rows] == list(DEFAULT_GRIDS["lambda"])
    assert all(row.key == "lambda" for row in rows)
    assert all(row.n_seeds == 1 for row in rows)


def test_percentile_sweep_shares_training():
    rows = run_sweep(
        _tiny_cfg(hidden=(16,)), "percentile", values=(5.0, 10.0, 25.0), seeds=(1, 2)
    )
    assert [row.value for row in rows] == [5.0, 10.0, 25.0]
    assert all(row.n_seeds == 2 for row in rows)
    # the model is shared across percentile rows, so ranking metrics agree
    assert len({row.auroc for row in rows}) == 1
    assert len({row.closed_accuracy for row in rows}) == 1


def test_sweep_trains_once_per_training_config(monkeypatch):
    calls = []
    real = dctau.experiment.run_training

    def counting(split, cfg):
        calls.append((cfg.lam, cfg.seed))
        return real(split, cfg)

    monkeypatch.setattr(dctau.experiment, "run_training", counting)
    cfg = _tiny_cfg(hidden=(16,), contrastive_epochs=1, classifier_epochs=1)
    run_sweep(cfg, "percentile", values=(5.0, 10.0, 25.0), seeds=(1, 2))
    assert calls == [(cfg.lam, 1), (cfg.lam, 2)]

    calls.clear()
    run_sweep(cfg, "lambda", values=(0.3, 0.7), seeds=(1, 2))
    assert sorted(calls) == [(0.3, 1), (0.3, 2), (0.7, 1), (0.7, 2)]


def test_scheme_sweep_and_custom_values():
    rows = run_sweep(
        _tiny_cfg(contrastive_epochs=1, classifier_epochs=1),
        "scheme", values=("none", "k_plus_k"),
    )
    assert [row.value for row in rows] == ["none", "k_plus_k"]

    rows = run_sweep(
        _tiny_cfg(contrastive_epochs=1, classifier_epochs=1),
        "gamma", values=(0.5,), seeds=(3, 4),
    )
    assert rows[0].n_seeds == 2


def test_sweep_validation():
    with pytest.raises(ConfigError):
        run_sweep(_tiny_cfg(), "tau")
    with pytest.raises(ConfigError):
        run_sweep(_tiny_cfg(), "lambda", values=())
    assert "tau" not in SWEEP_KEYS


def _csv_module_sweep_bytes(rows):
    """The sweep table as csv.writer renders it, for a byte comparison."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sweep", "value", "auroc", "oscr", "macro_f1", "closed_accuracy",
                     "wall_seconds", "n_seeds"])
    for r in rows:
        writer.writerow([r.key, r.value, repr(r.auroc), repr(r.oscr), repr(r.macro_f1),
                         repr(r.closed_accuracy), repr(r.wall_seconds), r.n_seeds])
    return out.getvalue().encode("utf-8")


def test_sweep_csv_round_numbers(tmp_path):
    rows = run_sweep(
        _tiny_cfg(contrastive_epochs=1, classifier_epochs=1),
        "lambda", values=(0.3, 0.7),
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "sweep,value,auroc,oscr,macro_f1,closed_accuracy,wall_seconds,n_seeds"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "lambda" and first[1] == "0.3"
    assert float(first[2]) == rows[0].auroc
    assert path.read_bytes() == _csv_module_sweep_bytes(rows)

    rows = run_sweep(
        _tiny_cfg(contrastive_epochs=1, classifier_epochs=1),
        "scheme", values=("k_plus_one", "none"),
    )
    write_sweep_csv(rows, path)
    assert path.read_bytes() == _csv_module_sweep_bytes(rows)


def test_resume_from_checkpoint_changes_start(tmp_path):
    from dctau.checkpoint import save_checkpoint

    cfg = _tiny_cfg(contrastive_epochs=1, classifier_epochs=1)
    params, _, _, _ = run_experiment(cfg)
    ckpt = tmp_path / "warm.bin"
    save_checkpoint(ckpt, params, cfg)

    resumed_cfg = _tiny_cfg(
        contrastive_epochs=1, classifier_epochs=1, resume_from=str(ckpt)
    )
    resumed, _, _, _ = run_experiment(resumed_cfg)
    fresh, _, _, _ = run_experiment(cfg)
    assert not np.array_equal(resumed.projection[0].weight, fresh.projection[0].weight)


@pytest.mark.parametrize("gamma", [1.0, 0.0])
def test_tiny_temperature_run_raises_no_numeric_warning(gamma):
    # exp(z.z/tau) overflows at tau=1e-3; the training loss must stay on
    # the max-subtracted path and never build the plain-exponential oracle
    cfg = _tiny_cfg(temperature=1e-3, gamma=gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, report, histories = run_experiment(cfg)
    assert all(np.isfinite(histories["contrastive"]))
    assert 0.0 <= report.auroc <= 1.0
