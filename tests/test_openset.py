"""Threshold fitting and accept/reject decisions."""

import numpy as np
import pytest

from dctau.data import UNKNOWN_LABEL
from dctau.errors import InvalidArgumentError
from dctau.openset import (
    ThresholdTable,
    fit_thresholds,
    predict_open_many,
    write_thresholds_csv,
)


def _rows(confidences, labels, k=3):
    """Posterior rows whose argmax confidence and predicted class are given."""
    n = len(confidences)
    out = np.zeros((n, k))
    for i, (c, lab) in enumerate(zip(confidences, labels)):
        rest = (1.0 - c) / (k - 1)
        out[i] = rest
        out[i, lab - 1] = c
    return out


def test_per_class_thresholds_match_percentile_oracle():
    rng = np.random.default_rng(4)
    n, k = 60, 3
    conf = rng.uniform(0.4, 0.99, n)
    labels = rng.integers(1, k + 1, n)
    post = _rows(conf, labels, k)

    table = fit_thresholds(post, labels, 30.0)
    for c in range(1, k + 1):
        vals = conf[labels == c]  # every row here is "correct" by construction
        assert table.thresholds[c - 1] == pytest.approx(
            np.percentile(vals, 30.0), abs=1e-12
        )


def test_correct_only_filters_misclassified_rows():
    # class-1 rows predicted as class 2 must not shape class 2's threshold pool
    post = np.array([
        [0.8, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.1, 0.7, 0.2],  # true label 1, predicted 2: wrong
        [0.2, 0.6, 0.2],
    ])
    labels = np.array([1, 2, 1, 2])
    table = fit_thresholds(post, labels, 50.0)
    assert table.thresholds[1] == pytest.approx(np.percentile([0.8, 0.6], 50.0))


def test_class_without_correct_rows_falls_back_to_global():
    post = np.array([
        [0.9, 0.05, 0.05],
        [0.05, 0.9, 0.05],
        [0.6, 0.3, 0.1],  # true label 3 but predicted 1
    ])
    labels = np.array([1, 2, 3])
    table = fit_thresholds(post, labels, 50.0)
    global_eps = np.percentile([0.9, 0.9], 50.0)
    assert table.thresholds[2] == pytest.approx(global_eps)


def test_no_correct_rows_at_all_pools_everything():
    post = np.array([
        [0.1, 0.9],
        [0.8, 0.2],
    ])
    labels = np.array([1, 2])  # both rows misclassified
    table = fit_thresholds(post, labels, 50.0)
    assert np.allclose(table.thresholds, np.percentile([0.9, 0.8], 50.0))


def test_fit_validation():
    post = _rows([0.8, 0.7], [1, 2])
    labels = np.array([1, 2])
    for bad in (0.0, 100.0, -5.0):
        with pytest.raises(InvalidArgumentError):
            fit_thresholds(post, labels, bad)
    with pytest.raises(InvalidArgumentError):
        fit_thresholds(post, np.array([1]), 50.0)
    with pytest.raises(InvalidArgumentError):
        fit_thresholds(post, np.array([0, 2]), 50.0)
    with pytest.raises(InvalidArgumentError):
        fit_thresholds(post * 2.0, labels, 50.0)


def test_predict_open_accepts_and_rejects():
    table = ThresholdTable(np.array([0.6, 0.9]), 50.0)
    labels, conf = predict_open_many(np.array([[0.7, 0.3]]), table)
    assert labels.tolist() == [1] and conf.tolist() == [0.7]
    labels, conf = predict_open_many(np.array([[0.2, 0.8]]), table)
    assert labels.tolist() == [UNKNOWN_LABEL] and conf.tolist() == [0.8]
    labels, _ = predict_open_many(np.array([[0.6, 0.4]]), table)
    assert labels.tolist() == [1]  # meeting the threshold exactly is acceptance


def test_predict_open_tie_breaks_to_smallest_class():
    table = ThresholdTable(np.array([0.1, 0.1]), 50.0)
    labels, _ = predict_open_many(np.array([[0.5, 0.5]]), table)
    assert labels.tolist() == [1]


def test_predict_open_many_matches_loop():
    rng = np.random.default_rng(9)
    post = rng.dirichlet(np.ones(4), size=50)
    table = ThresholdTable(rng.uniform(0.2, 0.8, 4), 50.0)
    labels, conf = predict_open_many(post, table)
    for i in range(50):
        # one row at a time: argmax, then the class's threshold
        best = int(post[i].argmax())
        accepted = post[i, best] >= table.thresholds[best]
        assert labels[i] == (best + 1 if accepted else UNKNOWN_LABEL)
        assert conf[i] == post[i, best]


def test_predict_validation():
    table = ThresholdTable(np.array([0.5, 0.5]), 50.0)
    with pytest.raises(InvalidArgumentError):
        predict_open_many(np.array([[0.5, 0.5, 0.0]]), table)
    with pytest.raises(InvalidArgumentError):
        predict_open_many(np.array([[0.9, 0.9]]), table)
    with pytest.raises(InvalidArgumentError):
        predict_open_many(np.ones((2, 3)) / 3.0, table)


def test_threshold_table_validation():
    with pytest.raises(InvalidArgumentError):
        ThresholdTable(np.array([1.2]), 50.0)
    with pytest.raises(InvalidArgumentError):
        ThresholdTable(np.zeros((2, 2)), 50.0)


def test_thresholds_csv_format(tmp_path):
    table = ThresholdTable(np.array([0.25, 0.5]), 80.0)
    path = tmp_path / "thresholds.csv"
    write_thresholds_csv(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# percentile=80.0"
    assert lines[1] == "class,threshold"
    assert lines[2] == "1,0.25"
    assert lines[3] == "2,0.5"
