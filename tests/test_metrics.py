"""Metric implementations checked against brute-force pair and sweep oracles."""

import csv

import numpy as np
import pytest

from dctau.errors import InvalidArgumentError
from dctau.metrics import (
    CurvePoint,
    auroc,
    closed_accuracy,
    macro_f1,
    oscr,
    oscr_curve,
    write_curve_csv,
)


def _auroc_pairs(known, unknown):
    """Count wins and half-ties over every (known, unknown) pair."""
    total = 0.0
    for k in known:
        for u in unknown:
            if k > u:
                total += 1.0
            elif k == u:
                total += 0.5
    return total / (len(known) * len(unknown))


def _oscr_sweep(known_post, known_true, unknown_post):
    """Cutoff sweep with explicit loops, padded and trapezoid-integrated."""
    known_conf = [max(row) for row in known_post]
    correct = [
        int(np.argmax(row)) + 1 == lab for row, lab in zip(known_post, known_true)
    ]
    unknown_conf = [max(row) for row in unknown_post]

    best = {}
    for delta in sorted(set(known_conf) | set(unknown_conf)):
        ccr = sum(
            1 for c, ok in zip(known_conf, correct) if ok and c >= delta
        ) / len(known_conf)
        fpr = sum(1 for c in unknown_conf if c >= delta) / len(unknown_conf)
        best[fpr] = max(best.get(fpr, 0.0), ccr)

    fprs = sorted(best)
    xs = fprs[:]
    ys = [best[f] for f in fprs]
    if xs[0] > 0.0:
        xs.insert(0, 0.0)
        ys.insert(0, ys[0])
    if xs[-1] < 1.0:
        xs.append(1.0)
        ys.append(ys[-1])
    area = 0.0
    for i in range(1, len(xs)):
        area += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2.0
    return area


def _macro_f1_loops(pred, true, k):
    f1s = []
    for c in [0] + list(range(1, k + 1)):
        tp = sum(1 for p, t in zip(pred, true) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, true) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, true) if p != c and t == c)
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return sum(f1s) / len(f1s)


def test_auroc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(1)
    for trial in range(10):
        # a coarse grid forces tie pairs
        known = rng.integers(0, 12, size=rng.integers(5, 90)).astype(float) / 12.0
        unknown = rng.integers(0, 12, size=rng.integers(5, 90)).astype(float) / 12.0
        assert auroc(known, unknown) == pytest.approx(
            _auroc_pairs(known, unknown), abs=1e-9
        )


def test_auroc_trivia_exact():
    assert auroc([0.9, 0.8], [0.2, 0.1]) == 1.0
    assert auroc([0.1, 0.2], [0.8, 0.9]) == 0.0
    assert auroc([0.5, 0.5, 0.5], [0.5, 0.5]) == 0.5
    assert auroc([0.7], [0.7]) == 0.5


def test_auroc_validation():
    with pytest.raises(InvalidArgumentError):
        auroc([], [0.5])
    with pytest.raises(InvalidArgumentError):
        auroc([0.5], [])
    with pytest.raises(InvalidArgumentError):
        auroc([np.nan], [0.5])


def test_oscr_matches_sweep_oracle():
    rng = np.random.default_rng(7)
    for trial in range(8):
        n_k = int(rng.integers(10, 100))
        n_u = int(rng.integers(10, 100))
        k = int(rng.integers(2, 5))
        kp = rng.dirichlet(np.ones(k), size=n_k)
        up = rng.dirichlet(np.ones(k) * 0.7, size=n_u)
        true = rng.integers(1, k + 1, n_k)
        assert oscr(kp, true, up) == pytest.approx(
            _oscr_sweep(kp, true, up), abs=1e-9
        )


def test_oscr_perfect_separation_scores_ccr():
    kp = np.array([[0.97, 0.03], [0.92, 0.08], [0.88, 0.12]])
    up = np.array([[0.55, 0.45], [0.6, 0.4]])
    true = np.array([1, 1, 2])  # last row misclassified
    # every known outscores every unknown, so area = peak ccr = 2/3
    assert oscr(kp, true, up) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_oscr_curve_shape_and_extremes():
    kp = np.array([[0.9, 0.1], [0.7, 0.3]])
    up = np.array([[0.8, 0.2]])
    points = oscr_curve(kp, np.array([1, 1]), up)
    deltas = [pt.delta for pt in points]
    assert deltas == sorted(deltas)
    assert points[0].fpr == 1.0  # lowest cutoff accepts every unknown
    assert points[0].ccr == 1.0
    assert points[-1].delta == 0.9
    assert points[-1].fpr == 0.0 and points[-1].ccr == 0.5


def _oscr_curve_loop(known_post, known_true, unknown_post):
    """One mean per cutoff: the direct reading of the curve's definition."""
    known_conf = known_post.max(axis=1)
    correct = known_post.argmax(axis=1) + 1 == known_true
    unknown_conf = unknown_post.max(axis=1)
    return [
        CurvePoint(
            float(delta),
            float(np.mean(correct & (known_conf >= delta))),
            float(np.mean(unknown_conf >= delta)),
        )
        for delta in np.unique(np.concatenate([known_conf, unknown_conf]))
    ]


def test_oscr_curve_equals_per_cutoff_loop_exactly():
    rng = np.random.default_rng(19)
    for trial in range(40):
        n_k, n_u = (int(v) for v in rng.integers(1, 120, 2))
        k = int(rng.integers(2, 6))
        kp = rng.dirichlet(np.ones(k), size=n_k)
        up = rng.dirichlet(np.ones(k) * 0.7, size=n_u)
        if trial % 2:  # heavy ties within and across the two sets
            kp, up = np.round(kp, 1), np.round(up, 1)
        true = rng.integers(1, k + 1, n_k)
        assert oscr_curve(kp, true, up) == _oscr_curve_loop(kp, true, up), trial


def test_oscr_validation():
    kp = np.array([[0.9, 0.1]])
    with pytest.raises(InvalidArgumentError):
        oscr_curve(kp, np.array([1]), np.empty((0, 2)))
    with pytest.raises(InvalidArgumentError):
        oscr_curve(kp, np.array([1, 2]), kp)


def test_macro_f1_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(4, 150))
        pred = rng.integers(0, k + 1, n)
        true = rng.integers(0, k + 1, n)
        assert macro_f1(pred, true, k) == pytest.approx(
            _macro_f1_loops(pred, true, k), abs=1e-12
        )


def test_macro_f1_hand_case():
    pred = [1, 1, 0, 2]
    true = [1, 2, 0, 0]
    # f1 per class: unknown 2/3, class1 2/3, class2 0 -> mean 4/9
    assert macro_f1(pred, true, 2) == pytest.approx(4.0 / 9.0, abs=1e-15)


def test_macro_f1_counts_absent_classes():
    assert macro_f1([1, 1], [1, 1], 3) == pytest.approx(1.0 / 4.0)
    with pytest.raises(InvalidArgumentError):
        macro_f1([1], [1, 2], 2)
    with pytest.raises(InvalidArgumentError):
        macro_f1([1], [1], 0)


def test_closed_accuracy():
    assert closed_accuracy([1, 2, 0, 3], [1, 2, 3, 3]) == 0.75
    with pytest.raises(InvalidArgumentError):
        closed_accuracy([1], [0])
    with pytest.raises(InvalidArgumentError):
        closed_accuracy([], [])
    with pytest.raises(InvalidArgumentError):
        closed_accuracy([1, 2], [1])


def test_curve_csv_format(tmp_path):
    points = [CurvePoint(0.5, 1.0, 1.0), CurvePoint(0.75, 0.5, 0.0)]
    path = tmp_path / "curve.csv"
    write_curve_csv(points, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["delta,ccr,fpr", "0.5,1.0,1.0", "0.75,0.5,0.0"]


def test_curve_csv_matches_csv_module_bytes(tmp_path):
    rng = np.random.default_rng(3)
    known = rng.dirichlet(np.ones(3), size=40)
    unknown = rng.dirichlet(np.ones(3), size=30)
    points = oscr_curve(known, rng.integers(1, 4, size=40), unknown)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_curve_csv(points, got)
    # the csv.writer export that write_curve_csv replaces
    with open(want, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["delta", "ccr", "fpr"])
        for pt in points:
            writer.writerow([repr(pt.delta), repr(pt.ccr), repr(pt.fpr)])
    assert len(points) > 2
    assert got.read_bytes() == want.read_bytes()
