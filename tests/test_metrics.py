"""Metric implementations checked against the brute-force pair, sweep and
loop oracles of `dctau.verify`."""

import csv
import tracemalloc

import numpy as np
import pytest

import dctau.data
from dctau.errors import InvalidArgumentError
from dctau.metrics import (
    OscrCurve,
    auroc,
    closed_accuracy,
    macro_f1,
    oscr,
    oscr_curve,
    write_curve_csv,
)
from dctau.verify import auroc_pairs, macro_f1_loops, oscr_sweep


def test_auroc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(1)
    for trial in range(10):
        # a coarse grid forces tie pairs
        known = rng.integers(0, 12, size=rng.integers(5, 90)).astype(float) / 12.0
        unknown = rng.integers(0, 12, size=rng.integers(5, 90)).astype(float) / 12.0
        assert auroc(known, unknown) == pytest.approx(
            auroc_pairs(known, unknown), abs=1e-9
        )


def test_auroc_equals_pair_count_exactly_under_heavy_ties():
    rng = np.random.default_rng(19)
    for trial in range(1000):
        # integer scores over a small denominator make many pairs tie
        den = int(rng.integers(1, 6))
        known = rng.integers(0, den + 1, size=rng.integers(1, 40)) / den
        unknown = rng.integers(0, den + 1, size=rng.integers(1, 40)) / den
        wins = int(np.sum(known[:, None] > unknown[None, :]))
        ties = int(np.sum(known[:, None] == unknown[None, :]))
        want = (wins + ties / 2) / (known.size * unknown.size)
        assert auroc(known, unknown) == want, trial


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
            oscr_sweep(kp, true, up), abs=1e-9
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
    curve = oscr_curve(kp, np.array([1, 1]), up)
    deltas = curve.delta.tolist()
    assert deltas == sorted(deltas) and len(curve) == 3
    for arr in (curve.delta, curve.ccr, curve.fpr):
        assert arr.dtype == np.float64 and arr.shape == (3,)
    assert curve.fpr[0] == 1.0  # lowest cutoff accepts every unknown
    assert curve.ccr[0] == 1.0
    assert curve.delta[-1] == 0.9
    assert curve.fpr[-1] == 0.0 and curve.ccr[-1] == 0.5


def _oscr_curve_loop(known_post, known_true, unknown_post):
    """One mean per cutoff: the direct reading of the curve's definition.

    Returns the (delta, ccr, fpr) columns as lists of floats.
    """
    known_conf = known_post.max(axis=1)
    correct = known_post.argmax(axis=1) + 1 == known_true
    unknown_conf = unknown_post.max(axis=1)
    deltas = np.unique(np.concatenate([known_conf, unknown_conf]))
    return (
        [float(delta) for delta in deltas],
        [float(np.mean(correct & (known_conf >= delta))) for delta in deltas],
        [float(np.mean(unknown_conf >= delta)) for delta in deltas],
    )


def _reference_oscr(curve):
    """The best ccr per distinct fpr kept in a dict, padded and integrated."""
    best_ccr = {}
    for fpr, ccr in zip(curve.fpr.tolist(), curve.ccr.tolist()):
        best_ccr[fpr] = max(best_ccr.get(fpr, 0.0), ccr)
    fprs = sorted(best_ccr)
    xs = np.array(([0.0] if fprs[0] > 0.0 else []) + fprs + ([1.0] if fprs[-1] < 1.0 else []))
    ys = np.array(
        ([best_ccr[fprs[0]]] if fprs[0] > 0.0 else [])
        + [best_ccr[f] for f in fprs]
        + ([best_ccr[fprs[-1]]] if fprs[-1] < 1.0 else [])
    )
    return float(np.trapezoid(ys, xs))


def _curve_cases():
    """40 seeded posterior sets; every other one has heavy ties, and trials
    3, 16 and 30 have a single unknown row."""
    rng = np.random.default_rng(19)
    for trial in range(40):
        n_k, n_u = (int(v) for v in rng.integers(1, 120, 2))
        k = int(rng.integers(2, 6))
        kp = rng.dirichlet(np.ones(k), size=n_k)
        up = rng.dirichlet(np.ones(k) * 0.7, size=n_u)
        if trial % 2:  # heavy ties within and across the two sets
            kp, up = np.round(kp, 1), np.round(up, 1)
        true = rng.integers(1, k + 1, n_k)
        yield trial, kp, true, up


def test_oscr_curve_equals_per_cutoff_loop_exactly():
    for trial, kp, true, up in _curve_cases():
        curve = oscr_curve(kp, true, up)
        got = (curve.delta.tolist(), curve.ccr.tolist(), curve.fpr.tolist())
        assert got == _oscr_curve_loop(kp, true, up), trial
        assert len(curve) == len(got[0]), trial


def test_oscr_equals_dict_reference_bitwise():
    one_known = [(40, np.array([[0.6, 0.4]]), np.array([1]), np.array([[0.7, 0.3], [0.6, 0.4]])),
                 (41, np.array([[0.6, 0.4]]), np.array([2]), np.array([[0.5, 0.5]]))]
    for trial, kp, true, up in [*_curve_cases(), *one_known]:
        got = oscr(kp, true, up)
        want = _reference_oscr(oscr_curve(kp, true, up))
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), trial


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
        assert macro_f1(pred, true, k) == macro_f1_loops(pred, true, k)


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


@pytest.mark.parametrize(
    "pred, true",
    [([1, 3], [1, 2]), ([1, -1], [1, 2]), ([1, 2], [3, 2]), ([1, 2], [1, -1])],
    ids=["pred-above", "pred-negative", "truth-above", "truth-negative"],
)
def test_macro_f1_rejects_a_label_outside_0_to_k(pred, true):
    with pytest.raises(InvalidArgumentError, match=r"0\.\.2"):
        macro_f1(pred, true, 2)


def test_closed_accuracy():
    assert closed_accuracy([1, 2, 0, 3], [1, 2, 3, 3]) == 0.75
    with pytest.raises(InvalidArgumentError):
        closed_accuracy([1], [0])
    with pytest.raises(InvalidArgumentError):
        closed_accuracy([], [])
    with pytest.raises(InvalidArgumentError):
        closed_accuracy([1, 2], [1])


def test_curve_csv_format(tmp_path):
    curve = OscrCurve(np.array([0.5, 0.75]), np.array([1.0, 0.5]), np.array([1.0, 0.0]))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["delta,ccr,fpr", "0.5,1.0,1.0", "0.75,0.5,0.0"]


def test_curve_csv_matches_csv_module_bytes(tmp_path):
    block = dctau.data.BLOCK_ROWS
    for seed, n_known, n_unknown in [(3, 40, 30), (4, 3000, 1500)]:
        rng = np.random.default_rng(seed)
        known = rng.dirichlet(np.ones(3), size=n_known)
        unknown = rng.dirichlet(np.ones(3), size=n_unknown)
        curve = oscr_curve(known, rng.integers(1, 4, size=n_known), unknown)
        got, want = tmp_path / f"got{seed}.csv", tmp_path / f"want{seed}.csv"
        write_curve_csv(curve, got)
        # the csv.writer export that write_curve_csv replaces
        with open(want, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["delta", "ccr", "fpr"])
            for row in zip(curve.delta.tolist(), curve.ccr.tolist(), curve.fpr.tolist()):
                writer.writerow([repr(v) for v in row])
        assert len(curve) > 2
        # repeated ccr and fpr values are what the per-value repr cache reuses
        assert len(set(curve.ccr.tolist())) < len(curve)
        assert len(set(curve.fpr.tolist())) < len(curve)
        assert got.read_bytes() == want.read_bytes(), seed
    # the long curve spans three row blocks, and runs of equal ccr and of
    # equal fpr values cross both block edges
    edges = np.array([block, 2 * block])
    assert len(curve) > 2 * block
    assert (curve.ccr[edges - 1] == curve.ccr[edges]).all()
    assert (curve.fpr[edges - 1] == curve.fpr[edges]).all()


def test_curve_csv_holds_one_block_of_text(tmp_path):
    """A 17,400-point curve (cli_score's size) is written holding one
    block of rows as text: the peak read 0.71 MiB against 4.5 MiB when
    the whole curve was formatted at once."""
    rng = np.random.default_rng(9)
    known = rng.dirichlet(np.ones(3), size=12_000)
    unknown = rng.dirichlet(np.ones(3), size=5_400)
    curve = oscr_curve(known, rng.integers(1, 4, size=12_000), unknown)
    assert len(curve) == 17_400
    tracemalloc.start()
    try:
        write_curve_csv(curve, tmp_path / "curve.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21, peak
