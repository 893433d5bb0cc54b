"""Target-aware universum construction."""

import numpy as np
import pytest

from dctau.data import Batch
from dctau.errors import InsufficientClassesError, InvalidArgumentError
from dctau.universum import make_universum


def _reference_universum(batch, lam, rng):
    """The per-anchor loop that make_universum vectorizes: one scalar
    draw per (anchor, other class), anchor-major, classes ascending."""
    present = np.unique(batch.labels)
    rows_by_class = {int(c): np.flatnonzero(batch.labels == c) for c in present}
    feats = np.empty_like(batch.features)
    for i in range(batch.size):
        donors = []
        for c in present:
            if c == batch.labels[i]:
                continue
            idx = rows_by_class[int(c)]
            donors.append(batch.features[idx[rng.integers(idx.size)]])
        feats[i] = lam * batch.features[i] + (1.0 - lam) * np.mean(donors, axis=0)
    return feats


def _class_constant_batch(values, counts):
    """A batch where every row of class c equals one fixed vector.

    With identical rows per class the donor draw is irrelevant, so the
    universum rows are exactly lam * anchor + (1 - lam) * mean(other
    class vectors) regardless of rng state.
    """
    feats, labels = [], []
    for c, (vec, n) in enumerate(zip(values, counts), start=1):
        for _ in range(n):
            feats.append(vec)
            labels.append(c)
    return Batch(np.array(feats, dtype=np.float64), np.array(labels, dtype=np.int64))


def test_lambda_one_returns_anchors():
    rng = np.random.default_rng(0)
    batch = Batch(rng.standard_normal((8, 3)), np.array([1, 1, 2, 2, 3, 3, 1, 2]))
    u = make_universum(batch, lam=1.0, rng=rng)
    assert np.array_equal(u, batch.features)


def test_exact_blend_with_class_constant_rows():
    v1 = np.array([2.0, 0.0])
    v2 = np.array([0.0, 4.0])
    v3 = np.array([-2.0, -2.0])
    batch = _class_constant_batch([v1, v2, v3], [2, 3, 2])
    for lam in (0.0, 0.25, 0.5, 0.9):
        u = make_universum(batch, lam=lam, rng=np.random.default_rng(5))
        expected = {
            1: lam * v1 + (1 - lam) * (v2 + v3) / 2,
            2: lam * v2 + (1 - lam) * (v1 + v3) / 2,
            3: lam * v3 + (1 - lam) * (v1 + v2) / 2,
        }
        for row, src in zip(u, batch.labels):
            assert np.allclose(row, expected[int(src)], atol=1e-15)


def test_hand_case_two_donor_classes():
    # anchor (1, 0); donor classes sit at (0, 1) and (-1, 0); lam = 0.5
    batch = Batch(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
        np.array([1, 2, 3]),
    )
    u = make_universum(batch, lam=0.5, rng=np.random.default_rng(0))
    assert np.allclose(u[0], [0.25, 0.25])


def test_donor_means_recoverable():
    # distinct rows: back out the donor mean and check it is an average
    # of one row from each other class
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((9, 4))
    labels = np.array([1, 1, 1, 2, 2, 2, 3, 3, 3])
    batch = Batch(feats, labels)
    lam = 0.3
    u = make_universum(batch, lam=lam, rng=np.random.default_rng(2))
    for i in range(batch.size):
        avg = (u[i] - lam * feats[i]) / (1 - lam)
        others = [c for c in (1, 2, 3) if c != labels[i]]
        candidates = [
            (feats[j] + feats[k]) / 2
            for j in np.flatnonzero(labels == others[0])
            for k in np.flatnonzero(labels == others[1])
        ]
        assert any(np.allclose(avg, c, atol=1e-12) for c in candidates)


def test_universum_validation():
    rng = np.random.default_rng(0)
    single = Batch(rng.standard_normal((4, 2)), np.ones(4, dtype=np.int64))
    with pytest.raises(InsufficientClassesError):
        make_universum(single, lam=0.5, rng=rng)
    two = Batch(rng.standard_normal((4, 2)), np.array([1, 1, 2, 2]))
    with pytest.raises(InvalidArgumentError):
        make_universum(two, lam=-0.1, rng=rng)
    with pytest.raises(InvalidArgumentError):
        make_universum(two, lam=1.1, rng=rng)



def _grid_batches():
    """Seeded batches over sizes, class counts and dims, including two
    classes, single-row classes, one-dim rows and non-contiguous labels."""
    gen = np.random.default_rng(2024)
    for classes in (2, 3, 5, 9, 12):
        for rows in (classes, classes + 1, 2 * classes + 3, 128):
            for dim in (1, 2, 7, 64):
                labels = np.concatenate(
                    [np.arange(1, classes + 1), gen.integers(1, classes + 1, rows - classes)]
                )
                gen.shuffle(labels)
                yield Batch(gen.standard_normal((rows, dim)), 3 * labels)
    # one big class next to single-row classes
    yield Batch(gen.standard_normal((40, 5)), np.r_[np.ones(37, dtype=np.int64), 2, 3, 4])


def test_matches_reference_loop_bitwise_with_same_rng_state():
    for n, batch in enumerate(_grid_batches()):
        lam = (0.0, 0.3, 0.75, 1.0)[n % 4]
        rng_ref = np.random.default_rng([7, n])
        rng_vec = np.random.default_rng([7, n])
        expected = _reference_universum(batch, lam, rng_ref)
        got = make_universum(batch, lam, rng_vec)
        assert got.shape == batch.features.shape
        assert np.array_equal(got, expected), n
        assert rng_vec.bit_generator.state == rng_ref.bit_generator.state, n
