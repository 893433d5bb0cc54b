"""Synthetic datasets, open-set splits, epoch batching, and augmentation.

Desk-scale experiments run on Gaussian blob datasets: each class is an
isotropic Gaussian around a seeded random center, so class overlap is
controlled directly by ``spread``. An open-set split relabels a chosen
subset of classes to 1..K for training and maps every held-out class to
the reserved ``UNKNOWN_LABEL`` (0).

All randomized operations are pure functions of their inputs and the
seed / generator passed in.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsatisfiableBatchError

UNKNOWN_LABEL = 0

_EPOCH_RESHUFFLE_LIMIT = 50


@dataclass(frozen=True)
class Dataset:
    """Labeled feature vectors.

    ``labels`` are positive class ids in 1..class_count for ordinary
    datasets; a dataset of unknowns carries ``class_count == 0`` and all
    labels equal to ``UNKNOWN_LABEL``.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2:
            raise InvalidArgumentError("features must be a 2-d matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise InvalidArgumentError("labels must have one entry per feature row")
        if self.class_count == 0:
            if self.labels.size and not np.all(self.labels == UNKNOWN_LABEL):
                raise InvalidArgumentError("class_count 0 requires all-unknown labels")
        else:
            if self.features.shape[1] < 1:
                raise InvalidArgumentError("feature dimension must be >= 1")
            present = np.unique(self.labels)
            if present.size and (present[0] < 1 or present[-1] > self.class_count):
                raise InvalidArgumentError(
                    f"labels must lie in 1..{self.class_count}, got {present[0]}..{present[-1]}"
                )
            if present.size != self.class_count:
                raise InvalidArgumentError("every class in 1..class_count needs at least one row")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class OpenSplit:
    """Train/test partition with a held-out unknown set.

    ``train`` and ``test_known`` share the same relabeling of the chosen
    known classes to 1..K (order-preserving on the sorted original ids);
    ``test_unknown`` rows all carry ``UNKNOWN_LABEL``.
    """

    train: Dataset
    test_known: Dataset
    test_unknown: Dataset
    original_known_ids: tuple[int, ...]

    @property
    def num_known(self) -> int:
        return self.train.class_count


@dataclass(frozen=True)
class Batch:
    """One training batch."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise InvalidArgumentError("batch features/labels shapes are inconsistent")

    @property
    def size(self) -> int:
        return self.features.shape[0]


def generate_blobs(class_count: int, per_class: int, dim: int, spread: float, seed: int) -> Dataset:
    """Draw ``per_class`` points per class from isotropic Gaussians.

    Class centers are standard-normal vectors drawn first from the seeded
    generator, so identical arguments reproduce bit-identical datasets.
    """
    if class_count < 2 or per_class < 1 or dim < 2:
        raise InvalidArgumentError("need class_count >= 2, per_class >= 1, dim >= 2")
    if spread < 0:
        raise InvalidArgumentError("spread must be >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((class_count, dim))
    feats = np.repeat(centers, per_class, axis=0)
    if spread > 0:
        feats = feats + rng.normal(0.0, spread, size=feats.shape)
    labels = np.repeat(np.arange(1, class_count + 1), per_class)
    return Dataset(feats, labels, class_count)


def split_open_set(ds: Dataset, known_ids, test_fraction: float, seed: int) -> OpenSplit:
    """Partition a dataset into train / test_known / test_unknown.

    Known-class rows are split per class: floor(n_c * test_fraction) rows
    go to test_known and the remainder (including odd leftovers) to train.
    Every row of a non-known class lands in test_unknown with label
    ``UNKNOWN_LABEL``.
    """
    known = sorted(set(int(k) for k in known_ids))
    all_ids = set(range(1, ds.class_count + 1))
    if not known:
        raise InvalidArgumentError("known_ids must be non-empty")
    if not set(known) < all_ids:
        raise InvalidArgumentError("known_ids must be a strict subset of the dataset's classes")
    if not 0.0 < test_fraction < 1.0:
        raise InvalidArgumentError("test_fraction must lie in (0, 1)")

    rng = np.random.default_rng(seed)
    remap = {orig: new for new, orig in enumerate(known, start=1)}

    train_rows, test_rows, train_labels, test_labels = [], [], [], []
    for orig in known:
        idx = np.flatnonzero(ds.labels == orig)
        idx = rng.permutation(idx)
        n_test = int(np.floor(idx.size * test_fraction))
        test_rows.append(idx[:n_test])
        train_rows.append(idx[n_test:])
        test_labels.append(np.full(n_test, remap[orig]))
        train_labels.append(np.full(idx.size - n_test, remap[orig]))

    tr_idx = np.concatenate(train_rows)
    te_idx = np.concatenate(test_rows)
    unk_idx = np.flatnonzero(~np.isin(ds.labels, known))

    k = len(known)
    train = Dataset(ds.features[tr_idx], np.concatenate(train_labels), k)
    test_known = Dataset(ds.features[te_idx], np.concatenate(test_labels), k)
    test_unknown = Dataset(
        ds.features[unk_idx], np.full(unk_idx.size, UNKNOWN_LABEL), 0
    )
    return OpenSplit(train, test_known, test_unknown, tuple(known))


def epoch_batches(train: Dataset, batch_size: int, rng: np.random.Generator) -> list[Batch]:
    """Split one shuffled epoch into batches, each with >= 2 classes.

    Every training row appears exactly once across the returned batches.
    A trailing chunk too small to hold two rows is merged into its
    predecessor; if any chunk ends up single-class the whole epoch is
    reshuffled (bounded retries).
    """
    if batch_size < 2:
        raise InvalidArgumentError("batch_size must be >= 2")
    n = train.n_rows
    for _ in range(_EPOCH_RESHUFFLE_LIMIT):
        perm = rng.permutation(n)
        bounds = list(range(0, n, batch_size))
        chunks = [perm[lo : lo + batch_size] for lo in bounds]
        if len(chunks) > 1 and chunks[-1].size < 2:
            chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
            chunks.pop()
        if all(np.unique(train.labels[c]).size >= 2 for c in chunks):
            return [Batch(train.features[c], train.labels[c]) for c in chunks]
    raise UnsatisfiableBatchError(
        f"could not arrange an epoch with >= 2 classes per batch in {_EPOCH_RESHUFFLE_LIMIT} shuffles"
    )


def augment_gaussian(batch: Batch, sigma: float, rng: np.random.Generator) -> Batch:
    """Add i.i.d. zero-mean Gaussian noise of std ``sigma``; labels unchanged."""
    if sigma < 0:
        raise InvalidArgumentError("sigma must be >= 0")
    if sigma == 0:
        return Batch(batch.features.copy(), batch.labels.copy())
    noisy = batch.features + rng.normal(0.0, sigma, size=batch.features.shape)
    return Batch(noisy, batch.labels.copy())


def write_dataset_csv(ds: Dataset, path) -> None:
    """Write ``f0,...,f{d-1},label`` rows; UTF-8, LF line endings."""
    lines = [",".join([f"f{j}" for j in range(ds.dim)] + ["label"])]
    lines += [
        ",".join(map(repr, row + [label]))
        for row, label in zip(ds.features.tolist(), ds.labels.tolist())
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset_csv(path) -> Dataset:
    """Read a dataset written by ``write_dataset_csv``.

    The header's last cell must be ``label``. Body rows are parsed by
    numpy's C reader: features as floats, labels as integers (``1.0`` is
    not a label), blank lines skipped, and ``#`` is data, not a comment.
    A malformed file (empty, not UTF-8, a row whose cell count differs
    from the header, a non-numeric cell) raises InvalidArgumentError
    naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
            body = fh.read()
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidArgumentError(f"{path}: unreadable CSV ({exc})") from exc
    if not header or header[-1] != "label":
        raise InvalidArgumentError(f"{path}: expected a header with a trailing 'label' column")
    width = len(header)
    if not body.strip("\n"):
        # no rows, only the header and maybe blank lines: loadtxt would warn
        return Dataset(np.empty((0, width - 1)), np.empty(0, dtype=np.int64), 0)
    try:
        table = np.loadtxt(
            io.StringIO(body),
            delimiter=",",
            dtype=[("f", np.float64, (width - 1,)), ("y", np.int64)],
            ndmin=1,
            comments=None,
            quotechar='"',
        )
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}: malformed row ({exc})") from exc
    feats = np.ascontiguousarray(table["f"])
    labels = np.ascontiguousarray(table["y"])
    class_count = 0 if np.all(labels == UNKNOWN_LABEL) else int(labels.max())
    return Dataset(feats, labels, class_count)
