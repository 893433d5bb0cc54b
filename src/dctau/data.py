"""Synthetic datasets, open-set splits, epoch batching, and augmentation.

Desk-scale experiments run on Gaussian blob datasets: each class is an
isotropic Gaussian around a seeded random center, so class overlap is
controlled directly by ``spread``. An open-set split relabels a chosen
subset of classes to 1..K for training and maps every held-out class to
the reserved ``UNKNOWN_LABEL`` (0).

All randomized operations are pure functions of their inputs and the
seed / generator passed in.

Every label array the package takes passes ``int_labels`` and every float
array ``float_array``; neither casts a dtype that changes a value's meaning.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsatisfiableBatchError

UNKNOWN_LABEL = 0
# rows per block wherever a whole row set is worked through: a 2,048 x 64
# float64 layer output is 1 MiB, inside L2
BLOCK_ROWS = 2048

_EPOCH_RESHUFFLE_LIMIT = 50
_ASCII_SEPARATORS = "\x1c\x1d\x1e\x1f"


def int_labels(name: str, values, rows, low=None, high=None, *, align="rows") -> np.ndarray:
    """``values`` as int64 labels of shape ``(rows,)`` within ``low..high``
    (either bound optional), checked for every label array the package takes.
    ``rows`` None takes a 1-d array of any length. A float, bool or str
    dtype is rejected, never cast: 1.7 would become 1. So are ragged rows."""
    try:
        labels = np.asarray(values)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise InvalidArgumentError(f"{name} must be integers, not ragged rows") from exc
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        raise InvalidArgumentError(f"{name} must be integers, not {labels.dtype}")
    if labels.ndim != 1 or (rows is not None and labels.size != rows):
        raise InvalidArgumentError(f"{name} must align with {align}")
    if labels.size and ((low is not None and labels.min() < low)
                        or (high is not None and labels.max() > high)):
        bounds = f"{low}..{'' if high is None else high}, got {labels.min()}..{labels.max()}"
        raise InvalidArgumentError(f"{name} must lie in {bounds}")
    return labels.astype(np.int64, copy=False)


def float_array(name: str, values, ndim: int, *, rows=None, cols=None) -> np.ndarray:
    """``values`` as a finite float64 array of ``ndim`` (1 or 2) axes, ``rows``
    long and (a matrix) ``cols`` wide where given: the one check of every
    float array the package takes. Int and narrower floats widen; a float64
    array comes back as is. A str, bool, complex or object dtype is
    rejected, never cast, as are ragged rows, NaN and inf."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise InvalidArgumentError(f"{name} must be real numbers, not ragged rows") from exc
    if arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{name} must be real numbers, not {arr.dtype}")
    if arr.ndim != ndim:
        raise InvalidArgumentError(
            f"{name} must be a {ndim}-d {'matrix' if ndim == 2 else 'vector'}, got {arr.ndim}-d")
    if (rows is not None and arr.shape[0] != rows) or (cols is not None and arr.shape[1] != cols):
        want = ", ".join("n" if n is None else str(n) for n in (rows, cols)[:ndim])
        raise InvalidArgumentError(f"{name} must be ({want}), got {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite, not NaN or inf")
    return arr


@dataclass(frozen=True)
class Dataset:
    """Labeled feature vectors.

    ``features`` is a finite 2-d float array (see ``float_array``) and
    ``labels`` are integers (a non-integer dtype is rejected, not cast),
    one per row, with every class of 1..class_count present; a dataset of
    unknowns carries ``class_count == 0`` and all labels ``UNKNOWN_LABEL``.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        object.__setattr__(self, "features", float_array("features", self.features, 2))
        object.__setattr__(self, "labels", int_labels("labels", self.labels, self.features.shape[0],
                           min(1, self.class_count), self.class_count, align="feature rows"))
        if self.class_count:
            if self.features.shape[1] < 1:
                raise InvalidArgumentError("feature dimension must be >= 1")
            if np.unique(self.labels).size != self.class_count:
                missing = np.setdiff1d(np.arange(1, self.class_count + 1), self.labels)
                raise InvalidArgumentError(
                    f"every class in 1..{self.class_count} needs at least one row; "
                    f"missing: {', '.join(map(str, missing))}"
                )

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
    """One training batch: finite 2-d float features, and labels that are
    any integers, one per row, never cast."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", float_array("features", self.features, 2))
        object.__setattr__(self, "labels", int_labels(
            "labels", self.labels, self.features.shape[0], align="feature rows"))

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
    if not spread >= 0:  # so NaN is rejected too
        raise InvalidArgumentError("spread must be >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((class_count, dim))
    feats = np.repeat(centers, per_class, axis=0)
    if spread > 0:
        feats = feats + rng.normal(0.0, spread, size=feats.shape)
    labels = np.repeat(np.arange(1, class_count + 1), per_class)
    return Dataset(feats, labels, class_count)


def held_out_count(class_rows: int, test_fraction: float) -> int:
    """Test rows ``split_open_set`` takes from a known class of that size."""
    return int(np.floor(class_rows * test_fraction))


def split_open_set(ds: Dataset, known_ids, test_fraction: float, seed: int) -> OpenSplit:
    """Partition a dataset into train / test_known / test_unknown.

    ``known_ids`` are distinct integer class ids in 1..class_count, fewer
    than class_count of them; a non-integer dtype is rejected, never cast.
    Known-class rows are split per class: floor(n_c * test_fraction) rows
    go to test_known and the remainder (including odd leftovers) to train.
    Every row of a non-known class lands in test_unknown with label
    ``UNKNOWN_LABEL``.
    """
    ids = int_labels("known_ids", known_ids, None, 1, ds.class_count)
    known = sorted(set(ids.tolist()))
    if len(known) < ids.size:
        raise InvalidArgumentError("known_ids must be distinct")
    if not 0 < len(known) < ds.class_count:
        raise InvalidArgumentError("known_ids must be a non-empty strict subset of the classes")
    if not 0.0 < test_fraction < 1.0:
        raise InvalidArgumentError("test_fraction must lie in (0, 1)")

    rng = np.random.default_rng(seed)
    remap = {orig: new for new, orig in enumerate(known, start=1)}

    train_rows, test_rows, train_labels, test_labels = [], [], [], []
    for orig in known:
        idx = np.flatnonzero(ds.labels == orig)
        idx = rng.permutation(idx)
        n_test = held_out_count(idx.size, test_fraction)
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
    The shuffled rows are cut into chunks of ``batch_size``; a chunk whose
    labels are all distinct (no positive pair) absorbs the next chunk, and
    a last chunk still without a repeated label joins its predecessor, so
    a batch can hold more than ``batch_size`` rows. If any batch then
    holds a single class the whole epoch is reshuffled (bounded retries).
    """
    if batch_size < 2:
        raise InvalidArgumentError("batch_size must be >= 2")

    def distinct(chunk: np.ndarray) -> bool:
        return np.unique(train.labels[chunk]).size == chunk.size

    n = train.n_rows
    for _ in range(_EPOCH_RESHUFFLE_LIMIT):
        perm = rng.permutation(n)
        chunks: list[np.ndarray] = []
        for lo in range(0, n, batch_size):
            if chunks and distinct(chunks[-1]):
                chunks[-1] = np.concatenate([chunks[-1], perm[lo : lo + batch_size]])
            else:
                chunks.append(perm[lo : lo + batch_size])
        if len(chunks) > 1 and distinct(chunks[-1]):
            tail = chunks.pop()
            chunks[-1] = np.concatenate([chunks[-1], tail])
        if all(np.unique(train.labels[c]).size >= 2 for c in chunks):
            return [Batch(train.features[c], train.labels[c]) for c in chunks]
    raise UnsatisfiableBatchError(
        f"could not arrange an epoch with >= 2 classes per batch in {_EPOCH_RESHUFFLE_LIMIT} shuffles"
    )


def augment_gaussian(batch: Batch, sigma: float, rng: np.random.Generator) -> Batch:
    """Add i.i.d. zero-mean Gaussian noise of std ``sigma``; labels unchanged."""
    if not sigma >= 0:  # so NaN is rejected too
        raise InvalidArgumentError("sigma must be >= 0")
    if sigma == 0:
        return Batch(batch.features.copy(), batch.labels.copy())
    noisy = batch.features + rng.normal(0.0, sigma, size=batch.features.shape)
    return Batch(noisy, batch.labels.copy())


def write_dataset_csv(ds: Dataset, path) -> None:
    """Write ``f0,...,f{d-1},label`` rows; UTF-8, LF line endings.

    Rows are formatted, written and hashed a block of BLOCK_ROWS at a
    time; the bytes are those of formatting the whole set at once.
    Beside the CSV goes its binary companion ``<path>.npz`` (``np.savez``):
    ``features`` (float64), ``labels`` (int64) and ``csv_sha256``, the
    SHA-256 hex digest of the CSV bytes just written. ``read_dataset_csv``
    takes the arrays from it instead of parsing the CSV while that digest
    matches. The CSV stays the interchange format; deleting the companion
    is always safe.
    """

    def lines(block):
        rows = zip(ds.features[block].tolist(), ds.labels[block].tolist())
        return [",".join(map(repr, row + [label])) for row, label in rows]

    header = ",".join([f"f{j}" for j in range(ds.dim)] + ["label"])
    digest = write_csv_rows(path, header, ds.n_rows, lines)
    np.savez(f"{path}.npz", features=ds.features, labels=ds.labels, csv_sha256=digest)


def write_csv_rows(path, header: str, n_rows: int, lines) -> str:
    """Write ``header``, then ``lines(block)`` for each BLOCK_ROWS slice of ``n_rows``
    rows, as LF-ended UTF-8 lines; returns the SHA-256 hex digest of the bytes."""
    digest = _sha256()
    blocks = (lines(slice(lo, lo + BLOCK_ROWS)) for lo in range(0, n_rows, BLOCK_ROWS))
    with open(path, "wb") as fh:
        for chunk in itertools.chain([[header]], blocks):
            data = ("\n".join(chunk) + "\n").encode("utf-8")
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def read_dataset_csv(path) -> Dataset:
    """Read a dataset written by ``write_dataset_csv``.

    The CSV bytes are read once. When ``read_npz`` reads the companion
    ``<path>.npz`` as an intact archive, it holds exactly ``features``
    (2-d float64), ``labels`` (int64, one per row) and ``csv_sha256``, and
    that digest is the SHA-256 of these bytes, the arrays come from it and
    no cell is parsed. Any other companion (missing, stale, torn, bit-flipped) is
    ignored and the CSV is parsed. Either way the same ``class_count``
    rule and ``Dataset`` checks (finite features among them) follow, so
    the outcome is the one parsing gives.

    Parsing: the header's last cell must be ``label``. Body rows are parsed
    by numpy's C reader: features as floats, labels as integers (``1.0`` is
    not a label), blank lines skipped, and ``#`` is data, not a comment.
    A malformed file (empty, not UTF-8, a row whose cell count differs
    from the header, a non-numeric cell, a non-finite feature such as
    ``nan`` or ``inf``, an ASCII separator character 0x1c-0x1f anywhere
    in the body) raises InvalidArgumentError naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    arrays = _read_companion(path, data)
    feats, labels = _parse_csv(path, data) if arrays is None else arrays
    class_count = 0 if np.all(labels == UNKNOWN_LABEL) else int(labels.max())
    return dataset_of(path, feats, labels, class_count)


def dataset_of(path, features, labels, class_count: int) -> Dataset:
    """``Dataset(features, labels, class_count)``, its errors naming ``path``."""
    try:
        return Dataset(features, labels, class_count)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from None


def _sha256(data: bytes = b""):
    import hashlib  # here, not at module level: importing dctau should not pay for it

    return hashlib.sha256(data)


def read_npz(path) -> dict[str, np.ndarray]:
    """The arrays of an ``np.savez`` archive, keyed by member name less ``.npy``.

    Each member is read with ``allow_pickle=False`` to its end, so its CRC
    covers every byte, npy header included. A file that cannot be opened
    raises OSError. Anything but an intact archive raises
    InvalidArgumentError naming the fault, not the file: a file that does
    not end with a zip end record, a zip, zlib or npy error, a member not
    named ``<name>.npy`` or named twice, or bytes left in a member after
    its array.
    """
    with open(path, "rb") as fh:
        # np.savez writes no zip comment, so its end record is the last 22 bytes
        fh.seek(max(fh.seek(0, os.SEEK_END) - 22, 0))
        end = fh.read()
        if len(end) != 22 or end[:4] != b"PK\x05\x06" or end[-2:] != b"\0\0":
            raise InvalidArgumentError(
                "no zip end record at the end of the file (truncated, trailing bytes, "
                "or not an archive)"
            )
        arrays = {}
        try:
            with zipfile.ZipFile(fh) as zf:
                for info in zf.infolist():
                    with zf.open(info) as member:
                        array = np.lib.format.read_array(member, allow_pickle=False)
                        if member.read():  # a header that undercounts its array
                            raise ValueError(f"bytes left in member {info.filename!r}")
                    name = info.filename.removesuffix(".npy")
                    if name == info.filename or name in arrays:
                        raise ValueError(f"unexpected member {info.filename!r}")
                    arrays[name] = array
        except Exception as exc:
            # whatever a damaged archive makes zipfile, zlib or numpy raise;
            # a corrupt offset can even surface as an OSError from seek
            raise InvalidArgumentError(f"{type(exc).__name__}: {exc}") from exc
    return arrays


def _read_companion(path, data: bytes):
    """``(features, labels)`` from ``<path>.npz`` if it is what
    ``write_dataset_csv`` wrote beside these CSV bytes, else None."""
    try:
        arrays = read_npz(f"{path}.npz")
    except (OSError, InvalidArgumentError):
        # the companion only saves a parse: a missing or damaged one means
        # parse the CSV instead
        return None
    names = ["csv_sha256", "features", "labels"]
    if sorted(arrays) != names:
        return None
    digest, feats, labels = (arrays[n] for n in names)
    if not (
        digest.shape == () and digest.dtype.kind == "U"
        and feats.dtype == np.float64 and feats.ndim == 2
        and labels.dtype == np.int64 and labels.shape == (feats.shape[0],)
    ):
        return None
    if str(digest) != _sha256(data).hexdigest():
        return None
    return np.ascontiguousarray(feats), labels


def _parse_csv(path, data: bytes):
    """``(features, labels)`` parsed from the CSV bytes ``data``."""
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
            body = fh.read()
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidArgumentError(f"{path}: unreadable CSV ({exc})") from exc
    if not header or header[-1] != "label":
        raise InvalidArgumentError(f"{path}: expected a header with a trailing 'label' column")
    width = len(header)
    # numpy's reader would strip these around a number as whitespace
    if any(sep in body for sep in _ASCII_SEPARATORS):
        raise InvalidArgumentError(f"{path}: ASCII separator character in a row")
    if not body.strip("\n"):
        # no rows, only the header and maybe blank lines: loadtxt would warn
        return np.empty((0, width - 1)), np.empty(0, dtype=np.int64)
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
    return np.ascontiguousarray(table["f"]), np.ascontiguousarray(table["y"])
