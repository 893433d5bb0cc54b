"""Blob generation, open splits, epoch batching, augmentation, CSV round trips."""

import csv
import hashlib
import io
import os
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest

import dctau.data
from dctau.data import (
    UNKNOWN_LABEL,
    Batch,
    Dataset,
    augment_gaussian,
    epoch_batches,
    generate_blobs,
    read_dataset_csv,
    split_open_set,
    write_dataset_csv,
)
from dctau.errors import InvalidArgumentError, UnsatisfiableBatchError


def _reference_read(path):
    """The csv.reader parse that read_dataset_csv replaces: every cell
    through a Python float() or int()."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidArgumentError(f"{path}: unreadable CSV ({exc})") from exc
    if not rows or not rows[0] or rows[0][-1] != "label":
        raise InvalidArgumentError(f"{path}: expected a header with a trailing 'label' column")
    width = len(rows[0])
    body = []
    for number, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise InvalidArgumentError(
                f"{path}: row {number} has {len(row)} cells, the header has {width}"
            )
        body.append(row)
    try:
        feats = np.array([[float(v) for v in r[:-1]] for r in body], dtype=np.float64)
        labels = np.array([int(r[-1]) for r in body], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{path}: non-numeric cell ({exc})") from exc
    feats = feats.reshape(len(body), width - 1)
    class_count = 0 if np.all(labels == UNKNOWN_LABEL) else int(labels.max())
    return Dataset(feats, labels, class_count)


def _reference_write(ds, path):
    """The csv.writer export that write_dataset_csv replaces."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{j}" for j in range(ds.dim)] + ["label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def _read_outcome(reader, path):
    """A reader's result as comparable bits, or None if it rejects the file."""
    try:
        ds = reader(path)
    except InvalidArgumentError:
        return None
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(), ds.class_count


def test_blobs_deterministic_and_class_major():
    a = generate_blobs(5, 7, 3, 0.8, seed=42)
    b = generate_blobs(5, 7, 3, 0.8, seed=42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.n_rows == 35 and a.dim == 3 and a.class_count == 5
    assert np.array_equal(a.labels, np.repeat(np.arange(1, 6), 7))

    c = generate_blobs(5, 7, 3, 0.8, seed=43)
    assert not np.array_equal(a.features, c.features)


def test_blobs_spread_zero_reproduces_centers():
    ds = generate_blobs(4, 3, 6, 0.0, seed=9)
    # the centers are the generator's first draw
    centers = np.random.default_rng(9).standard_normal((4, 6))
    assert np.array_equal(ds.features, np.repeat(centers, 3, axis=0))


def test_blobs_validation():
    with pytest.raises(InvalidArgumentError):
        generate_blobs(1, 5, 3, 1.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_blobs(3, 0, 3, 1.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_blobs(3, 5, 1, 1.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_blobs(3, 5, 3, -0.1, seed=0)
    # NaN used to pass "spread < 0" and give noise-free centers
    with pytest.raises(InvalidArgumentError, match="^spread must be >= 0$"):
        generate_blobs(3, 2, 2, float("nan"), 0)


def test_split_remap_partition_and_counts():
    ds = generate_blobs(6, 10, 4, 0.5, seed=1)
    split = split_open_set(ds, [5, 2, 6], test_fraction=0.3, seed=7)

    # remap is order-preserving over the sorted original ids 2 < 5 < 6
    assert split.original_known_ids == (2, 5, 6)
    assert split.num_known == 3

    # floor(10 * 0.3) = 3 test rows per class, 7 train rows per class
    assert split.train.n_rows == 21
    assert split.test_known.n_rows == 9
    assert split.test_unknown.n_rows == 30
    assert np.all(split.test_unknown.labels == UNKNOWN_LABEL)

    # every row of relabeled class k must be a row of the original class
    for new, orig in enumerate((2, 5, 6), start=1):
        orig_rows = ds.features[ds.labels == orig]
        for part in (split.train, split.test_known):
            for row in part.features[part.labels == new]:
                assert any(np.array_equal(row, o) for o in orig_rows)

    # train and test_known partition each known class without overlap
    for new in (1, 2, 3):
        n_train = int(np.sum(split.train.labels == new))
        n_test = int(np.sum(split.test_known.labels == new))
        assert (n_train, n_test) == (7, 3)


def test_split_deterministic():
    ds = generate_blobs(5, 8, 3, 0.5, seed=3)
    a = split_open_set(ds, [1, 4], 0.25, seed=11)
    b = split_open_set(ds, [1, 4], 0.25, seed=11)
    assert np.array_equal(a.train.features, b.train.features)
    c = split_open_set(ds, [1, 4], 0.25, seed=12)
    assert not np.array_equal(a.train.features, c.train.features)


def test_split_validation():
    ds = generate_blobs(4, 5, 3, 0.5, seed=0)
    with pytest.raises(InvalidArgumentError):
        split_open_set(ds, [], 0.3, seed=0)
    with pytest.raises(InvalidArgumentError):
        split_open_set(ds, [1, 2, 3, 4], 0.3, seed=0)
    with pytest.raises(InvalidArgumentError):
        split_open_set(ds, [1, 9], 0.3, seed=0)
    with pytest.raises(InvalidArgumentError):
        split_open_set(ds, [1, 2], 0.0, seed=0)
    with pytest.raises(InvalidArgumentError):
        split_open_set(ds, [1, 2], 1.0, seed=0)


def test_epoch_batches_cover_every_row_once():
    feats = np.arange(22, dtype=np.float64).reshape(11, 2)
    labels = np.array([1, 2] * 5 + [1], dtype=np.int64)
    ds = Dataset(feats, labels, 2)
    rng = np.random.default_rng(3)
    batches = epoch_batches(ds, 4, rng)
    # 11 rows at batch 4: chunks of 4, 4, 3 (tail >= 2 stays separate)
    assert [b.size for b in batches] == [4, 4, 3]
    seen = np.sort(np.concatenate([b.features[:, 0] for b in batches]))
    assert np.array_equal(seen, feats[:, 0])
    for b in batches:
        assert np.unique(b.labels).size >= 2


def test_epoch_batches_merge_small_tail():
    feats = np.arange(18, dtype=np.float64).reshape(9, 2)
    labels = np.array([1, 2, 1, 2, 1, 2, 1, 2, 1], dtype=np.int64)
    ds = Dataset(feats, labels, 2)
    batches = epoch_batches(ds, 4, np.random.default_rng(0))
    # 9 rows at batch 4 leaves a 1-row tail, merged into its predecessor
    assert sorted(b.size for b in batches) == [4, 5]


def test_epoch_batches_merge_a_tail_without_a_positive_pair():
    # 11 rows over 3 classes at batch 4 leave a 3-row tail; it stays only
    # when a label repeats in it, so every batch holds a positive pair
    ds = Dataset(np.zeros((11, 2)), np.array([1, 2, 3] * 3 + [1, 2]), 3)
    sizes = set()
    for seed in range(20):
        batches = epoch_batches(ds, 4, np.random.default_rng(seed))
        sizes.add(tuple(b.size for b in batches))
        for b in batches:
            assert np.unique(b.labels).size < b.size, seed
    assert sizes == {(4, 4, 3), (4, 7)}


def test_epoch_batches_merge_every_chunk_without_a_positive_pair():
    # 70 rows over 10 classes at batch 4: many 4-row chunks hold four
    # distinct labels; each absorbs the next chunk, so every batch holds a pair
    feats = np.arange(140, dtype=np.float64).reshape(70, 2)
    ds = Dataset(feats, np.arange(70) % 10 + 1, 10)
    merged = False
    for seed in range(20):
        batches = epoch_batches(ds, 4, np.random.default_rng(seed))
        seen = np.sort(np.concatenate([b.features[:, 0] for b in batches]))
        assert np.array_equal(seen, feats[:, 0]), seed
        for b in batches:
            assert 2 <= np.unique(b.labels).size < b.size, seed
        merged |= any(b.size > 4 for b in batches[:-1])
    assert merged


def test_epoch_batches_unsatisfiable():
    ds = Dataset(np.zeros((6, 2)), np.ones(6, dtype=np.int64), 1)
    with pytest.raises(UnsatisfiableBatchError):
        epoch_batches(ds, 3, np.random.default_rng(0))


def test_augment_gaussian():
    batch = Batch(np.random.default_rng(1).standard_normal((5, 3)), np.arange(1, 6))
    same = augment_gaussian(batch, 0.0, np.random.default_rng(0))
    assert np.array_equal(same.features, batch.features)
    assert same.features is not batch.features

    a = augment_gaussian(batch, 0.5, np.random.default_rng(7))
    b = augment_gaussian(batch, 0.5, np.random.default_rng(7))
    assert np.array_equal(a.features, b.features)
    assert np.all(a.features != batch.features)
    assert np.array_equal(a.labels, batch.labels)

    with pytest.raises(InvalidArgumentError):
        augment_gaussian(batch, -0.1, np.random.default_rng(0))
    # NaN used to pass "sigma < 0" and give all-NaN features
    with pytest.raises(InvalidArgumentError, match="^sigma must be >= 0$"):
        augment_gaussian(batch, float("nan"), np.random.default_rng(0))


def test_csv_roundtrip_bitwise(tmp_path):
    ds = generate_blobs(3, 4, 5, 1.3, seed=17)
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.class_count == 3

    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "f0,f1,f2,f3,f4,label"
    assert text.splitlines()[1] == ",".join(repr(float(v)) for v in ds.features[0]) + ",1"
    assert "\r" not in text


def test_csv_unknown_dataset(tmp_path):
    unk = Dataset(np.random.default_rng(0).standard_normal((6, 2)),
                  np.zeros(6, dtype=np.int64), 0)
    path = tmp_path / "unk.csv"
    write_dataset_csv(unk, path)
    back = read_dataset_csv(path)
    assert back.class_count == 0
    assert np.all(back.labels == UNKNOWN_LABEL)


def test_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(InvalidArgumentError):
        read_dataset_csv(path)


def test_dataset_validation():
    feats = np.zeros((4, 2))
    with pytest.raises(InvalidArgumentError):
        Dataset(feats, np.array([1, 1, 2, 4]), 3)  # label out of range
    with pytest.raises(InvalidArgumentError):
        Dataset(feats, np.array([1, 1, 3, 3]), 3)  # class 2 empty
    with pytest.raises(InvalidArgumentError):
        Dataset(feats, np.array([1, 1, 2, 0]), 2)  # unknown label in known set
    with pytest.raises(InvalidArgumentError):
        Dataset(feats, np.array([1, 1, 1, 2]), 0)  # class_count 0 but labeled
    with pytest.raises(InvalidArgumentError):
        Dataset(np.zeros(4), np.array([1, 1, 1, 1]), 1)  # 1-d features
    with pytest.raises(InvalidArgumentError):
        Dataset(feats, np.array([1, 1, 2]), 2)  # length mismatch


def _edge_dataset():
    ds = generate_blobs(3, 3, 3, 1.0, seed=4)
    feats = ds.features.copy()
    feats[0, :] = [-0.0, 5e-324, 1e300]
    feats[4, 1] = -2.5e-08
    return Dataset(feats, ds.labels, 3)


def _edge_datasets():
    return {
        "edge": _edge_dataset(),
        "unknown": Dataset(np.array([[1e300, -0.0], [5e-324, 0.1]]),
                           np.zeros(2, dtype=np.int64), 0),
        "empty": Dataset(np.empty((0, 4)), np.empty(0, dtype=np.int64), 0),
        "featureless": Dataset(np.empty((2, 0)), np.zeros(2, dtype=np.int64), 0),
    }


def test_csv_writer_matches_csv_module_bytes(tmp_path):
    for n, ds in enumerate(_edge_datasets().values()):
        got, want = tmp_path / f"got{n}.csv", tmp_path / f"want{n}.csv"
        write_dataset_csv(ds, got)
        _reference_write(ds, want)
        assert got.read_bytes() == want.read_bytes(), n
        assert _read_outcome(read_dataset_csv, got) == _read_outcome(_reference_read, want), n


def _cuts_and_flips(original):
    """Every prefix of ``original``, and each byte flipped in full and in one bit."""
    bits = np.random.default_rng(5).integers(0, 8, size=len(original))
    variants = [original[:cut] for cut in range(len(original) + 1)]
    for i, bit in enumerate(bits.tolist()):
        for mask in (0xFF, 1 << bit):
            flipped = bytearray(original)
            flipped[i] ^= mask
            variants.append(bytes(flipped))
    return variants


def _assert_reads_match_reference(path, variants):
    accepted = 0
    for n, data in enumerate(variants):
        path.write_bytes(data)
        expected = _read_outcome(_reference_read, path)
        assert _read_outcome(read_dataset_csv, path) == expected, (n, data)
        accepted += expected is not None
    # both sides of the comparison are exercised
    assert 0 < accepted < len(variants)


def test_csv_reader_matches_reference_on_cuts_and_flips(tmp_path):
    source = tmp_path / "source.csv"
    write_dataset_csv(_edge_dataset(), source)
    _assert_reads_match_reference(tmp_path / "variant.csv", _cuts_and_flips(source.read_bytes()))


def test_a_stale_companion_never_leaks_into_a_cut_or_flipped_csv(tmp_path):
    # each variant overwrites a CSV whose companion still holds the original
    path = tmp_path / "variant.csv"
    write_dataset_csv(_edge_dataset(), path)
    _assert_reads_match_reference(path, _cuts_and_flips(path.read_bytes()))
    assert (tmp_path / "variant.csv.npz").exists()


def _read_or_error(path):
    """read_dataset_csv's result as comparable bits, or its error."""
    try:
        ds = read_dataset_csv(path)
    except InvalidArgumentError as exc:
        return type(exc), str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(), ds.class_count


def _counting_parses(monkeypatch):
    parsed = []
    real = dctau.data._parse_csv

    def counted(path, data):
        parsed.append(path)
        return real(path, data)

    monkeypatch.setattr(dctau.data, "_parse_csv", counted)
    return parsed


def _write_nan_csv(path):
    """The edge dataset's CSV with feature 1 of row 2 made ``nan``, and a
    companion that matches it; Dataset rejects NaN, so write_dataset_csv
    cannot write them."""
    ds = _edge_dataset()
    write_dataset_csv(ds, path)
    lines = path.read_bytes().split(b"\n")
    cells = lines[3].split(b",")  # line 0 is the header
    cells[1] = b"nan"
    lines[3] = b",".join(cells)
    data = b"\n".join(lines)
    path.write_bytes(data)
    feats = ds.features.copy()
    feats[2, 1] = np.nan
    np.savez(f"{path}.npz", features=feats, labels=ds.labels,
             csv_sha256=hashlib.sha256(data).hexdigest())


@pytest.mark.parametrize("name", ["edge", "unknown", "empty", "featureless", "nan"])
def test_the_companion_reads_as_the_parse(tmp_path, monkeypatch, name):
    path = tmp_path / "ds.csv"
    if name == "nan":
        _write_nan_csv(path)
    else:
        write_dataset_csv(_edge_datasets()[name], path)
    parsed = _counting_parses(monkeypatch)
    from_companion = _read_or_error(path)
    assert parsed == []
    (tmp_path / "ds.csv.npz").unlink()
    assert _read_or_error(path) == from_companion
    assert parsed == [path]
    if name == "nan":
        assert from_companion[0] is InvalidArgumentError
        assert from_companion[1] == f"{path}: features must be finite, not NaN or inf"


def test_a_torn_or_flipped_companion_reads_as_the_parse(tmp_path, monkeypatch):
    path = tmp_path / "ds.csv"
    write_dataset_csv(_edge_dataset(), path)
    companion = tmp_path / "ds.csv.npz"
    original = companion.read_bytes()
    companion.unlink()
    expected = _read_or_error(path)
    parsed = _counting_parses(monkeypatch)
    cuts = np.linspace(0, len(original) - 1, 64).astype(int).tolist()
    bits = np.random.default_rng(6).integers(0, 8, size=len(original)).tolist()
    for cut in cuts:
        companion.write_bytes(original[:cut])
        assert _read_or_error(path) == expected, cut
    # a cut loses the zip directory, so the CSV is parsed
    assert len(parsed) == len(cuts)
    for i, bit in enumerate(bits):
        flipped = bytearray(original)
        flipped[i] ^= 1 << bit
        companion.write_bytes(bytes(flipped))
        assert _read_or_error(path) == expected, (i, bit)
    # a flip inside a member fails its CRC; one in an unread zip field
    # (a timestamp, say) leaves the companion in use
    assert len(cuts) < len(parsed) < len(cuts) + len(original)


def test_importing_dctau_does_not_load_hashlib():
    # the digest is taken only where a CSV is read or written
    src = os.path.dirname(os.path.dirname(dctau.data.__file__))
    code = "import sys, dctau; sys.exit('hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env, check=False).returncode == 0


def test_a_companion_whose_header_undercounts_its_array_is_not_used(tmp_path, monkeypatch):
    # CRCs and digest hold, but features.npy declares one column of three
    ds = _edge_dataset()
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    companion = tmp_path / "ds.csv.npz"
    with np.load(companion) as npz:
        members = {name: npz[name] for name in ("labels", "csv_sha256")}
    undercounted = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        undercounted, {"descr": "<f8", "fortran_order": False, "shape": (ds.n_rows, 1)}
    )
    undercounted.write(ds.features.tobytes())
    with zipfile.ZipFile(companion, "w") as zf:
        zf.writestr("features.npy", undercounted.getvalue())
        for name, array in members.items():
            buf = io.BytesIO()
            np.save(buf, array)
            zf.writestr(f"{name}.npy", buf.getvalue())
    parsed = _counting_parses(monkeypatch)
    back = read_dataset_csv(path)
    assert parsed == [path]
    assert back.features.tobytes() == ds.features.tobytes()


@pytest.mark.parametrize(
    "text, rows",
    [
        ("f0,f1,label\n", 0),
        ("f0,f1,label\n\n\n", 0),
        ("f0,f1,label\r\n0.5,-1.5,1\r\n2.0,3.0,2\r\n", 2),
        ("f0,f1,label\n0.5,-1.5,1\n\n2.0,3.0,2\n", 2),
        ('f0,f1,label\n"0.5",-1.5,1\n', 1),
        ("f0,f1,label\n#0.5,-1.5,1\n2.0,3.0,2\n", None),
        ("f0,f1,label\n0.5,-1.5,1.0\n", None),
        ("f0,f1,label\n0.5,-1.5,1,\n", None),
        ("f0,f1,label\n\x1c0.5,-1.5,1\n", None),
        ("f0,f1,label\n0.5\x1d,-1.5,1\n", None),
        ("f0,f1,label\n0.5,-1.5,\x1e1\n", None),
        ("f0,f1,label\n0.5,-1.5,1\x1f\n2.0,3.0,2\n", None),
    ],
    ids=["header-only", "header-and-blank-lines", "crlf", "blank-line", "quoted-cell",
         "hash-row", "float-label", "trailing-comma", "fs-before-feature",
         "gs-after-feature", "rs-before-label", "us-after-label"],
)
def test_csv_reader_cases(tmp_path, text, rows):
    path = tmp_path / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = _read_outcome(read_dataset_csv, path)
        assert outcome == _read_outcome(_reference_read, path)
        if rows is None:
            with pytest.raises(InvalidArgumentError, match="case.csv"):
                read_dataset_csv(path)
            return
        ds = read_dataset_csv(path)
    assert ds.features.shape == (rows, 2) and ds.labels.shape == (rows,)
    if rows:
        assert ds.features[0].tolist() == [0.5, -1.5] and ds.labels[0] == 1


@pytest.mark.parametrize("row", ["1_0,-1.5,1", "0.5,-1.5,1_0", "\u0661.5,-1.5,1",
                                 "0.5,-1.5,\u0661"])
def test_csv_reader_rejects_underscores_and_non_ascii_digits(tmp_path, row):
    # float() and int() accept both; the CSV format does not
    path = tmp_path / "case.csv"
    path.write_bytes(f"f0,f1,label\n{row}\n".encode("utf-8"))
    with pytest.raises(InvalidArgumentError, match="case.csv"):
        read_dataset_csv(path)
