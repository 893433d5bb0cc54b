"""The one label rule: every label array the package takes goes through
``data.int_labels``, which rejects a non-integer dtype instead of casting it.

A cast would truncate: 1.7 and 1.2 would become one class, True class 1.
"""

import numpy as np
import pytest

from dctau.data import Batch, Dataset, generate_blobs, int_labels, split_open_set
from dctau.errors import InvalidArgumentError
from dctau.losses import LossConfig, dc_total_loss_grad, supcon_loss_grad
from dctau.metrics import closed_accuracy, macro_f1, oscr, oscr_curve
from dctau.model import cross_entropy_loss_grad
from dctau.openset import fit_thresholds
from dctau.universum import make_universum
from dctau.verify import unit_rows

_RNG = np.random.default_rng(0)
_FEATS = _RNG.standard_normal((4, 3))
_Z, _U = unit_rows(_RNG, 4, 3), unit_rows(_RNG, 4, 3)
_INT = np.array([1, 1, 2, 2])
_POST = np.array([[0.8, 0.2], [0.6, 0.4], [0.3, 0.7], [0.1, 0.9]])
_BLOBS = generate_blobs(6, 5, 3, 0.5, seed=0)
_CFG = LossConfig()

# (entry point, the argument's name, a call passing the labels y there)
_ENTRY_POINTS = [
    ("Dataset", "labels", lambda y: Dataset(_FEATS, y, 2)),
    ("Batch", "labels", lambda y: Batch(_FEATS, y)),
    ("make_universum", "labels", lambda y: make_universum(Batch(_FEATS, y), 0.5, _RNG)),
    ("supcon_loss_grad", "labels", lambda y: supcon_loss_grad(_Z, y, _CFG)),
    ("dc_total_loss_grad", "labels", lambda y: dc_total_loss_grad(_Z, y, _U, _INT, _CFG)),
    ("dc_total_loss_grad", "u_targets", lambda y: dc_total_loss_grad(_Z, _INT, _U, y, _CFG)),
    ("cross_entropy_loss_grad", "labels", lambda y: cross_entropy_loss_grad(np.zeros((4, 2)), y)),
    ("fit_thresholds", "train_labels", lambda y: fit_thresholds(_POST, y, 5.0)),
    ("oscr_curve", "known_true_labels", lambda y: oscr_curve(_POST, y, _POST)),
    ("oscr", "known_true_labels", lambda y: oscr(_POST, y, _POST)),
    ("macro_f1", "predicted", lambda y: macro_f1(y, _INT, 2)),
    ("macro_f1", "truth", lambda y: macro_f1(_INT, y, 2)),
    ("closed_accuracy", "predicted", lambda y: closed_accuracy(y, _INT)),
    ("closed_accuracy", "truth", lambda y: closed_accuracy(_INT, y)),
    ("split_open_set", "known_ids", lambda y: split_open_set(_BLOBS, y, 0.3, seed=0)),
]

_NON_INTEGER = {
    "float": np.array([1.7, 1.2, 2.9, 2.0]),  # truncates to 1, 1, 2, 2
    "bool": np.array([True, True, False, True]),
    "str": np.array(["1", "1", "2", "2"]),
    # no array at all: numpy's asarray raises a plain ValueError
    "ragged": [[1], [1, 2], [2], [2]],
}


@pytest.mark.parametrize("kind", _NON_INTEGER)
@pytest.mark.parametrize(
    "name, call", [case[1:] for case in _ENTRY_POINTS],
    ids=[f"{fn}-{name}" for fn, name, _ in _ENTRY_POINTS],
)
def test_a_non_integer_label_array_is_rejected_naming_its_argument(name, call, kind):
    with pytest.raises(InvalidArgumentError, match=rf"^{name} must be integers, not "):
        call(_NON_INTEGER[kind])


@pytest.mark.parametrize(
    "name, call", [case[1:] for case in _ENTRY_POINTS if case[1] != "known_ids"],
    ids=[f"{fn}-{name}" for fn, name, _ in _ENTRY_POINTS if name != "known_ids"],
)
def test_the_same_call_takes_integer_labels_of_any_width(name, call):
    call(_INT.astype(np.int8))


def test_int_labels_keeps_an_int64_array_and_widens_the_rest():
    labels = np.array([3, 1, 2])
    assert int_labels("y", labels, 3) is labels
    assert int_labels("y", labels.astype(np.uint8), 3).dtype == np.int64
    assert int_labels("y", [], 0).dtype == np.int64  # an empty list is float64 to numpy
    with pytest.raises(InvalidArgumentError, match="^y must align with rows$"):
        int_labels("y", labels, 2)
    with pytest.raises(InvalidArgumentError, match="^y must align with rows$"):
        int_labels("y", labels[None], 3)
    with pytest.raises(InvalidArgumentError, match=r"^y must lie in 1\.\.2, got 1\.\.3$"):
        int_labels("y", labels, 3, 1, 2)
    with pytest.raises(InvalidArgumentError, match=r"^y must lie in 2\.\., got 1\.\.3$"):
        int_labels("y", labels, 3, 2)


def test_closed_accuracy_truth_must_be_a_known_class():
    with pytest.raises(InvalidArgumentError, match=r"^truth must lie in 1\.\., got -1\.\.2$"):
        closed_accuracy([1, 2], [-1, 2])
    # a prediction may be any integer: it is simply wrong
    assert closed_accuracy([-1, 2], [1, 2]) == 0.5


def test_dataset_range_follows_its_class_count():
    feats = np.zeros((3, 2))
    assert Dataset(feats, [0, 0, 0], 0).class_count == 0
    with pytest.raises(InvalidArgumentError, match=r"^labels must lie in 0\.\.0, got 0\.\.1$"):
        Dataset(feats, [0, 1, 0], 0)
    with pytest.raises(InvalidArgumentError, match=r"^labels must lie in 1\.\.2, got 0\.\.2$"):
        Dataset(feats, [0, 1, 2], 2)


@pytest.mark.parametrize(
    "known_ids, message",
    [([1, 2, 2], "known_ids must be distinct"), ([0, 2], r"known_ids must lie in 1\.\.6"),
     ([1, 7], r"known_ids must lie in 1\.\.6"), ([[1, 2]], "known_ids must align"),
     ([], "known_ids must be a non-empty strict subset"),
     ([1, 2, 3, 4, 5, 6], "known_ids must be a non-empty strict subset")],
    ids=["repeated", "zero", "above", "2-d", "empty", "every-class"],
)
def test_split_open_set_known_ids_are_distinct_classes(known_ids, message):
    with pytest.raises(InvalidArgumentError, match=f"^{message}"):
        split_open_set(_BLOBS, known_ids, 0.3, seed=0)
