"""The one float rule: every float array the package takes goes through
``data.float_array``, which rejects a str, bool, complex or object dtype
instead of casting it, and rejects NaN and inf.

A cast would read "1" as a number, drop an imaginary part, or score
objects; a NaN would train or rank as if it were a value.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dctau.data import Batch, Dataset, augment_gaussian, float_array
from dctau.errors import InvalidArgumentError
from dctau.losses import LossConfig, dc_total_loss_grad, supcon_loss_grad
from dctau.metrics import auroc, oscr, oscr_curve
from dctau.model import (
    backprop_embedding,
    cross_entropy_loss_grad,
    embed,
    forward_classifier,
    init_params,
    posteriors,
    softmax,
)
from dctau.openset import ThresholdTable, fit_thresholds, predict_open_many
from dctau.universum import make_universum

_SRC = Path(__file__).resolve().parents[1] / "src" / "dctau"

# every valid value is integer-valued, so int8 and float32 hold it exactly
_FEATS = np.array([[1.0, -2.0, 0.0], [3.0, 1.0, -1.0], [0.0, 2.0, 2.0], [-1.0, 0.0, 1.0]])
_Z = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]])
_U = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_POST = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
_LOGITS = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 3.0], [-1.0, 2.0]])
_D_Z = np.array([[1.0, -1.0], [0.0, 2.0], [3.0, 0.0], [-2.0, 1.0]])
_SCORES = np.array([1.0, 3.0, 2.0, 5.0])
_INT = np.array([1, 1, 2, 2])
_PARAMS = init_params(3, (4,), 2, 2, seed=1)
_CFG = LossConfig()
_TABLE = ThresholdTable(np.array([0.0, 1.0]), 5.0)


def _rng():
    return np.random.default_rng(0)


# (entry point, the argument's name, its valid value, a call passing x there)
_ENTRY_POINTS = [
    ("Dataset", "features", _FEATS, lambda x: Dataset(x, _INT, 2)),
    ("Batch", "features", _FEATS, lambda x: Batch(x, _INT)),
    ("make_universum", "features", _FEATS, lambda x: make_universum(Batch(x, _INT), 0.5, _rng())),
    ("augment_gaussian", "features", _FEATS,
     lambda x: augment_gaussian(Batch(x, _INT), 0.5, _rng())),
    ("supcon_loss_grad", "z", _Z, lambda x: supcon_loss_grad(x, _INT, _CFG)),
    ("dc_total_loss_grad", "z", _Z, lambda x: dc_total_loss_grad(x, _INT, _U, _INT, _CFG)),
    ("dc_total_loss_grad", "u", _U, lambda x: dc_total_loss_grad(_Z, _INT, x, _INT, _CFG)),
    ("embed", "inputs", _FEATS, lambda x: embed(_PARAMS, x)),
    ("posteriors", "inputs", _FEATS, lambda x: posteriors(_PARAMS, x)),
    ("forward_classifier", "inputs", _FEATS, lambda x: forward_classifier(_PARAMS, x)),
    ("backprop_embedding", "d_z", _D_Z,
     lambda x: backprop_embedding(_PARAMS, embed(_PARAMS, _FEATS)[1], x)),
    ("softmax", "logits", _LOGITS, softmax),
    ("cross_entropy_loss_grad", "logits", _LOGITS, lambda x: cross_entropy_loss_grad(x, _INT)),
    ("auroc", "known_scores", _SCORES, lambda x: auroc(x, _SCORES - 1.0)),
    ("auroc", "unknown_scores", _SCORES, lambda x: auroc(_SCORES, x)),
    ("oscr_curve", "known_posteriors", _POST, lambda x: oscr_curve(x, _INT, _POST)),
    ("oscr_curve", "unknown_posteriors", _POST, lambda x: oscr_curve(_POST, _INT, x)),
    ("oscr", "known_posteriors", _POST, lambda x: oscr(x, _INT, _POST)),
    ("oscr", "unknown_posteriors", _POST, lambda x: oscr(_POST, _INT, x)),
    ("fit_thresholds", "train_posteriors", _POST, lambda x: fit_thresholds(x, _INT, 5.0)),
    ("predict_open_many", "posteriors", _POST, lambda x: predict_open_many(x, _TABLE)),
    ("ThresholdTable", "thresholds", _TABLE.thresholds, lambda x: ThresholdTable(x, 5.0)),
]
_IDS = [f"{fn}-{name}" for fn, name, _, _ in _ENTRY_POINTS]


def _ragged(good):
    rows = [np.atleast_1d(row).tolist() for row in good]
    rows[-1] = rows[-1] * 2
    return rows


def _with(good, value):
    bad = good.copy()
    bad.flat[1] = value
    return bad


# each bad kind: (how to make it from the valid value, what the message says)
_BAD = {
    "str": (lambda good: good.astype(str), "must be real numbers, not <U"),
    "bool": (lambda good: good > 0, "must be real numbers, not bool"),
    "complex": (lambda good: good + 0j, "must be real numbers, not complex128"),
    "object": (lambda good: good.astype(object), "must be real numbers, not object"),
    "ragged": (_ragged, "must be real numbers, not ragged rows"),
    "nan": (lambda good: _with(good, np.nan), "must be finite, not NaN or inf"),
    "inf": (lambda good: _with(good, -np.inf), "must be finite, not NaN or inf"),
    "ndim": (lambda good: good[None], "must be a "),
}


@pytest.mark.parametrize("kind", _BAD)
@pytest.mark.parametrize("name, good, call", [case[1:] for case in _ENTRY_POINTS], ids=_IDS)
def test_a_bad_float_array_is_rejected_naming_its_argument(name, good, call, kind):
    make, message = _BAD[kind]
    with pytest.raises(InvalidArgumentError, match=f"^{name} {message}"):
        call(make(good))


def _bits(result):
    """A result as comparable bytes, through tuples and dataclasses."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return tuple(_bits(item) for item in result)
    return repr(result)


@pytest.mark.parametrize("name, good, call", [case[1:] for case in _ENTRY_POINTS], ids=_IDS)
def test_int8_and_float32_input_gives_the_float64_result_bitwise(name, good, call):
    want = _bits(call(good))
    assert _bits(call(good.astype(np.int8))) == want
    assert _bits(call(good.astype(np.float32))) == want


def test_float_array_keeps_a_float64_array_and_checks_its_shape():
    feats = _FEATS.copy()
    assert float_array("x", feats, 2) is feats
    assert Dataset(feats, _INT, 2).features is feats
    assert Batch(feats, _INT).features is feats
    assert embed(_PARAMS, feats)[1].inputs[0] is feats
    assert float_array("x", [], 1).dtype == np.float64
    assert float_array("x", np.arange(3, dtype=np.uint8), 1).dtype == np.float64
    assert float_array("x", feats, 2, rows=4, cols=3) is feats
    with pytest.raises(InvalidArgumentError, match=r"^x must be \(5, n\), got \(4, 3\)$"):
        float_array("x", feats, 2, rows=5)
    with pytest.raises(InvalidArgumentError, match=r"^x must be \(n, 2\), got \(4, 3\)$"):
        float_array("x", feats, 2, cols=2)
    with pytest.raises(InvalidArgumentError, match="^x must be a 1-d vector, got 0-d$"):
        float_array("x", 1.0, 1)
    with pytest.raises(InvalidArgumentError, match="^x must be real numbers, not datetime64"):
        float_array("x", np.array(["2026-01-01"], dtype="datetime64[D]"), 1)


def test_auroc_takes_1d_scores_and_never_flattens_a_matrix():
    # the scores used to be flattened, so this returned 1.0
    with pytest.raises(InvalidArgumentError, match="^known_scores must be a 1-d vector, got 2-d$"):
        auroc([[0.5]], [0.1])
    with pytest.raises(InvalidArgumentError, match="^unknown_scores must be a 1-d vector"):
        auroc([0.5], [[0.1]])
    with pytest.raises(InvalidArgumentError, match="^need non-empty known and unknown scores$"):
        auroc([], [0.1])
    assert auroc([0.5], [0.1]) == 1.0


# (file, function) pairs allowed to cast an argument to float64: float_array
# is the rule itself; a checkpoint's members must already be float64, as the
# file format says; _reprs formats the package's own float64 arrays
_ALLOWED = {("data.py", "float_array"), ("checkpoint.py", None), ("metrics.py", "_reprs")}
_CASTS = {"asarray", "asanyarray", "array", "ascontiguousarray", "astype"}


def _float64_casts(source: str):
    """(function, line) of each asarray, array or astype of a function
    argument (or an attribute or item of one) to a float dtype."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CASTS):
                continue
            if node.func.attr == "astype":
                target, dtypes = node.func.value, node.args[:1]
            else:
                target, dtypes = (node.args or [None])[0], node.args[1:2]
            dtypes += [kw.value for kw in node.keywords if kw.arg == "dtype"]
            while isinstance(target, (ast.Attribute, ast.Subscript)):
                target = target.value
            if (isinstance(target, ast.Name) and target.id in args
                    and any("float" in ast.unparse(d) for d in dtypes)):
                found.append((fn.name, node.lineno))
    return found


def test_the_guard_finds_a_cast_of_an_argument():
    source = (
        "def f(values, self):\n"
        "    a = np.asarray(values, dtype=np.float64)\n"
        "    b = np.array(self.features, np.float64)\n"
        "    c = values[0].astype(float)\n"
        "    return np.asarray(np.zeros(3), dtype=np.float64), values.astype(np.int64)\n"
    )
    assert _float64_casts(source) == [("f", 2), ("f", 3), ("f", 4)]


def test_no_module_casts_an_argument_to_float_outside_float_array():
    casts = []
    for path in sorted(_SRC.glob("*.py")):
        for fn, line in _float64_casts(path.read_text(encoding="utf-8")):
            if not {(path.name, None), (path.name, fn)} & _ALLOWED:
                casts.append(f"{path.name}:{line} in {fn}")
    assert casts == []
