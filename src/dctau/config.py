"""Experiment configuration: defaults, file parsing, and serialization.

The config file is a flat ``key = value`` text format. Blank lines and
lines starting with ``#`` are ignored; every other line must be a known
key, set on no other line. Unknown and repeated keys are hard errors so
sweep typos fail loudly instead of silently running defaults. Precedence
(applied by the CLI): built-in defaults < file values < command-line
flags, and the last of repeated ``--set`` flags wins.

Every value is checked against its field's declared type when a
``TrainConfig`` is built, so config files, ``--set`` flags, checkpoint
sidecars and library callers share one typed path: a float field takes
an int but not an infinity or NaN, an int field rejects a bool, and
``hidden`` takes any sequence of ints.
"""

from __future__ import annotations

import dataclasses
import numbers
import sys
from dataclasses import dataclass

from .data import held_out_count
from .errors import ConfigError

PSEUDO_SCHEMES = ("k_plus_k", "k_plus_one", "none")


@dataclass(frozen=True)
class TrainConfig:
    """Every tunable of the pipeline, in file-key order."""

    # data
    class_count: int = 10
    per_class: int = 150
    dim: int = 8
    spread: float = 1.0
    known_count: int = 6
    test_fraction: float = 0.3
    data_dir: str = ""
    # universum
    lam: float = 0.5
    pseudo_scheme: str = "k_plus_k"
    # loss
    temperature: float = 0.1
    gamma: float = 1.0
    # model
    hidden: tuple[int, ...] = (64, 64)
    proj_dim: int = 16
    # training
    contrastive_epochs: int = 600
    classifier_epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    warmup_epochs: int = 10
    sigma: float = 0.1
    # rejection
    percentile: float = 5.0
    # reproducibility
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _typed(f.name, f.type, getattr(self, f.name)))
        n_test = held_out_count(self.per_class, self.test_fraction)
        checks = [
            (self.class_count >= 2, "class_count must be >= 2"),
            (self.per_class >= 1, "per_class must be >= 1"),
            (self.dim >= 2, "dim must be >= 2"),
            (self.spread >= 0, "spread must be >= 0"),
            (1 <= self.known_count < self.class_count,
             "known_count must be in 1..class_count-1"),
            (self.data_dir or self.known_count >= 2 or self.contrastive_epochs == 0,
             "known_count=1 on a synthetic split gives every contrastive batch a single "
             "class; use known_count >= 2 or contrastive_epochs=0"),
            (0.0 < self.test_fraction < 1.0, "test_fraction must lie in (0, 1)"),
            (self.data_dir or 1 <= n_test <= self.per_class - 2,
             f"per_class={self.per_class} with test_fraction={self.test_fraction} leaves a known "
             f"class {n_test} test and {self.per_class - n_test} training rows, not >= 1 and >= 2"),
            (0.0 <= self.lam <= 1.0, "lam must lie in [0, 1]"),
            (self.pseudo_scheme in PSEUDO_SCHEMES,
             f"pseudo_scheme must be one of {PSEUDO_SCHEMES}"),
            (self.temperature > 0, "temperature must be > 0"),
            (self.gamma >= 0, "gamma must be >= 0"),
            (all(h >= 1 for h in self.hidden), "hidden widths must be >= 1"),
            (self.proj_dim >= 1, "proj_dim must be >= 1"),
            (self.contrastive_epochs >= 0, "contrastive_epochs must be >= 0"),
            (self.classifier_epochs >= 0, "classifier_epochs must be >= 0"),
            (self.batch_size >= 3, "batch_size must be >= 3"),
            (self.learning_rate > 0, "learning_rate must be > 0"),
            (self.weight_decay >= 0, "weight_decay must be >= 0"),
            (self.warmup_epochs >= 0, "warmup_epochs must be >= 0"),
            (self.sigma >= 0, "sigma must be >= 0"),
            (0.0 < self.percentile < 100.0, "percentile must lie in (0, 100)"),
            (self.seed >= 0, "seed must be >= 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)


def _typed(key: str, kind: str, value):
    """``value`` as the declared ``kind``, or ConfigError naming ``key``."""
    if kind == "tuple[int, ...]":
        if isinstance(value, (tuple, list)) and all(_is_int(v) for v in value):
            return tuple(int(v) for v in value)
    elif kind == "int":
        if _is_int(value):
            return int(value)
    elif kind == "float":
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            if abs(value) <= sys.float_info.max:  # finite, and an int that fits a float
                return float(value)
            kind = "finite float"
    elif isinstance(value, str):
        return value
    raise ConfigError(f"{key}: expected {kind}, got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


CONFIG_DOC = {
    "class_count": "total number of blob classes in the synthetic dataset",
    "per_class": "rows generated per class; each known class needs >= 1 test and >= 2 training rows",
    "dim": "feature dimensionality of the blobs",
    "spread": "standard deviation of each class blob (controls overlap)",
    "known_count": "how many classes are treated as known (the rest are unknown); "
                   "1 needs contrastive_epochs = 0 on a synthetic split",
    "test_fraction": "fraction of each known class held out as test rows, floor(per_class * test_fraction)",
    "data_dir": "directory with train/test_known/test_unknown CSVs; empty = synthesize",
    "lam": "universum blend weight on the targeted anchor, in [0, 1]",
    "pseudo_scheme": "universum labeling: k_plus_k (per-class), k_plus_one (single class), none (no universum)",
    "temperature": "contrastive temperature, > 0",
    "gamma": "weight of the universum-anchored loss term, >= 0; 0 drops the term",
    "hidden": "comma-separated encoder widths, e.g. 64,64 (empty = identity encoder)",
    "proj_dim": "projection head output dimensionality",
    "contrastive_epochs": "epochs of representation training (step one)",
    "classifier_epochs": "epochs of classifier training (step two)",
    "batch_size": "training batch size, >= 3",
    "learning_rate": "base learning rate",
    "weight_decay": "decoupled weight decay coefficient",
    "warmup_epochs": "linear warmup epochs before cosine decay (step one)",
    "sigma": "Gaussian augmentation noise std; 0 disables augmentation",
    "percentile": "rejection threshold percentile in (0, 100)",
    "seed": "master seed; every random draw derives from it",
}

_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}
assert set(CONFIG_DOC) == set(_FIELDS)


def _parse_hidden(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"hidden: expected comma-separated integers, got {raw!r}") from exc


def coerce_value(key: str, raw: str):
    """Convert one raw string to the field's declared type; a number is plain
    ASCII, as in a split CSV (``int()`` alone takes ``1_28`` and Arabic digits)."""
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELDS[key].type
    if kind != "str" and (not raw.isascii() or "_" in raw):
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}")
    if key == "hidden":
        return _parse_hidden(raw)
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    """Read ``key = value`` lines into a typed dict (not yet validated).

    A key may appear on one line only.
    """
    values, lines = {}, {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"line {ln}: {key!r} is already set on line {lines[key]}")
        lines[key] = ln
        values[key] = coerce_value(key, raw.strip())
    return values


def serialize_config(cfg: TrainConfig) -> str:
    """Emit every key in declaration order; parse(serialize(c)) == c."""
    lines = []
    for f in dataclasses.fields(TrainConfig):
        val = getattr(cfg, f.name)
        if f.name == "hidden":
            rendered = ",".join(str(h) for h in val)
        else:
            rendered = repr(val) if isinstance(val, float) else str(val)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"

