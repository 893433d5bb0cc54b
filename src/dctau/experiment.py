"""End-to-end experiment plumbing: split, train, evaluate, sweep.

Everything here is a deterministic function of the config. The master
seed is split into independent sub-seeds (data, class selection, split,
training) in a fixed order, so changing one stage's consumption pattern
never silently reshuffles another stage.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import load_checkpoint
from .config import PSEUDO_SCHEMES, TrainConfig
from .data import (
    UNKNOWN_LABEL,
    Dataset,
    OpenSplit,
    generate_blobs,
    read_dataset_csv,
    split_open_set,
    write_dataset_csv,
)
from .errors import ConfigError, InvalidArgumentError
from .metrics import auroc, closed_accuracy, macro_f1, oscr
from .model import ModelParams, posteriors, train_classifier, train_contrastive
from .openset import ThresholdTable, fit_thresholds, predict_open_many

# sweep key -> the TrainConfig field it sets
SWEEP_FIELDS = {
    "lambda": "lam",
    "gamma": "gamma",
    "scheme": "pseudo_scheme",
    "percentile": "percentile",
}
SWEEP_KEYS = tuple(SWEEP_FIELDS)

DEFAULT_GRIDS = {
    "lambda": (0.1, 0.3, 0.5, 0.7, 0.9),
    "gamma": (0.0, 0.5, 1.0, 2.0),
    "scheme": PSEUDO_SCHEMES,
    "percentile": (1.0, 2.0, 5.0, 10.0, 20.0),
}

TRAIN_CSV = "train.csv"
TEST_KNOWN_CSV = "test_known.csv"
TEST_UNKNOWN_CSV = "test_unknown.csv"
MANIFEST_JSON = "manifest.json"


@dataclass(frozen=True)
class EvalReport:
    """Metrics of one trained model on one open split.

    wall_seconds covers one of two spans: the evaluation alone in
    evaluate_params, and split + training + evaluation in run_experiment
    and in every run of run_sweep. known_posteriors and
    unknown_posteriors are the test posteriors the metrics were computed
    from, kept so a caller can score them again (dctau eval writes the
    OSCR curve from them); they never enter to_json or report equality.
    """

    auroc: float
    oscr: float
    macro_f1: float
    closed_accuracy: float
    thresholds: ThresholdTable
    config: TrainConfig
    wall_seconds: float
    known_posteriors: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    unknown_posteriors: np.ndarray | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        for name in ("auroc", "oscr", "macro_f1", "closed_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name} out of [0, 1]: {v}")

    def to_json(self) -> str:
        payload = {
            "auroc": self.auroc,
            "oscr": self.oscr,
            "macro_f1": self.macro_f1,
            "closed_accuracy": self.closed_accuracy,
            "percentile": self.thresholds.percentile,
            "thresholds": [float(t) for t in self.thresholds.thresholds],
            "wall_seconds": self.wall_seconds,
            "config": dataclasses.asdict(self.config),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class SweepRow:
    """One sweep table entry: metric means over the row's seeds."""

    key: str
    value: object
    auroc: float
    oscr: float
    macro_f1: float
    closed_accuracy: float
    wall_seconds: float
    n_seeds: int


def derive_seeds(seed: int) -> dict[str, int]:
    """Named sub-seeds drawn in a fixed order from the master seed."""
    rng = np.random.default_rng(seed)
    names = ("data", "known_choice", "split", "train")
    return {name: int(rng.integers(2**63)) for name in names}


def make_split(cfg: TrainConfig) -> OpenSplit:
    """Synthesize blobs and split them, or load CSVs from cfg.data_dir."""
    if cfg.data_dir:
        return load_split(cfg.data_dir)
    seeds = derive_seeds(cfg.seed)
    ds = generate_blobs(cfg.class_count, cfg.per_class, cfg.dim, cfg.spread, seeds["data"])
    chooser = np.random.default_rng(seeds["known_choice"])
    known_ids = chooser.choice(
        np.arange(1, cfg.class_count + 1), size=cfg.known_count, replace=False
    )
    return split_open_set(ds, known_ids, cfg.test_fraction, seeds["split"])


def save_split(split: OpenSplit, out_dir) -> dict:
    """Write the three CSVs plus a manifest; returns the manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    write_dataset_csv(split.train, os.path.join(out_dir, TRAIN_CSV))
    write_dataset_csv(split.test_known, os.path.join(out_dir, TEST_KNOWN_CSV))
    write_dataset_csv(split.test_unknown, os.path.join(out_dir, TEST_UNKNOWN_CSV))
    manifest = {
        "original_known_ids": list(split.original_known_ids),
        "num_known": split.num_known,
        "dim": split.train.dim,
        "rows": {
            "train": split.train.n_rows,
            "test_known": split.test_known.n_rows,
            "test_unknown": split.test_unknown.n_rows,
        },
    }
    with open(os.path.join(out_dir, MANIFEST_JSON), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_split(data_dir) -> OpenSplit:
    """Read the CSVs written by save_split (manifest optional).

    When manifest.json is present, the row counts and dim it records
    must match the CSVs, so a file cut at a row boundary is rejected
    rather than evaluated on fewer rows.
    """
    names = {"train": TRAIN_CSV, "test_known": TEST_KNOWN_CSV, "test_unknown": TEST_UNKNOWN_CSV}
    paths = {key: os.path.join(data_dir, name) for key, name in names.items()}
    read = {key: read_dataset_csv(path) for key, path in paths.items()}
    train, test_known, test_unknown = read.values()
    if train.class_count < 1:
        raise InvalidArgumentError(f"{data_dir}/{TRAIN_CSV} has no known classes")
    k = max(train.class_count, test_known.class_count)
    train = Dataset(train.features, train.labels, k)
    test_known = Dataset(test_known.features, test_known.labels, k)
    original = tuple(range(1, k + 1))
    manifest_path = os.path.join(data_dir, MANIFEST_JSON)
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            original = tuple(int(c) for c in manifest.get("original_known_ids", original))
            rows = manifest.get("rows", {})
            if not isinstance(rows, dict):
                raise TypeError("rows is not an object")
        except (ValueError, TypeError, AttributeError) as exc:
            raise InvalidArgumentError(f"{manifest_path}: corrupt split manifest ({exc})") from exc
        for key, ds in read.items():
            if key in rows and rows[key] != ds.n_rows:
                raise InvalidArgumentError(
                    f"{paths[key]}: {ds.n_rows} rows, but {manifest_path} records {rows[key]!r}"
                )
            if "dim" in manifest and manifest["dim"] != ds.dim:
                raise InvalidArgumentError(
                    f"{paths[key]}: dim {ds.dim}, but {manifest_path} records {manifest['dim']!r}"
                )
    return OpenSplit(train, test_known, test_unknown, original)


def run_training(
    split: OpenSplit, cfg: TrainConfig
) -> tuple[ModelParams, list[float], list[float]]:
    """Both training steps; returns (params, step-one history, step-two history)."""
    rng = np.random.default_rng(derive_seeds(cfg.seed)["train"])
    initial = None
    if cfg.resume_from:
        initial, _ = load_checkpoint(cfg.resume_from)
    params, history = train_contrastive(split, cfg, rng, initial=initial)
    params, cls_history = train_classifier(params, split, cfg, rng)
    return params, history, cls_history


def evaluate_params(params: ModelParams, split: OpenSplit, cfg: TrainConfig) -> EvalReport:
    """Fit thresholds on training rows, score the two test sets.

    Each of the three row sets goes through the model once; the report
    keeps the two test posterior matrices.
    """
    start = time.perf_counter()
    train_post = posteriors(params, split.train.features)
    table = fit_thresholds(train_post, split.train.labels, cfg.percentile)
    known_post = posteriors(params, split.test_known.features)
    unknown_post = posteriors(params, split.test_unknown.features)

    auroc_val = auroc(known_post.max(axis=1), unknown_post.max(axis=1))
    oscr_val = oscr(known_post, split.test_known.labels, unknown_post)
    closed = closed_accuracy(known_post.argmax(axis=1) + 1, split.test_known.labels)

    all_post = np.vstack([known_post, unknown_post])
    predicted, _ = predict_open_many(all_post, table)
    truth = np.concatenate(
        [split.test_known.labels, np.full(split.test_unknown.n_rows, UNKNOWN_LABEL)]
    )
    f1 = macro_f1(predicted, truth, split.num_known)

    return EvalReport(
        auroc=auroc_val,
        oscr=oscr_val,
        macro_f1=f1,
        closed_accuracy=closed,
        thresholds=table,
        config=cfg,
        wall_seconds=time.perf_counter() - start,
        known_posteriors=known_post,
        unknown_posteriors=unknown_post,
    )


def run_experiment(cfg: TrainConfig) -> tuple[ModelParams, OpenSplit, EvalReport, dict]:
    """Split + train + evaluate; wall_seconds covers the whole run."""
    start = time.perf_counter()
    split = make_split(cfg)
    params, history, cls_history = run_training(split, cfg)
    report = evaluate_params(params, split, cfg)
    report = replace(report, wall_seconds=time.perf_counter() - start)
    histories = {"contrastive": history, "classifier": cls_history}
    return params, split, report, histories


def run_sweep(
    cfg: TrainConfig,
    key: str,
    values=None,
    seeds=None,
) -> list[SweepRow]:
    """One SweepRow per value, metrics averaged over the given seeds.

    Rows keep the input value order; values and seeds must be distinct.
    Runs that differ only in the percentile share one split and one
    training, since neither sees it: the percentile sweep trains once
    per seed and refits only the thresholds. Each report's wall_seconds
    covers the split, training and its evaluation.
    """
    if key not in SWEEP_KEYS:
        raise ConfigError(f"sweep key must be one of {SWEEP_KEYS}, got {key!r}")
    values = tuple(values) if values is not None else DEFAULT_GRIDS[key]
    seeds = tuple(seeds) if seeds is not None else (cfg.seed,)
    for name, items in (("values", values), ("seeds", seeds)):
        if not items:
            raise ConfigError(f"sweep {name} must be non-empty")
        if len(set(items)) < len(items):
            raise ConfigError(f"sweep {name} must be distinct, got {list(items)}")
    field = SWEEP_FIELDS[key]

    reports: dict[object, list[EvalReport]] = {v: [] for v in values}
    for seed in seeds:
        trained: dict[TrainConfig, tuple] = {}
        for v in values:
            run_cfg = replace(cfg, **{field: v, "seed": seed})
            train_cfg = replace(run_cfg, percentile=cfg.percentile)
            if train_cfg not in trained:
                start = time.perf_counter()
                split = make_split(run_cfg)
                params, _, _ = run_training(split, run_cfg)
                trained[train_cfg] = (split, params, time.perf_counter() - start)
            split, params, seconds = trained[train_cfg]
            report = evaluate_params(params, split, run_cfg)
            reports[v].append(replace(report, wall_seconds=report.wall_seconds + seconds))
    return [_mean_row(key, v, reports[v]) for v in values]


def _mean_row(key: str, value, reports: list[EvalReport]) -> SweepRow:
    return SweepRow(
        key=key,
        value=value,
        auroc=float(np.mean([r.auroc for r in reports])),
        oscr=float(np.mean([r.oscr for r in reports])),
        macro_f1=float(np.mean([r.macro_f1 for r in reports])),
        closed_accuracy=float(np.mean([r.closed_accuracy for r in reports])),
        wall_seconds=float(np.sum([r.wall_seconds for r in reports])),
        n_seeds=len(reports),
    )


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    """Export one line per sweep row; metrics as repr, so they round-trip."""
    lines = ["sweep,value,auroc,oscr,macro_f1,closed_accuracy,wall_seconds,n_seeds"]
    lines += [
        f"{r.key},{r.value},{r.auroc!r},{r.oscr!r},{r.macro_f1!r},"
        f"{r.closed_accuracy!r},{r.wall_seconds!r},{r.n_seeds}"
        for r in rows
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
