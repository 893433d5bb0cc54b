"""Dual contrastive learning with a target-aware universum for open-set
recognition: synthetic data, losses with analytic gradients, a small
dense network trained in two steps, percentile-threshold rejection, and
open-set metrics. Pure numpy; every randomized path is seed-driven.
"""

from .config import CONFIG_DOC, TrainConfig, serialize_config
from .data import (
    UNKNOWN_LABEL,
    Batch,
    Dataset,
    OpenSplit,
    augment_gaussian,
    epoch_batches,
    generate_blobs,
    read_dataset_csv,
    split_open_set,
    write_dataset_csv,
)
from .errors import (
    ConfigError,
    DegenerateBatchError,
    InsufficientClassesError,
    InvalidArgumentError,
    NumericError,
    UnsatisfiableBatchError,
)
from .experiment import (
    EvalReport,
    SweepRow,
    evaluate_params,
    load_split,
    make_split,
    run_experiment,
    run_sweep,
    run_training,
    save_split,
)
from .losses import LossConfig, LossResult, dc_total_loss_grad, supcon_loss_grad
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import (
    OscrCurve,
    auroc,
    closed_accuracy,
    macro_f1,
    oscr,
    oscr_curve,
    write_curve_csv,
)
from .model import (
    DenseLayer,
    ForwardTrace,
    ModelParams,
    OptimizerState,
    Schedule,
    backprop_embedding,
    cross_entropy_loss_grad,
    embed,
    forward_classifier,
    init_params,
    optimizer_step,
    posteriors,
    softmax,
    train_classifier,
    train_contrastive,
)
from .openset import (
    ThresholdTable,
    fit_thresholds,
    predict_open_many,
    write_thresholds_csv,
)
from .universum import make_universum
from .verify import CheckResult, run_all

__version__ = "0.1.0"
