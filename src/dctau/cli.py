"""Command-line experiment harness.

Subcommands: generate (emit split CSVs), train (two-step training to a
checkpoint), eval (score a checkpoint on a split), ablate (sweep one
knob into a CSV table), verify (run the numeric oracle suite).

Config precedence: built-in defaults < --config file < flags (--seed
and repeated --set key=value). Every config key is set through --set;
no subcommand has a flag of its own for one. eval takes the checkpoint
sidecar's config as its base, and a sidecar that lacks a config, names
an unknown key or holds a value of the wrong type is rejected. The
effective config is echoed to stdout (unless --quiet) and always written
to <out>/effective_config.txt.

Exit codes: 0 success, 2 invalid config or arguments, 3 numeric
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .checkpoint import load_checkpoint, save_checkpoint
from .config import CONFIG_DOC, TrainConfig, coerce_value, parse_config_text, serialize_config
from .errors import (
    ConfigError,
    DegenerateBatchError,
    InsufficientClassesError,
    InvalidArgumentError,
    NumericError,
    UnsatisfiableBatchError,
)
from .experiment import (
    SWEEP_FIELDS,
    SWEEP_KEYS,
    evaluate_params,
    make_split,
    run_sweep,
    run_training,
    save_split,
    write_sweep_csv,
)
from .metrics import oscr_curve, write_curve_csv
from .openset import write_thresholds_csv
from .verify import run_all

CHECKPOINT_FILE = "checkpoint.bin"
HISTORY_FILE = "loss_history.csv"
REPORT_FILE = "report.json"
THRESHOLDS_FILE = "thresholds.csv"
CURVE_FILE = "oscr_curve.csv"
EFFECTIVE_CONFIG_FILE = "effective_config.txt"


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="config file of 'key = value' lines")
    sub.add_argument("--seed", type=int, metavar="N", help="override the master seed")
    sub.add_argument("--out", default="out", metavar="DIR", help="output directory (default: out)")
    sub.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        dest="overrides",
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    doc_lines = "\n".join(f"  {key:28s} {text}" for key, text in CONFIG_DOC.items())
    parser = argparse.ArgumentParser(
        prog="dctau",
        description="Dual contrastive open-set recognition experiments on synthetic data.",
        epilog="config keys:\n" + doc_lines,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="synthesize an open split and write its CSVs")
    _add_common_flags(p)

    p = subs.add_parser("train", help="run both training steps and save a checkpoint")
    _add_common_flags(p)

    p = subs.add_parser("eval", help="evaluate a checkpoint on its (or a given) split")
    _add_common_flags(p)
    p.add_argument("--checkpoint", required=True, metavar="CKPT")

    p = subs.add_parser("ablate", help="sweep one knob and emit a results table")
    _add_common_flags(p)
    p.add_argument("--sweep", required=True, choices=SWEEP_KEYS)
    p.add_argument("--values", metavar="V1,V2,...", help="override the default grid")
    p.add_argument("--seeds", metavar="S1,S2,...",
                   help="average each row over these seeds (default: the master seed)")

    p = subs.add_parser("verify", help="run the numeric oracle suite")
    p.add_argument("--quiet", action="store_true", help="print only failures")

    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return overrides


def _build_config(args: argparse.Namespace, base: TrainConfig | None = None) -> TrainConfig:
    values = dataclasses.asdict(base) if base is not None else {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    for key, raw in _flag_overrides(args).items():
        values[key] = coerce_value(key, raw)
    try:
        return TrainConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _echo_config(cfg: TrainConfig, args: argparse.Namespace) -> None:
    text = serialize_config(cfg)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, EFFECTIVE_CONFIG_FILE), "w", encoding="utf-8") as fh:
        fh.write(text)
    if not args.quiet:
        print("# effective config")
        print(text, end="")


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    _echo_config(cfg, args)
    split = make_split(cfg)
    manifest = save_split(split, args.out)
    if not args.quiet:
        rows = manifest["rows"]
        print(
            f"wrote train/test_known/test_unknown CSVs to {args.out} "
            f"({rows['train']}/{rows['test_known']}/{rows['test_unknown']} rows)"
        )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    _echo_config(cfg, args)
    split = make_split(cfg)
    params, history, cls_history = run_training(split, cfg)

    ckpt_path = os.path.join(args.out, CHECKPOINT_FILE)
    save_checkpoint(ckpt_path, params, cfg)
    lines = ["phase,epoch,loss"]
    lines += [f"contrastive,{epoch},{loss!r}" for epoch, loss in enumerate(history)]
    lines += [f"classifier,{epoch},{loss!r}" for epoch, loss in enumerate(cls_history)]
    with open(os.path.join(args.out, HISTORY_FILE), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    if not args.quiet:
        last_c = f"{history[-1]:.6f}" if history else "n/a"
        last_f = f"{cls_history[-1]:.6f}" if cls_history else "n/a"
        print(f"checkpoint: {ckpt_path}")
        print(f"final losses: contrastive={last_c} classifier={last_f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    params, ckpt_cfg = load_checkpoint(args.checkpoint)
    cfg = _build_config(args, base=ckpt_cfg)
    _echo_config(cfg, args)
    split = make_split(cfg)
    report = evaluate_params(params, split, cfg)

    with open(os.path.join(args.out, REPORT_FILE), "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    write_thresholds_csv(report.thresholds, os.path.join(args.out, THRESHOLDS_FILE))
    curve = oscr_curve(
        report.known_posteriors, split.test_known.labels, report.unknown_posteriors
    )
    write_curve_csv(curve, os.path.join(args.out, CURVE_FILE))
    if not args.quiet:
        print(report.to_json())
    return 0


def _parse_list(raw: str, key: str) -> list:
    """Comma-separated values, each typed as the config field ``key``."""
    return [coerce_value(key, part.strip()) for part in raw.split(",") if part.strip()]


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    _echo_config(cfg, args)
    values = _parse_list(args.values, SWEEP_FIELDS[args.sweep]) if args.values else None
    seeds = _parse_list(args.seeds, "seed") if args.seeds else None
    rows = run_sweep(cfg, args.sweep, values=values, seeds=seeds)
    table_path = os.path.join(args.out, f"sweep_{args.sweep}.csv")
    write_sweep_csv(rows, table_path)
    if not args.quiet:
        print(f"sweep table: {table_path}")
        for row in rows:
            print(
                f"{args.sweep}={row.value}: auroc={row.auroc:.4f} oscr={row.oscr:.4f} "
                f"macro_f1={row.macro_f1:.4f} closed={row.closed_accuracy:.4f} "
                f"({row.n_seeds} seed(s))"
            )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(quiet=args.quiet)
    failed = [r for r in results if not r.passed]
    if failed and args.quiet:
        for r in failed:
            print(f"FAIL  {r.name}: {r.detail}", file=sys.stderr)
    return 3 if failed else 0


_HANDLERS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (NumericError, UnsatisfiableBatchError, DegenerateBatchError,
            InsufficientClassesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
