"""Benchmark for dctau; run from the root of a checkout.

    python3 perfbench/run.py --workload train_dual --seed 1 --seconds 35 --trace 0

It runs one workload against the dctau package in the checkout's src/,
prints a table of the metrics and an environment record, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones from a traced
run. --workload all runs every workload, each in its own process.

OpenBLAS, OpenMP and MKL are pinned to one thread before numpy loads:
with default threading, 256x64 matmuls ran 70-100x slower while another
process was busy, and backprop time swung 3x between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_dual", "train_supcon", "cli_score")
ROOT = Path(__file__).resolve().parent.parent
SUBPROCESS_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", metavar="PATH",
                        help="with --trace 1, also write every span as a JSON line")
    return parser.parse_args(argv)


def run_every_workload(args) -> int:
    """Each workload in its own process, so set-up and peak memory are its own."""
    combined = {}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined, sort_keys=True))
    return code


def print_table(workload: str, result: dict, env: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload}: {attempted} operations, failed_share {failed / attempted:.4g}"
          f" ({failed}/{attempted}), correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    if args.workload == "all":
        return run_every_workload(args)

    src = ROOT / "src"
    if not (src / "dctau" / "__init__.py").is_file():
        print(f"error: no dctau package under {src}; run from a dctau checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (import time belongs to set-up)
    import dctau  # noqa: F401

    import_s = time.perf_counter() - start
    import runner

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        out = runner.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             workdir, import_s, args.spans_out)
    except runner.OracleFailed as exc:
        print(f"error: dctau verify failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    out["env"]["blas_threads_pinned"] = BLAS_THREADS
    out["env"]["seconds"] = args.seconds
    print_table(args.workload, out["result"], out["env"])
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
