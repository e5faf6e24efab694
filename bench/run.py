"""Benchmark of the msis package.

Run from the repository root:

    python3 bench/run.py --workload train_staged --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  train_staged     trainer.train_run on the default staged model, batch 64,
                   fixed epoch budget, in a loop; then full-population AUC
  score_mixed      a loaded checkpoint serves single-applicant requests,
                   with a bulk rescoring of the test split every 100 requests
  gradcheck_sweep  numerics.finite_diff_check over every scalar of the
                   default model with loss.make_fast_loss_value_fn

Each run sets up its data several times (setup_s is the median), measures
for --seconds, checks its outputs, and prints as its last stdout line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run measures once
untraced and once with span recorders around the msis functions, and the
metrics are the per-layer ones. Earlier lines give the environment, the
per-workload metrics with medians, tails and sample counts, and the full
per-layer report. Results and spans go to .bench_out/ in the working
directory.

The end-to-end timings in the JSON line are scaled to a reference host
speed: a fixed kernel that touches no msis code is timed in short bursts
between requests, and each request's time is divided by how much slower
than its reference time the kernel ran in the bursts around that request
(bench_workloads.HostClock). The raw timings are printed with them.

BLAS is held to one thread unless the environment already sets its thread
count: on a small shared machine a second BLAS thread makes the bulk
numbers swing between runs. The thread setting is printed with every run.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train_staged", "score_mixed", "gradcheck_sweep")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every path in seconds, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "msis" / "__init__.py").is_file():
        print(f"error: no msis sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import msis
    if Path(msis.__file__).resolve().parent != (SRC / "msis").resolve():
        print(f"error: imported msis from {msis.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench_workloads
    return bench_workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
