"""Self-test: traced counts repeat exactly and do not depend on the seed.

    python3 perfbench/selftest.py [--workload NAME ...] [--seconds 1]

For each workload, makes two traced runs with one seed and one with another,
each in a fresh process. Passes when every count metric is identical across
the three runs, the inputs digest is identical for the repeated seed, and the
inputs digest differs for the other seed. Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("train_grid64", "serve_grid64", "eval_grid576", "predict_cli_grid576")
COUNTS = (
    "tensor.ops", "tensor.tape_nodes", "tensor.tape_mb", "tensor.discarded_grad_ratio",
    "graph.cheb_basis_calls", "graph.lap_products", "graph.lap_gflop",
    "graph.lambda_max_fallbacks", "partition.coarsen_ratio", "recurrent.cell_steps",
    "sampling.pool_calls", "sampling.unpool_calls", "data.series_mb",
)


def traced_run(workload: str, seed: int, seconds: str) -> tuple:
    """(count metrics, inputs digest) of one traced run."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run exited {proc.returncode}")
    metrics = json.loads(lines[-1])["metrics"]
    inputs = next(tok for line in lines if line.startswith("digest ")
                  for tok in line.split() if tok.startswith("inputs="))
    return {k: metrics[k]["value"] for k in COUNTS}, inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", default="1")
    parser.add_argument("--seeds", default="11,12", help="repeated seed, other seed")
    args = parser.parse_args()
    seed, other = (int(s) for s in args.seeds.split(","))
    ok = True
    for workload in args.workload or WORKLOADS:
        first, in_first = traced_run(workload, seed, args.seconds)
        again, in_again = traced_run(workload, seed, args.seconds)
        moved, in_moved = traced_run(workload, other, args.seconds)
        checks = {
            "counts repeat for the same seed": first == again,
            "counts unchanged by another seed": first == moved,
            "inputs repeat for the same seed": in_first == in_again,
            "inputs change with another seed": in_first != in_moved,
        }
        for what, passed in checks.items():
            print(f"[{'PASS' if passed else 'FAIL'}] {workload}: {what}")
        for key in COUNTS:
            if not first[key] == again[key] == moved[key]:
                print(f"    {key}: {first[key]!r} {again[key]!r} {moved[key]!r}")
        print(f"    {workload} counts: {json.dumps(first)}")
        ok = ok and all(checks.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
