"""Benchmark of the dimwitness witness pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload witness-n3-ci --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One caller runs the workload's operation back to back (a closed loop) on a
fixed number of inputs made from ``--seed``, and checks every output. The
count is set per workload so that a run fits in 35 s; ``--seconds`` only
stops a run that would overrun it, and the output then shows fewer inputs
than planned. ``--trace 0`` reports the end-to-end metrics, measured with
tracing off. ``--trace 1`` runs each input once untraced and once traced
(so its cap is twice ``--seconds``), reports the per-layer metrics and fails
the operation if the two reports differ in anything but timings.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The spans, counters,
per-operation results and the run manifest go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench_out"
SETUP_REPS = 5
SUBPROCESS_TIMEOUT_S = 170


def single_blas_thread() -> None:
    """One BLAS thread for the one caller, set before numpy is imported.

    On a shared 2-core machine, two BLAS threads made wall_s of witness-n5
    swing by about 20% between runs, as the second core came and went;
    with one thread the swing was about 7%. The other core absorbs the
    operating system and neighbours.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced input sizes, for the self-test")
    return p.parse_args(argv)


def run_all(args, root: Path) -> int:
    """Every workload in its own process; prints one table row per metric."""
    sys.path.insert(0, str(root / "src"))
    from workloads import workloads

    status = 0
    for name in workloads(args.small):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        for line in lines[:-1]:
            if line.startswith(("inputs ", "check ", "known defect ")):
                print(f"{name:16s} {line}")
        result = json.loads(lines[-1])
        error_rate = result["failed"] / result["attempted"]
        print(f"{name:16s} {'error_rate':40s} {error_rate:14.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        for metric, entry in result["metrics"].items():
            if metric == "error_rate":
                continue
            print(f"{name:16s} {metric:40s} {entry['value']:14.6g} {entry['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "dimwitness" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/dimwitness is missing",
              file=sys.stderr)
        return 2
    single_blas_thread()
    if args.workload == "all":
        return run_all(args, root)

    sys.path.insert(0, str(root / "src"))
    import bench

    return bench.main(args, root)


if __name__ == "__main__":
    sys.exit(main())
