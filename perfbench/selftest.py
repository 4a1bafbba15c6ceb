"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json once at reduced size, untraced and
   traced, and checks that each end-to-end and per-layer metric is emitted
   with its unit and a finite value.
2. Injects a witness report with a failing verdict, and an operation that
   raises, and checks that both are counted as failed rather than raising.
3. Checks that the theory checks count K(n, m) <= 1 and a monotonicity
   failure as failed where K - 1 is resolvable, and as known defects only
   where it is below the program's precision.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

HERE = Path(__file__).resolve().parent


def check_emitted(root: Path, spec: dict) -> list:
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
            where = f"{workload['name']} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                problems.append(f"{where}: attempted = {result['attempted']!r}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{where}: metrics differ: missing {sorted(set(wanted) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted))}, units "
                                f"{[n for n in wanted if n in got and got[n] != wanted[n]]}")
            bad = [n for n, e in result["metrics"].items()
                   if not (isinstance(e["value"], (int, float)) and math.isfinite(e["value"]))]
            if bad:
                problems.append(f"{where}: non-finite values for {bad}")
            print(f"{where}: {len(got)} metrics, correct={result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed")
    return problems


def run_injected(root: Path, name: str, op) -> dict:
    """bench.main on one workload whose operation is replaced by `op`."""
    import bench

    original = bench.workloads

    def patched(small=False):
        table = original(small)
        table[name] = dataclasses.replace(table[name], op=op)
        return table

    bench.workloads = patched
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = bench.main(Namespace(workload=name, seed=1, seconds=0.01, trace=0,
                                        small=True), root)
    finally:
        bench.workloads = original
    if code != 0:
        raise RuntimeError(f"bench.main returned {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_injected(root: Path) -> list:
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import dimwitness
    from workloads import workloads

    problems = []
    n5 = workloads(small=True)["witness-n5"]
    genuine = n5.op(1, root)
    violated = dataclasses.replace(genuine, verdict="violation_of_theory")

    def raising(seed, scratch):
        raise dimwitness.DomainError("injected")

    for label, op in (("failing report", lambda seed, scratch: violated),
                      ("raising operation", raising)):
        result = run_injected(root, "witness-n5", op)
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{label} not counted: {result}")
        print(f"injected {label}: {result['failed']}/{result['attempted']} failed")
    return problems


def check_theory_envelope(root: Path) -> list:
    from workloads import check_theory, workloads

    genuine = workloads(small=True)["theory"].op(1, root)
    cases = (
        # (label, extra K <= 1 point, monotonicity result, failed, known defects)
        ("clean", None, (True, None), set(), set()),
        ("unresolved", (10**6, 10**6 - 1, 1.0 - 1e-9), (False, 50000),
         set(), {"kg_above_1", "monotonicity"}),
        ("resolvable", (100, 99, 1.0 - 1e-9), (False, 500),
         {"kg_above_1", "monotonicity"}, set()),
    )
    problems = []
    for label, point, monotone, failed, known in cases:
        values = dict(genuine, monotone=monotone, kg_not_above_1=[point] if point else [])
        out = check_theory(values)
        if set(out.failures) != failed or set(out.known_defects) != known:
            problems.append(f"theory {label}: failed {sorted(out.failures)}, "
                            f"known defects {sorted(out.known_defects)}")
        print(f"theory {label}: failed {sorted(out.failures)}, known {sorted(out.known_defects)}")
    return problems


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_emitted(root, spec) + check_injected(root) + check_theory_envelope(root)
    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
