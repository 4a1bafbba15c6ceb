"""The closed loop, set-up time, metrics and run manifest of one benchmark run."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from run import BLAS_THREAD_VARS, OUT_DIR, SETUP_REPS, SUBPROCESS_TIMEOUT_S
from tracer import Tracer
from workloads import Outcome, Workload, derive, workloads

END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "adversary_value": "value",
}

LAYERS = ("analytic_bounds", "sphere", "embedding_opt", "quantum", "witness", "cli")

# per-operation span times (inclusive) and counts, averaged over traced operations
SPAN_SECONDS = (
    "sphere.build_eps_net",
    "sphere.region_moments",
    "sphere.assign_regions",
    "embedding_opt.seesaw_maximize",
    "embedding_opt.moment_value_std_error",
    "embedding_opt.aligned_full_dim_value",
    "analytic_bounds.kg_lower_bound",
    "analytic_bounds.log_gamma",
    "analytic_bounds.monotonicity_check",
    "analytic_bounds.robbins_bounds",
    "analytic_bounds.log1p_bounds",
    "quantum.correlation",
    "quantum.vectorize",
    "quantum.tsirelson_strategy",
    "witness.run_witness",
    "witness.bell_value_finite",
)
SPAN_CALLS = ("analytic_bounds.kg_lower_bound", "quantum.correlation")
COUNTERS = (
    "sphere.net_size",
    "sphere.candidates_drawn",
    "sphere.assign_regions.probes",
    "sphere.empty_regions",
    "embedding_opt.seesaw_maximize.iterations",
)

PER_LAYER: Dict[str, str] = {
    **{f"{name}.s": "s" for name in SPAN_SECONDS},
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{name: "count" for name in COUNTERS},
    "sphere.net_accept_ratio": "ratio",
    "sphere.covering_ratio": "ratio",
    "embedding_opt.seesaw_maximize.converged": "ratio",
    "witness.run_witness.self_s": "s",
    "witness.stat_err": "value",
    "analytic_bounds.kg_not_above_1": "count",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace_overhead_s": "s",
    "error_rate": "ratio",
}

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import dimwitness
SEED = {seed}
{warmup}
SETUP_S = time.perf_counter() - t0
"""


@dataclass
class OpRecord:
    seed: int
    seconds: float
    traced: bool
    adversary_value: float
    stat_err: float
    kg_not_above_1: int = 0
    failures: Dict[str, str] = field(default_factory=dict)  # check name -> message
    known_defects: Dict[str, str] = field(default_factory=dict)  # not counted as failed


def run_op(workload: Workload, seed: int, scratch: Path,
           tracer: Optional[Tracer] = None) -> tuple:
    """Time one operation, then check it. Returns (OpRecord, Outcome).

    An operation that raises, or a check that raises, counts as failed.
    """
    started = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.op(seed, scratch)
        else:
            with tracer:
                raw = workload.op(seed, scratch)
    except Exception as exc:  # a failed operation is counted, never fatal
        seconds = time.perf_counter() - started
        outcome = Outcome(failures={"raised": f"operation raised {type(exc).__name__}: {exc}"})
    else:
        seconds = time.perf_counter() - started
        try:
            outcome = workload.check(raw)
        except Exception as exc:
            outcome = Outcome(failures={"check_raised": f"check raised {type(exc).__name__}: {exc}"})
    record = OpRecord(seed, seconds, tracer is not None, outcome.adversary_value,
                      outcome.stat_err, outcome.kg_not_above_1, dict(outcome.failures),
                      dict(outcome.known_defects))
    return record, outcome


def closed_loop(runs: int, cap_seconds: float, step: Callable[[int], float]) -> None:
    """Call step(0) ... step(runs - 1) back to back.

    The run count is fixed, so two commits are measured on the same inputs
    whatever their speed. `cap_seconds` is only a safety cap: no step starts
    that would end past it (judged by the median step so far), and a run cut
    short by it shows as fewer operations. Always runs at least once.
    """
    started = time.perf_counter()
    durations: List[float] = []
    while len(durations) < runs:
        durations.append(step(len(durations)))
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(durations) > cap_seconds:
            return


def setup_seconds(workload: Workload, seed: int, root: Path) -> List[float]:
    """Import plus one warm-up call, each in a fresh interpreter."""
    times = []
    for rep in range(SETUP_REPS):
        code = SETUP_SNIPPET.format(seed=derive(seed, f"setup-{rep}"), warmup=workload.warmup)
        code += "print(repr(SETUP_S))\n"
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def covering_ratio(net) -> float:
    """Exact covering radius of a net on the sphere, divided by its eps.

    Delaunay caps of points on a sphere are empty, so the farthest point of
    the sphere from the net is the outward normal of some convex-hull facet;
    its chord distance to that facet's vertices is sqrt(2 - 2 h), with h the
    facet plane's distance from the origin.
    """
    from scipy.spatial import ConvexHull

    offsets = -ConvexHull(net.points).equations[:, -1]
    return math.sqrt(max(2.0 - 2.0 * float(offsets.min()), 0.0)) / net.eps


def _median(values: List[float]) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def same_report(a, b) -> bool:
    return json.dumps(a, sort_keys=True, default=repr) == json.dumps(b, sort_keys=True, default=repr)


def manifest(args, root: Path) -> dict:
    import scipy

    try:
        build = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        build = {}
    commit = None  # stays None in a checkout that is not a git repository
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.split()
        if Path(top).resolve() == root.resolve():
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": build.get("blas"),
        "lapack": build.get("lapack"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def untraced_metrics(workload: Workload, args, root: Path, records: List[OpRecord],
                     scratch: Path) -> Dict[str, float]:
    def step(i: int) -> float:
        record, _ = run_op(workload, derive(args.seed, f"op-{i}"), scratch)
        records.append(record)
        return record.seconds

    closed_loop(workload.runs, args.seconds, step)
    setup = setup_seconds(workload, args.seed, root)
    return {
        # the timed section's wall time per operation
        "wall_s": statistics.fmean(r.seconds for r in records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "adversary_value": _median([r.adversary_value for r in records]),
    }


def traced_metrics(workload: Workload, args, records: List[OpRecord],
                   scratch: Path, tracer: Tracer) -> Dict[str, float]:
    coverings: List[float] = []

    def step(i: int) -> float:
        seed = derive(args.seed, f"op-{i}")
        plain, plain_out = run_op(workload, seed, scratch)
        traced, traced_out = run_op(workload, seed, scratch, tracer)
        # the determinism check runs whenever both runs returned a report,
        # also when both failed other checks
        if (plain_out.report is not None and traced_out.report is not None
                and not same_report(plain_out.report, traced_out.report)):
            traced.failures["traced_equals_untraced"] = "traced report differs from the untraced one"
        for net in tracer.nets:
            try:
                coverings.append(covering_ratio(net))
            except (AttributeError, ValueError, RuntimeError) as exc:  # QhullError is a RuntimeError
                print(f"covering radius not computed: {exc}", file=sys.stderr)
        tracer.nets.clear()
        records.extend((plain, traced))
        return plain.seconds + traced.seconds

    # each step runs its input twice, untraced and traced
    closed_loop(workload.runs, 2 * args.seconds, step)
    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    k = len(traced)
    spans, counters = tracer.spans, tracer.counters

    def per_op(value: float) -> float:
        return value / k

    metrics = {f"{n}.s": per_op(spans[n].total_s) if n in spans else 0.0 for n in SPAN_SECONDS}
    metrics.update({f"{n}.calls": per_op(spans[n].calls) if n in spans else 0.0
                    for n in SPAN_CALLS})
    metrics.update({n: per_op(counters.get(n, 0.0)) for n in COUNTERS})
    drawn = counters.get("sphere.candidates_drawn", 0.0)
    metrics["sphere.net_accept_ratio"] = counters.get("sphere.net_size", 0.0) / drawn if drawn else 0.0
    metrics["sphere.covering_ratio"] = max(coverings, default=0.0)
    seesaw = spans["embedding_opt.seesaw_maximize"].calls if "embedding_opt.seesaw_maximize" in spans else 0
    metrics["embedding_opt.seesaw_maximize.converged"] = (
        counters.get("embedding_opt.seesaw_maximize.converged", 0.0) / seesaw if seesaw else 0.0
    )
    run_witness = spans.get("witness.run_witness")
    metrics["witness.run_witness.self_s"] = per_op(run_witness.self_s) if run_witness else 0.0
    metrics["witness.stat_err"] = _median([r.stat_err for r in traced])
    metrics["analytic_bounds.kg_not_above_1"] = _median([r.kg_not_above_1 for r in traced])
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = per_op(
            sum(s.self_s for name, s in spans.items() if name.startswith(layer + "."))
        )
    traced_wall = statistics.fmean(r.seconds for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unaccounted_s"] = traced_wall - per_op(sum(s.self_s for s in spans.values()))
    metrics["trace_overhead_s"] = statistics.median(
        t.seconds - p.seconds for p, t in zip(plain, traced)
    )
    return metrics


def main(args, root: Path) -> int:
    table = workloads(args.small)
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)} or all",
              file=sys.stderr)
        return 2
    workload = table[args.workload]
    out_dir = root / OUT_DIR
    scratch = out_dir / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)

    # lazy set-up in this process finishes before anything is timed
    exec(SETUP_SNIPPET.format(seed=derive(args.seed, "warmup"), warmup=workload.warmup),
         {"__name__": "warmup"})
    records: List[OpRecord] = []
    tracer = Tracer()
    if args.trace:
        metrics = traced_metrics(workload, args, records, scratch, tracer)
        units = PER_LAYER
    else:
        metrics = untraced_metrics(workload, args, root, records, scratch)
        units = END_TO_END
    failed = sum(1 for r in records if r.failures)
    metrics.setdefault("error_rate", failed / len(records))
    by_check = Counter(check for r in records for check in r.failures)
    known = Counter(check for r in records for check in r.known_defects)
    inputs = len({r.seed for r in records})
    run_manifest = manifest(args, root)

    detail = {
        "manifest": run_manifest,
        "metrics": metrics,
        "inputs_run": inputs,
        "inputs_planned": workload.runs,
        "failures_by_check": dict(sorted(by_check.items())),
        "known_defects_by_check": dict(sorted(known.items())),
        "operations": [asdict(r) for r in records],
        "spans": {name: asdict(s) for name, s in tracer.spans.items()},
        "counters": dict(tracer.counters),
        "absent": sorted(set(tracer.absent)),
    }
    detail_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=2, default=repr) + "\n", encoding="utf-8")

    for record in records:
        for check, message in record.failures.items():
            print(f"FAILED seed {record.seed} {check}: {message}")
        for check, message in record.known_defects.items():
            print(f"KNOWN DEFECT seed {record.seed} {check}: {message}")
    print(f"inputs {inputs} of {workload.runs} planned"
          + ("" if inputs == workload.runs else ", cut short by --seconds"))
    for check, count in sorted(by_check.items()):
        print(f"check {check} failed {count}/{len(records)}")
    for check, count in sorted(known.items()):
        print(f"known defect {check} {count}/{len(records)}, not counted as failed")
    if tracer.absent:
        print(f"absent from the program, not traced: {sorted(set(tracer.absent))}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units.get(name, 'ratio')}")
    print("manifest " + json.dumps(run_manifest, default=repr))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0
