"""The benchmark's workloads, their inputs and the checks on their outputs.

Each workload is one kind of operation, run back to back by one caller.
An operation takes a seed, makes its inputs only from that seed, and calls
dimwitness through module attributes looked up at call time, so the
tracer's wrappers are seen. Its checks run afterwards, untimed and
untraced, and turn the raw result into an ``Outcome``: every check that
fails adds its name and a message to ``Outcome.failures``, so failures can
be counted check by check.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import dimwitness
import dimwitness.cli

CHSH = [[1.0, 1.0], [1.0, -1.0]]
SLACK_SIGMAS = 4.0
VIOLATION = "violation_of_theory"


def derive(seed: int, label: str) -> int:
    """A 31-bit seed for one input, fixed by the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class Outcome:
    """What one operation returned, reduced to what the benchmark reports."""

    report: Any = None  # compared field for field between traced and untraced runs
    adversary_value: float = math.nan
    stat_err: float = 0.0
    kg_not_above_1: int = 0  # sweep points where the computed K(n, m) is not > 1
    failures: Dict[str, str] = field(default_factory=dict)  # check name -> message
    # checks that fail only where the program's precision cannot decide them;
    # reported, but the operation does not count as failed
    known_defects: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    # one timed operation: (seed, scratch directory) -> raw result
    op: Callable[[int, Path], Any]
    # the untimed, untraced checks: raw result -> Outcome
    check: Callable[[Any], Outcome]
    # source run in a fresh process after ``import dimwitness``; SEED is bound
    warmup: str
    # inputs per run: fixed, so every commit is timed on the same inputs
    runs: int


# ----------------------------------------------------------------------
# witness workloads
# ----------------------------------------------------------------------

# the first stage of every witness run, on a small net
WITNESS_WARMUP = "dimwitness.build_eps_net(3, 0.5, seed=SEED)"
CLI_WARMUP = "import dimwitness.cli; " + WITNESS_WARMUP


def check_witness(doc: dict, out: Optional[Outcome] = None) -> Outcome:
    """Fill an Outcome from a witness report and check its verdict and cap."""
    out = Outcome() if out is None else out
    cfg = doc["config"]
    n, m = int(cfg["n"]), int(cfg["m"])
    out.report = doc
    out.adversary_value = float(doc["b_finite_seesaw_d"])
    se = float(doc["b_finite_seesaw_se"])
    out.stat_err = math.hypot(float(doc["b_finite_quantum_se"]), se)
    if doc["verdict"] == VIOLATION:
        out.failures["verdict"] = "verdict is violation_of_theory"
    broken = [c["name"] for c in doc["chain_checks"] if not c["holds"]]
    if broken:
        out.failures["chain_checks"] = f"chain checks failed: {broken}"
    cap = 1.0 / (n * dimwitness.kg_lower_bound(n, m).bound) + SLACK_SIGMAS * se
    if not out.adversary_value <= cap:
        out.failures["adversary_cap"] = (
            f"adversary value {out.adversary_value!r} above 1/(nK) + 4se = {cap!r}"
        )
    return out


def witness_op(n: int, eps: float) -> Callable[[int, Path], Any]:
    def op(seed: int, scratch: Path) -> Any:
        return dimwitness.run_witness(dimwitness.WitnessConfig(n, 1, eps, seed=seed))

    return op


def check_report(report: Any) -> Outcome:
    return check_witness(report.to_dict())


def cli_witness_op(n: int, eps: float) -> Callable[[int, Path], Any]:
    """The witness command through the CLI; it writes its JSON report."""

    def op(seed: int, scratch: Path) -> Any:
        path = scratch / f"witness-{seed}.json"
        argv = ["witness", str(n), "1", str(eps), "--seed", str(seed), "--out", str(path)]
        return dimwitness.cli.main(argv), path

    return op


def check_cli(result: Any) -> Outcome:
    """Exit code, schema and witness checks on the report the CLI wrote."""
    import jsonschema
    from dimwitness.schemas import WITNESS_REPORT_SCHEMA

    code, path = result
    out = Outcome()
    if code != 0:
        out.failures["cli_exit_code"] = f"cli exit code {code}"
    doc = json.loads(path.read_text(encoding="utf-8"))
    try:
        jsonschema.validate(doc, WITNESS_REPORT_SCHEMA)
    except jsonschema.ValidationError as exc:
        out.failures["schema"] = f"report does not validate: {exc.message}"
    check_witness(doc, out)
    manifest = dict(doc.get("manifest", {}))
    manifest.pop("timestamp", None)
    manifest.pop("duration_s", None)
    out.report = {**doc, "manifest": manifest}
    return out


# ----------------------------------------------------------------------
# theory workload: analytic_bounds and quantum, which every witness run
# touches only briefly
# ----------------------------------------------------------------------

THEORY_WARMUP = "dimwitness.kg_lower_bound(3, 2); dimwitness.tsirelson_strategy(3)"


@dataclass(frozen=True)
class TheorySize:
    kg_points: int = 300  # values of n on a log grid up to 1e6
    mono_n: int = 10**5
    bracket_points: int = 200
    log_gamma_points: int = 10**6
    pairs: int = 200
    strategy_ns: tuple = (3, 8, 12, 16)


def _kg_grid(points: int) -> List[tuple]:
    ns = np.unique(np.round(np.logspace(np.log10(2), 6, points)).astype(int))
    grid = []
    for n in ns.tolist():
        for m in sorted({1, 2, 3, 8, n // 2, n - 1}):
            if 1 <= m < n:
                grid.append((n, m))
    return grid


def theory_op(size: TheorySize) -> Callable[[int, Path], Any]:
    def op(seed: int, scratch: Path) -> dict:
        ab = dimwitness.analytic_bounds
        qu = dimwitness.quantum
        rng = np.random.default_rng(seed)

        grid = _kg_grid(size.kg_points)
        bounds = [ab.kg_lower_bound(n, m).bound for n, m in grid]
        anchors = [ab.kg_lower_bound(n, m).bound for n, m in ((2, 1), (3, 2), (10**6, 1))]
        thresholds = [
            dimwitness.witness.eps_threshold(n, d)
            for d in (1, 2, 3, 4)
            for n in (2 * d * d + 1, 4 * d * d, 10**6)
        ]
        monotone = ab.monotonicity_check(size.mono_n)
        robbins = [ab.robbins_bounds(float(x))
                   for x in rng.uniform(2.0, 1e4, size.bracket_points)]
        ns = np.exp(rng.uniform(0.0, np.log(1e6), size.bracket_points)).astype(np.int64)
        log1p = [ab.log1p_bounds(int(n)) for n in ns]
        series = [ab.gamma_ratio_series(float(k), terms)
                  for k in np.logspace(0, 4, 50) for terms in (1, 2, 3)]
        lg = ab.log_gamma(rng.uniform(0.01, 1e6, size.log_gamma_points))

        corr_dev = norm_dev = 0.0
        for n in size.strategy_ns:
            strategy = qu.tsirelson_strategy(n)
            pairs = rng.standard_normal((size.pairs, 2, n))
            pairs /= np.linalg.norm(pairs, axis=2, keepdims=True)
            for a, b in pairs:
                corr_dev = max(corr_dev, abs(qu.correlation(strategy, a, b) - float(a @ b)))
            for a, b in pairs:
                rv = qu.vectorize(strategy, a, b)
                for vec in (rv.alice_vector, rv.bob_vector):
                    norm_dev = max(norm_dev, abs(float(np.linalg.norm(vec)) - 1.0))

        # the adversary side of theory: the see-saw over real unit vectors in
        # R^2 (m = 2 d^2 at d = 1) reaches Tsirelson's 2 sqrt 2 on CHSH
        chsh = dimwitness.seesaw_maximize(
            dimwitness.KernelMatrix(entries=np.array(CHSH)), 2, restarts=16,
            seed=derive(seed, "chsh"),
        )
        return {
            "kg_min": min(bounds),
            "kg_not_above_1": [(n, m, k) for (n, m), k in zip(grid, bounds) if not k > 1.0],
            "kg_sum": math.fsum(bounds),
            "anchors": anchors,
            "thresholds": thresholds,
            "monotone": list(monotone),
            "robbins_sum": math.fsum(lo + hi for lo, hi in robbins),
            "log1p_sum": math.fsum(lo + hi for lo, hi in log1p),
            "series_sum": math.fsum(series),
            "log_gamma_sum": math.fsum(lg.tolist()),
            "corr_dev": corr_dev,
            "norm_dev": norm_dev,
            "chsh": chsh.value,
        }

    return op


# (label, expected value, tolerance) of K(2,1), K(3,2) and K(1e6,1)
ANCHORS = (
    ("K(2,1)", math.pi**2 / 8, 1e-10),
    ("K(3,2)", 32 / (3 * math.pi**2), 1e-10),
    ("K(1e6,1)", math.pi / 2, 1e-3),
)


# K(n, m) - 1 is (n - m) / (2 n m) to leading order. The program computes K
# from differences of ln Gamma at arguments up to 5e5, whose absolute error
# reaches 3.2e-9 on the sweep grid (against mpmath), so below RESOLUTION the
# sign of the computed K - 1 is rounding. The same holds for the step
# f(k+1) / f(k) of the monotonicity check, whose log is ln K(k+1, k) / 2.
RESOLUTION = 1e-8


def _unresolved(n: int, m: int) -> bool:
    return (n - m) / (2.0 * n * m) < RESOLUTION


def check_theory(values: dict) -> Outcome:
    below = values["kg_not_above_1"]
    out = Outcome(report=values, adversary_value=values["chsh"], kg_not_above_1=len(below))
    fails = out.failures
    unresolved = [(n, m, k) for n, m, k in below
                  if _unresolved(n, m) and 1.0 - k < RESOLUTION]
    if len(unresolved) < len(below):
        worst = min(below, key=lambda p: p[2])
        fails["kg_above_1"] = (f"K(n, m) <= 1 at {len(below) - len(unresolved)} points "
                               f"where K - 1 >= {RESOLUTION}; lowest K{worst[:2]} = {worst[2]!r}")
    elif unresolved:
        out.known_defects["kg_above_1"] = (
            f"K(n, m) <= 1 at {len(unresolved)} points, all with n >= "
            f"{min(p[0] for p in unresolved)} and K - 1 < {RESOLUTION}; "
            f"lowest K = {min(p[2] for p in unresolved)!r}")
    for (label, want, tol), got in zip(ANCHORS, values["anchors"]):
        if not abs(got - want) <= tol:
            fails[f"anchor_{label}"] = f"{label} = {got!r}, expected {want!r} within {tol}"
    ok, first_bad = values["monotone"]
    if not ok:
        message = f"monotonicity fails at k = {first_bad}"
        if _unresolved(first_bad + 1, first_bad):
            out.known_defects["monotonicity"] = message + f", where K(k+1, k) - 1 < {RESOLUTION}"
        else:
            fails["monotonicity"] = message
    if not values["corr_dev"] <= 1e-10:
        fails["correlation_exact"] = f"max |correlation - a.b| = {values['corr_dev']!r} > 1e-10"
    if not values["norm_dev"] <= 1e-12:
        fails["unit_norm"] = f"realified vector norm off by {values['norm_dev']!r} > 1e-12"
    if not abs(values["chsh"] - 2.0 * math.sqrt(2.0)) <= 1e-7:
        fails["chsh_tsirelson"] = f"CHSH see-saw value {values['chsh']!r} is not 2 sqrt 2"
    return out


# ----------------------------------------------------------------------
# the workloads, at full and at self-test size
# ----------------------------------------------------------------------

def workloads(small: bool = False) -> Dict[str, Workload]:
    ci_eps, n5_eps = (0.5, 0.8) if small else (0.3, 0.7)
    theory = TheorySize(kg_points=20, mono_n=1000, bracket_points=10,
                        log_gamma_points=1000, pairs=5) if small else TheorySize()
    # run counts fill about 28 s of a 35 s run when the benchmark was defined:
    # one BLAS thread on a 2-core x86-64 VM, about 1.1, 1.75 and 7.3 s per input
    table = [
        Workload("witness-n3-ci", cli_witness_op(3, ci_eps), check_cli, CLI_WARMUP, runs=26),
        Workload("witness-n5", witness_op(5, n5_eps), check_report, WITNESS_WARMUP, runs=16),
        Workload("theory", theory_op(theory), check_theory, THEORY_WARMUP, runs=4),
    ]
    return {w.name: w for w in table}
