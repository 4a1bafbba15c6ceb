"""Command-line front end.

Every command is deterministic given its full flag set (all randomness flows
from --seed through named substreams), emits machine-readable JSON on request,
and embeds a run manifest in each output document.  Exit codes: 0 success,
2 usage, domain or file error, 3 resource limit, 4 theory-violation tripwire.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import __version__
from .analytic_bounds import (
    gamma_ratio_series,
    kg_lower_bound,
    log1p_bounds,
    log_gamma,
    monotonicity_check,
    robbins_bounds,
)
from .embedding_opt import SEESAW_RESTARTS, load_kernel_csv, seesaw_maximize
from .errors import DomainError, NumericalIntegrityError, ResourceError
from .quantum import MAX_GENERATORS, max_correlation_deviation, tsirelson_strategy
from .seeding import derive_seed, make_rng
from .sphere import SphereSampler, build_eps_net, save_net
from .witness import VERDICT_VIOLATION, WitnessConfig, run_witness

# net sizes above this need --deep, which lifts the cap to the library default
_SHALLOW_NET_POINTS = 50_000


@dataclass
class RunManifest:
    command: str
    argv: List[str]
    seed: int
    version: str = __version__

    def finish(self, started: float) -> dict:
        return {
            "command": self.command,
            "argv": list(self.argv),
            "seed": self.seed,
            "version": self.version,
            # timestamp fields: excluded from determinism comparisons
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "duration_s": time.monotonic() - started,
        }


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_bound(args, manifest: RunManifest, started: float) -> int:
    if args.out and not args.json:
        raise DomainError("--out requires --json")
    report = kg_lower_bound(args.n, args.m)
    if args.json:
        doc = {"schema": 1, "kind": "lower_bound_report", **report.to_dict()}
        doc["manifest"] = manifest.finish(started)
        _emit(doc, args.out)
    else:
        print(f"K(n={report.n} -> m={report.m}) >= {report.bound!r}")
        print(f"  log bound          {report.log_bound!r}")
        print(f"  asymptotic estim.  {report.asymptotic_estimate!r}")
    return 0


def _cmd_net(args, manifest: RunManifest, started: float) -> int:
    net = build_eps_net(args.dim, args.eps, seed=args.seed)
    prefix = args.out or f"net_d{args.dim}_e{args.eps:g}_s{args.seed}"
    csv_path = prefix + ".csv"
    save_net(net, csv_path, extra_header={"manifest": manifest.finish(started)})
    print(f"wrote {net.size} points to {csv_path} (header {prefix}.json)")
    return 0


def _cmd_seesaw(args, manifest: RunManifest, started: float) -> int:
    kernel = load_kernel_csv(args.matrix)
    result = seesaw_maximize(
        kernel, args.m, restarts=args.restarts, seed=args.seed
    )
    doc = result.to_dict(include_trace=args.trace)
    doc["manifest"] = manifest.finish(started)
    _emit(doc, args.out)
    return 0


def _cmd_tsirelson(args, manifest: RunManifest, started: float) -> int:
    if args.n > MAX_GENERATORS:
        raise DomainError(f"n must satisfy n ≤ {MAX_GENERATORS}")
    if args.pairs < 1:
        raise DomainError("--pairs must be >= 1")
    strategy = tsirelson_strategy(args.n)
    sampler = SphereSampler(args.n, derive_seed(args.seed, "tsirelson-pairs"))
    points = sampler.sample(2 * args.pairs)
    worst = max_correlation_deviation(strategy, points[0::2], points[1::2])
    doc = {
        "schema": 1,
        "kind": "tsirelson_report",
        "n": args.n,
        "local_dim": strategy.d,
        "pairs": args.pairs,
        "max_deviation": worst,
        "manifest": manifest.finish(started),
    }
    _emit(doc, args.out)
    return 0


def _cmd_witness(args, manifest: RunManifest, started: float) -> int:
    cap = WitnessConfig.max_net_points if args.deep else _SHALLOW_NET_POINTS
    config = WitnessConfig(
        n=args.n,
        d=args.d,
        eps=args.eps,
        seed=args.seed,
        max_net_points=cap,
        allow_small_n=args.allow_small_n,
        moment_samples_per_region=args.moment_samples,
    )
    report = run_witness(config)
    doc = report.to_dict()
    doc["manifest"] = manifest.finish(started)
    _emit(doc, args.out)
    if report.verdict == VERDICT_VIOLATION:
        print("theory violation: an exact inequality failed beyond statistical "
              "slack", file=sys.stderr)
        return 4
    return 0


def _cmd_appendix_check(args, manifest: RunManifest, started: float) -> int:
    if args.out and not args.json:
        raise DomainError("--out requires --json")
    checks = []

    ok, first_bad = monotonicity_check(args.nmax)
    checks.append(
        ("f strictly increasing", ok,
         f"n up to {args.nmax}" + ("" if ok else f", first violation at {first_bad}"))
    )

    rng = make_rng(derive_seed(args.seed, "robbins"), 0)
    xs = rng.uniform(2.0, 1e4, size=200)
    worst = None
    robbins_ok = True
    for x in xs:
        try:
            lo, hi = robbins_bounds(float(x))  # certifies the strict bracket
        except NumericalIntegrityError:
            robbins_ok = False
            worst = float(x)
            break
        val = log_gamma(float(x) + 1.0)
        slack = 16 * np.finfo(float).eps * max(1.0, abs(val))
        if not (lo - slack <= val <= hi + slack):
            robbins_ok = False
            worst = float(x)
            break
    checks.append(
        ("factorial bracket", robbins_ok,
         "200 random x in [2, 1e4]" + ("" if robbins_ok else f", failed at x={worst}"))
    )

    rng = make_rng(derive_seed(args.seed, "log1p"), 0)
    ns = np.unique(
        np.exp(rng.uniform(0.0, np.log(1e6), size=200)).astype(np.int64)
    )
    ns = ns[ns >= 1]
    log1p_ok = True
    detail = f"{ns.size} log-uniform n in [1, 1e6]"
    try:
        for n in ns:
            log1p_bounds(int(n))
    except NumericalIntegrityError as exc:
        log1p_ok = False
        detail = str(exc)
    checks.append(("log(1+1/n) bracket", log1p_ok, detail))

    series_ok = True
    details = []
    for k in (10.0, 100.0, 1000.0):
        approx = gamma_ratio_series(k, 3)
        exact = float(np.exp(log_gamma(k + 0.5) - log_gamma(k)))
        err = abs(approx - exact)
        # the first omitted series term is (5/1024) sqrt(k) / k^3
        tol = 6e-3 * np.sqrt(k) / k**3
        if err > tol:
            series_ok = False
        details.append(f"k={k:g}: err={err:.3e}")
    checks.append(("half-integer ratio series", series_ok, "; ".join(details)))

    all_passed = all(passed for _, passed, _ in checks)
    if args.json:
        doc = {
            "schema": 1,
            "kind": "appendix_report",
            "checks": [
                {"name": name, "passed": passed, "detail": detail}
                for name, passed, detail in checks
            ],
            "all_passed": all_passed,
            "manifest": manifest.finish(started),
        }
        _emit(doc, args.out)
    else:
        width = max(len(name) for name, _, _ in checks)
        for name, passed, detail in checks:
            print(f"{name.ljust(width)}  {'PASS' if passed else 'FAIL'}  {detail}")
    return 0 if all_passed else 4


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimwitness",
        description="Dimension-reduction ratio bounds, sphere nets, see-saw "
        "optimization and entanglement-dimension witnesses.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", type=str, default=None, help="output path")

    p = sub.add_parser("bound", help="evaluate the analytic ratio lower bound")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("net", help="build and save a sphere eps-net")
    p.add_argument("dim", type=int)
    p.add_argument("eps", type=float)
    common(p)
    p.set_defaults(handler=_cmd_net)

    p = sub.add_parser("seesaw", help="maximize a CSV kernel over R^m unit vectors")
    p.add_argument("matrix", type=str, help="CSV matrix file")
    p.add_argument("m", type=int)
    p.add_argument("--restarts", type=int, default=SEESAW_RESTARTS)
    p.add_argument("--trace", action="store_true", help="include the value trace")
    common(p)
    p.set_defaults(handler=_cmd_seesaw)

    p = sub.add_parser("tsirelson", help="check inner-product correlation exactness")
    p.add_argument("n", type=int)
    p.add_argument("--pairs", type=int, default=1000)
    common(p)
    p.set_defaults(handler=_cmd_tsirelson)

    p = sub.add_parser("witness", help="run the dimension-witness pipeline")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("eps", type=float)
    p.add_argument("--deep", action="store_true",
                   help=f"allow nets up to {WitnessConfig.max_net_points} points, "
                   f"not {_SHALLOW_NET_POINTS} (certified-regime runs: at n=3 "
                   "the geodesic net for the analytic threshold eps* ~6.5e-3 "
                   "has k=119, 141612 points; for eps 0.006 k=128, 163842 "
                   "points)")
    p.add_argument("--allow-small-n", action="store_true",
                   help="permit n <= 2 d^2 (no separation possible)")
    p.add_argument("--moment-samples", type=int,
                   default=WitnessConfig.moment_samples_per_region,
                   help="Monte Carlo moment samples per net region; acts "
                   "only on greedy nets (n != 3), since the n=3 geodesic net "
                   "has exact moments")
    common(p)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("appendix-check",
                       help="verify the supporting brackets and series")
    p.add_argument("--nmax", type=int, default=10_000)
    p.add_argument("--json", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_appendix_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    manifest = RunManifest(
        command=args.command,
        argv=argv,
        seed=getattr(args, "seed", 0),
    )
    started = time.monotonic()
    try:
        return args.handler(args, manifest, started)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
