"""Spans and counters around the public functions of dimwitness.

The tracer never edits the program. It replaces module attributes: a
function exported by its home module (listed in that module's ``__all__``,
or public in a module without one) is wrapped, and every ``dimwitness``
module that bound the same function object under the same name gets the
wrapper, so calls made through ``from .sphere import build_eps_net`` are
seen as well. A name that is not
exported, or no longer exists, is recorded in ``absent`` instead of raising,
so the benchmark keeps working when later changes move or drop functions.

Spans nest: a span's self time is its duration minus the time of the spans
it caused. All records stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Optional[Callable[["Tracer", tuple, Any], None]]


def _net_built(tracer: "Tracer", args: tuple, net: Any) -> None:
    tracer.count("sphere.net_size", net.size)
    tracer.nets.append(net)


def _probes(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("sphere.assign_regions.probes", len(result))


def _moments(tracer: "Tracer", args: tuple, moments: Any) -> None:
    tracer.count("sphere.empty_regions", len(moments.empty_regions))


def _seesaw(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("embedding_opt.seesaw_maximize.iterations", result.iterations)
    tracer.count("embedding_opt.seesaw_maximize.converged", int(result.converged))


# (home module, function, hook run on (tracer, args, result) after each call)
FUNCTIONS: List[Tuple[str, str, Hook]] = [
    ("analytic_bounds", "log_gamma", None),
    ("analytic_bounds", "kg_lower_bound", None),
    ("analytic_bounds", "monotonicity_check", None),
    ("analytic_bounds", "robbins_bounds", None),
    ("analytic_bounds", "log1p_bounds", None),
    ("analytic_bounds", "gamma_ratio_series", None),
    ("sphere", "build_eps_net", _net_built),
    ("sphere", "region_moments", _moments),
    ("sphere", "assign_regions", _probes),
    ("embedding_opt", "seesaw_maximize", _seesaw),
    ("embedding_opt", "moment_value_std_error", None),
    ("embedding_opt", "aligned_full_dim_value", None),
    ("quantum", "tsirelson_strategy", None),
    ("quantum", "correlation", None),
    ("quantum", "vectorize", None),
    ("witness", "bell_value_finite", None),
    ("witness", "eps_threshold", None),
    ("witness", "run_witness", None),
    ("cli", "main", None),
]

PACKAGE = "dimwitness"

# rows drawn from SphereSampler.sample are counted while this span is open
_NET_SPAN = "sphere.build_eps_net"


@dataclass
class SpanStats:
    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


@dataclass
class _Open:
    name: str
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: Dict[str, SpanStats] = field(default_factory=lambda: defaultdict(SpanStats))
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    absent: List[str] = field(default_factory=list)
    nets: List[Any] = field(default_factory=list)
    _stack: List[_Open] = field(default_factory=list)
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)

    # ---------------------------------------------------------------- records

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def open(self, name: str) -> None:
        self._stack.append(_Open(name, time.perf_counter()))

    def close(self) -> None:
        top = self._stack.pop()
        duration = time.perf_counter() - top.start
        stats = self.spans[top.name]
        stats.total_s += duration
        stats.self_s += duration - top.child_s
        stats.calls += 1
        if self._stack:
            self._stack[-1].child_s += duration

    def in_span(self, name: str) -> bool:
        return any(s.name == name for s in self._stack)

    # --------------------------------------------------------------- patching

    def _wrap(self, span: str, fn: Callable, hook: Hook) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if hook is not None:
                try:
                    hook(self, args, result)
                except Exception:  # a changed result type must not fail the program
                    self.absent.append(f"{span} counters")
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every exported function of FUNCTIONS that exists."""
        self.absent.clear()
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for home, attr, hook in FUNCTIONS:
            span = f"{home}.{attr}"
            mod = modules.get(f"{PACKAGE}.{home}")
            original = getattr(mod, attr, None) if mod is not None else None
            exported = attr in getattr(mod, "__all__", [attr])
            if original is None or not callable(original) or not exported:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original, hook)
            for other in modules.values():
                if getattr(other, attr, None) is original:
                    self._set(other, attr, wrapper)
        self._wrap_sampler(modules.get(f"{PACKAGE}.sphere"))

    def _wrap_sampler(self, sphere: Any) -> None:
        sampler = getattr(sphere, "SphereSampler", None)
        original = getattr(sampler, "sample", None)
        if original is None:
            self.absent.append("sphere.SphereSampler.sample")
            return
        tracer = self

        @functools.wraps(original)
        def sample(sampler_self, count, *args, **kwargs):
            rows = original(sampler_self, count, *args, **kwargs)
            if tracer.in_span(_NET_SPAN):
                tracer.count("sphere.candidates_drawn", len(rows))
            return rows

        self._set(sampler, "sample", sample)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
