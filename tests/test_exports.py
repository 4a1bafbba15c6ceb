"""Every name the package and its modules export resolves, and the exported
dataclasses that hold arrays compare and hash by identity."""

import importlib
import pkgutil

import numpy as np
import pytest

import dimwitness
from dimwitness import (
    KernelMatrix,
    SphereSampler,
    build_eps_net,
    clifford_generators,
    region_moments,
    seesaw_maximize,
    tsirelson_strategy,
    vectorize,
)

MODULES = ["dimwitness",
           *(f"dimwitness.{info.name}" for info in pkgutil.iter_modules(dimwitness.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def array_dataclasses():
    """One fresh instance of each frozen dataclass that holds arrays."""
    net = build_eps_net(2, 0.5, seed=0)
    strategy = tsirelson_strategy(3)
    a = np.array([1.0, 0.0, 0.0])
    result = seesaw_maximize(KernelMatrix(np.eye(2)), 2, restarts=1, seed=0)
    return [net, region_moments(net, 100 * net.size, SphereSampler(2, 1)),
            clifford_generators(3), strategy.alice, strategy, vectorize(strategy, a, a),
            KernelMatrix(np.eye(2)), result.assignment, result]


def test_array_dataclasses_compare_by_identity():
    ours, theirs = array_dataclasses(), array_dataclasses()
    assert [type(x).__name__ for x in ours] == [
        "EpsNet", "RegionMoments", "CliffordSet", "PauliMap", "QuantumStrategy",
        "RealizedVectors", "KernelMatrix", "VectorAssignment", "SeesawResult"]
    for x, y in zip(ours, theirs):
        assert x == x and not x != x
        assert (x == y) is (x is y)  # equal values, distinct objects: unequal
        assert len({x, y, x}) == (1 if x is y else 2)
