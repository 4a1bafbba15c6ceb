import dataclasses

import numpy as np
import pytest

from dimwitness import quantum, sphere
from dimwitness.sphere import SphereSampler


@pytest.fixture(autouse=True)
def _no_kept_results():
    """Each test starts with no kept results: greedy base nets, n = 3
    geodesic bases and reports, and the Tsirelson deviations.  A
    result kept under one test's monkeypatched constants would otherwise be
    served to the next."""
    sphere._BASE_NETS.clear()
    quantum._table_deviation.cache_clear()


@pytest.fixture
def turned():
    """turned(net, seed): a net on S^2 with its points turned by the rotation
    of the uniform unit quaternion drawn from SphereSampler(4, seed), a
    Haar-random rotation of R^3; its triangles and radius stay.  Geodesic
    nets were once turned so, one rotation per seed."""

    def turn(net, seed):
        w, x, y, z = SphereSampler(4, seed).sample(1)[0]
        rotation = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        return dataclasses.replace(net, points=net.points @ rotation.T)

    return turn


@pytest.fixture
def bent_strategy():
    """tsirelson_strategy with one diagonal entry of the Z string negated,
    as in test_flipping_one_pauli_sign_fails: at n = 5, T_44 drops to 1/2."""
    original = quantum.tsirelson_strategy

    def bent(n):
        base = original(n)
        phases = base.alice.phases.copy()
        phases[4, 0] = -phases[4, 0]
        alice = dataclasses.replace(base.alice, phases=phases)
        return quantum.QuantumStrategy(d=base.d, state=base.state, alice=alice,
                                       bob=base.bob)

    assert bent(5).table[4, 4] == pytest.approx(0.5, abs=1e-15)
    return bent
