"""Clifford-generated observables reproducing inner-product correlations.

On the maximally entangled state of local dimension d = 2^floor(n/2), the
expectation <psi| A tensor B |psi> reduces to Tr(A B^T) / d.  With Alice's
observable sum_i a_i G_i built from anticommuting generators and Bob's from
their transposes, trace orthonormality Tr(G_i G_j) = d delta_ij makes the
correlation exactly a . b.  Bob's transpose is essential: without it any
antisymmetric generator (every Y factor) flips sign.

The generators come from the Jordan-Wigner chain on floor(n/2) qubits
(X and Y at each site behind a Z string; odd n appends the full Z string),
chosen because every required identity can be checked factor by factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .errors import DomainError, NumericalIntegrityError, ResourceError

__all__ = [
    "CliffordSet",
    "QuantumStrategy",
    "RealizedVectors",
    "clifford_generators",
    "tsirelson_strategy",
    "correlation",
    "vectorize",
]

MAX_GENERATORS = 16  # d = 2^8 = 256: dense matrices stay desk-scale

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _kron_chain(factors: List[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for fac in factors[1:]:
        out = np.kron(out, fac)
    return out


@dataclass(frozen=True)
class CliffordSet:
    """Hermitian, involutory, pairwise-anticommuting, trace-orthonormal generators."""

    n: int
    d: int
    generators: List[np.ndarray]


def clifford_generators(n: int) -> CliffordSet:
    """n anticommuting generators on C^d, d = 2^floor(n/2), via Jordan-Wigner."""
    if n < 1:
        raise DomainError("need n >= 1")
    if n > MAX_GENERATORS:
        raise ResourceError(f"clifford_generators limited to n <= {MAX_GENERATORS}")
    qubits = n // 2
    if qubits == 0:
        # n = 1: the one-dimensional algebra, single generator [[1]]
        return CliffordSet(n=1, d=1, generators=[np.ones((1, 1), dtype=complex)])
    gens: List[np.ndarray] = []
    for k in range(qubits):
        for local in (_X, _Y):
            factors = [_Z] * k + [local] + [_I2] * (qubits - k - 1)
            gens.append(_kron_chain(factors))
    if n % 2 == 1:
        gens.append(_kron_chain([_Z] * qubits))
    return CliffordSet(n=n, d=2**qubits, generators=gens[:n])


@dataclass(frozen=True)
class QuantumStrategy:
    """Shared state plus observable maps for the two parties.

    `state` is a unit vector on the d^2-dimensional joint space (row-major
    over the two d-dimensional factors); the maps take unit vectors in R^n to
    Hermitian observables with +-1 eigenvalues on C^d.
    """

    d: int
    state: np.ndarray
    alice_map: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    bob_map: Callable[[np.ndarray], np.ndarray] = field(compare=False)


def _require_unit(vec: np.ndarray, n: int, tol: float = 1e-9) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (n,):
        raise DomainError(f"expected a vector in R^{n}")
    if abs(np.linalg.norm(vec) - 1.0) > tol:
        raise DomainError("measurement direction must be a unit vector")
    return vec


def tsirelson_strategy(n: int) -> QuantumStrategy:
    """Strategy whose joint correlation equals a . b exactly.

    Alice measures sum_i a_i G_i, Bob sum_i b_i G_i^T, on sum_i |ii> / sqrt(d).
    """
    cs = clifford_generators(n)
    gens = np.stack(cs.generators)
    gens_t = np.stack([g.T for g in cs.generators])
    d = cs.d
    state = (np.eye(d, dtype=complex) / np.sqrt(d)).reshape(-1)

    def alice_map(a: np.ndarray) -> np.ndarray:
        a = _require_unit(a, n)
        return np.tensordot(a, gens, axes=(0, 0))

    def bob_map(b: np.ndarray) -> np.ndarray:
        b = _require_unit(b, n)
        return np.tensordot(b, gens_t, axes=(0, 0))

    return QuantumStrategy(d=d, state=state, alice_map=alice_map, bob_map=bob_map)


def _state_matrix(strategy: QuantumStrategy) -> np.ndarray:
    d = strategy.d
    psi = np.asarray(strategy.state, dtype=complex)
    if psi.shape != (d * d,):
        raise DomainError("state must live on the d^2-dimensional joint space")
    return psi.reshape(d, d)


def correlation(strategy: QuantumStrategy, a: np.ndarray, b: np.ndarray) -> float:
    """<psi| A_a tensor B_b |psi>, asserted real to 1e-12.

    Row-major identity (A tensor B) vec(Psi) = vec(A Psi B^T) keeps the
    contraction at O(d^3).
    """
    psi = _state_matrix(strategy)
    val = complex(np.vdot(psi, strategy.alice_map(a) @ psi @ strategy.bob_map(b).T))
    if abs(val.imag) > 1e-12:
        raise NumericalIntegrityError(
            f"correlation has imaginary part {val.imag:.3e}"
        )
    return float(val.real)


@dataclass(frozen=True)
class RealizedVectors:
    """Real unit vectors whose inner product reproduces the joint correlation."""

    dim: int  # 2 d^2
    alice_vector: np.ndarray
    bob_vector: np.ndarray


def vectorize(strategy: QuantumStrategy, a: np.ndarray, b: np.ndarray) -> RealizedVectors:
    """Real 2d^2-dimensional unit vectors with A(a) . B(b) = correlation.

    A(a) realifies (A_a tensor I)|psi> as [Re; Im], independent of Bob, and
    B(b) realifies (I tensor B_b)|psi>; the real inner product is then
    Re <(A tensor I) psi, (I tensor B) psi> = <psi| A tensor B |psi>.  Both
    are unit vectors because the observables square to the identity.  Works
    for any unit state, not only the maximally entangled one.
    """
    psi = _state_matrix(strategy)
    x = (strategy.alice_map(a) @ psi).reshape(-1)
    y = (psi @ strategy.bob_map(b).T).reshape(-1)
    alice = np.concatenate([x.real, x.imag])
    bob = np.concatenate([y.real, y.imag])
    return RealizedVectors(dim=2 * strategy.d**2, alice_vector=alice, bob_vector=bob)

