"""Clifford-generated observables reproducing inner-product correlations.

On the maximally entangled state of local dimension d = 2^floor(n/2), the
expectation <psi| A tensor B |psi> reduces to Tr(A B^T) / d.  With Alice's
observable sum_i a_i G_i built from anticommuting generators and Bob's from
their transposes, trace orthonormality Tr(G_i G_j) = d delta_ij makes the
correlation exactly a . b.  Bob's transpose is essential: without it any
antisymmetric generator (every Y factor) flips sign.  Since every generator
is Hermitian, G^T = conj(G), so Bob's observable for a real direction b is
the complex conjugate of Alice's observable for b.

The generators come from the Jordan-Wigner chain on floor(n/2) qubits
(X and Y at each site behind a Z string; odd n appends the full Z string),
chosen because every required identity can be checked factor by factor.

Both costs of a contraction are O(n d + d^2), not O(n d^2 + d^3).  Each
generator is a Pauli string with one nonzero per row (+-1, or +-i when it
holds a Y), so an observable is built by writing those n d entries into a
zeroed d x d array.  A Schmidt-diagonal state (no nonzero off-diagonal entry
in its d x d matrix, the maximally entangled state among them) turns both
products with the state into scalings of rows or columns; any other state
takes the two dense O(d^3) products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import DomainError, NumericalIntegrityError, ResourceError

__all__ = [
    "CliffordSet",
    "QuantumStrategy",
    "RealizedVectors",
    "clifford_generators",
    "tsirelson_strategy",
    "correlation",
    "max_correlation_deviation",
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


def _row_nonzeros(gens: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Positions and signs of the one nonzero in each row of every generator.

    Returns `slots`, shape (n, d): the index of the entry's real (X, Z
    strings) or imaginary (Y strings) part in the float view of a flat d x d
    complex array, and `signs`, shape (n, d), each +-1.  No two generators
    share a slot (X and Y at one site differ in real/imaginary part, sites
    differ in the flipped bit, and the Z string is the only diagonal one), so
    writing sum_i a_i G_i slot by slot equals the dense sum bit for bit.
    """
    d = gens[0].shape[0]
    rows = np.arange(d)
    slots, signs = [], []
    for g in gens:
        cols = np.argmax(g != 0, axis=1)
        vals = g[rows, cols]
        imaginary = vals.imag != 0
        slots.append(2 * (rows * d + cols) + imaginary)
        signs.append(np.where(imaginary, vals.imag, vals.real))
    return np.stack(slots), np.stack(signs)


def tsirelson_strategy(n: int) -> QuantumStrategy:
    """Strategy whose joint correlation equals a . b exactly.

    Alice measures sum_i a_i G_i, Bob sum_i b_i G_i^T, on sum_i |ii> / sqrt(d).
    The sum is written from each generator's one nonzero per row, O(n d).
    """
    cs = clifford_generators(n)
    slots, signs = _row_nonzeros(cs.generators)
    d = cs.d
    state = (np.eye(d, dtype=complex) / np.sqrt(d)).reshape(-1)

    # Bob's observable is the conjugate of Alice's: its imaginary parts negated
    conj_signs = np.where(slots % 2 == 1, -signs, signs)

    def observable(v: np.ndarray, row_signs: np.ndarray) -> np.ndarray:
        parts = np.zeros(2 * d * d)
        parts[slots] = _require_unit(v, n)[:, None] * row_signs
        return parts.view(complex).reshape(d, d)

    def alice_map(a: np.ndarray) -> np.ndarray:
        return observable(a, signs)

    def bob_map(b: np.ndarray) -> np.ndarray:
        return observable(b, conj_signs)

    return QuantumStrategy(d=d, state=state, alice_map=alice_map, bob_map=bob_map)


def _state_matrix(strategy: QuantumStrategy) -> np.ndarray:
    d = strategy.d
    psi = np.asarray(strategy.state, dtype=complex)
    if psi.shape != (d * d,):
        raise DomainError("state must live on the d^2-dimensional joint space")
    return psi.reshape(d, d)


def _schmidt_diagonal(psi: np.ndarray) -> Optional[np.ndarray]:
    """The diagonal of the state matrix if no off-diagonal entry is nonzero, else None.

    Dropping the first entry of the flattened d x d matrix and folding the
    rest into rows of d + 1 puts each diagonal entry at the end of a row, so
    the first d columns are exactly the off-diagonal entries.
    """
    d = psi.shape[0]
    if np.any(psi.reshape(-1)[1:].reshape(d - 1, d + 1)[:, :d]):
        return None
    return np.diagonal(psi)


def correlation(strategy: QuantumStrategy, a: np.ndarray, b: np.ndarray) -> float:
    """<psi| A_a tensor B_b |psi>, asserted real to 1e-12.

    Row-major identity (A tensor B) vec(Psi) = vec(A Psi B^T).  For a
    Schmidt-diagonal Psi = diag(s) this is sum_i conj(s_i) sum_k A_ik s_k B_ik,
    O(d^2); any other state takes the two dense products, O(d^3).
    """
    psi = _state_matrix(strategy)
    s = _schmidt_diagonal(psi)
    obs_a, obs_b = strategy.alice_map(a), strategy.bob_map(b)
    if s is not None:
        val = complex(np.vdot(s, (obs_a * obs_b) @ s))
    else:
        val = complex(np.vdot(psi, obs_a @ psi @ obs_b.T))
    if abs(val.imag) > 1e-12:
        raise NumericalIntegrityError(
            f"correlation has imaginary part {val.imag:.3e}"
        )
    return float(val.real)


def max_correlation_deviation(
    strategy: QuantumStrategy, a_rows: np.ndarray, b_rows: np.ndarray
) -> float:
    """max |correlation(strategy, a, b) - a.b| over the paired rows (0.0 for none)."""
    worst = 0.0
    for a, b in zip(a_rows, b_rows):
        worst = max(worst, abs(correlation(strategy, a, b) - float(a @ b)))
    return worst


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
    for any unit state, not only the maximally entangled one.  A
    Schmidt-diagonal Psi = diag(s) makes A Psi = A * s and Psi B^T = s * B^T
    scalings, O(d^2); any other state takes the dense products, O(d^3).
    """
    psi = _state_matrix(strategy)
    s = _schmidt_diagonal(psi)
    obs_a, obs_b = strategy.alice_map(a), strategy.bob_map(b)
    if s is not None:
        x = (obs_a * s).reshape(-1)
        y = (s[:, None] * obs_b.T).reshape(-1)
    else:
        x = (obs_a @ psi).reshape(-1)
        y = (psi @ obs_b.T).reshape(-1)
    alice = np.concatenate([x.real, x.imag])
    bob = np.concatenate([y.real, y.imag])
    return RealizedVectors(dim=2 * strategy.d**2, alice_vector=alice, bob_vector=bob)

