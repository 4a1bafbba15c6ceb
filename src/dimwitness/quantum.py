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

Each generator is a Pauli string with one nonzero per row (+-1, or +-i when
it holds a Y), so a party is a `PauliMap`: the column and phase of that
nonzero for every generator and row, and an n x n mixing matrix, so that
direction v measures sum_k (v @ mix)_k G_k.  Observables are therefore
linear in the direction, and a strategy computes, once, the n x n table
T_jk = <psi| G_j tensor H_k |psi> of its two parties' generators; every
correlation is then a^T T b, O(n^2).  On a Schmidt-diagonal state (no
nonzero off-diagonal entry in its d x d matrix, the maximally entangled
state among them) the table costs O(n^2 d) and a realification O(n d + d^2):
it scatters the n d nonzeros of A diag(s) and diag(s) B^T straight into its
two outputs of 2 d^2 entries.  Any other state takes dense products: O(n d^3)
for the table and O(d^3) per realification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError, NumericalIntegrityError, ResourceError

__all__ = [
    "CliffordSet",
    "PauliMap",
    "QuantumStrategy",
    "RealizedVectors",
    "clifford_generators",
    "tsirelson_strategy",
    "correlation",
    "max_correlation_deviation",
    "vectorize",
]

MAX_GENERATORS = 16  # d = 2^8 = 256: dense matrices stay desk-scale


def _jordan_wigner(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Column and phase of the one nonzero in each row of every generator.

    Qubit 0 is the most significant bit of a row index (the first Kronecker
    factor).  Generator 2t (X at qubit t) and 2t + 1 (Y at qubit t) flip bit
    t behind the Z string on qubits 0..t-1, whose phase is -1 to the number
    of set bits there; Y adds -i on a 0 bit and +i on a 1 bit.  The last
    generator of odd n is the full Z string, diagonal.  Both arrays are
    (n, d), d = 2^floor(n/2).
    """
    qubits = n // 2
    rows = np.arange(2**qubits)
    bits = (rows >> np.arange(qubits - 1, -1, -1)[:, None]) & 1  # (qubits, d)
    z_before = 1 - 2 * ((np.cumsum(bits, axis=0) - bits) % 2)
    columns: List[np.ndarray] = []
    phases: List[np.ndarray] = []
    for t in range(qubits):
        flipped = rows ^ (1 << (qubits - 1 - t))
        columns += [flipped, flipped]
        phases += [z_before[t] + 0j, z_before[t] * (2 * bits[t] - 1) * 1j]
    if n % 2 == 1:
        columns.append(rows)
        phases.append(1 - 2 * (bits.sum(axis=0) % 2) + 0j)
    return np.stack(columns), np.stack(phases)


def _check_size(n: int) -> None:
    if n < 1:
        raise DomainError("need n >= 1")
    if n > MAX_GENERATORS:
        raise ResourceError(f"clifford_generators limited to n <= {MAX_GENERATORS}")


@dataclass(frozen=True, eq=False)
class CliffordSet:
    """Hermitian, involutory, pairwise-anticommuting, trace-orthonormal generators."""

    n: int
    d: int
    generators: List[np.ndarray]


def clifford_generators(n: int) -> CliffordSet:
    """n anticommuting generators on C^d, d = 2^floor(n/2), via Jordan-Wigner."""
    _check_size(n)
    stack = PauliMap(*_jordan_wigner(n), np.eye(n)).generators()
    return CliffordSet(n=n, d=stack.shape[1], generators=list(stack))


def _require_unit_rows(rows: np.ndarray, n: int, tol: float = 1e-9) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise DomainError(f"expected rows of vectors in R^{n}")
    if not np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= tol):
        raise DomainError("measurement direction must be a unit vector")
    return rows


def _require_unit(vec: np.ndarray, n: int) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (n,):
        raise DomainError(f"expected a vector in R^{n}")
    return _require_unit_rows(vec[None], n)[0]


@dataclass(frozen=True, eq=False)
class PauliMap:
    """One party's observables, linear in the measurement direction.

    Generator k has one nonzero per row r: `phases[k, r]` (+-1 or +-i) at
    column `columns[k, r]`, both (n, d).  Direction v measures
    sum_k (v @ mix)_k G_k with `mix` real (n, n): the identity for the
    generators themselves, its negative for a flipped party, an orthogonal
    matrix for a rotated one.
    """

    columns: np.ndarray
    phases: np.ndarray
    mix: np.ndarray

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """The generator weights v @ mix of a unit direction v."""
        return _require_unit(v, self.mix.shape[0]) @ self.mix

    def dense(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] G_k as a dense d x d complex array."""
        d = self.columns.shape[1]
        flat = 2 * (np.arange(d) * d + self.columns)
        slots = np.stack([flat, flat + 1], axis=-1)
        parts = _scatter(slots, weights[:, None] * self.phases, 2 * d * d)
        return parts.view(complex).reshape(d, d)

    def observable(self, v: np.ndarray) -> np.ndarray:
        """The dense d x d observable sum_k (v @ mix)_k G_k of direction v."""
        return self.dense(self.coefficients(v))

    def generators(self) -> np.ndarray:
        """The dense (n, d, d) stack of G_k, without the mixing matrix."""
        return np.stack([self.dense(row) for row in np.eye(self.columns.shape[0])])


def _scatter(slots: np.ndarray, entries: np.ndarray, size: int) -> np.ndarray:
    """A float array of `size` summing complex `entries` into `slots`, shaped
    as `entries` plus a last axis of 2: the real part of each entry goes to
    slot 0, the imaginary part to slot 1."""
    weights = entries.view(float).reshape(-1)
    return np.bincount(slots.reshape(-1), weights=weights, minlength=size)


def _realified_slots(a: PauliMap, b: PauliMap) -> np.ndarray:
    """Slots of the nonzeros of A diag(s) and diag(s) B^T in one buffer.

    The buffer holds Alice's realified vector and then Bob's, 2 d^2 each.
    Entry (r, k) of a generator, k = columns[j, r], lands at r d + k in
    Alice's vector and, transposed, at k d + r in Bob's; its real part
    there, its imaginary part d^2 further on.  Shape (2, n, d, 2).
    """
    d = a.columns.shape[1]
    rows = np.arange(d)
    flat = np.stack([rows * d + a.columns, b.columns * d + rows + 2 * d * d])
    return np.stack([flat, flat + d * d], axis=-1)


@dataclass(frozen=True, eq=False)
class QuantumStrategy:
    """Shared state plus the two parties' Pauli maps.

    `state` is a unit vector on the d^2-dimensional joint space (row-major
    over the two d-dimensional factors).  `table` is computed on
    construction: T_jk = <psi| G_j tensor H_k |psi> over Alice's generators
    G and Bob's H, with both mixing matrices folded in, so that the
    correlation of directions a and b is a^T T b.
    """

    d: int
    state: np.ndarray
    alice: PauliMap
    bob: PauliMap
    table: np.ndarray = field(init=False, repr=False)
    # the slots and entries of A diag(s) and diag(s) B^T, stacked (2, n, d);
    # None when the state is not Schmidt-diagonal
    realified: Optional[tuple] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a, b = self.alice, self.bob
        n = a.mix.shape[0]
        for party in (a, b):
            if (party.columns.shape != (n, self.d) or party.phases.shape != (n, self.d)
                    or party.mix.shape != (n, n)):
                raise DomainError("each party needs n generators on C^d and an "
                                  "n x n mixing matrix")
        psi = _state_matrix(self)
        s = _schmidt_diagonal(psi)
        realified = None
        if s is None:
            table = _dense_table(psi, a.generators(), b.generators())
        else:
            # <psi| G tensor H |psi> = sum_i conj(s_i) sum_k G_ik s_k H_ik:
            # row i of G_j and H_l adds when both put their nonzero in column k
            alice_entries = a.phases * s[a.columns]
            same = a.columns[:, None, :] == b.columns[None, :, :]
            terms = (np.conj(s) * alice_entries)[:, None, :] * b.phases[None, :, :]
            table = np.where(same, terms, 0.0).sum(axis=2)
            entries = np.stack([alice_entries, b.phases * s[b.columns]])
            realified = (_realified_slots(a, b), entries)
        object.__setattr__(self, "table", a.mix @ table @ b.mix.T)
        object.__setattr__(self, "realified", realified)


def _dense_table(psi: np.ndarray, alice_gens: np.ndarray, bob_gens: np.ndarray) -> np.ndarray:
    """T_jl = sum_rc conj(Psi_rc) (G_j Psi H_l^T)_rc, by dense products."""
    left = psi.conj().T @ (alice_gens @ psi)  # (n, d, d): [j, c, k]
    n = len(left)
    return left.reshape(n, -1) @ bob_gens.reshape(n, -1).T


def tsirelson_strategy(n: int) -> QuantumStrategy:
    """Strategy whose joint correlation equals a . b exactly.

    Alice measures sum_i a_i G_i, Bob sum_i b_i G_i^T = sum_i b_i conj(G_i),
    on sum_i |ii> / sqrt(d).  The Pauli tables come from the Jordan-Wigner
    strings directly; no dense generator is formed.
    """
    _check_size(n)
    columns, phases = _jordan_wigner(n)
    d = columns.shape[1]
    state = (np.eye(d, dtype=complex) / np.sqrt(d)).reshape(-1)
    eye = np.eye(n)
    return QuantumStrategy(d=d, state=state, alice=PauliMap(columns, phases, eye),
                           bob=PauliMap(columns, phases.conj(), eye))


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


def _correlations(strategy: QuantumStrategy, a_rows: np.ndarray,
                  b_rows: np.ndarray) -> np.ndarray:
    """a^T T b for each pair of rows, each asserted real to 1e-12.

    Every row is reduced on its own, over the n^2 terms a_j T_jk b_k, so a
    row's value does not depend on the other rows in the batch.
    """
    terms = a_rows[:, :, None] * strategy.table * b_rows[:, None, :]
    vals = terms.reshape(len(terms), -1).sum(axis=1)
    if np.abs(vals.imag).max() > 1e-12:
        raise NumericalIntegrityError(
            f"correlation has imaginary part {vals.imag[np.abs(vals.imag).argmax()]:.3e}"
        )
    return vals.real


def correlation(strategy: QuantumStrategy, a: np.ndarray, b: np.ndarray) -> float:
    """<psi| A_a tensor B_b |psi> = a^T T b, O(n^2), asserted real to 1e-12."""
    n = strategy.table.shape[0]
    rows = _correlations(strategy, _require_unit(a, n)[None], _require_unit(b, n)[None])
    return float(rows[0])


def max_correlation_deviation(
    strategy: QuantumStrategy, a_rows: np.ndarray, b_rows: np.ndarray
) -> float:
    """max |correlation(strategy, a, b) - a.b| over the paired rows (0.0 for none).

    One contraction over all rows; each row's correlation equals what
    `correlation` returns for that pair, and a.b is the row sum of a * b.
    """
    n = strategy.table.shape[0]
    a_rows, b_rows = _require_unit_rows(a_rows, n), _require_unit_rows(b_rows, n)
    if a_rows.shape != b_rows.shape:
        raise DomainError("a_rows and b_rows must pair up")
    if not len(a_rows):
        return 0.0
    dots = (a_rows * b_rows).sum(axis=1)
    return float(np.abs(_correlations(strategy, a_rows, b_rows) - dots).max())


@dataclass(frozen=True, eq=False)
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
    scalings, whose n d nonzeros go straight into the two outputs, O(n d)
    plus O(d^2) for zeroing them; any other state takes the dense products,
    O(d^3).
    """
    d = strategy.d
    coef_a, coef_b = strategy.alice.coefficients(a), strategy.bob.coefficients(b)
    if strategy.realified is not None:
        # one buffer for both outputs: a second 1 MB array at d = 256 would
        # take glibc's heap past its trim threshold and fault on every call
        slots, entries = strategy.realified
        weights = np.stack([coef_a, coef_b])[:, :, None] * entries
        alice, bob = _scatter(slots, weights, 4 * d * d).reshape(2, -1)
    else:
        psi = _state_matrix(strategy)
        x = (strategy.alice.dense(coef_a) @ psi).reshape(-1)
        y = (psi @ strategy.bob.dense(coef_b).T).reshape(-1)
        alice = np.concatenate([x.real, x.imag])
        bob = np.concatenate([y.real, y.imag])
    return RealizedVectors(dim=2 * d * d, alice_vector=alice, bob_vector=bob)
