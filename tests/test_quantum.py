import copy
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from dimwitness import (
    DomainError,
    NumericalIntegrityError,
    QuantumStrategy,
    ResourceError,
    SphereSampler,
    clifford_generators,
    correlation,
    tsirelson_strategy,
    vectorize,
)
from dimwitness import quantum

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_correlation(strategy, a, b):
    """<psi| A tensor B |psi> through the two dense products, for any state."""
    psi = strategy.state.reshape(strategy.d, strategy.d)
    obs_a, obs_b = strategy.alice.observable(a), strategy.bob.observable(b)
    return complex(np.vdot(psi, obs_a @ psi @ obs_b.T))


def dense_vectorize(strategy, a, b):
    """The realified (A tensor I)|psi> and (I tensor B)|psi>, dense products."""
    psi = strategy.state.reshape(strategy.d, strategy.d)
    x = (strategy.alice.observable(a) @ psi).reshape(-1)
    y = (psi @ strategy.bob.observable(b).T).reshape(-1)
    return np.concatenate([x.real, x.imag]), np.concatenate([y.real, y.imag])


def schmidt_state(d, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return np.diag(coeffs / np.linalg.norm(coeffs))


def dense_state(d, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    return psi / np.linalg.norm(psi)


def variant(name, n, seed=0):
    """tsirelson_strategy(n) with one party or the state changed."""
    base = tsirelson_strategy(n)
    alice, bob, state = base.alice, base.bob, base.state
    if name == "flipped":  # Bob's sign flipped
        bob = dataclasses.replace(bob, phases=-bob.phases)
    elif name == "naive":  # Bob without the transpose
        bob = alice
    elif name == "complex_schmidt":
        state = schmidt_state(base.d, seed).reshape(-1)
    elif name == "dense_state":
        state = dense_state(base.d, seed)
    return QuantumStrategy(d=base.d, state=state, alice=alice, bob=bob)


VARIANTS = ("flipped", "naive", "complex_schmidt", "dense_state")


def check_clifford_invariants(cs, tol=1e-12):
    d = cs.d
    eye = np.eye(d)
    for i, g in enumerate(cs.generators):
        assert np.abs(g - g.conj().T).max() <= tol  # Hermitian
        assert np.abs(g @ g - eye).max() <= tol  # involution
        for j, h in enumerate(cs.generators):
            if i < j:
                assert np.abs(g @ h + h @ g).max() <= tol  # anticommute
            expected = 1.0 if i == j else 0.0
            assert abs(np.trace(g @ h) / d - expected) <= tol


class TestCliffordGenerators:
    def test_pauli_pair(self):
        cs = clifford_generators(2)
        assert cs.d == 2
        assert np.array_equal(cs.generators[0], X)
        assert np.array_equal(cs.generators[1], Y)

    def test_pauli_triple(self):
        cs = clifford_generators(3)
        assert cs.d == 2
        assert np.array_equal(cs.generators[2], Z)
        check_clifford_invariants(cs)

    def test_one_generator(self):
        cs = clifford_generators(1)
        assert cs.d == 1
        assert np.array_equal(cs.generators[0], np.ones((1, 1)))

    def test_five_generators_full_relations(self):
        cs = clifford_generators(5)
        assert cs.d == 4
        assert len(cs.generators) == 5
        check_clifford_invariants(cs)

    def test_larger_sets(self):
        for n in (8, 11):
            cs = clifford_generators(n)
            assert cs.d == 2 ** (n // 2)
            check_clifford_invariants(cs)

    def test_resource_cap(self):
        with pytest.raises(ResourceError):
            clifford_generators(17)
        with pytest.raises(ResourceError):
            tsirelson_strategy(17)

    def test_domain(self):
        with pytest.raises(DomainError):
            clifford_generators(0)
        with pytest.raises(DomainError):
            tsirelson_strategy(0)

    def test_refusals_name_n_and_its_range(self):
        for make in (clifford_generators, tsirelson_strategy):
            with pytest.raises(DomainError, match="^n must satisfy n ≥ 1$"):
                make(0)
            with pytest.raises(ResourceError, match="^n must satisfy n ≤ 16$"):
                make(17)

    def test_non_integral_n_is_refused(self):
        # a whole number given as a float is taken as that number
        for make in (clifford_generators, tsirelson_strategy):
            with pytest.raises(DomainError):
                make(2.5)
            assert make(3.0).d == make(3).d == 2


class TestTsirelsonStrategy:
    def test_same_direction(self):
        st = tsirelson_strategy(4)
        e1 = np.eye(4)[0]
        assert correlation(st, e1, e1) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_directions(self):
        st = tsirelson_strategy(4)
        e = np.eye(4)
        assert correlation(st, e[0], e[1]) == pytest.approx(0.0, abs=1e-12)

    def test_state_is_maximally_entangled(self):
        st = tsirelson_strategy(4)
        psi = st.state.reshape(st.d, st.d)
        assert np.abs(psi - np.eye(st.d) / np.sqrt(st.d)).max() <= 1e-15

    def test_exactness_many_pairs(self):
        st = tsirelson_strategy(8)
        sampler = SphereSampler(8, seed=50)
        worst = 0.0
        for _ in range(1000):
            pair = sampler.sample(2)
            dev = abs(correlation(st, pair[0], pair[1]) - float(pair[0] @ pair[1]))
            worst = max(worst, dev)
        assert worst <= 1e-10

    def test_observables_square_to_identity(self):
        st = tsirelson_strategy(5)
        a = SphereSampler(5, seed=51).sample(1)[0]
        for obs in (st.alice.observable(a), st.bob.observable(a)):
            assert np.abs(obs @ obs - np.eye(st.d)).max() <= 1e-12
            assert np.abs(obs - obs.conj().T).max() <= 1e-12

    def test_non_unit_input_rejected(self):
        st = tsirelson_strategy(3)
        big, e1 = np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            st.alice.observable(big)
        with pytest.raises(DomainError):
            correlation(st, big, e1)
        with pytest.raises(DomainError):
            vectorize(st, e1, big)

    @pytest.mark.parametrize("scale, accepted", [
        (1.0 + 2e-9, False), (1.0 - 2e-9, False), (1.0 + 5e-10, True), (1.0 - 5e-10, True),
        (math.nan, False), (math.inf, False),
    ])
    def test_unit_norm_tolerance(self, scale, accepted):
        # a direction's norm may sit at most 1e-9 from 1; NaN and inf fail
        st = tsirelson_strategy(3)
        unit = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
        e1 = np.array([1.0, 0.0, 0.0])
        off = unit * scale
        for call in (lambda: st.alice.observable(off), lambda: correlation(st, off, e1),
                     lambda: correlation(st, e1, off), lambda: vectorize(st, off, e1),
                     lambda: vectorize(st, e1, off)):
            if accepted:
                call()
            else:
                with pytest.raises(DomainError, match="unit vector"):
                    call()

    def test_negated_bob(self):
        flipped = variant("flipped", 3)
        sampler = SphereSampler(3, seed=52)
        for _ in range(20):
            pair = sampler.sample(2)
            assert correlation(flipped, pair[0], pair[1]) == pytest.approx(
                -float(pair[0] @ pair[1]), abs=1e-12
            )

    def test_bob_transpose_convention_is_load_bearing(self):
        # naive Bob (no transpose) must break exactness whenever an
        # antisymmetric generator (any Y factor) is in play
        naive = variant("naive", 2)
        e2 = np.array([0.0, 1.0])  # the Y generator direction
        assert abs(correlation(naive, e2, e2) - 1.0) > 0.5

    @pytest.mark.parametrize("n", range(1, 17))
    def test_bob_is_conjugate_of_alice(self, n):
        # Hermitian generators give G^T = conj(G), so Bob's sum_i b_i G_i^T
        # is conj(sum_i b_i G_i) for real b, to the last bit
        st = tsirelson_strategy(n)
        transposed = np.stack([g.T for g in clifford_generators(n).generators])
        for b in SphereSampler(n, seed=54).sample(3):
            bob = st.bob.observable(b)
            assert np.array_equal(bob, st.alice.observable(b).conj())
            assert np.array_equal(bob, np.tensordot(b, transposed, axes=(0, 0)))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_alice_is_dense_generator_sum(self, n):
        # the observable written from one nonzero per row equals the dense
        # sum_i a_i G_i to the last bit
        st = tsirelson_strategy(n)
        gens = np.stack(clifford_generators(n).generators)
        assert np.array_equal(st.alice.generators(), gens)
        for a in SphereSampler(n, seed=58).sample(3):
            assert np.array_equal(st.alice.observable(a), np.tensordot(a, gens, axes=(0, 0)))

    @pytest.mark.parametrize("n", range(13, 17))
    def test_exactness_above_twelve(self, n):
        st = tsirelson_strategy(n)
        for pair in SphereSampler(n, seed=59 + n).sample(400).reshape(200, 2, n):
            a, b = pair
            corr = correlation(st, a, b)
            assert abs(corr - float(a @ b)) <= 1e-10
            rv = vectorize(st, a, b)
            assert abs(float(rv.alice_vector @ rv.bob_vector) - corr) <= 1e-10
            assert abs(np.linalg.norm(rv.alice_vector) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(rv.bob_vector) - 1.0) <= 1e-12

    def test_correlations_within_unit_interval(self):
        st = tsirelson_strategy(6)
        sampler = SphereSampler(6, seed=53)
        for _ in range(200):
            pair = sampler.sample(2)
            val = correlation(st, pair[0], pair[1])
            assert abs(val) <= 1.0 + 1e-9


class TestVectorize:
    def test_aligned_pair(self):
        st = tsirelson_strategy(2)
        e1 = np.array([1.0, 0.0])
        rv = vectorize(st, e1, e1)
        assert float(rv.alice_vector @ rv.bob_vector) == pytest.approx(1.0, abs=1e-12)

    def test_reproduces_correlation(self):
        st = tsirelson_strategy(6)
        sampler = SphereSampler(6, seed=54)
        for _ in range(1000):
            pair = sampler.sample(2)
            rv = vectorize(st, pair[0], pair[1])
            corr = correlation(st, pair[0], pair[1])
            assert abs(float(rv.alice_vector @ rv.bob_vector) - corr) <= 1e-10

    def test_unit_norms_and_dimension(self):
        st = tsirelson_strategy(7)
        sampler = SphereSampler(7, seed=55)
        for _ in range(50):
            pair = sampler.sample(2)
            rv = vectorize(st, pair[0], pair[1])
            assert rv.dim == 2 * st.d**2
            assert abs(np.linalg.norm(rv.alice_vector) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(rv.bob_vector) - 1.0) <= 1e-12

    def test_arbitrary_observables_and_state(self):
        # full strength: the observables on any pure state, not only on the
        # maximally entangled state
        base = tsirelson_strategy(4)
        strategy = QuantumStrategy(d=base.d, state=dense_state(base.d, 56),
                                   alice=base.alice, bob=base.bob)
        sampler = SphereSampler(4, seed=57)
        for _ in range(200):
            pair = sampler.sample(2)
            rv = vectorize(strategy, pair[0], pair[1])
            corr = correlation(strategy, pair[0], pair[1])
            assert abs(float(rv.alice_vector @ rv.bob_vector) - corr) <= 1e-10
            assert abs(np.linalg.norm(rv.alice_vector) - 1.0) <= 1e-12

    def test_peak_memory_is_the_two_outputs(self):
        # at n = 16 (d = 256) the outputs are 2 x 1 MB; the only other
        # allocation is the O(n d) array of weighted nonzeros, 128 KB here
        st = tsirelson_strategy(16)
        a, b = SphereSampler(16, seed=59).sample(2)
        vectorize(st, a, b)
        tracemalloc.start()
        try:
            rv = vectorize(st, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = rv.alice_vector.nbytes + rv.bob_vector.nbytes
        nonzeros = 2 * 16 * st.d * np.dtype(complex).itemsize
        assert outputs == 2 * 2 * st.d**2 * 8
        assert peak <= outputs + 2 * nonzeros


class TestSchmidtDiagonalContraction:
    # correlation and vectorize contract a Schmidt-diagonal state without a
    # d x d product; dense_correlation and dense_vectorize are the O(d^3)
    # reference
    @staticmethod
    def assert_matches_dense(strategy, n, seed, pairs=5):
        for a, b in SphereSampler(n, seed=seed).sample(2 * pairs).reshape(pairs, 2, n):
            ref = dense_correlation(strategy, a, b)
            assert abs(ref.imag) <= 1e-12
            assert abs(correlation(strategy, a, b) - ref.real) <= 1e-12
            rv = vectorize(strategy, a, b)
            ref_alice, ref_bob = dense_vectorize(strategy, a, b)
            assert rv.dim == ref_alice.size
            assert np.abs(rv.alice_vector - ref_alice).max() <= 1e-12
            assert np.abs(rv.bob_vector - ref_bob).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 17))
    def test_tsirelson_matches_dense(self, n):
        st = tsirelson_strategy(n)
        assert quantum._schmidt_diagonal(st.state.reshape(st.d, st.d)) is not None
        assert st.realified is not None
        self.assert_matches_dense(st, n, seed=60 + n)

    @pytest.mark.parametrize("n", (4, 7))
    def test_complex_schmidt_coefficients(self, n):
        st = variant("complex_schmidt", n, seed=70 + n)
        psi = st.state.reshape(st.d, st.d)
        assert np.array_equal(quantum._schmidt_diagonal(psi), np.diagonal(psi))
        self.assert_matches_dense(st, n, seed=80 + n, pairs=20)

    @pytest.mark.parametrize("n", (4, 7))
    def test_one_off_diagonal_entry_takes_dense_path(self, n):
        base = tsirelson_strategy(n)
        psi = schmidt_state(base.d, seed=70 + n)
        psi[0, base.d - 1] = 0.3 - 0.2j
        psi /= np.linalg.norm(psi)
        st = QuantumStrategy(d=base.d, state=psi.reshape(-1),
                             alice=base.alice, bob=base.bob)
        assert quantum._schmidt_diagonal(psi) is None
        assert st.realified is None
        self.assert_matches_dense(st, n, seed=90 + n, pairs=20)

    @pytest.mark.parametrize("name", VARIANTS)
    @pytest.mark.parametrize("n", (2, 5, 8))
    def test_table_matches_dense_observables(self, name, n):
        # the table is computed, never assumed: each variant's a^T T b
        # equals the dense <psi| A tensor B |psi>
        st = variant(name, n, seed=100 + n)
        self.assert_matches_dense(st, n, seed=110 + n, pairs=20)
        if name == "flipped":
            assert np.abs(st.table + np.eye(n)).max() <= 1e-15
        if name == "naive" and n > 1:
            assert np.abs(st.table - np.eye(n)).max() >= 1.0

    def test_flipping_one_table_sign_fails(self):
        st = tsirelson_strategy(5)
        self.assert_matches_dense(st, 5, seed=120)
        bent = copy.copy(st)
        table = st.table.copy()
        table[2, 2] = -table[2, 2]
        object.__setattr__(bent, "table", table)
        with pytest.raises(AssertionError):
            self.assert_matches_dense(bent, 5, seed=120)

    def test_flipping_one_pauli_sign_fails(self):
        # one diagonal entry of the Z string negated: the generator stays a
        # Hermitian involution, but is no longer traceless, T_44 drops to
        # 1/2 and a . b is lost
        base = tsirelson_strategy(5)
        phases = base.alice.phases.copy()
        phases[4, 0] = -phases[4, 0]
        alice = dataclasses.replace(base.alice, phases=phases)
        bent = QuantumStrategy(d=base.d, state=base.state, alice=alice, bob=base.bob)
        self.assert_matches_dense(bent, 5, seed=121)
        assert bent.table[4, 4] == pytest.approx(0.5, abs=1e-15)
        pairs = SphereSampler(5, seed=122).sample(128).reshape(64, 2, 5)
        assert max(abs(correlation(bent, a, b) - float(a @ b)) for a, b in pairs) > 1e-3

    @pytest.mark.parametrize("d", (1, 2, 3, 8))
    def test_every_off_diagonal_entry_is_seen(self, d):
        psi = schmidt_state(d, seed=d)
        assert np.array_equal(quantum._schmidt_diagonal(psi), np.diagonal(psi))
        for i in range(d):
            for j in range(d):
                if i != j:
                    bent = psi.copy()
                    bent[i, j] = 1e-300j
                    assert quantum._schmidt_diagonal(bent) is None


def reference_generators(n):
    """The Jordan-Wigner generators as dense Kronecker products."""
    qubits = n // 2
    if qubits == 0:
        return [np.ones((1, 1), dtype=complex)]

    def chain(factors):
        out = factors[0]
        for fac in factors[1:]:
            out = np.kron(out, fac)
        return out

    gens = []
    for k in range(qubits):
        for local in (X, Y):
            gens.append(chain([Z] * k + [local] + [I2] * (qubits - k - 1)))
    if n % 2 == 1:
        gens.append(chain([Z] * qubits))
    return gens


def reference_contraction(n, a, b):
    """The d x d contraction of the Tsirelson strategy: dense observables
    Alice sum_i a_i G_i and Bob its conjugate at b, scaled by the Schmidt
    coefficients 1/sqrt(d) of the maximally entangled state."""
    gens = np.stack(reference_generators(n))
    d = gens.shape[1]
    s = np.diagonal(np.eye(d, dtype=complex) / np.sqrt(d))
    obs_a = np.tensordot(a, gens, axes=(0, 0))
    obs_b = np.tensordot(b, gens, axes=(0, 0)).conj()
    corr = complex(np.vdot(s, (obs_a * obs_b) @ s))
    x = (obs_a * s).reshape(-1)
    y = (s[:, None] * obs_b.T).reshape(-1)
    return corr, np.concatenate([x.real, x.imag]), np.concatenate([y.real, y.imag])


def rounding_allowance(n, d, a, b):
    """First-order bound on |computed - exact| of both contractions, added.

    Each sums products of |a_j|, |b_k|, Schmidt coefficients and unit phases
    whose absolute values total at most |a|_1 |b|_1 (the |s_i|^2 sum to 1):
    the reference in at most d + n + 3 rounded steps per term, the table in
    at most d + n^2 + 3, and gamma_k = k u / (1 - k u) bounds each.
    """
    u = np.finfo(float).eps / 2

    def gamma(k):
        return k * u / (1 - k * u)

    return (gamma(d + n + 3) + gamma(d + n * n + 3)) * np.abs(a).sum() * np.abs(b).sum()


class TestTsirelsonReference:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_generators_equal_the_kronecker_products(self, n):
        ref = reference_generators(n)
        gens = clifford_generators(n).generators
        assert len(gens) == len(ref) == n
        assert all(np.array_equal(g, r) for g, r in zip(gens, ref))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_equals_the_reference_contraction(self, n):
        st = tsirelson_strategy(n)
        for a, b in SphereSampler(n, seed=150 + n).sample(20).reshape(10, 2, n):
            corr, alice, bob = reference_contraction(n, a, b)
            rv = vectorize(st, a, b)
            assert np.array_equal(rv.alice_vector, alice)
            assert np.array_equal(rv.bob_vector, bob)
            assert abs(corr.imag) <= 1e-12
            assert abs(correlation(st, a, b) - corr.real) <= rounding_allowance(
                n, st.d, a, b)


class TestPinnedOutputs:
    """Bits of the Tsirelson strategy's outputs, as computed with numpy 2.4.6."""

    def test_table_deviations(self):
        assert [quantum.tsirelson_deviation(n) for n in range(1, 17)] == [
            0.0, 2.220446049250313e-16, 2.220446049250313e-16, 0.0, 0.0,
            2.220446049250313e-16, 2.220446049250313e-16, 0.0, 0.0, 1.3877787807814454e-16,
            1.3877787807814454e-16, 0.0, 0.0, 1.2490009027033014e-16, 1.2490009027033014e-16,
            0.0]

    @pytest.mark.parametrize("n, digest, corr", [
        (3, "5bc1cbba5d47d29b9ef60382534337de5fc03753a87ea69bd833a61b047cbbb0",
         -0.914408013194112),
        (8, "1e611dfba1e33eeeb145e409e84532f354f80369ec618ed754c4b910cec68989",
         -0.22113811460793753),
        (16, "be5a50e762c037cfcaf247fc6afa7d7ba32f2335282fc8d0cd52824c41eff318",
         0.013484927576582303),
    ])
    def test_vectors_and_correlation(self, n, digest, corr):
        # SHA-256 of both realified vectors' float64 bytes, -0.0 folded into 0.0
        st = tsirelson_strategy(n)
        a, b = SphereSampler(n, 100 + n).sample(2)
        rv = vectorize(st, a, b)
        both = np.concatenate([rv.alice_vector, rv.bob_vector]) + 0.0
        assert hashlib.sha256(both.tobytes()).hexdigest() == digest
        assert correlation(st, a, b) == corr


class TestIntegrity:
    def test_imaginary_part_tripwire(self):
        st = tsirelson_strategy(2)
        alice = dataclasses.replace(st.alice, phases=1j * st.alice.phases)
        broken = QuantumStrategy(d=st.d, state=st.state, alice=alice, bob=st.bob)
        e1 = np.array([1.0, 0.0])
        with pytest.raises(NumericalIntegrityError):
            correlation(broken, e1, e1)

    def test_state_must_match_the_observables(self):
        st = tsirelson_strategy(4)
        with pytest.raises(DomainError):
            QuantumStrategy(d=st.d, state=st.state[:-1], alice=st.alice, bob=st.bob)
        with pytest.raises(DomainError):
            QuantumStrategy(d=2 * st.d, state=np.ones(4 * st.d**2) / (2 * st.d),
                            alice=st.alice, bob=st.bob)
