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

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_correlation(strategy, a, b):
    """<psi| A tensor B |psi> through the two dense products, for any state."""
    psi = strategy.state.reshape(strategy.d, strategy.d)
    return complex(np.vdot(psi, strategy.alice_map(a) @ psi @ strategy.bob_map(b).T))


def dense_vectorize(strategy, a, b):
    """The realified (A tensor I)|psi> and (I tensor B)|psi>, dense products."""
    psi = strategy.state.reshape(strategy.d, strategy.d)
    x = (strategy.alice_map(a) @ psi).reshape(-1)
    y = (psi @ strategy.bob_map(b).T).reshape(-1)
    return np.concatenate([x.real, x.imag]), np.concatenate([y.real, y.imag])


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

    def test_domain(self):
        with pytest.raises(DomainError):
            clifford_generators(0)


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

    def test_max_deviation_pairs_rows_in_order(self):
        st = tsirelson_strategy(5)
        rows = SphereSampler(5, seed=52).sample(40)
        left, right = rows[::2], rows[1::2]
        devs = [abs(correlation(st, a, b) - float(a @ b)) for a, b in zip(left, right)]
        max_dev = quantum.max_correlation_deviation
        assert max_dev(st, left, right) == max(devs)
        assert max_dev(st, rows[:0], rows[:0]) == 0.0
        # Bob's sign flipped: correlation -1 against a.b = 1 on a repeated row
        flipped = QuantumStrategy(d=st.d, state=st.state, alice_map=st.alice_map,
                                  bob_map=lambda b: -st.bob_map(b))
        assert max_dev(flipped, rows[:1], rows[:1]) == pytest.approx(2.0)

    def test_observables_square_to_identity(self):
        st = tsirelson_strategy(5)
        a = SphereSampler(5, seed=51).sample(1)[0]
        obs = st.alice_map(a)
        assert np.abs(obs @ obs - np.eye(st.d)).max() <= 1e-12
        assert np.abs(obs - obs.conj().T).max() <= 1e-12

    def test_non_unit_input_rejected(self):
        st = tsirelson_strategy(3)
        with pytest.raises(DomainError):
            st.alice_map(np.array([2.0, 0.0, 0.0]))
        with pytest.raises(DomainError):
            correlation(st, np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_negated_bob(self):
        base = tsirelson_strategy(3)
        flipped = QuantumStrategy(
            d=base.d,
            state=base.state,
            alice_map=base.alice_map,
            bob_map=lambda b: -base.bob_map(b),
        )
        sampler = SphereSampler(3, seed=52)
        for _ in range(20):
            pair = sampler.sample(2)
            assert correlation(flipped, pair[0], pair[1]) == pytest.approx(
                -float(pair[0] @ pair[1]), abs=1e-12
            )

    def test_bob_transpose_convention_is_load_bearing(self):
        # naive Bob (no transpose) must break exactness whenever an
        # antisymmetric generator (any Y factor) is in play
        base = tsirelson_strategy(2)
        naive = QuantumStrategy(
            d=base.d,
            state=base.state,
            alice_map=base.alice_map,
            bob_map=base.alice_map,
        )
        e2 = np.array([0.0, 1.0])  # the Y generator direction
        assert abs(correlation(naive, e2, e2) - 1.0) > 0.5

    @pytest.mark.parametrize("n", range(1, 17))
    def test_bob_is_conjugate_of_alice(self, n):
        # Hermitian generators give G^T = conj(G), so Bob's sum_i b_i G_i^T
        # is conj(sum_i b_i G_i) for real b, to the last bit
        st = tsirelson_strategy(n)
        transposed = np.stack([g.T for g in clifford_generators(n).generators])
        for b in SphereSampler(n, seed=54).sample(3):
            bob = st.bob_map(b)
            assert np.array_equal(bob, st.alice_map(b).conj())
            assert np.array_equal(bob, np.tensordot(b, transposed, axes=(0, 0)))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_alice_is_dense_generator_sum(self, n):
        # the observable written from one nonzero per row equals the dense
        # sum_i a_i G_i to the last bit
        st = tsirelson_strategy(n)
        gens = np.stack(clifford_generators(n).generators)
        for a in SphereSampler(n, seed=58).sample(3):
            assert np.array_equal(st.alice_map(a), np.tensordot(a, gens, axes=(0, 0)))

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
        # full strength: any involutory observables on any pure state, not
        # only the canonical construction on the maximally entangled state
        rng = np.random.default_rng(56)
        base = clifford_generators(4)
        d = base.d

        def random_rotation_maps():
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            gens = np.stack(base.generators)
            rotated = np.tensordot(q, gens, axes=(1, 0))
            return (
                lambda a: np.tensordot(a, rotated, axes=(0, 0)),
                lambda b: np.tensordot(b, np.transpose(rotated, (0, 2, 1)), axes=(0, 0)),
            )

        psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        psi /= np.linalg.norm(psi)
        alice_map, bob_map = random_rotation_maps()
        strategy = QuantumStrategy(d=d, state=psi, alice_map=alice_map, bob_map=bob_map)
        sampler = SphereSampler(4, seed=57)
        for _ in range(200):
            pair = sampler.sample(2)
            rv = vectorize(strategy, pair[0], pair[1])
            corr = correlation(strategy, pair[0], pair[1])
            assert abs(float(rv.alice_vector @ rv.bob_vector) - corr) <= 1e-10
            assert abs(np.linalg.norm(rv.alice_vector) - 1.0) <= 1e-12


class TestSchmidtDiagonalContraction:
    # correlation and vectorize contract a Schmidt-diagonal state in O(d^2);
    # dense_correlation and dense_vectorize are the O(d^3) reference
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

    @staticmethod
    def schmidt_state(d, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return np.diag(coeffs / np.linalg.norm(coeffs))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_tsirelson_matches_dense(self, n):
        st = tsirelson_strategy(n)
        assert quantum._schmidt_diagonal(st.state.reshape(st.d, st.d)) is not None
        self.assert_matches_dense(st, n, seed=60 + n)

    @pytest.mark.parametrize("n", (4, 7))
    def test_complex_schmidt_coefficients(self, n):
        base = tsirelson_strategy(n)
        psi = self.schmidt_state(base.d, seed=70 + n)
        st = QuantumStrategy(d=base.d, state=psi.reshape(-1),
                             alice_map=base.alice_map, bob_map=base.bob_map)
        assert np.array_equal(quantum._schmidt_diagonal(psi), np.diagonal(psi))
        self.assert_matches_dense(st, n, seed=80 + n, pairs=20)

    @pytest.mark.parametrize("n", (4, 7))
    def test_one_off_diagonal_entry_takes_dense_path(self, n):
        base = tsirelson_strategy(n)
        psi = self.schmidt_state(base.d, seed=70 + n)
        psi[0, base.d - 1] = 0.3 - 0.2j
        psi /= np.linalg.norm(psi)
        st = QuantumStrategy(d=base.d, state=psi.reshape(-1),
                             alice_map=base.alice_map, bob_map=base.bob_map)
        assert quantum._schmidt_diagonal(psi) is None
        self.assert_matches_dense(st, n, seed=90 + n, pairs=20)

    @pytest.mark.parametrize("d", (1, 2, 3, 8))
    def test_every_off_diagonal_entry_is_seen(self, d):
        psi = self.schmidt_state(d, seed=d)
        assert np.array_equal(quantum._schmidt_diagonal(psi), np.diagonal(psi))
        for i in range(d):
            for j in range(d):
                if i != j:
                    bent = psi.copy()
                    bent[i, j] = 1e-300j
                    assert quantum._schmidt_diagonal(bent) is None


class TestIntegrity:
    def test_imaginary_part_tripwire(self):
        st = tsirelson_strategy(2)
        broken = QuantumStrategy(
            d=st.d,
            state=st.state,
            alice_map=lambda a: 1j * st.alice_map(a),
            bob_map=st.bob_map,
        )
        e1 = np.array([1.0, 0.0])
        with pytest.raises(NumericalIntegrityError):
            correlation(broken, e1, e1)
