import functools
import itertools
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgext import fgs, matalg, oracle
from fgext.bounds import family_cm
from fgext.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    OddSubsetError,
    TooManyModesError,
)


class TestJordanWigner:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_clifford_algebra(self, n):
        gammas = oracle.jordan_wigner(n)
        dim = 2**n
        assert len(gammas) == 2 * n
        for p, gp in enumerate(gammas):
            assert_allclose(gp, gp.conj().T, atol=1e-14)
            for q, gq in enumerate(gammas):
                anti = gp @ gq + gq @ gp
                assert_allclose(anti, 2.0 * (p == q) * np.eye(dim), atol=1e-12)

    def test_mode_cap(self):
        with pytest.raises(TooManyModesError):
            oracle.jordan_wigner(13)
        with pytest.raises(TooManyModesError):
            oracle.jordan_wigner(0)

    def test_parity_relation(self):
        # i^n gamma_1 ... gamma_2n equals (-1)^n times (-1)^N
        for n in (1, 2, 3):
            gammas = oracle.jordan_wigner(n)
            prod = np.eye(2**n, dtype=complex)
            for g in gammas:
                prod = prod @ g
            lhs = (1j) ** n * prod
            number_parity = oracle.parity_operator(n)
            assert_allclose(lhs, (-1.0) ** n * number_parity, atol=1e-12)

    def test_parity_from_number_operators(self):
        n = 3
        occ = np.arange(2**n)
        pops = np.array([bin(b).count("1") for b in occ])
        assert_allclose(
            np.diag(oracle.parity_operator(n)).real, (-1.0) ** pops
        )

    def test_built_per_call(self):
        # nothing is cached: each call returns fresh read-only matrices
        a = oracle.jordan_wigner(2)
        b = oracle.jordan_wigner(2)
        assert a[0] is not b[0] and np.array_equal(a[0], b[0])
        p, q = oracle.parity_operator(2), oracle.parity_operator(2)
        assert p is not q and np.array_equal(p, q)
        assert not (a[0].flags.writeable or p.flags.writeable)


class TestStateFromCm:
    def test_vacuum(self):
        state = oracle.state_from_cm(fgs.vacuum_cm(1))
        assert_allclose(state.rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_bell_phi_plus_projector(self):
        state = oracle.state_from_cm(fgs.bell_cm("phi+").cm)
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / np.sqrt(2.0)
        assert_allclose(state.rho, np.outer(v, v), atol=1e-12)

    def test_family22_dense_matrix(self):
        # loss-constructed two-mode mixture at lambda_1 = lambda_2 = 1/2
        state = oracle.state_from_cm(family_cm(2, 2).cm)
        expected = np.diag([0.125, 0.125, 0.125, 0.625]).astype(complex)
        expected[0, 3] = expected[3, 0] = 0.25
        assert_allclose(state.rho, expected, atol=1e-12)

    def test_occupied_pair(self):
        cm = fgs.product_cm(fgs.single_mode_cm(1.0), fgs.single_mode_cm(1.0))
        state = oracle.state_from_cm(cm.cm)
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        assert_allclose(state.rho, expected, atol=1e-12)

    def test_parity_commutes(self, random_cm_factory):
        for n in (1, 2, 3):
            state = oracle.state_from_cm(random_cm_factory(n))
            p = oracle.parity_operator(n)
            assert np.max(np.abs(p @ state.rho - state.rho @ p)) < 1e-10


class TestCmFromState:
    def test_roundtrip_random(self, random_cm_factory):
        for n in (1, 2, 3, 4):
            for _ in range(10):
                cm = random_cm_factory(n)
                back = oracle.cm_from_state(oracle.state_from_cm(cm))
                assert np.max(np.abs(back.mat - cm.mat)) < 1e-9

    def test_maximally_mixed(self):
        n = 2
        state = oracle.DenseState(n, np.eye(4) / 4.0)
        assert_allclose(oracle.cm_from_state(state).mat, np.zeros((4, 4)), atol=1e-12)

    def test_occupied_modes_flip_lambda(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0  # |11><11|
        got = oracle.cm_from_state(oracle.DenseState(2, rho))
        expected = np.zeros((4, 4))
        expected[0, 1], expected[1, 0] = 1.0, -1.0
        expected[2, 3], expected[3, 2] = 1.0, -1.0
        assert_allclose(got.mat, expected, atol=1e-12)


class TestTraceDistance:
    def test_identical(self, random_cm_factory):
        cm = random_cm_factory(2)
        s = oracle.state_from_cm(cm)
        assert oracle.trace_distance(s, s) == 0.0

    def test_orthogonal_pure(self):
        a = oracle.DenseState(1, np.diag([1.0, 0.0]))
        b = oracle.DenseState(1, np.diag([0.0, 1.0]))
        assert oracle.trace_distance(a, b) == pytest.approx(2.0)

    def test_family_to_product_bracket(self):
        b = family_cm(2, 2)
        rho = oracle.state_from_cm(b.cm)
        prod = fgs.product_cm(fgs.marginal(b, "A"), fgs.marginal(b, "B"))
        sigma = oracle.state_from_cm(prod.cm)
        dist = oracle.trace_distance(rho, sigma)
        assert 0.5 <= dist <= 1.0

    def test_mismatch(self):
        a = oracle.DenseState(1, np.diag([1.0, 0.0]))
        b = oracle.DenseState(2, np.diag([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatchError):
            oracle.trace_distance(a, b)

    def test_sandwich_bounds(self, random_cm_factory):
        # operator norm of CM difference <= trace distance <= half its
        # trace norm
        for n in (1, 2, 3):
            for _ in range(10):
                c1, c2 = random_cm_factory(n), random_cm_factory(n)
                dist = oracle.trace_distance(
                    oracle.state_from_cm(c1), oracle.state_from_cm(c2)
                )
                op, tr = matalg.norms(c1.mat - c2.mat)
                assert op <= dist + 1e-9
                assert dist <= 0.5 * tr + 1e-9


class TestWick:
    def test_two_point_reproduces_entry(self, random_cm_factory):
        cm = random_cm_factory(2)
        state = oracle.state_from_cm(cm)
        for p, q in itertools.combinations(range(4), 2):
            lhs, rhs = oracle.wick_check(state, cm, (p, q))
            assert lhs == pytest.approx(cm.mat[p, q], abs=1e-10)
            assert rhs == pytest.approx(cm.mat[p, q], abs=1e-12)

    def test_bell_full_subset(self):
        b = fgs.bell_cm("phi+")
        state = oracle.state_from_cm(b.cm)
        lhs, rhs = oracle.wick_check(state, b.cm, (0, 1, 2, 3))
        assert rhs == pytest.approx(1.0)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_odd_monomials_vanish(self, random_cm_factory):
        cm = random_cm_factory(2)
        state = oracle.state_from_cm(cm)
        gammas = oracle.jordan_wigner(2)
        for idx in itertools.combinations(range(4), 3):
            op = np.eye(4, dtype=complex)
            for i in idx:
                op = op @ gammas[i]
            assert abs(np.trace(op @ state.rho)) < 1e-12

    def test_all_even_subsets(self, random_cm_factory):
        for n in (1, 2, 3):
            cm = random_cm_factory(n)
            state = oracle.state_from_cm(cm)
            for size in (2, 4, 6):
                if size > 2 * n:
                    break
                for idx in itertools.combinations(range(2 * n), size):
                    lhs, rhs = oracle.wick_check(state, cm, idx)
                    assert abs(lhs - rhs) < 1e-8

    def test_odd_subset_rejected(self, random_cm_factory):
        cm = random_cm_factory(2)
        state = oracle.state_from_cm(cm)
        with pytest.raises(OddSubsetError):
            oracle.wick_check(state, cm, (0, 1, 2))
        with pytest.raises(IndexOutOfRangeError):
            oracle.wick_check(state, cm, (0, 7))


class TestEntropies:
    def test_pure_product(self):
        state = oracle.state_from_cm(fgs.vacuum_cm(2))
        assert_allclose(oracle.entropies(state, (1, 1)), (0.0, 0.0, 0.0, 0.0), atol=1e-12)

    def test_bell(self):
        state = oracle.state_from_cm(fgs.bell_cm("phi+").cm)
        s_a, s_b, s_ab, mi = oracle.entropies(state, (1, 1))
        assert (s_a, s_b) == (pytest.approx(1.0), pytest.approx(1.0))
        assert s_ab == pytest.approx(0.0, abs=1e-10)
        assert mi == pytest.approx(2.0)

    def test_against_gaussian_formula(self, random_bipartite_factory):
        for _ in range(5):
            b = random_bipartite_factory(1, 2)
            state = oracle.state_from_cm(b.cm)
            mi = oracle.entropies(state, (1, 2))[3]
            assert mi == pytest.approx(fgs.mutual_information(b), abs=1e-8)


class TestSeparableCrossCorrelations:
    def test_parity_respecting_mixtures_have_zero_cross_block(self, rng, random_cm_factory):
        # convex mixtures of parity-commuting product states: every cross
        # entry of the covariance matrix vanishes
        n_a, n_b = 1, 2
        terms = []
        weights = rng.dirichlet(np.ones(4))
        for w in weights:
            rho_a = oracle.state_from_cm(random_cm_factory(n_a)).rho
            rho_b = oracle.state_from_cm(random_cm_factory(n_b)).rho
            terms.append(w * np.kron(rho_a, rho_b))
        mixture = oracle.DenseState(n_a + n_b, sum(terms))
        cm = oracle.cm_from_state(mixture)
        cross = cm.mat[: 2 * n_a, 2 * n_a :]
        assert np.max(np.abs(cross)) < 1e-10


def test_dense_product_matches_cm_product(random_cm_factory):
    a = random_cm_factory(1)
    b = random_cm_factory(2)
    via_kron = oracle.dense_product(
        oracle.state_from_cm(a), oracle.state_from_cm(b)
    )
    via_cm = oracle.state_from_cm(fgs.product_cm(a, b).cm)
    assert np.max(np.abs(via_kron.rho - via_cm.rho)) < 1e-10


def test_state_from_cm_mode_cap():
    # a real 13-mode state, one over MODE_CAP, refused before any allocation
    with pytest.raises(TooManyModesError):
        oracle.state_from_cm(fgs.vacuum_cm(13))


# -- dense reference ----------------------------------------------------------
# The oracle works on Pauli strings (flip mask and phase); these are the dense
# Jordan-Wigner kron products and matrix products it replaced, kept as the
# reference the string arithmetic is pinned to.

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@functools.cache
def _ref_gammas(n):
    gammas = []
    for j in range(n):
        for letter in (_X, _Y):
            op = np.eye(1, dtype=complex)
            for factor in [-_Z] * j + [letter] + [np.eye(2)] * (n - j - 1):
                op = np.kron(op, factor)
            gammas.append(op)
    return tuple(gammas)


def _ref_state(rotation, lambdas, n):
    gammas = _ref_gammas(n)
    dim = 2**n
    rho = np.eye(dim, dtype=complex)
    for j, lam in enumerate(lambdas):
        g_a = sum(rotation[q, 2 * j] * gammas[q] for q in range(2 * n))
        g_b = sum(rotation[q, 2 * j + 1] * gammas[q] for q in range(2 * n))
        rho = rho @ (np.eye(dim) + 1j * lam * g_a @ g_b)
    return rho / dim


def _ref_moment(rho, n, idx):
    """Re Tr(i^(|idx|/2) γ_idx[0] γ_idx[1] … ρ) from dense products."""
    gammas = _ref_gammas(n)
    op = np.eye(2**n, dtype=complex)
    for i in idx:
        op = op @ gammas[i]
    return float(np.trace((1j) ** (len(idx) // 2) * op @ rho).real)


def _ref_cm(rho, n):
    d = 2 * n
    m = np.zeros((d, d))
    for p, q in itertools.combinations(range(d), 2):
        m[p, q] = _ref_moment(rho, n, (p, q))
        m[q, p] = -m[p, q]
    return m


def _random_even_state(rng, n):
    """A random full-rank parity-even density matrix, in general not Gaussian."""
    dim = 2**n
    w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = w @ w.conj().T
    signs = np.diag(oracle.parity_operator(n)).real
    rho[np.not_equal.outer(signs, signs)] = 0.0
    return rho / np.trace(rho).real


class TestDenseReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_jordan_wigner_matches_kron(self, n):
        for got, want in zip(oracle.jordan_wigner(n), _ref_gammas(n), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_state_from_cm(self, n, rng, random_cm_factory):
        for _ in range(4):
            cm = random_cm_factory(n)
            form = matalg.canonical_form(cm.body)
            want = _ref_state(form.rotation, np.clip(form.lambdas, -1.0, 1.0), n)
            assert np.max(np.abs(oracle.state_from_cm(cm).rho - want)) < 1e-12
        # unphysical canonical values too, which the dense-PSD test relies on
        q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
        lams = rng.uniform(-1.15, 1.15, size=n)
        got = oracle._state_from_canonical(q, lams, n)
        assert np.max(np.abs(got - _ref_state(q, lams, n))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cm_from_state(self, n, rng, random_cm_factory):
        gaussian = [oracle.state_from_cm(random_cm_factory(n)).rho for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        states = gaussian + [
            sum(w * rho for w, rho in zip(weights, gaussian)),
            _random_even_state(rng, n),
        ]
        for rho in states:
            got = oracle.cm_from_state(oracle.DenseState(n, rho)).mat
            assert np.max(np.abs(got - _ref_cm(rho, n))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_wick_every_even_subset(self, n, rng, random_cm_factory):
        cm = random_cm_factory(n)
        for rho in (oracle.state_from_cm(cm).rho, _random_even_state(rng, n)):
            state = oracle.DenseState(n, rho)
            for size in range(0, min(6, 2 * n) + 1, 2):
                for idx in itertools.combinations(range(2 * n), size):
                    lhs, _ = oracle.wick_check(state, cm, idx)
                    assert abs(lhs - _ref_moment(rho, n, idx)) < 1e-12


class TestDenseState:
    def test_rejects_small_parity_violation(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 3] = rho[3, 0] = 1e-9  # |00><11| keeps parity
        oracle.DenseState(2, rho)
        rho[0, 1] = rho[1, 0] = 1e-9  # |00><01| breaks it
        with pytest.raises(ValueError, match="parity"):
            oracle.DenseState(2, rho)

    def test_frozen(self):
        state = oracle.DenseState(1, np.diag([1.0, 0.0]))
        assert repr(state) == "DenseState(n=1)"
        with pytest.raises(AttributeError):
            state.n = 2
        with pytest.raises(AttributeError):
            state.rho = np.eye(2)
        with pytest.raises(ValueError):
            state.rho[0, 0] = 0.5
        with pytest.raises(ValueError):
            oracle.jordan_wigner(1)[0][0, 0] = 2.0

    def test_unchecked(self):
        state = oracle.DenseState(1, np.eye(2), check=False)
        assert np.trace(state.rho) == 2.0
        with pytest.raises(ValueError, match="trace"):
            oracle.DenseState(1, np.eye(2), True)


class TestMemoryGuard:
    def test_dense_jordan_wigner_refused_before_allocation(self):
        # 24 matrices of 4096 x 4096 complex entries: about 6 GiB
        start = time.perf_counter()
        with pytest.raises(TooManyModesError, match="GiB"):
            oracle.jordan_wigner(12)
        assert time.perf_counter() - start < 1.0

    def test_every_dense_allocation_checks_the_cap(self, monkeypatch, random_cm_factory):
        monkeypatch.setattr(oracle, "DENSE_BYTES_CAP", 2**10)
        with pytest.raises(TooManyModesError):
            oracle.state_from_cm(random_cm_factory(3))
        with pytest.raises(TooManyModesError):
            oracle.parity_operator(11)
        with pytest.raises(TooManyModesError):
            oracle.jordan_wigner(3)


@pytest.mark.slow
def test_roundtrip_and_wick_pairs_at_ten_modes(random_cm_factory):
    cm = random_cm_factory(10)
    state = oracle.state_from_cm(cm)
    assert np.max(np.abs(oracle.cm_from_state(state).mat - cm.mat)) < 1e-9
    for idx in itertools.combinations(range(20), 2):
        lhs, rhs = oracle.wick_check(state, cm, idx)
        assert abs(lhs - rhs) < 1e-9
