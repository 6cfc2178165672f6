import functools
import itertools
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import special_orthogonal
from fgext import fgs, matalg, oracle
from fgext.bounds import family_cm
from fgext.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotBonaFideError,
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
        # exactly: every entry between the even and the odd sector is zero
        for n in (1, 2, 3, 4, 5, 6):
            state = oracle.state_from_cm(random_cm_factory(n))
            signs = np.diag(oracle.parity_operator(n)).real
            off_sector = np.not_equal.outer(signs, signs)
            assert np.array_equal(state.rho[off_sector], np.zeros(2 ** (2 * n - 1)))


class TestCmFromState:
    def test_roundtrip_random(self, random_cm_factory):
        for n in (1, 2, 3, 4):
            for _ in range(10):
                cm = random_cm_factory(n)
                back = oracle.cm_from_state(oracle.state_from_cm(cm))
                assert np.max(np.abs(back.mat - cm.mat)) < 1e-9

    def test_maximally_mixed(self):
        state = oracle.DenseState(np.eye(4) / 4.0)
        assert_allclose(oracle.cm_from_state(state).mat, np.zeros((4, 4)), atol=1e-12)

    def test_occupied_modes_flip_lambda(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0  # |11><11|
        got = oracle.cm_from_state(oracle.DenseState(rho))
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
        a = oracle.DenseState(np.diag([1.0, 0.0]))
        b = oracle.DenseState(np.diag([0.0, 1.0]))
        assert oracle.trace_distance(a, b) == pytest.approx(2.0)

    def test_family_to_product_bracket(self):
        b = family_cm(2, 2)
        rho = oracle.state_from_cm(b.cm)
        prod = fgs.product_cm(fgs.marginal(b, "A"), fgs.marginal(b, "B"))
        sigma = oracle.state_from_cm(prod.cm)
        dist = oracle.trace_distance(rho, sigma)
        assert 0.5 <= dist <= 1.0

    def test_mismatch(self):
        a = oracle.DenseState(np.diag([1.0, 0.0]))
        b = oracle.DenseState(np.diag([1.0, 0.0, 0.0, 0.0]))
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

    def test_empty_subset(self):
        # the empty monomial is the identity: Tr ρ = 1 = Pf of the 0 x 0 matrix
        b = fgs.bell_cm("phi+")
        assert oracle.wick_check(oracle.state_from_cm(b.cm), b.cm, ()) == (1.0, 1.0)

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
        with pytest.raises(InvalidParameterError, match="odd size"):
            oracle.wick_check(state, cm, (0, 1, 2))
        with pytest.raises(InvalidParameterError, match="outside"):
            oracle.wick_check(state, cm, (0, 7))
        # a CM on other modes than the state's: moments of two different states
        with pytest.raises(DimensionMismatchError):
            oracle.wick_check(oracle.state_from_cm(fgs.vacuum_cm(1)), fgs.epr_cm(1).cm, (0, 1))
        with pytest.raises(DimensionMismatchError):
            oracle.wick_check(state, fgs.vacuum_cm(1), (0, 3))

    @pytest.mark.parametrize("idx", [(1, 0), (0, 0), (0, 2, 1, 3)])
    def test_indices_not_strictly_increasing_rejected(self, random_cm_factory, idx):
        cm = random_cm_factory(2)
        state = oracle.state_from_cm(cm)
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            oracle.wick_check(state, cm, idx)


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

    @pytest.mark.parametrize("n_keep", [4, -1, 0])
    @pytest.mark.parametrize("side", ["A", "B"])
    def test_reduced_state_refuses_a_count_outside_the_modes(self, n_keep, side):
        state = oracle.state_from_cm(fgs.vacuum_cm(3))
        with pytest.raises(DimensionMismatchError, match=f"cannot keep {n_keep} of 3 modes"):
            oracle.reduced_state(state, n_keep, side)

    @pytest.mark.parametrize("n_keep", [True, 1.0, 1.5])
    def test_reduced_state_refuses_a_count_that_is_not_an_integer(self, n_keep):
        state = oracle.state_from_cm(fgs.vacuum_cm(3))
        with pytest.raises(DimensionMismatchError, match="cannot keep"):
            oracle.reduced_state(state, n_keep)

    @pytest.mark.parametrize("split", [(1, 2), (0, 2), (2, 0), (3, -1)])
    def test_bad_split_rejected(self, split):
        state = oracle.state_from_cm(fgs.vacuum_cm(2))
        with pytest.raises(DimensionMismatchError, match="bad split"):
            oracle.entropies(state, split)

    def test_reduced_state_refuses_an_unknown_side(self):
        state = oracle.state_from_cm(fgs.vacuum_cm(3))
        with pytest.raises(InvalidParameterError, match="side must be 'A' or 'B'"):
            oracle.reduced_state(state, 1, side="C")
        assert issubclass(InvalidParameterError, ValueError)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_reduced_state_keeping_every_mode_is_the_state(self, side):
        state = oracle.state_from_cm(fgs.bell_cm("phi+").cm)
        assert np.array_equal(oracle.reduced_state(state, 2, side).rho, state.rho)

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
        mixture = oracle.DenseState(sum(terms))
        cm = oracle.cm_from_state(mixture)
        cross = cm.mat[: 2 * n_a, 2 * n_a :]
        assert np.max(np.abs(cross)) < 1e-10


def test_dense_product_matches_cm_product(random_cm_factory):
    a = random_cm_factory(1)
    b = random_cm_factory(2)
    via_kron = oracle.DenseState(
        np.kron(oracle.state_from_cm(a).rho, oracle.state_from_cm(b).rho)
    )
    via_cm = oracle.state_from_cm(fgs.product_cm(a, b).cm)
    assert np.max(np.abs(via_kron.rho - via_cm.rho)) < 1e-10


def test_state_from_cm_mode_cap():
    # a real 13-mode state, one over MODE_CAP, refused before any allocation
    with pytest.raises(TooManyModesError):
        oracle.state_from_cm(fgs.vacuum_cm(13))


# -- dense reference ----------------------------------------------------------
# The oracle works on Pauli strings (flip mask and phase) and builds states
# from their Majorana moments; these are the dense Jordan-Wigner kron products
# and matrix products it replaced, kept as the reference both are pinned to.
# _ref_state is the product formula 2^-n Π_j (I + i λ_j γ̃_{2j} γ̃_{2j+1}),
# which shares no code with the Pfaffian table and Hadamard transform of the build.

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


def _even_subsets(d):
    """Every even subset of range(d), as (x >> 1, its indices) for x = Σ 2^p."""
    for x in range(2**d):
        idx = [p for p in range(d) if x >> p & 1]
        if len(idx) % 2 == 0:
            yield x >> 1, idx


class TestPfaffianTable:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_entry_is_the_pfaffian(self, n, rng):
        # entry x >> 1 is 2^-n Pf(M[x]) for every even subset x, against Parlett-Reid
        d = 2 * n
        q = special_orthogonal(rng, d)
        random = rng.standard_normal((d, d))
        pure = (q[:, 0::2] * rng.choice([-1.0, 1.0], n)) @ q[:, 1::2].T
        for name, m in (("random", random - random.T), ("pure", pure - pure.T), ("vacuum", fgs.vacuum_cm(n).mat)):
            table = oracle._pfaffian_table(m, 2.0**-n)
            assert table.shape == (2 ** (d - 1),)
            want = np.zeros_like(table)
            for entry, idx in _even_subsets(d):
                want[entry] = 2.0**-n * matalg.pfaffian(m[np.ix_(idx, idx)])
            assert np.max(np.abs(table - want)) <= 1e-13 * max(1.0, np.max(np.abs(want))), name


class TestDenseReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_jordan_wigner_matches_kron(self, n):
        for got, want in zip(oracle.jordan_wigner(n), _ref_gammas(n), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_state_from_cm(self, n, rng, random_cm_factory):
        for _ in range(4):
            cm = random_cm_factory(n)
            form = matalg.canonical_form(cm.body)
            want = _ref_state(form.rotation, np.clip(form.lambdas, -1.0, 1.0), n)
            assert np.max(np.abs(oracle.state_from_cm(cm).rho - want)) < 1e-12
        # unphysical canonical values too, which the dense-PSD test relies on,
        # and a reflection (det -1) as well as a rotation
        q = special_orthogonal(rng, 2 * n)
        reflection = q * np.where(np.arange(2 * n) == 0, -1.0, 1.0)
        for lams in (rng.uniform(-1.15, 1.15, size=n), rng.uniform(-1.0, 1.0, size=n)):
            for o in (q, reflection):
                got = oracle._full(oracle._state_blocks(o, lams, n))
                assert np.max(np.abs(got - _ref_state(o, lams, n))) < 1e-12

    @staticmethod
    def _one_state_and_one_reflection(n, rng, random_cm_factory):
        # one state, and one reflection with canonical values outside [-1, 1]
        cm = random_cm_factory(n)
        form = matalg.canonical_form(cm.body)
        want = _ref_state(form.rotation, np.clip(form.lambdas, -1.0, 1.0), n)
        assert np.max(np.abs(oracle.state_from_cm(cm).rho - want)) < 1e-12
        reflection = special_orthogonal(rng, 2 * n) * np.where(np.arange(2 * n) == 0, -1.0, 1.0)
        lams = rng.uniform(-1.15, 1.15, size=n)
        got = oracle._full(oracle._state_blocks(reflection, lams, n))
        assert np.max(np.abs(got - _ref_state(reflection, lams, n))) < 1e-12

    def test_state_from_cm_at_eight_modes(self, rng, random_cm_factory):
        self._one_state_and_one_reflection(8, rng, random_cm_factory)

    def test_state_from_cm_at_nine_modes(self, rng, random_cm_factory):
        # the build's two Hadamard factors differ in size: 2^4 and 2^5
        self._one_state_and_one_reflection(9, rng, random_cm_factory)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_signed_permutations_are_built_exactly(self, n, rng):
        # M's entries are 0 and ±1, so every Pfaffian and every sum is a dyadic
        # rational; the build multiplies in no phase but ±1 and ±i
        for _ in range(10):
            rotation = np.eye(2 * n)[rng.permutation(2 * n)] * rng.choice([-1.0, 1.0], size=2 * n)
            lams = rng.choice([-1.0, 0.0, 1.0], size=n)
            got = oracle._full(oracle._state_blocks(rotation, lams, n))
            assert np.array_equal(got, _ref_state(rotation, lams, n))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_built_state_is_exactly_parity_even_and_hermitian(self, n, rng):
        # the build's own output, before DenseState checks anything
        lams = rng.uniform(-1.0, 1.0, size=n)
        rho = oracle._full(oracle._state_blocks(special_orthogonal(rng, 2 * n), lams, n))
        signs = np.diag(oracle.parity_operator(n)).real
        assert np.array_equal(rho[np.not_equal.outer(signs, signs)], np.zeros(2 ** (2 * n - 1)))
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cm_from_state(self, n, rng, random_cm_factory):
        gaussian = [oracle.state_from_cm(random_cm_factory(n)).rho for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        states = gaussian + [
            sum(w * rho for w, rho in zip(weights, gaussian)),
            _random_even_state(rng, n),
        ]
        for rho in states:
            got = oracle.cm_from_state(oracle.DenseState(rho)).mat
            assert np.max(np.abs(got - _ref_cm(rho, n))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_wick_every_even_subset(self, n, rng, random_cm_factory):
        cm = random_cm_factory(n)
        for rho in (oracle.state_from_cm(cm).rho, _random_even_state(rng, n)):
            state = oracle.DenseState(rho)
            for size in range(0, min(6, 2 * n) + 1, 2):
                for idx in itertools.combinations(range(2 * n), size):
                    lhs, _ = oracle.wick_check(state, cm, idx)
                    assert abs(lhs - _ref_moment(rho, n, idx)) < 1e-12


class TestDenseState:
    def test_rejects_small_parity_violation(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 3] = rho[3, 0] = 1e-9  # |00><11| keeps parity
        oracle.DenseState(rho)
        rho[0, 1] = rho[1, 0] = 1e-9  # |00><01| breaks it
        with pytest.raises(NotBonaFideError, match="parity"):
            oracle.DenseState(rho)

    def test_frozen(self):
        state = oracle.DenseState(np.diag([1.0, 0.0]))
        assert repr(state) == "DenseState(n=1)"
        with pytest.raises(AttributeError):
            state.n = 2
        with pytest.raises(AttributeError):
            state.rho = np.eye(2)
        with pytest.raises(ValueError):
            state.rho[0, 0] = 0.5
        with pytest.raises(ValueError):
            oracle.jordan_wigner(1)[0][0, 0] = 2.0

    def test_stores_its_own_copy(self):
        # parity-breaking entries below the tolerance are zeroed in the copy only
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = rho[1, 0] = 1e-12
        given = rho.copy()
        state = oracle.DenseState(rho)
        assert not np.shares_memory(state.rho, rho)
        assert np.array_equal(rho, given) and rho.flags.writeable
        assert state.rho[0, 1] == 0.0
        rho[0, 0] = 0.5
        assert state.rho[0, 0] == 0.25

    @pytest.mark.parametrize("n", [2, 10])
    def test_rejects_non_hermitian(self, n):
        # at 10 modes the check runs over several row slabs; break the last one
        rho = np.eye(2**n, dtype=complex) / 2**n
        rho[-1, -4] = rho[-4, -1] = 1e-9j  # |1..11><1..00| keeps parity
        with pytest.raises(NotBonaFideError, match="not Hermitian"):
            oracle.DenseState(rho)
        rho[-4, -1] = -1e-9j
        oracle.DenseState(rho)

    @pytest.mark.parametrize(
        "entries, value",
        [
            ([(1, 1)], np.nan),  # the odd sector's diagonal
            ([(0, 3), (3, 0)], np.nan),  # the even sector
            ([(0, 3), (3, 0)], np.inf),
            ([(1, 2), (2, 1)], np.nan),  # the odd sector
            ([(0, 1), (1, 0)], np.nan),  # between the sectors
        ],
    )
    def test_rejects_non_finite(self, entries, value):
        rho = np.eye(4, dtype=complex) / 4.0
        for entry in entries:
            rho[entry] = value
        with pytest.raises(NotBonaFideError, match="non-finite"):
            oracle.DenseState(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotBonaFideError, match="trace"):
            oracle.DenseState(np.eye(2))
        with pytest.raises(TypeError):
            oracle.DenseState(np.eye(2), check=False)  # every state is checked

    def test_modes_read_from_rho(self):
        state = oracle.DenseState(np.eye(2) / 2.0)
        assert state.n == 1
        assert_allclose(oracle.cm_from_state(state).mat, np.zeros((2, 2)), atol=1e-15)
        assert oracle.DenseState(np.eye(8) / 8.0).n == 3
        not_2n_by_2n = (np.eye(3) / 3, np.eye(6) / 6, np.ones((2, 4)), np.ones(4), np.ones((1, 1)))
        for bad in not_2n_by_2n:
            with pytest.raises(DimensionMismatchError):
                oracle.DenseState(bad)


def _ref_entropy(rho):
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > 1e-14]
    return float(-np.sum(eigs * np.log2(eigs)))


class TestParitySectors:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_spectra_match_full_eigvalsh(self, n, rng, random_cm_factory):
        states = [oracle.state_from_cm(random_cm_factory(n)) for _ in range(2)]
        states.append(oracle.DenseState(_random_even_state(rng, n)))
        for a, b in itertools.combinations(states, 2):
            want = np.sum(np.abs(np.linalg.eigvalsh(a.rho - b.rho)))
            assert abs(oracle.trace_distance(a, b) - want) < 1e-12
        for state in states:
            for n_a in range(1, n):
                da, db = 2**n_a, 2 ** (n - n_a)
                blocks = state.rho.reshape(da, db, da, db)
                rho_a = np.trace(blocks, axis1=1, axis2=3)
                rho_b = np.trace(blocks, axis1=0, axis2=2)
                s_a, s_b, s_ab = (_ref_entropy(r) for r in (rho_a, rho_b, state.rho))
                want = (s_a, s_b, s_ab, s_a + s_b - s_ab)
                assert_allclose(oracle.entropies(state, (n_a, n - n_a)), want, rtol=0, atol=1e-12)

    def test_small_off_sector_entries_stored_as_zero(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = rho[1, 0] = 1e-11  # |00><01| is off-sector, under the 1e-10 tolerance
        rho[0, 3] = rho[3, 0] = 1e-11  # |00><11| is in the even sector and kept
        want = rho.copy()
        want[0, 1] = want[1, 0] = 0.0
        assert np.array_equal(oracle.DenseState(rho).rho, want)

    @pytest.mark.parametrize("sector", ["even", "odd"])
    def test_negative_eigenvalue_in_either_sector_rejected(self, sector):
        # in each sector a block with eigenvalues 0.7 and -0.1, in the other 0.2 and 0.2
        rows = {"even": [0, 3], "odd": [1, 2]}
        rho = np.diag([0.2, 0.2, 0.2, 0.2]).astype(complex)
        rho[np.ix_(rows[sector], rows[sector])] = [[0.3, 0.4], [0.4, 0.3]]
        with pytest.raises(NotBonaFideError, match="negative eigenvalue -1.000e-01"):
            oracle.DenseState(rho)

    @pytest.mark.parametrize("sector", ["even", "odd"])
    @pytest.mark.parametrize("n", [2, 9])
    def test_smallest_eigenvalue_threshold(self, n, sector, rng):
        # refused below -1e-10 with the eigenvalue's digits, accepted above it
        with pytest.raises(NotBonaFideError, match="negative eigenvalue -2.000e-10"):
            oracle.DenseState(_state_with_low_eigenvalue(rng, n, sector, -2e-10))
        oracle.DenseState(_state_with_low_eigenvalue(rng, n, sector, -5e-11))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_built_blocks_are_checked(self, n, rng):
        # canonical values outside [-1, 1] build a unit-trace Hermitian ρ with a
        # negative eigenvalue, which the check of the built blocks refuses
        lams = np.full(n, 0.5)
        lams[-1] = 1.2
        blocks = oracle._state_blocks(special_orthogonal(rng, 2 * n), lams, n)
        with pytest.raises(NotBonaFideError, match=r"negative eigenvalue -[0-9.]+e-0[0-9]"):
            oracle._adopt(blocks)
        blocks[1, 0, 0] = np.nan
        with pytest.raises(NotBonaFideError, match="non-finite"):
            oracle._adopt(blocks)


def _state_with_low_eigenvalue(rng, n, sector, low):
    """A parity-even ρ of unit trace whose `sector` block has smallest
    eigenvalue `low`, each block in a random unitary eigenbasis."""
    signs = np.diag(oracle.parity_operator(n)).real
    half = 2 ** (n - 1)
    weights = rng.uniform(0.5, 1.0, size=2 * half - 1)
    weights *= (1.0 - low) / weights.sum()
    spectra = {sector: np.concatenate([[low], weights[: half - 1]])}
    spectra["odd" if sector == "even" else "even"] = weights[half - 1 :]
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for name, sign in (("even", 1.0), ("odd", -1.0)):
        z = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
        u, _ = np.linalg.qr(z)
        block = (u * spectra[name]) @ u.conj().T
        rows = np.flatnonzero(signs == sign)
        rho[np.ix_(rows, rows)] = (block + block.conj().T) / 2.0
    return rho


class TestMemoryGuard:
    def test_dense_jordan_wigner_refused_before_allocation(self):
        # 24 matrices of 4096 x 4096 complex entries: about 6 GiB
        start = time.perf_counter()
        with pytest.raises(TooManyModesError, match="GiB"):
            oracle.jordan_wigner(12)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_state_build_peak(self, n, random_cm_factory):
        # the sector blocks are checked before ρ is made of them: the call
        # peaks at 1.5 matrices (ρ and the blocks) plus about 0.13 MiB of
        # numpy's indexing buffers whatever n (1.637, 1.534 and 1.509 measured)
        bound = {8: 1.66, 9: 1.56, 10: 1.53}[n]
        cm = random_cm_factory(n)
        tracemalloc.start()
        try:
            state = oracle.state_from_cm(cm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.n == n and not state.rho.flags.writeable
        assert peak < bound * 16 * 4**n

    @pytest.mark.parametrize("n", [10, 11])
    def test_state_build_resident_growth(self, n):
        # tracemalloc cannot see heap that glibc keeps resident after a freed
        # mid-size buffer lifts its mmap threshold; the resident high-water
        # mark of a fresh process can. It grows by the 1.5 matrices of ρ and
        # the blocks plus a few MiB whatever n (3.4 and 4.6 MiB measured),
        # the figures MODE_CAP's comment keeps. The child reads its own VmHWM,
        # which exec starts afresh: ru_maxrss would start at the peak of the
        # process that started it, and a whole test session hides the growth
        code = (
            "import numpy as np\n"
            "from fgext import oracle, verify\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
            f"cm = verify.random_bona_fide_cm(np.random.default_rng({n}), {n})\n"
            "before = peak()\n"
            "state = oracle.state_from_cm(cm)\n"
            "print(state.n, (peak() - before) * 1024)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        modes, growth = map(int, out.stdout.split())
        assert modes == n
        assert growth <= 1.5 * 16 * 4**n + 8 * 2**20

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_trace_distance_peak(self, n, random_cm_factory):
        # the difference is taken on the gathered sector blocks, half a matrix
        # each, and never as a full 2^n x 2^n matrix: the call peaks at one
        # matrix plus the eigensolve's work (1.131, 1.033 and 1.009 measured)
        bound = {8: 1.16, 9: 1.06, 10: 1.04}[n]
        a, b = (oracle.state_from_cm(random_cm_factory(n)) for _ in range(2))
        tracemalloc.start()
        try:
            oracle.trace_distance(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 16 * 4**n

    def test_every_dense_allocation_checks_the_cap(self, monkeypatch):
        # MODE_CAP alone bounds a state (1.5 matrices and a few MiB): whoever
        # raises it past this line must charge a state's bytes again
        assert 2 * 16 * 4**oracle.MODE_CAP <= oracle.DENSE_BYTES_CAP
        monkeypatch.setattr(oracle, "DENSE_BYTES_CAP", 2**10)
        with pytest.raises(TooManyModesError, match="GiB cap"):
            oracle.jordan_wigner(3)


def test_pure_state_at_ten_modes(rng):
    # every λ = ±1: half of each sector's spectrum sits at 0, the edge of DenseState's check
    form = matalg.CanonicalForm(special_orthogonal(rng, 20), rng.choice([-1.0, 1.0], 10))
    cm = fgs.validate_cm(matalg.antisymmetrize(form.reconstruct()))
    state = oracle.state_from_cm(cm)
    assert abs(np.vdot(state.rho, state.rho).real - 1.0) < 1e-10  # Tr ρ² of a pure state


def test_roundtrip_and_wick_pairs_at_ten_modes(random_cm_factory):
    cm = random_cm_factory(10)
    state = oracle.state_from_cm(cm)
    assert np.max(np.abs(oracle.cm_from_state(state).mat - cm.mat)) < 1e-9
    for idx in itertools.combinations(range(20), 2):
        lhs, rhs = oracle.wick_check(state, cm, idx)
        assert abs(lhs - rhs) < 1e-9
