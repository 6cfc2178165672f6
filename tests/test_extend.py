import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import (
    bipartite, copies, family22_direct_sum, random_antisymmetric, random_pure, special_orthogonal, stinespring,
)
from fgext import channels, extend, fgs, matalg, oracle, solver
from fgext.bounds import epsilon_family, family_cm
from fgext.config import DEFAULT_CONFIG
from fgext.errors import InvalidParameterError, NotBonaFideError, SolverStalledError, WrongSplitError
from fgext.extend import ExtendQuery, FeasibilityStatus, _theorem_constraints
from fgext.verify import random_bipartite_cm, twirled_extendible_instance

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def family_query(k1, k2, q1=None, q2=None):
    return ExtendQuery(family_cm(k1, k2), q1 or k1, q2 or k2)


class TestPrechecks:
    def test_lemma3_boundary_family(self):
        # at its own order the family has λ_max(X^T X) = 1/(k1 k2), exactly on
        # the cross-block bound and a quarter of the precheck's 4/(k1 k2)
        assert extend.precheck_lemma3(family_query(2, 2)) is None

    def test_lemma3_bell_at_21(self):
        q = ExtendQuery(fgs.bell_cm("phi+"), 2, 1)
        assert extend.precheck_lemma3(q) is None

    def test_lemma3_bell_at_33(self):
        q = ExtendQuery(fgs.bell_cm("phi+"), 3, 3)
        cert = extend.precheck_lemma3(q)
        assert cert is not None and "cross-correlation" in cert

    def test_columnsum_epsilon_family(self):
        b = epsilon_family(0.1)
        cert = extend.precheck_columnsum(ExtendQuery(b, 1, 2))
        assert cert is not None and "column-sum" in cert
        assert "1.0025" in cert
        cert_sym = extend.precheck_columnsum(ExtendQuery(b, 2, 1))
        assert cert_sym is not None

    def test_columnsum_product_never_fires(self, random_cm_factory):
        b = fgs.product_cm(random_cm_factory(1), random_cm_factory(1))
        for k in (1, 2, 10, 50):
            assert extend.precheck_columnsum(ExtendQuery(b, 1, k)) is None

    def test_columnsum_silent_for_two_sided(self):
        q = family_query(2, 2, 3, 2)
        assert extend.precheck_columnsum(q) is None


class TestFeasibility:
    @pytest.mark.parametrize("k1,k2", [(1, 1), (2, 2), (1, 3), (3, 1), (2, 3)])
    def test_family_feasible_at_own_parameters(self, k1, k2):
        result = extend.feasibility(family_query(k1, k2))
        assert result.status is FeasibilityStatus.FEASIBLE
        assert result.margin >= -1e-7
        # witnesses satisfy all three constraint blocks
        low_a = matalg.min_eigenvalue(np.eye(2), result.delta_a.mat)
        low_b = matalg.min_eigenvalue(np.eye(2), result.delta_b.mat)
        assert min(low_a, low_b) >= -1e-6

    def test_epr_at_11(self):
        result = extend.feasibility(ExtendQuery(family_cm(1, 1), 1, 1))
        assert result.feasible
        # k = 1 constraints collapse to bona fideness of the input itself
        assert result.margin == pytest.approx(0.0, abs=1e-12)
        assert_allclose(result.delta_a.mat, family_cm(1, 1).block_a)

    def test_family_one_sided_certificates(self):
        for k in (1, 2, 3, 4):
            res = extend.feasibility(family_query(1, k, 1, k + 1))
            assert res.status is FeasibilityStatus.INFEASIBLE_CERTIFIED
            assert "column-sum" in res.certificate
            res = extend.feasibility(family_query(k, 1, k + 1, 1))
            assert res.status is FeasibilityStatus.INFEASIBLE_CERTIFIED

    def test_family22_at_32_numerically_infeasible(self):
        result = extend.feasibility(family_query(2, 2, 3, 2))
        assert result.status is FeasibilityStatus.INFEASIBLE_NUMERICAL
        assert result.margin == pytest.approx(-0.2247448, abs=1e-4)

    def test_bell_unextendible(self):
        # the column-sum precheck already refutes (1, 2)
        result = extend.feasibility(ExtendQuery(fgs.bell_cm("phi+"), 1, 2))
        assert result.status is FeasibilityStatus.INFEASIBLE_CERTIFIED
        # and the optimization itself converges to a clearly negative gap
        cons, warm = _theorem_constraints(ExtendQuery(fgs.bell_cm("phi+"), 1, 2))
        outcome = solver.max_margin(cons, warm)
        assert outcome.margin < -0.3

    def test_product_high_k(self, random_cm_factory):
        b = fgs.product_cm(random_cm_factory(1), random_cm_factory(1))
        result = extend.feasibility(ExtendQuery(b, 20, 20))
        assert result.feasible
        assert_allclose(result.delta_a.mat, b.block_a, atol=1e-12)

    def test_lemma3_holds_for_feasible(self):
        for k1, k2 in [(2, 2), (3, 2), (1, 4)]:
            q = family_query(k1, k2)
            result = extend.feasibility(q)
            assert result.feasible
            top = matalg.norms(q.b.block_x)[0]
            assert top * top <= 4.0 / (k1 * k2) + 1e-7

    def test_twirled_instances_feasible(self, rng):
        for k1, k2 in [(2, 1), (2, 2), (3, 2)]:
            b, _ = twirled_extendible_instance(rng, 1, 1, k1, k2)
            result = extend.feasibility(ExtendQuery(b, k1, k2))
            assert result.feasible

    def test_twirled_two_mode_sides(self, rng):
        b, _ = twirled_extendible_instance(rng, 2, 1, 2, 2)
        result = extend.feasibility(ExtendQuery(b, 2, 2))
        assert result.feasible

    @pytest.mark.parametrize(
        "n_a, n_b, k1, k2",
        [(1, 1, 2, 1), (1, 1, 1, 2), (1, 1, 2, 2), (2, 1, 2, 2), (1, 2, 3, 2),
         (2, 2, 2, 2), (2, 2, 4, 2), (1, 1, 4, 4), (2, 1, 4, 1)],
    )
    def test_twirl_witness_satisfies_theorem(self, rng, n_a, n_b, k1, k2):
        # the twirl's own (Δ_A, Δ_B) meets the theorem's constraints, no solver
        for _ in range(5):
            b, (delta_a, delta_b) = twirled_extendible_instance(rng, n_a, n_b, k1, k2)
            constraints, _ = _theorem_constraints(ExtendQuery(b, k1, k2))
            deltas = [d for k, d in ((k1, delta_a), (k2, delta_b)) if k > 1]
            assert solver._objective(constraints, deltas) >= -1e-12

    def test_monotone_in_k(self, rng):
        # feasibility survives lowering either parameter
        b, _ = twirled_extendible_instance(rng, 1, 1, 3, 2)
        for q1, q2 in [(3, 2), (2, 2), (3, 1), (1, 1)]:
            assert extend.feasibility(ExtendQuery(b, q1, q2)).feasible

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ExtendQuery(family_cm(2, 2), 0, 1)
        # a CM with no declared split
        with pytest.raises(WrongSplitError):
            ExtendQuery(fgs.vacuum_cm(2), 1, 1)
        with pytest.raises(WrongSplitError):
            extend.is_separable_gaussian(fgs.vacuum_cm(2))

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_non_integral_orders_refused(self, k):
        with pytest.raises(InvalidParameterError):
            ExtendQuery(family_cm(2, 2), k, 2)
        with pytest.raises(InvalidParameterError):
            ExtendQuery(family_cm(2, 2), 2, k)

    def test_numpy_integer_orders_accepted(self):
        q = ExtendQuery(family_cm(2, 2), np.int64(2), np.int32(2))
        result = extend.feasibility(q)
        assert result.feasible
        assert np.array_equal(
            extend.build_extension(q, result).mat,
            extend.build_extension(family_query(2, 2), extend.feasibility(family_query(2, 2))).mat,
        )

    def test_deterministic(self):
        r1 = extend.feasibility(family_query(2, 3))
        r2 = extend.feasibility(family_query(2, 3))
        assert r1.margin == r2.margin
        assert np.array_equal(r1.delta_a.mat, r2.delta_a.mat)
        assert np.array_equal(r1.delta_b.mat, r2.delta_b.mat)

    def test_lemma3_certifies_once_k_large(self, random_bipartite_factory):
        # any nonzero cross block is refuted once 4/(k1 k2) < s^2
        b = random_bipartite_factory(1, 1)
        s = matalg.norms(b.block_x)[0]
        assert s > 1e-6  # generic draw
        k = int(np.ceil(2.0 / s)) + 1
        res = extend.feasibility(ExtendQuery(b, k, k))
        assert res.status is FeasibilityStatus.INFEASIBLE_CERTIFIED
        assert "cross-correlation" in res.certificate


def one_sided_matrix_min_eig(b, k, delta_b):
    """Min eigenvalue of I_A ⊕ (1/k) I_B + i M - i (0 ⊕ (1 - 1/k) Δ_B)."""
    da = 2 * b.n_a
    db = 2 * b.n_b
    sym = np.zeros((da + db, da + db))
    sym[:da, :da] = np.eye(da)
    sym[da:, da:] = np.eye(db) / k
    skew = b.mat.copy()
    skew[da:, da:] -= (1.0 - 1.0 / k) * delta_b
    return float(np.linalg.eigvalsh(sym + 1j * skew)[0])


class TestOneSided:
    def test_family_one_sided_feasible(self):
        for k in (1, 2, 4, 6):
            b = family_cm(1, k)
            res = extend.feasibility(ExtendQuery(b, 1, k))
            assert res.feasible
            # the displayed one-sided matrix inequality holds for the witness
            assert one_sided_matrix_min_eig(b, k, res.delta_b.mat) >= -1e-8

    def test_random_one_sided_inequality(self, random_bipartite_factory):
        feasible = 0
        for n_a, n_b in ((1, 1), (1, 2), (2, 1), (1, 3)):
            for lam_max in (0.3, 0.7, 1.0):
                b = random_bipartite_factory(n_a, n_b, lam_max)
                for k in (1, 2, 3, 5):
                    res = extend.feasibility(ExtendQuery(b, 1, k))
                    if res.feasible:
                        feasible += 1
                        # the one-sided matrix is the (1, k) joint constraint
                        # congruence-transformed by I ⊕ k^{-1/2} I, which scales a
                        # positive margin down by at most k and cannot shrink a
                        # negative one
                        low = one_sided_matrix_min_eig(b, k, res.delta_b.mat)
                        assert low >= min(res.margin / k, res.margin) - 1e-8
        assert feasible >= 12

    def test_bell_at_two(self):
        res = extend.feasibility(ExtendQuery(fgs.bell_cm("phi+"), 1, 2))
        assert res.status is not FeasibilityStatus.FEASIBLE

    def test_product_high_k(self, random_cm_factory):
        b = fgs.product_cm(random_cm_factory(1), random_cm_factory(2))
        res = extend.feasibility(ExtendQuery(b, 1, 50))
        assert res.feasible
        assert_allclose(res.delta_b.mat, b.block_b, atol=1e-12)


class TestBuildExtension:
    def test_family22_extension(self):
        q = family_query(2, 2)
        result = extend.feasibility(q)
        ext = extend.build_extension(q, result)
        assert ext.modes == 4
        # block-permutation invariance: swap the two A copies and the two
        # B copies
        perm = np.arange(8)
        perm[[0, 1, 2, 3]] = [2, 3, 0, 1]
        swapped = ext.mat[np.ix_(perm, perm)]
        assert_allclose(swapped, ext.mat)
        perm = np.arange(8)
        perm[[4, 5, 6, 7]] = [6, 7, 4, 5]
        assert_allclose(ext.mat[np.ix_(perm, perm)], ext.mat)
        # every (A_i, B_j) pair marginal equals the input exactly
        for i in range(2):
            for j in range(2):
                rows = [2 * i, 2 * i + 1, 4 + 2 * j, 4 + 2 * j + 1]
                assert_allclose(ext.mat[np.ix_(rows, rows)], q.b.mat)

    @pytest.mark.parametrize("n_a, n_b, k1, k2", [(1, 2, 3, 2), (2, 1, 2, 3), (2, 3, 2, 2)])
    def test_every_block_of_unequal_copies(self, n_a, n_b, k1, k2):
        b, _ = twirled_extendible_instance(np.random.default_rng(k1 + 10 * n_a), n_a, n_b, k1, k2)
        q = ExtendQuery(b, k1, k2)
        result = extend.feasibility(q)
        assert result.feasible
        ext = extend.build_extension(q, result).mat
        da, db = 2 * n_a, 2 * n_b
        assert ext.shape == (k1 * da + k2 * db,) * 2
        # copy c occupies rows start(c) .. start(c) + size(c): A_1..A_k1, then B_1..B_k2
        spans = [(i * da, da, "A") for i in range(k1)] + [(k1 * da + j * db, db, "B") for j in range(k2)]
        z = b.block_a - result.delta_a.mat
        y = b.block_b - result.delta_b.mat
        for r, (r0, rd, r_side) in enumerate(spans):
            for c, (c0, cd, c_side) in enumerate(spans):
                block = ext[r0 : r0 + rd, c0 : c0 + cd]
                expected = {
                    ("A", "A"): b.block_a if r == c else z,
                    ("B", "B"): b.block_b if r == c else y,
                    ("A", "B"): b.block_x,
                    ("B", "A"): -b.block_x.T,
                }[r_side, c_side]
                assert np.array_equal(block, expected), (r, c)

    def test_product_extension_block_diagonal(self, random_cm_factory):
        b = fgs.product_cm(random_cm_factory(1), random_cm_factory(1))
        q = ExtendQuery(b, 2, 3)
        result = extend.feasibility(q)
        ext = extend.build_extension(q, result)
        assert ext.modes == 5

    def test_dense_marginals_of_21_extension(self):
        q = family_query(2, 1)
        result = extend.feasibility(q)
        ext = extend.build_extension(q, result)
        state = oracle.state_from_cm(ext)
        target = oracle.state_from_cm(q.b.cm)
        # (A_2, B_1) marginal: trace out the leading mode
        red = oracle.reduced_state(state, 2, side="B")
        assert oracle.trace_distance(red, target) < 1e-8
        # (A_1, B_1) marginal: permute modes to (A_1, B_1, A_2) first
        perm = [0, 1, 4, 5, 2, 3]
        perm_cm = fgs.validate_cm(
            matalg.antisymmetrize(ext.mat[np.ix_(perm, perm)]),
            eps_psd=1e-7,
        )
        red2 = oracle.reduced_state(oracle.state_from_cm(perm_cm), 2, side="A")
        assert oracle.trace_distance(red2, target) < 1e-8

    def test_infeasible_refuses(self):
        q = ExtendQuery(fgs.bell_cm("phi+"), 3, 3)
        result = extend.feasibility(q)
        with pytest.raises(InvalidParameterError, match="cannot build an extension"):
            extend.build_extension(q, result)


class TestSeparability:
    def test_product(self, random_cm_factory):
        b = fgs.product_cm(random_cm_factory(1), random_cm_factory(2))
        assert extend.is_separable_gaussian(b)

    def test_family_not_separable(self):
        for k in (1, 2, 5):
            assert not extend.is_separable_gaussian(family_cm(k, k))

    def test_bell_not_separable(self):
        assert not extend.is_separable_gaussian(fgs.bell_cm("phi+"))


class TestZeroMarginalElimination:
    """A k = 1 side whose marginal is exactly 0 is the block I of the last
    matrix and leaves it by its Schur complement."""

    @staticmethod
    def pairs(rng):
        # a (q, 1) query with M_B = 0 and its swapped (1, q) copy with M_A = 0
        states = [family_cm(k, 1) for k in range(1, 5)]
        states += [channels.choi_cm(stinespring(rng, *shape)) for shape in ((1, 1, 2), (2, 1, 1), (2, 2, 3))]
        for b in states:
            for q in (1, 2, 3):
                yield ExtendQuery(b, q, 1), ExtendQuery(copies(b, rng)[1], 1, q)

    def test_last_constraint_keeps_the_other_side(self, rng):
        for query, swapped in self.pairs(rng):
            x = query.b.block_x
            cons, _ = _theorem_constraints(query)
            assert cons[-1].dim == 2 * query.b.n_a
            assert_allclose(cons[-1].sym_part, np.eye(len(x)) - query.k1 * x @ x.T, atol=1e-15)
            cons, _ = _theorem_constraints(swapped)
            assert cons[-1].dim == 2 * swapped.b.n_b

    def test_swapped_copies_have_equal_margins(self, rng):
        for query, swapped in self.pairs(rng):
            ours = extend.solver_verdict(query, DEFAULT_CONFIG)
            theirs = extend.solver_verdict(swapped, DEFAULT_CONFIG)
            assert ours.feasible == theirs.feasible
            assert ours.margin == pytest.approx(theirs.margin, abs=1e-12)

    @pytest.mark.parametrize("k, q", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)])
    def test_family_above_its_order_meets_the_reduced_closed_form(self, k, q):
        # the symmetric part is (1 - q/k) I, and Δ_A = q M_A / (q - 1) zeroes the skew part
        result = extend.solver_verdict(family_query(k, 1, q, 1), DEFAULT_CONFIG)
        assert result.status is FeasibilityStatus.INFEASIBLE_NUMERICAL
        assert result.margin == pytest.approx(1.0 - q / k, abs=1e-9)

    def test_nonzero_marginal_is_kept(self, rng):
        b = twirled_extendible_instance(rng, 1, 2, 2, 1)[0]
        cons, _ = _theorem_constraints(ExtendQuery(b, 2, 1))
        assert cons[-1].dim == 6


def one_mode_state(kind, seed):
    """A 1+1 state: random mixed or pure, family_cm, or a random 1→1 channel's Choi state."""
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        return random_bipartite_cm(rng, 1, 1, rng.uniform(0.2, 1.0))
    if kind == "pure":
        return random_pure(rng, 1, 1)
    if kind == "family":
        return family_cm(*(int(k) for k in rng.integers(1, 6, 2)))
    return channels.choi_cm(stinespring(rng, 1, int(rng.integers(1, 3)), 1))


class TestOneModeStart:
    """_one_mode_start against max_margin run from the marginals."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(["mixed", "pure", "family", "choi"]), st.integers(0, 2**32 - 1),
           st.integers(1, 4), st.integers(1, 4))
    def test_start_keeps_the_verdict_and_the_infeasible_margin(self, kind, seed, k1, k2):
        b = one_mode_state(kind, seed)
        query = ExtendQuery(b, k1, k2)
        cons, warm = _theorem_constraints(query)
        target = solver.margin_target(DEFAULT_CONFIG)
        start = extend._one_mode_start(query)
        # a start comes iff some k > 1 and the marginals miss a margin of 0;
        # a 1e-9 gap keeps rounding at the edge out of the test
        s = np.sqrt(k1 * k2)
        skew = np.block([[b.block_a, s * b.block_x], [-s * b.block_x.T, b.block_b]])
        at_marginals = 1.0 - np.abs(np.linalg.eigvalsh(1j * skew)).max()
        if max(k1, k2) > 1 and at_marginals < -1e-9:
            assert start is not None
        if k1 == k2 == 1 or at_marginals > 1e-9:
            assert start is None
        try:
            margin = solver.max_margin(cons, warm).margin
        except SolverStalledError:
            return
        outcomes = []

        def spy(*args, **kwargs):
            outcomes.append(solver.max_margin(*args, **kwargs))
            return outcomes[-1]

        with mock.patch.object(extend, "max_margin", spy):
            verdict = extend.solver_verdict(query, DEFAULT_CONFIG)
        # a start that meets the rule is accepted as it is, and a feasible
        # query has one (or marginals that meet the rule)
        if margin >= target or start is not None and solver._objective(cons, start) >= target:
            assert outcomes[0].iterations == 0
        if abs(margin) > 1e-6:
            assert verdict.feasible == (margin >= target)
        if margin < target:
            assert abs(verdict.margin - margin) <= 1e-8

    def test_top_eigenvalue_in_closed_form(self, rng):
        # λ_max(iK) = (hypot(p + q, A) + hypot(p - q, B))/2 for K = [[pJ, sX], [-sXᵀ, qJ]]
        for _ in range(2000):
            p, q, s = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.0, 3.0)
            (x00, x01), (x10, x11) = x = rng.standard_normal((2, 2))
            skew = np.block([[p * J, s * x], [-s * x.T, q * J]])
            a, b = s * math.hypot(x00 - x11, x01 + x10), s * math.hypot(x00 + x11, x01 - x10)
            top = np.linalg.eigvalsh(1j * skew)[-1]
            assert (math.hypot(p + q, a) + math.hypot(p - q, b)) / 2.0 == pytest.approx(top, rel=1e-13)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(["mixed", "pure", "family", "choi"]), st.integers(0, 2**32 - 1),
           st.integers(1, 4), st.integers(1, 4))
    def test_start_meets_the_target_iff_the_query_is_feasible(self, kind, seed, k1, k2):
        b = one_mode_state(kind, seed)
        query = ExtendQuery(b, k1, k2)
        want = one_mode_margin(b, k1, k2)
        if abs(want) <= 1e-9:
            return
        cons, warm = _theorem_constraints(query)
        start = extend._one_mode_start(query)
        meets = solver._objective(cons, warm if start is None else start) >= solver.margin_target(DEFAULT_CONFIG)
        assert meets == (want > 0.0)

    @pytest.mark.parametrize("a", [0.0, 0.6, 1.0, 1.0 + DEFAULT_CONFIG.eps_psd / 2.0])
    @pytest.mark.parametrize("k1, k2", [(2, 1), (1, 2), (2, 2), (3, 2), (4, 4)])
    def test_product_states_start_feasible(self, a, k1, k2):
        # X = 0: A = B = 0, so h = 2 max(|p|, |q|); a marginal just outside the
        # unit disc (within eps_psd) fails the pretest and still gets a witness
        b = bipartite(np.block([[a * J, np.zeros((2, 2))], [np.zeros((2, 2)), -0.3 * J]]), 1, 1)
        query = ExtendQuery(b, k1, k2)
        cons, warm = _theorem_constraints(query)
        start = extend._one_mode_start(query)
        assert (start is None) == (a <= 1.0)
        assert solver._objective(cons, warm if start is None else start) >= solver.margin_target(DEFAULT_CONFIG)
        assert extend.solver_verdict(query, DEFAULT_CONFIG).feasible

    @pytest.mark.parametrize("kind", ["mixed", "pure", "family", "choi"])
    def test_swapped_queries_start_at_the_same_floats(self, kind):
        for seed in range(20):
            b = one_mode_state(kind, seed)
            swapped = bipartite(b.mat[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])], 1, 1)
            for k in (2, 3, 4):
                ours = extend._one_mode_start(ExtendQuery(b, 1, k))
                theirs = extend._one_mode_start(ExtendQuery(swapped, k, 1))
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    assert [t.tolist() for t in ours] == [t.tolist() for t in theirs]


def one_mode_margin(b, k1, k2):
    """The largest margin t of a 1+1 query, by bisection on t, from the last
    constraint's Schur complement alone (written apart from _one_mode_start).

    With M_A = aJ, M_B = bJ, Δ_A = αJ, Δ_B = βJ, p = k1 a - (k1-1)α and
    q = k2 b - (k2-1)β, t is feasible iff some |α|, |β| <= u = 1 - t (a side
    with k = 1 keeps its marginal) makes uI + i[[pJ, sX], [-sXᵀ, qJ]] ⪰ 0,
    s² = k1 k2. For |p| < u the Schur complement of uI + ipJ is
    u(I - cXᵀX) + i(q + cpd)J with c = s²/(u² - p²) and d = det X, so p
    needs c x1² <= 1 (x1 >= x2 the singular values of X) and q the window
    |q + cpd| <= u sqrt((1 - c x1²)(1 - c x2²)). The window's ends are
    concave and convex in p, so ternary search finds the p at which it
    reaches furthest into q's range.
    """
    a, m_b, x = b.block_a[0, 1], b.block_b[0, 1], b.block_x
    d = np.linalg.det(x)
    x1, x2 = np.linalg.svd(x, compute_uv=False)
    s2 = k1 * k2

    def span(k, m, u):
        return (m, m) if k == 1 else (k * m - (k - 1) * u, k * m + (k - 1) * u)

    def feasible(t):
        u = 1.0 - t
        if u <= 0.0 or s2 * x1 * x1 >= u * u:
            return False
        (p_lo, p_hi), (q_lo, q_hi) = span(k1, a, u), span(k2, m_b, u)

        def reach(p):
            # >= 0 iff q's window meets [q_lo, q_hi]
            c = s2 / (u * u - p * p)
            r = u * np.sqrt(max((1.0 - c * x1 * x1) * (1.0 - c * x2 * x2), 0.0))
            return min(r - c * p * d - q_lo, r + c * p * d + q_hi)

        w = np.sqrt(u * u - s2 * x1 * x1)
        lo, hi = max(p_lo, -w), min(p_hi, w)
        if lo > hi:
            return False
        for _ in range(70):
            left, right = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            at_left, at_right = reach(left), reach(right)
            if max(at_left, at_right) >= 0.0:
                return True
            if at_left < at_right:
                lo = left
            else:
                hi = right
        return reach((lo + hi) / 2.0) >= 0.0

    lo, hi = -1.0, 1.0
    while not feasible(lo):
        lo *= 2.0
    for _ in range(40):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo


def eliminates_a_side(query):
    """True where _theorem_constraints removes a k = 1 side with marginal 0,
    which changes the margin's scale but not its sign."""
    b = query.b
    return (query.k2 == 1 and not b.block_b.any()) or (query.k1 == 1 and not b.block_a.any())


class TestOneModeReference:
    """solver_verdict on 1+1 queries against one_mode_margin."""

    @pytest.mark.parametrize(
        "own, order",
        [((2, 2), (3, 3)), ((3, 3), (4, 4)), ((3, 4), (4, 5)), ((2, 4), (3, 5)),
         ((2, 1), (3, 2)), ((2, 2), (3, 2)), ((1, 1), (1, 2)), ((1, 3), (2, 4))],
    )
    def test_family_above_its_order(self, own, order):
        want = 1.0 - np.sqrt(order[0] * order[1] / (own[0] * own[1]))
        assert one_mode_margin(family_cm(*own), *order) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.45, 0.49, 0.51, 0.55, 0.7, 0.9])
    @pytest.mark.parametrize("k", [2, 3])
    def test_pure_loss_verdicts(self, lam, k):
        # k-extendible iff λ <= 1/k (antidegradable at k = 2); the eliminated
        # input side scales the solver's margin, so only the verdicts are compared
        query = ExtendQuery(channels.choi_cm(channels.pure_loss(lam)), k, 1)
        assert eliminates_a_side(query)
        margin = one_mode_margin(query.b, k, 1)
        feasible = extend.solver_verdict(query, DEFAULT_CONFIG).feasible
        if lam < 1.0 / k:
            assert feasible and abs(margin) < 1e-9  # a single feasible point
        else:
            assert not feasible and margin < -2e-5

    @pytest.mark.parametrize("seed", range(8))
    def test_random_choi_verdicts(self, seed):
        rng = np.random.default_rng(seed)
        b = channels.choi_cm(stinespring(rng, 1, 1 + seed % 2, 1))
        for k in (2, 3, 4):
            query = ExtendQuery(b, k, 1)
            assert eliminates_a_side(query)
            margin = one_mode_margin(b, k, 1)
            if abs(margin) > 2e-5:
                assert extend.solver_verdict(query, DEFAULT_CONFIG).feasible == (margin > 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1),
           st.integers(1, 4), st.integers(1, 4))
    def test_rotated_canonical_forms(self, lam1, lam2, seed, k1, k2):
        assume(not k1 == k2 == 1)
        rotation = special_orthogonal(np.random.default_rng(seed), 4)
        b = bipartite(matalg.CanonicalForm(rotation, np.array([lam1, lam2])).reconstruct(), 1, 1)
        query = ExtendQuery(b, k1, k2)
        margin = one_mode_margin(b, k1, k2)
        assume(abs(margin) > 2e-5)  # outside the solver's ambiguous band
        result = extend.solver_verdict(query, DEFAULT_CONFIG)
        assert result.feasible == (margin > 0.0)
        if not result.feasible and not eliminates_a_side(query):
            assert result.margin == pytest.approx(margin, abs=2e-8)


def cross_block_query(kind, seed, n_a, n_b, k1, k2):
    """A random n_a+n_b query: mixed, pure, or a channel's Choi state at (k1, 1)
    (at (2, 1) for even seeds) or, swapped, at (1, k2)."""
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        return ExtendQuery(random_bipartite_cm(rng, n_a, n_b, rng.uniform(0.2, 1.0)), k1, k2)
    if kind == "pure":
        return ExtendQuery(random_pure(rng, n_a, n_b), k1, k2)
    b = channels.choi_cm(stinespring(rng, n_b, int(rng.integers(1, 3)), n_a))
    if kind == "choi":
        return ExtendQuery(b, 2 if seed % 2 == 0 else k1, 1)
    return ExtendQuery(copies(b, rng)[1], 1, k2)


def marginal_bounded_query(seed, n_a, n_b, k1, k2, t_a, t_b, r):
    """An n_a+n_b query at (k1, k2) with ‖M_A‖_op = t_a (1 - 1/k1), ‖M_B‖_op =
    t_b (1 - 1/k2) and sqrt(k1 k2) ‖X‖_op = r, or None where validate_cm
    refuses the state."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n, k, t in ((n_a, k1, t_a), (n_b, k2, t_b)):
        m = random_antisymmetric(rng, 2 * n)
        blocks.append(t * (1.0 - 1.0 / k) * m / np.linalg.norm(m, 2))
    x = rng.standard_normal((2 * n_a, 2 * n_b))
    x *= r / (math.sqrt(k1 * k2) * np.linalg.norm(x, 2))
    try:
        return ExtendQuery(bipartite(np.block([[blocks[0], x], [-x.T, blocks[1]]]), n_a, n_b), k1, k2)
    except NotBonaFideError:
        return None


query_draws = st.builds(
    cross_block_query, st.sampled_from(["mixed", "pure", "choi", "choi-swapped"]),
    st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
)


def dual_point(query):
    """The rank-one W of cross_block_bound, from numpy's SVD of X alone: e eᵀ
    on I - k X Xᵀ (Xᵀ X) where a zero marginal goes, else v vᴴ with
    v = (e ⊕ i f)/√2 for the top singular pair (e, f)."""
    u, _, vt = np.linalg.svd(query.b.block_x)
    if eliminates_a_side(query):
        e = u[:, 0] if query.k2 == 1 and not query.b.block_b.any() else vt[0]
        return np.outer(e, e).astype(complex)
    v = np.concatenate([u[:, 0], 1j * vt[0]]) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def dense_f(constraint, deltas):
    """F_c(Δ) = A_c + i (S_c + Σ coeff · embed(Δ_j)), written from the MatrixConstraint's fields."""
    k = constraint.skew_const.astype(float)
    for coeff, var, off in constraint.terms:
        d = len(deltas[var])
        k[off : off + d, off : off + d] += coeff * deltas[var]
    return constraint.sym_part + 1j * k


class TestCrossBlockBound:
    """No Δ has a margin above cross_block_bound, which the second start attains."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(query_draws)
    def test_no_margin_exceeds_the_bound(self, query):
        cons, warm = _theorem_constraints(query)
        try:
            outcome = solver.max_margin(cons, warm)
        except SolverStalledError:
            return
        assert outcome.margin <= extend.cross_block_bound(query) + 1e-9

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(query_draws, st.integers(0, 2**32 - 1))
    def test_the_rank_one_dual_point_gives_the_bound_at_every_delta(self, query, seed):
        rng = np.random.default_rng(seed)
        cons, warm = _theorem_constraints(query)
        w = dual_point(query)
        assert np.trace(w).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(w)[0] >= -1e-12
        bound = extend.cross_block_bound(query)
        # W sits on the last constraint alone, so only its F counts
        for scale in (0.0, 0.5, 3.0):
            deltas = [random_antisymmetric(rng, len(d), scale) for d in warm]
            value = np.trace(w @ dense_f(cons[-1], deltas)).real
            assert value == pytest.approx(bound, abs=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(2, 4), st.integers(2, 4),
        st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.one_of(st.floats(0.0, 0.999, exclude_max=True), st.floats(1.001, 1.5, exclude_min=True)),
    )
    def test_marginals_inside_the_witness_ball_decide_by_x_alone(self, seed, n_a, n_b, k1, k2, t_a, t_b, r):
        # with ‖M_j‖_op <= 1 - 1/k_j, Δ_j = k_j M_j/(k_j - 1) is a witness iff
        # sqrt(k1 k2) ‖X‖_op <= 1, and the cross-block bound refutes the rest
        query = marginal_bounded_query(seed, n_a, n_b, k1, k2, t_a, t_b, r)
        assume(query is not None)
        assert extend.feasibility(query).feasible is (r <= 1.0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k1, k2", [(3, 3), (2, 3), (3, 2)])
    def test_direct_sums_start_on_the_bound(self, n, k1, k2):
        # rotated family_cm(2, 2) sums: Δ = kM/(k-1) has margin 1 - sqrt(k1 k2)/2
        b = family22_direct_sum(n, np.random.default_rng(n))
        query = ExtendQuery(b, k1, k2)
        bound = extend.cross_block_bound(query)
        assert bound == pytest.approx(1.0 - math.sqrt(k1 * k2) / 2.0, abs=1e-12)
        cons, _ = _theorem_constraints(query)
        assert solver._objective(cons, extend._cross_block_start(query)) == pytest.approx(bound, abs=1e-12)
        outcomes = []

        def spy(*args, **kwargs):
            outcomes.append(solver.max_margin(*args, **kwargs))
            return outcomes[-1]

        with mock.patch.object(extend, "max_margin", spy):
            result = extend.feasibility(query)
        assert result.status is FeasibilityStatus.INFEASIBLE_NUMERICAL
        assert outcomes[0].iterations == 0 and outcomes[0].bound == bound
        assert result.certificate == f"cross-block bound: margin <= {bound:.10g}"

    def test_the_unclipped_start_attains_the_bound(self):
        # ‖M_A‖ = 0.645 and ‖M_B‖ = 0.525 lie below ‖X‖ = 0.663, so Δ = 2M is
        # on the bound, -0.3258, though outside the unit ball; scaled to norm
        # 0.999 it falls to -0.3405
        query = ExtendQuery(random_bipartite_cm(np.random.default_rng(0), 2, 2), 2, 2)
        cons, _ = _theorem_constraints(query)
        start = extend._cross_block_start(query)
        assert max(np.linalg.norm(d, 2) for d in start) > 1.0
        bound = extend.cross_block_bound(query)
        assert solver._objective(cons, start) == pytest.approx(bound, abs=1e-12)
        clipped = [d * min(1.0, 0.999 / np.linalg.norm(d, 2)) for d in start]
        assert solver._objective(cons, clipped) < bound - 1e-2
        assert extend.feasibility(query).margin == pytest.approx(bound, abs=1e-12)

    @pytest.mark.parametrize("n_a, n_b, k1, k2", [(2, 1, 2, 2), (1, 2, 3, 2), (2, 2, 2, 2), (1, 1, 2, 2)])
    def test_a_start_that_meets_the_target_reads_neither(self, monkeypatch, n_a, n_b, k1, k2):
        b, _ = twirled_extendible_instance(np.random.default_rng(n_a + 2 * n_b), n_a, n_b, k1, k2)
        query = ExtendQuery(b, k1, k2)
        cons, warm = _theorem_constraints(query)
        assert solver._objective(cons, warm) >= 0.0

        def refuse(*args):
            raise AssertionError("read on a start that meets the target")

        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(extend, "cross_block_bound", refuse)
        monkeypatch.setattr(extend, "_cross_block_start", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        result = extend.solver_verdict(query, DEFAULT_CONFIG)
        assert result.feasible
        # one eigensolve per constraint, the start's own margin, and no other
        assert len(calls) == len(cons)

    def test_one_svd_per_query(self, monkeypatch):
        # precheck_lemma3 and the bound share ‖X‖_op
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        result = extend.feasibility(ExtendQuery(family_cm(2, 2), 3, 3))
        assert result.certificate == "cross-block bound: margin <= -0.5"
        assert len(calls) == 1
