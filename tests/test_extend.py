import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgext import extend, fgs, matalg, oracle, solver
from fgext.bounds import epsilon_family, family_cm
from fgext.errors import InvalidParameterError, NotFeasibleError
from fgext.extend import ExtendQuery, FeasibilityStatus, _theorem_constraints
from fgext.verify import twirled_extendible_instance


def family_query(k1, k2, q1=None, q2=None):
    return ExtendQuery(family_cm(k1, k2), q1 or k1, q2 or k2)


class TestPrechecks:
    def test_lemma3_boundary_family(self):
        # family at its own parameters sits exactly on the bound
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
            res = extend.one_sided_feasibility(b, k)
            assert res.feasible
            # the displayed one-sided matrix inequality holds for the witness
            assert one_sided_matrix_min_eig(b, k, res.delta_b.mat) >= -1e-8

    def test_random_one_sided_inequality(self, random_bipartite_factory):
        feasible = 0
        for n_a, n_b in ((1, 1), (1, 2), (2, 1), (1, 3)):
            for lam_max in (0.3, 0.7, 1.0):
                b = random_bipartite_factory(n_a, n_b, lam_max)
                for k in (1, 2, 3, 5):
                    res = extend.one_sided_feasibility(b, k)
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
        res = extend.one_sided_feasibility(fgs.bell_cm("phi+"), 2)
        assert res.status is not FeasibilityStatus.FEASIBLE

    def test_product_high_k(self, random_cm_factory):
        b = fgs.product_cm(random_cm_factory(1), random_cm_factory(2))
        res = extend.one_sided_feasibility(b, 50)
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
        with pytest.raises(NotFeasibleError):
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
