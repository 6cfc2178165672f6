import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgext import bounds, extend, fgs, matalg, oracle
from fgext.errors import OutOfRangeError

#: Every split with n_A + n_B <= 6.
SPLITS = [(n_a, n_b) for n_a in range(1, 6) for n_b in range(1, 7 - n_a)]


class TestBinaryEntropy:
    def test_half(self):
        assert fgs.binary_entropy(0.5) == 1.0

    def test_endpoints_exact(self):
        assert fgs.binary_entropy(0.0) == 0.0
        assert fgs.binary_entropy(1.0) == 0.0

    def test_quarter(self):
        assert fgs.binary_entropy(0.25) == pytest.approx(0.8112781244591328)
        assert fgs.binary_entropy(0.25) == pytest.approx(
            fgs.binary_entropy(0.75)
        )

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            fgs.binary_entropy(-0.1)
        with pytest.raises(OutOfRangeError):
            fgs.binary_entropy(1.1)


class TestDeFinettiBounds:
    def test_one_one_two_two(self):
        rep = bounds.definetti_bounds(1, 1, 2, 2)
        assert rep.t == pytest.approx(1.0)
        assert rep.er_upper == pytest.approx(2.0)
        assert rep.esq_upper == pytest.approx(1.0)

    def test_clamped_at_two(self):
        rep = bounds.definetti_bounds(1, 1, 1, 1)
        assert rep.t == 2.0
        assert rep.er_upper == pytest.approx(2.0)
        assert rep.esq_upper == pytest.approx(1.0)

    def test_large_k(self):
        rep = bounds.definetti_bounds(3, 5, 100, 100)
        assert rep.t == pytest.approx(0.06)

    def test_monotone_in_k(self):
        prev_er, prev_esq = np.inf, np.inf
        for k in range(1, 12):
            rep = bounds.definetti_bounds(2, 3, k, k + 1)
            assert rep.er_upper <= prev_er + 1e-12
            assert rep.esq_upper <= prev_esq + 1e-12
            prev_er, prev_esq = rep.er_upper, rep.esq_upper

    def test_t_range(self):
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                rep = bounds.definetti_bounds(2, 2, k1, k2)
                assert 0.0 <= rep.t <= 2.0

    @pytest.mark.parametrize("bad", [0, 2.5, 2.0, True])
    @pytest.mark.parametrize("position", range(4))
    def test_counts_and_orders_must_be_positive_integers(self, bad, position):
        args = [1, 1, 2, 2]
        args[position] = bad
        with pytest.raises(OutOfRangeError):
            bounds.definetti_bounds(*args)

    def test_numpy_integers_accepted(self):
        assert bounds.definetti_bounds(*map(np.int64, (1, 1, 2, 2))) == bounds.definetti_bounds(1, 1, 2, 2)


class TestTraceUpper:
    def test_family(self):
        assert bounds.trace_upper_from_cm(bounds.family_cm(2, 2)) == pytest.approx(1.0)

    def test_product(self, random_cm_factory):
        b = fgs.product_cm(random_cm_factory(1), random_cm_factory(1))
        assert bounds.trace_upper_from_cm(b) == 0.0

    def test_bell(self):
        assert bounds.trace_upper_from_cm(fgs.bell_cm("phi+")) == pytest.approx(2.0)

    def test_matches_definetti_t(self):
        got = bounds.trace_upper_from_cm(bounds.family_cm(2, 2))
        rep = bounds.definetti_bounds(1, 1, 2, 2)
        assert got == pytest.approx(rep.t, abs=1e-10)


class TestLowerBoundTwoMode:
    @pytest.mark.parametrize("k1", range(1, 9))
    @pytest.mark.parametrize("k2", range(1, 9))
    def test_family_tightness(self, k1, k2):
        got = bounds.lower_bound_two_mode(bounds.family_cm(k1, k2))
        assert got == pytest.approx(1.0 / math.sqrt(k1 * k2), abs=1e-12)

    @pytest.mark.parametrize("lam_max", [1.0, 0.999, 0.9, 0.5, 0.1])
    def test_is_minimum_over_separable_box(self, random_bipartite_factory, random_cm_factory, lam_max):
        # ||M - diag(D_A, D_B)||_op from a dense eigensolve never undercuts the
        # bound over random bona fide D_A, D_B, and the marginal product attains it
        def opnorm(m, sep):
            return float(np.max(np.abs(np.linalg.eigvalsh(1j * (m - sep.mat)))))

        for n_a, n_b in SPLITS:
            seps = [fgs.product_cm(random_cm_factory(n_a), random_cm_factory(n_b)) for _ in range(10)]
            for _ in range(20):
                b = random_bipartite_factory(n_a, n_b, lam_max)
                low = bounds.lower_bound_two_mode(b)
                for sep in seps:
                    assert opnorm(b.mat, sep) >= low - 1e-12
                marginals = fgs.product_cm(fgs.marginal(b, "A"), fgs.marginal(b, "B"))
                assert opnorm(b.mat, marginals) == pytest.approx(low, abs=1e-12)

    def test_epr(self):
        assert bounds.lower_bound_two_mode(bounds.family_cm(1, 1)) == pytest.approx(1.0)

    def test_product_zero(self, random_cm_factory):
        b = fgs.product_cm(random_cm_factory(1), random_cm_factory(1))
        assert bounds.lower_bound_two_mode(b) == pytest.approx(0.0, abs=1e-10)

    def test_wrong_split(self, random_bipartite_factory):
        # a 2 + 1 state gets its ||X||_op: the bound holds at every split
        b = random_bipartite_factory(2, 1)
        assert bounds.lower_bound_two_mode(b) == pytest.approx(np.linalg.norm(b.block_x, 2), abs=1e-12)

    def test_below_dense_distance(self, random_bipartite_factory, random_cm_factory):
        # lower bound <= trace distance to the marginal product state <= upper,
        # and the lower bound also stays below the distance to random products
        def dense_distance(b, sep):
            return oracle.trace_distance(oracle.state_from_cm(b.cm), oracle.state_from_cm(sep.cm))

        cases = [(bounds.family_cm(k1, k2), 0) for k1 in (1, 2, 3) for k2 in (1, 2, 3)]
        cases += [(random_bipartite_factory(1, 1), 0) for _ in range(100)]
        cases += [
            (random_bipartite_factory(n_a, n_b, lam_max), 3)
            for n_a, n_b in SPLITS
            for lam_max in (1.0, 0.9, 0.5)
            for _ in range(4)
        ]
        for b, n_products in cases:
            low = bounds.lower_bound_two_mode(b)
            dist = dense_distance(b, fgs.product_cm(fgs.marginal(b, "A"), fgs.marginal(b, "B")))
            assert low <= dist + 1e-9
            assert dist <= bounds.trace_upper_from_cm(b) + 1e-9
            for _ in range(n_products):
                sep = fgs.product_cm(random_cm_factory(b.n_a), random_cm_factory(b.n_b))
                assert low <= dense_distance(b, sep) + 1e-9


class TestFamily:
    def test_reduces_to_bell_at_one(self):
        assert_allclose(bounds.family_cm(1, 1).mat, fgs.bell_cm("phi+").mat)

    def test_printed_entries_22(self):
        m = bounds.family_cm(2, 2).mat
        assert m[0, 1] == pytest.approx(0.5)
        assert m[0, 3] == pytest.approx(0.5)
        assert m[2, 3] == pytest.approx(0.5)

    def test_printed_entries_31(self):
        m = bounds.family_cm(3, 1).mat
        assert m[0, 1] == pytest.approx(2.0 / 3.0)
        assert m[0, 3] == pytest.approx(1.0 / math.sqrt(3.0))
        assert m[2, 3] == 0.0

    @pytest.mark.parametrize("k1", range(1, 7))
    @pytest.mark.parametrize("k2", range(1, 7))
    def test_spectrum_two_routes(self, k1, k2):
        closed = bounds.family_spectrum(k1, k2)
        eig = matalg.hermitian_spectrum(bounds.family_cm(k1, k2).cm.body)
        assert_allclose(closed, eig, atol=1e-10)

    def test_one_sided_spectra(self):
        for k in range(1, 9):
            spec = bounds.family_spectrum(1, k)
            assert_allclose(spec, [-1.0, -1.0 / k, 1.0 / k, 1.0], atol=1e-10)

    def test_epr_spectrum(self):
        assert_allclose(bounds.family_spectrum(1, 1), [-1, -1, 1, 1], atol=1e-12)

    @pytest.mark.parametrize(
        "routine",
        [bounds.family_cm, bounds.family_spectrum, bounds.bosonic_strategy_lower_bound],
    )
    @pytest.mark.parametrize("k1, k2", [(0, 2), (2, 0), (2.5, 2), (2, 2.5), (2.0, 2), (True, 2), (2, True)])
    def test_orders_must_be_positive_integers(self, routine, k1, k2):
        with pytest.raises(OutOfRangeError, match="family parameters must be positive integers"):
            routine(k1, k2)

    def test_numpy_integer_orders_accepted(self):
        k1, k2 = np.int64(3), np.int64(2)
        assert_allclose(bounds.family_cm(k1, k2).mat, bounds.family_cm(3, 2).mat, atol=0)
        assert_allclose(bounds.family_spectrum(k1, k2), bounds.family_spectrum(3, 2), atol=0)
        assert bounds.bosonic_strategy_lower_bound(k1, k2) == bounds.bosonic_strategy_lower_bound(3, 2)


class TestEpsilonFamily:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 1.0, 2.0])
    def test_bona_fide_and_pure(self, eps):
        b = bounds.epsilon_family(eps)
        m = b.mat
        assert_allclose(m @ m, -np.eye(4), atol=1e-12)
        spec = matalg.hermitian_spectrum(b.cm.body)
        assert_allclose(np.abs(spec), np.ones(4), atol=1e-12)

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    def test_unextendible_both_ways(self, eps):
        b = bounds.epsilon_family(eps)
        r12 = extend.feasibility(extend.ExtendQuery(b, 1, 2))
        r21 = extend.feasibility(extend.ExtendQuery(b, 2, 1))
        assert r12.status is extend.FeasibilityStatus.INFEASIBLE_CERTIFIED
        assert r21.status is extend.FeasibilityStatus.INFEASIBLE_CERTIFIED

    def test_trace_norm_is_eps(self):
        for eps in (0.5, 0.1, 0.01):
            assert bounds.trace_upper_from_cm(bounds.epsilon_family(eps)) == (
                pytest.approx(eps, abs=1e-12)
            )

    def test_near_separable_limit(self):
        b = bounds.epsilon_family(1e-6)
        assert bounds.trace_upper_from_cm(b) == pytest.approx(1e-6)

    def test_domain(self):
        with pytest.raises(OutOfRangeError):
            bounds.epsilon_family(0.0)
        with pytest.raises(OutOfRangeError):
            bounds.epsilon_family(2.1)


class TestBosonicStrategy:
    def test_symmetric_values(self):
        for k in range(1, 21):
            got = bounds.bosonic_strategy_lower_bound(k, k)
            assert got == pytest.approx(1.0 / (2.0 * k * k), abs=1e-10)

    def test_weaker_than_tight(self):
        for k in range(2, 21):
            assert bounds.bosonic_strategy_lower_bound(k, k) < 1.0 / k

    def test_matches_overlap_route(self):
        for k1 in range(1, 6):
            for k2 in range(1, 6):
                via_overlap = (
                    fgs.overlap(bounds.family_cm(k1, k2).cm, bounds.family_cm(1, 1).cm)
                    - 0.5
                )
                assert bounds.bosonic_strategy_lower_bound(k1, k2) == pytest.approx(
                    via_overlap, abs=1e-12
                )
