"""The interior-point max-margin solver: closed forms, dual bounds, invariances."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgext import channels, extend, fgs, matalg, solver, verify
from fgext.bounds import family_cm
from fgext.config import RunConfig
from fgext.errors import SolverStalledError
from fgext.extend import ExtendQuery, FeasibilityStatus, _theorem_constraints

#: M(k1, k2) queried above its own order; the optimum is 1 - sqrt(q1 q2 / (k1 k2)).
FAMILY_UP = (
    ((2, 2), (3, 3)), ((3, 3), (4, 4)), ((3, 4), (4, 5)), ((2, 4), (3, 5)),
    ((2, 1), (3, 2)), ((2, 2), (3, 2)),
)


def solve(query, config=RunConfig()):
    cons, warm = _theorem_constraints(query)
    return solver.max_margin(cons, warm, config)


def special_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def bipartite(mat, n_a, n_b):
    return fgs.BipartiteCM(fgs.validate_cm(matalg.antisymmetrize(mat)), n_a, n_b)


def copies(b, rng):
    """b, b under a random local rotation O_A ⊕ O_B, and b with A and B swapped."""
    da, d = 2 * b.n_a, b.mat.shape[0]
    rot = np.zeros((d, d))
    rot[:da, :da] = special_orthogonal(rng, da)
    rot[da:, da:] = special_orthogonal(rng, d - da)
    perm = list(range(da, d)) + list(range(da))
    rotated = bipartite(rot @ b.mat @ rot.T, b.n_a, b.n_b)
    swapped = bipartite(b.mat[np.ix_(perm, perm)], b.n_b, b.n_a)
    return rotated, swapped


def random_pure(rng, n_a, n_b):
    """Random SO(2n) conjugation of a canonical form with every λ = ±1."""
    n = n_a + n_b
    form = matalg.CanonicalForm(special_orthogonal(rng, 2 * n), rng.choice([-1.0, 1.0], n))
    return bipartite(form.reconstruct(), n_a, n_b)


def not_22_by_rows(b):
    """Row square sums with two copies exceed 1, while no precheck fires at (2, 2)."""
    m_a, m_b, x = b.block_a, b.block_b, b.block_x
    rows = max(np.max(np.sum(m_a**2, axis=1) + 2 * np.sum(x**2, axis=1)),
               np.max(np.sum(m_b**2, axis=1) + 2 * np.sum(x**2, axis=0)))
    return matalg.norms(x)[0] ** 2 < 1.0 - 1e-3 and rows > 1.0 + 1e-3


class TestClosedForms:
    @pytest.mark.parametrize("own, query", FAMILY_UP)
    def test_family_above_order_brackets_closed_form(self, own, query):
        outcome = solve(ExtendQuery(family_cm(*own), *query))
        closed = 1.0 - math.sqrt(query[0] * query[1] / (own[0] * own[1]))
        assert outcome.margin <= closed + 1e-12 <= outcome.bound + 1e-12
        assert outcome.bound - outcome.margin <= 1e-7

    @pytest.mark.parametrize("k1, k2", [(1, 2), (2, 2), (2, 3), (3, 3), (4, 4), (1, 4), (3, 1)])
    def test_family_at_own_order_is_a_boundary_witness(self, k1, k2):
        outcome = solve(ExtendQuery(family_cm(k1, k2), k1, k2))
        assert -1e-9 <= outcome.margin <= 0.0 <= outcome.bound + 1e-12

    @pytest.mark.parametrize("lam", [0.6, 0.65, 0.7, 0.85, 0.9])
    def test_pure_loss_margin(self, lam):
        result = channels.antidegradable(channels.pure_loss(lam))
        assert result.status is FeasibilityStatus.INFEASIBLE_NUMERICAL
        assert result.margin == pytest.approx(1.0 - 2.0 * lam, abs=1e-8)


class TestDualBound:
    def test_random_mixed_states_close_the_gap(self):
        # the random queries of perfbench's decide_hard: mixed states that a
        # (1, 2) or (2, 1) row bound rules out, queried at (2, 2), plus copies
        rng = np.random.default_rng(2508)
        for n_a, n_b in ((2, 2), (1, 3)):
            while True:
                b = verify.random_bipartite_cm(rng, n_a, n_b)
                if not_22_by_rows(b):
                    break
            for query in (b, *copies(b, rng)):
                outcome = solve(ExtendQuery(query, 2, 2))
                assert outcome.bound < -1e-7
                assert 0.0 <= outcome.bound - outcome.margin <= 1e-7

    def test_interior_first_point_is_returned_unchanged(self, rng):
        b, _ = verify.twirled_extendible_instance(rng, 2, 1, 2, 2)
        cons, warm = _theorem_constraints(ExtendQuery(b, 2, 2))
        assert solver._objective(cons, warm) >= 0.0
        outcome = solver.max_margin(cons, warm)
        assert outcome.iterations == 0
        assert all(got is given for got, given in zip(outcome.deltas, warm))
        assert outcome.margin <= outcome.bound

    def test_iteration_cap_raises_stalled(self):
        with pytest.raises(SolverStalledError):
            solve(ExtendQuery(family_cm(2, 2), 3, 3), RunConfig(max_iters=1))


class TestFormerNonConvergence:
    @pytest.mark.parametrize("split", [(2, 2), (1, 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_pure_margin_invariant(self, split, seed):
        rng = np.random.default_rng(seed)
        b = random_pure(rng, *split)
        rotated, swapped = copies(b, rng)
        base = extend.feasibility(ExtendQuery(b, 2, 2))
        assert base.status is FeasibilityStatus.INFEASIBLE_NUMERICAL
        for other in (rotated, swapped):
            result = extend.feasibility(ExtendQuery(other, 2, 2))
            assert result.status is base.status
            assert result.margin == pytest.approx(base.margin, abs=1e-9)

    def test_antidegradable_pure_loss_few_iterations(self, monkeypatch):
        outcomes = []

        def spy(*args, **kwargs):
            outcomes.append(solver.max_margin(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(channels, "max_margin", spy)
        for lam in np.arange(1, 50) / 100.0:
            assert channels.antidegradable(channels.pure_loss(lam)).feasible
            assert outcomes[-1].iterations <= 20, lam


def decide(b, k1, k2):
    return extend.feasibility(ExtendQuery(b, k1, k2))


mixed_states = st.builds(
    lambda seed, split: (np.random.default_rng(seed), split),
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 1), (2, 1)]),
)
orders = st.integers(1, 4)


class TestProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mixed_states, orders, orders)
    def test_verdict_invariant_under_local_rotation_and_swap(self, drawn, k1, k2):
        rng, (n_a, n_b) = drawn
        b = verify.random_bipartite_cm(rng, n_a, n_b)
        rotated, swapped = copies(b, rng)
        base = decide(b, k1, k2)
        numerical = FeasibilityStatus.INFEASIBLE_NUMERICAL
        for result in (decide(rotated, k1, k2), decide(swapped, k2, k1)):
            # the column-sum precheck is not rotation invariant, so a copy may
            # be refuted by certificate where another is refuted numerically
            assert result.feasible == base.feasible
            if base.status is numerical and result.status is numerical:
                assert result.margin == pytest.approx(base.margin, abs=1e-8)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mixed_states, st.integers(1, 3), orders)
    def test_monotone_in_k(self, drawn, k1, k2):
        rng, (n_a, n_b) = drawn
        b = verify.random_bipartite_cm(rng, n_a, n_b)
        lower, upper = decide(b, k1, k2), decide(b, k1 + 1, k2)
        if upper.feasible:
            assert lower.feasible
        # feasible margins stop early, so only an infeasible optimum is compared
        if upper.status is FeasibilityStatus.INFEASIBLE_NUMERICAL and lower.margin is not None:
            assert upper.margin <= lower.margin + 1e-9


def test_import_leaves_scipy_optimize_unloaded():
    code = (
        "import sys, fgext, fgext.bounds as bd; print('scipy.optimize' in sys.modules); "
        "bd.lower_bound_two_mode(bd.family_cm(2, 2)); print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_import_cli_loads_no_scipy():
    code = "import sys, fgext.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_minimize_is_scipy_minimize():
    res = solver.minimize(lambda x: float((x[0] - 0.3) ** 2 + (x[1] + 0.2) ** 2),
                          np.zeros(2), method="Nelder-Mead",
                          options=dict(xatol=1e-10, fatol=1e-12))
    assert np.allclose(res.x, [0.3, -0.2], atol=1e-8)
