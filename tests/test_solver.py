"""The interior-point max-margin solver: closed forms, dual bounds, invariances."""

import itertools
import math
from collections import OrderedDict
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import copies, family22_direct_sum, family22_x_scaled, random_pure
from fgext import channels, extend, fgs, matalg, solver, verify
from fgext.bounds import family_cm
from fgext.config import RunConfig
from fgext.errors import DimensionMismatchError, InvalidParameterError, SolverStalledError, TooManyModesError
from fgext.extend import ExtendQuery, FeasibilityStatus, _theorem_constraints

#: M(k1, k2) queried above its own order; the optimum is 1 - sqrt(q1 q2 / (k1 k2)).
FAMILY_UP = (
    ((2, 2), (3, 3)), ((3, 3), (4, 4)), ((3, 4), (4, 5)), ((2, 4), (3, 5)),
    ((2, 1), (3, 2)), ((2, 2), (3, 2)),
)

#: M(k1, k2) at its own order: a single feasible point, on the boundary.
FAMILY_OWN = ((1, 2), (2, 2), (2, 3), (3, 3), (4, 4), (1, 4), (3, 1))


def solve(query, config=RunConfig()):
    cons, warm = _theorem_constraints(query)
    return solver.max_margin(cons, warm, config)


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

    @pytest.mark.parametrize("k1, k2", FAMILY_OWN)
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


def loss_constraints(lam, monkeypatch):
    """The constraint list and warm start channels.antidegradable solves."""
    seen = []

    def spy(constraints, warm, config):
        seen.append((constraints, warm))
        return solver.max_margin(constraints, warm, config)

    monkeypatch.setattr(extend, "max_margin", spy)
    channels.antidegradable(channels.pure_loss(lam))
    return seen[0]


#: Queries with one, two and three distinct block sizes.
STACKED = {
    "pure loss 0.7": ([2, 2], lambda mp: loss_constraints(0.7, mp)),
    "2+2 at (2, 2)": ([4, 4, 8], lambda mp: _theorem_constraints(
        ExtendQuery(random_pure(np.random.default_rng(0), 2, 2), 2, 2))),
    "1+2 at (2, 2)": ([2, 4, 6], lambda mp: _theorem_constraints(
        ExtendQuery(random_pure(np.random.default_rng(0), 1, 2), 2, 2))),
}


class TestStackedSolve:
    @pytest.mark.parametrize("case", STACKED)
    def test_margin_is_the_objective_and_the_gap_closes(self, case, monkeypatch):
        dims, build = STACKED[case]
        cons, warm = build(monkeypatch)
        assert [c.dim for c in cons] == dims
        outcome = solver.max_margin(cons, warm)
        assert outcome.iterations > 0
        assert outcome.margin == pytest.approx(solver._objective(cons, outcome.deltas), abs=1e-12)
        assert 0.0 <= outcome.bound - outcome.margin <= solver.GAP_TOL * max(1.0, abs(outcome.bound))

    @pytest.mark.parametrize("case", STACKED)
    def test_constraint_order_is_immaterial(self, case, monkeypatch):
        cons, warm = STACKED[case][1](monkeypatch)
        base = solver.max_margin(cons, warm)
        for perm in itertools.permutations(cons):
            outcome = solver.max_margin(list(perm), warm)
            assert outcome.margin == pytest.approx(base.margin, abs=1e-12)
            # the dual bound is fixed only to the closed gap: reordering the
            # blocks reorders sums (by up to 4e-14 on these cases)
            assert outcome.bound == pytest.approx(base.bound, abs=solver.GAP_TOL)


def dense_basis(constraints, var_dims):
    """Per constraint, every B_ci of F_c(θ) - t I = F_c(0) - Σ_i y_i B_ci as a
    dense (m+1, d, d) array, written out from the constraint terms."""
    triu = [np.triu_indices(d, 1) for d in var_dims]
    offsets = np.cumsum([0] + [r.size for r, _ in triu])
    out = []
    for c in constraints:
        b = np.zeros((offsets[-1] + 1, c.dim, c.dim), dtype=complex)
        for coeff, var, off in c.terms:
            for i, (r, s) in enumerate(zip(*triu[var])):
                b[offsets[var] + i, off + r, off + s] -= 1j * coeff
                b[offsets[var] + i, off + s, off + r] += 1j * coeff
        b[-1] = np.eye(c.dim)
        out.append(b)
    return out


def random_definite(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T / d + 0.1 * np.eye(d)


def padded(blocks):
    """The blocks as one (C, D, D) stack, each padded with the identity."""
    dim = max(len(b) for b in blocks)
    out = np.tile(np.eye(dim, dtype=complex), (len(blocks), 1, 1))
    for k, b in enumerate(blocks):
        out[k, : len(b), : len(b)] = b
    return out


class TestSparseAssembly:
    @pytest.mark.parametrize("case", STACKED)
    def test_matches_the_dense_basis(self, case, monkeypatch):
        cons, warm = STACKED[case][1](monkeypatch)
        var_dims = [w.shape[0] for w in warm]
        stack = solver._layout(cons, var_dims)
        basis = dense_basis(cons, var_dims)
        rng = np.random.default_rng(14)
        xs = [random_definite(rng, c.dim) for c in cons]
        ws = [random_definite(rng, c.dim) for c in cons]
        schur = sum(np.real(np.einsum("iab,bc,jcd,da->ij", b, x, b, w))
                    for b, x, w in zip(basis, xs, ws))
        trace = sum(np.real(np.einsum("iab,ba->i", b, w)) for b, w in zip(basis, ws))
        assert np.allclose(stack.schur(padded(xs), padded(ws)), schur, rtol=0, atol=1e-12)
        assert np.allclose(stack.trace_with(padded(ws)), trace, rtol=0, atol=1e-12)
        theta = rng.standard_normal(stack.m + 1)
        f = [c.sym_part + 1j * c.skew_const - np.tensordot(theta[:-1], b[:-1], 1)
             for c, b in zip(cons, basis)]
        assert np.array_equal(stack.consts(cons) + stack.scatter(theta), padded(f))

    @pytest.mark.parametrize("case", STACKED)
    def test_matches_the_dense_basis_in_slices_of_seven_pairs(self, case, monkeypatch):
        # a fresh cache, so that the layout is built in slices too
        monkeypatch.setattr(solver, "_LAYOUTS", OrderedDict())
        monkeypatch.setattr(solver, "SCHUR_SLICE", 7)
        self.test_matches_the_dense_basis(case, monkeypatch)

    @pytest.mark.parametrize("case", ["2+2 at (2, 2)", "1+2 at (2, 2)"])
    def test_x_and_z_stay_identity_on_the_pad(self, case, monkeypatch):
        cons, warm = STACKED[case][1](monkeypatch)
        seen = []
        step = solver._newton_step

        def spy(stack, x, z, rhs):
            seen.append((x, z))
            return step(stack, x, z, rhs)

        monkeypatch.setattr(solver, "_newton_step", spy)
        solver.max_margin(cons, warm)
        assert len(seen) > 1
        dim = max(c.dim for c in cons)
        for x, z in seen[1:]:
            for k, c in enumerate(cons):
                for m in (x[k], z[k]):
                    pad = np.eye(dim)[c.dim :]
                    assert np.array_equal(m[c.dim :], pad)
                    assert np.array_equal(m[:, c.dim :], pad.T)

    def test_margin_above_one_is_read_without_the_pad(self):
        # blocks of size 2 and 4 with A = 5 I: the first step reaches f = 1.28,
        # above the pad's eigenvalue 1
        skew = np.zeros((4, 4))
        skew[0, 1], skew[1, 0] = 7.0, -7.0
        cons = [solver.MatrixConstraint(5.0 * np.eye(2), np.zeros((2, 2)), ((1.0, 0, 0),)),
                solver.MatrixConstraint(5.0 * np.eye(4), skew, ((1.0, 0, 0),))]
        outcome = solver.max_margin(cons, [np.zeros((2, 2))])
        assert outcome.iterations == 1
        assert outcome.margin > 1.0
        assert outcome.margin == solver._objective(cons, outcome.deltas)


def arrays(value):
    """Every ndarray in value, looking into lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in arrays(item)]
    return []


def outcome_bytes(outcome):
    return (outcome.margin, outcome.bound, outcome.iterations, [d.tobytes() for d in outcome.deltas])


class TestLayoutCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(solver, "_LAYOUTS", OrderedDict())

    def test_a_hit_solves_bit_identically_to_a_fresh_build(self):
        rng = np.random.default_rng(18)
        first, second = (_theorem_constraints(ExtendQuery(random_pure(rng, 2, 2), 2, 2)) for _ in range(2))
        solver.max_margin(*first)
        layout = next(iter(solver._LAYOUTS.values()))
        hit = solver.max_margin(*second)
        assert list(solver._LAYOUTS.values()) == [layout]
        solver._LAYOUTS.clear()
        fresh = solver.max_margin(*second)
        assert next(iter(solver._LAYOUTS.values())) is not layout
        assert hit.iterations > 0
        assert outcome_bytes(hit) == outcome_bytes(fresh)

    def test_never_holds_more_than_its_budget(self, monkeypatch):
        rng = np.random.default_rng(18)
        queries = [_theorem_constraints(ExtendQuery(random_pure(rng, *nm), 2, 2))
                   for nm in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3)]]
        solver.max_margin(*queries[3])
        monkeypatch.setattr(solver, "LAYOUT_CACHE_BYTES", 2 * solver._LAYOUTS.popitem()[1].nbytes)
        for cons, warm in queries:
            solver.max_margin(cons, warm)
            assert sum(layout.nbytes for layout in solver._LAYOUTS.values()) <= solver.LAYOUT_CACHE_BYTES
        # 1+3 evicted the smaller layouts; 2+3, over the budget, was not stored
        assert [layout.var_dims for layout in solver._LAYOUTS.values()] == [(2, 6)]

    def test_a_layout_over_the_budget_is_used_but_not_kept(self, monkeypatch):
        monkeypatch.setattr(solver, "LAYOUT_CACHE_BYTES", 0)
        cons, warm = _theorem_constraints(ExtendQuery(family_cm(2, 2), 3, 3))
        assert solver.max_margin(cons, warm).margin == pytest.approx(-0.5, abs=1e-9)
        assert not solver._LAYOUTS

    def test_cached_arrays_are_read_only(self):
        cons, warm = _theorem_constraints(ExtendQuery(random_pure(np.random.default_rng(1), 1, 2), 2, 2))
        solver.max_margin(cons, warm)
        layout = next(iter(solver._LAYOUTS.values()))
        found = arrays(list(vars(layout).values()))
        assert len(found) >= 16
        for a in found:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            layout.x0[0, 0, 0] = 2.0


class TestPastFourModes:
    @pytest.mark.parametrize("n", [3, 6, 8])
    @pytest.mark.parametrize("k1, k2", [(3, 3), (2, 3)])
    def test_rotated_direct_sum_meets_closed_form(self, n, k1, k2):
        rng = np.random.default_rng(n)
        b = family22_direct_sum(n, rng)
        rotated, swapped = copies(b, rng)
        closed = 1.0 - math.sqrt(k1 * k2 / 4.0)
        outcomes = [solve(ExtendQuery(q, *ks))
                    for q, ks in ((b, (k1, k2)), (rotated, (k1, k2)), (swapped, (k2, k1)))]
        margins = [outcome.margin for outcome in outcomes]
        assert margins == pytest.approx([closed] * 3, abs=1e-9)
        assert max(margins) - min(margins) <= 1e-9
        assert all(outcome.iterations <= {(3, 3): 6, (2, 3): 8}[k1, k2] for outcome in outcomes)

    @pytest.mark.parametrize("n, admitted", [(28, True), (32, False)])
    def test_cap_admits_twenty_eight_modes_and_refuses_thirty_two(self, n, admitted):
        # at (3, 3): blocks Δ_A, Δ_B of size 2n and the joint block of size 4n
        per_side = n * (2 * n - 1)
        nbytes = solver._estimated_bytes([per_side, per_side, 2 * per_side], 4 * n, 2 * per_side)
        assert (nbytes <= solver.SOLVER_BYTES_CAP) is admitted

    def test_forty_plus_forty_refused_before_allocating(self):
        b = family22_direct_sum(40, np.random.default_rng(40))
        cons, warm = _theorem_constraints(ExtendQuery(b, 3, 3))
        tracemalloc.start()
        try:
            with pytest.raises(TooManyModesError, match="GiB"):
                solver.max_margin(cons, warm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the warm start's 160 x 160 eigensolves (under 1 MiB), not the 8 GiB
        assert peak < 8 * 2**20


class TestStallExits:
    def test_margin_in_ambiguous_band_raises(self):
        # the closed form 1 - sqrt(9/4) = -0.5 lies in [-100 eps_feas, -min(eps_feas, eps_psd))
        with pytest.raises(SolverStalledError, match="^converged margin -5.000e-01 lies in the ambiguous band"):
            solve(ExtendQuery(family_cm(2, 2), 3, 3), RunConfig(eps_feas=0.01))

    def test_breakdown_below_the_margin_target_raises(self):
        # margins in [-eps_feas, -eps_psd) with bounds above -eps_feas: neither
        # stopping rule accepts, so the breakdown raises instead of a witness
        for scale, margin in ((1.0 + 1e-8, "-1.000e-08"), (1.0 + 5e-9, "-5.000e-09")):
            pattern = f"^factorization broke down at iteration \\d+ with margin {margin}"
            with pytest.raises(SolverStalledError, match=pattern):
                decide(family22_x_scaled(scale), 2, 2)

    def test_margin_without_variables_meets_the_same_band(self):
        # at (1, 1) nothing is optimised, and the state's own margin -1e-6 lies
        # in [-100 eps_feas, -min(eps_feas, eps_psd)) = [-1e-5, -1e-7)
        b = fgs.BipartiteCM(fgs.validate_cm((1.0 + 1e-6) * fgs.vacuum_cm(2).mat, eps_psd=1e-4), 1, 1)
        with pytest.raises(SolverStalledError, match="^converged margin -1.000e-06 lies in the ambiguous band"):
            solve(ExtendQuery(b, 1, 1), RunConfig(eps_psd=1e-4))

    def test_breakdown_beyond_eps_feas_raises(self, monkeypatch):
        # a factorisation that fails at the third step, where the margin of
        # family_cm(2, 2) at (3, 3) is still near -0.5 and the gap is open
        step = solver._newton_step
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("forced")
            return step(*args)

        monkeypatch.setattr(solver, "_newton_step", failing)
        with pytest.raises(SolverStalledError, match="^factorization broke down at iteration 2 "):
            solve(ExtendQuery(family_cm(2, 2), 3, 3))

    def test_breakdown_with_a_loosely_closed_gap_returns_the_verdict(self, monkeypatch):
        # a random 2+2 state at (3, 2): a factorisation fails once the gap is
        # below BREAKDOWN_GAP_TOL but not yet below GAP_TOL
        step = solver._newton_step
        failures = []

        def spy(*args):
            try:
                return step(*args)
            except np.linalg.LinAlgError:
                failures.append(1)
                raise

        monkeypatch.setattr(solver, "_newton_step", spy)
        b = verify.random_bipartite_cm(np.random.default_rng(13), 2, 2)
        outcome = solve(ExtendQuery(b, 3, 2))
        assert failures == [1]
        assert outcome.margin < -100 * RunConfig().eps_feas
        gap = abs(outcome.bound - outcome.margin) / max(1.0, abs(outcome.bound))
        assert solver.GAP_TOL < gap <= solver.BREAKDOWN_GAP_TOL
        assert decide(b, 3, 2).status is FeasibilityStatus.INFEASIBLE_NUMERICAL

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "margin, passes",
        [(math.nan, False), (-1e-9, True), (0.5, True), (-1e-7, False), (-2e-5, True)],
        ids=["nan", "target", "feasible", "band", "below-band"],
    )
    def test_checked_fails_closed(self, margin, passes):
        # eps_feas = 1e-7 and target -1e-9: the band is [-1e-5, -1e-9)
        outcome = solver.SolverOutcome(margin, (), 3, margin)
        if passes:
            assert solver._checked(outcome, 1e-7, -1e-9) is outcome
        else:
            with pytest.raises(SolverStalledError, match="ambiguous band"):
                solver._checked(outcome, 1e-7, -1e-9)


J = np.array([[0.0, 1.0], [-1.0, 0.0]])
Z2 = np.zeros((2, 2))


class TestMalformedConstraints:
    @pytest.mark.parametrize("terms, warm, error, message", [
        # no term at all
        ((), [Z2], InvalidParameterError, "^warm-start variable 0 enters no constraint term$"),
        # well posed in variable 0, whose margin -2 needs steps; variable 1 is idle
        (((1.0, 0, 0),), [Z2, Z2], InvalidParameterError, "^warm-start variable 1 enters no constraint term$"),
        (((1.0, 0, 0), (1.0, 2, 0)), [Z2], InvalidParameterError, r"names variable 2, not in range\(1\)"),
        (((1.0, 0, 1),), [Z2], DimensionMismatchError, "variable 0 of size 2 at offset 1 in a block of size 2"),
        # a coefficient-0 term is no use: alone, and beside a used variable
        (((0.0, 0, 0),), [Z2], InvalidParameterError, "^warm-start variable 0 enters no constraint term$"),
        (((1.0, 0, 0), (0.0, 1, 0)), [Z2, Z2], InvalidParameterError,
         "^warm-start variable 1 enters no constraint term$"),
    ], ids=["no-term", "idle-variable", "missing-variable", "overrun", "zero-coefficient", "zero-beside-used"])
    def test_refused_before_any_solve(self, terms, warm, error, message):
        with pytest.raises(error, match=message):
            solver.max_margin([solver.MatrixConstraint(np.eye(2), 3.0 * J, terms)], warm)

    def test_empty_constraint_list_refused(self):
        with pytest.raises(InvalidParameterError, match="no constraints"):
            solver.max_margin([], [])
        with pytest.raises(InvalidParameterError, match="no constraints"):
            solver.max_margin([], [Z2])

    def test_zero_coefficient_beside_a_used_term_changes_nothing(self):
        # the variable's other term has a nonzero coefficient: it is used
        alone = solver.max_margin([solver.MatrixConstraint(np.eye(2), 3.0 * J, ((1.0, 0, 0),))], [Z2])
        con = solver.MatrixConstraint(np.eye(2), 3.0 * J, ((0.0, 0, 0), (1.0, 0, 0)))
        outcome = solver.max_margin([con], [Z2])
        assert (outcome.margin, outcome.bound, outcome.iterations) == (alone.margin, alone.bound, alone.iterations)
        assert np.array_equal(outcome.deltas[0], alone.deltas[0])


class TestGapRule:
    def test_bound_within_tolerance_on_either_side_closes(self):
        for bound in (-0.5 + 1e-9, -0.5 - 1e-9):
            assert solver._gap_closed(bound, -0.5, 1e-7, solver.GAP_TOL)

    def test_bound_below_the_margin_is_not_closed(self):
        margin = -0.5
        assert not solver._gap_closed(margin - 1e-6, margin, 1e-7, solver.GAP_TOL)
        assert not solver._gap_closed(margin - 1e-5, margin, 1e-7, solver.BREAKDOWN_GAP_TOL)

    def test_bound_above_minus_eps_feas_is_not_closed(self):
        assert not solver._gap_closed(-1e-8, -1e-8, 1e-7, solver.GAP_TOL)


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

    def test_antidegradable_pure_loss_few_iterations(self):
        # from the marginals: solver_verdict starts these queries at the
        # closed-form 1+1 point instead, which takes 0 iterations
        for lam in np.arange(1, 50) / 100.0:
            outcome = solve(ExtendQuery(channels.choi_cm(channels.pure_loss(lam)), 2, 1))
            assert outcome.margin >= solver.margin_target(RunConfig()), lam
            assert outcome.iterations <= 6, lam

    def test_one_mode_boundary_queries_start_at_an_accepted_witness(self, monkeypatch):
        outcomes = []

        def spy(*args, **kwargs):
            outcomes.append(solver.max_margin(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(extend, "max_margin", spy)
        for k1, k2 in FAMILY_OWN:
            assert extend.feasibility(ExtendQuery(family_cm(k1, k2), k1, k2)).feasible
            assert outcomes[-1].iterations == 0, (k1, k2)
        for lam in np.arange(1, 50) / 100.0:
            assert channels.antidegradable(channels.pure_loss(lam)).feasible
            assert outcomes[-1].iterations == 0, lam
        assert len(outcomes) == len(FAMILY_OWN) + 49


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
