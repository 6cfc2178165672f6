"""(k1, k2)-extendibility of bipartite Gaussian covariance matrices.

A bipartite covariance matrix [[M_A, X], [-X^T, M_B]] is (k1, k2)-
extendible iff there exist real antisymmetric Δ_A, Δ_B with

    I + iΔ_A >= 0,
    I + iΔ_B >= 0,
    I + i [[k1 M_A - (k1-1) Δ_A,  sqrt(k1 k2) X ],
           [ -sqrt(k1 k2) X^T,    k2 M_B - (k2-1) Δ_B]] >= 0.

Feasible witnesses directly assemble an explicit extension on
k1 n_A + k2 n_B modes whose pair marginals reproduce the input exactly.
Two analytic prechecks refute infeasible queries without optimization:
the cross-correlation bound λ_max(X^T X) <= 4/(k1 k2), and row-square
sums of the extended matrix on rows free of unknown blocks.

No Δ gives the last constraint a margin above cross_block_bound, 1 -
sqrt(k1 k2) ‖X‖_op (1 - k ‖X‖²_op where a zero marginal is eliminated),
since its cross block is sqrt(k1 k2) X: a rank-one dual point in closed
form.

The solver starts at the marginals, except for one mode per side: there
the last constraint reduces to a concave search in one variable, and a
query whose marginals miss a margin of 0 starts at that search's point
(_one_mode_start), feasible or not. The one rule that accepts a witness
is margin >= margin_target(config), so a feasible 1+1 query needs no
interior-point iteration; an infeasible one runs from the widest q-window.
Other queries with k1, k2 >= 2 whose marginals miss the rule also try
Δ_j = k_j M_j / (k_j - 1) (_cross_block_start), which zeroes the last
constraint's diagonal blocks, and the start with the larger margin seeds
the run. A start whose margin meets cross_block_bound within the solver's
gap rule ends an infeasible run at 0 iterations, and a run that stalls
where that bound is below margin_target(config) is infeasible all the same.
"""

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import matalg
from .config import RunConfig, DEFAULT_CONFIG, is_count
from .errors import InvalidParameterError, SolverStalledError
from .fgs import BipartiteCM, CovarianceMatrix, _bipartite, _split, validate_cm
from .solver import MatrixConstraint, margin_target, max_margin

__all__ = [
    "ExtendQuery",
    "FeasibilityStatus",
    "FeasibilityResult",
    "precheck_lemma3",
    "precheck_columnsum",
    "cross_block_bound",
    "feasibility",
    "build_extension",
    "is_separable_gaussian",
]


class FeasibilityStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_CERTIFIED = "infeasible-certified"
    INFEASIBLE_NUMERICAL = "infeasible-numerical"


@dataclass(frozen=True)
class ExtendQuery:
    """Is b (k1, k2)-extendible? WrongSplitError unless b is a BipartiteCM, which
    declares the split; InvalidParameterError unless k1 and k2 are positive integers."""

    b: BipartiteCM
    k1: int
    k2: int

    def __post_init__(self):
        _split(self.b)
        for k in (self.k1, self.k2):
            if not is_count(k):
                raise InvalidParameterError("k1 and k2 must be positive integers")

    @cached_property
    def x_norm(self) -> float:
        """‖X‖_op, the largest singular value of the cross block: one SVD per
        query, shared by precheck_lemma3 and cross_block_bound."""
        return matalg.norms(self.b.block_x)[0]


@dataclass(frozen=True)
class FeasibilityResult:
    status: FeasibilityStatus
    delta_a: Optional[matalg.AntisymmetricMatrix]
    delta_b: Optional[matalg.AntisymmetricMatrix]
    margin: Optional[float]
    certificate: Optional[str]

    @property
    def feasible(self) -> bool:
        return self.status is FeasibilityStatus.FEASIBLE


def precheck_lemma3(query: ExtendQuery, config: RunConfig = DEFAULT_CONFIG):
    """Cross-correlation bound: λ_max(X^T X) <= 4/(k1 k2) is necessary.

    Returns a certificate string when violated, else None.
    """
    top = query.x_norm
    bound = 4.0 / (query.k1 * query.k2)
    if top * top > bound + config.eps_feas:
        return (
            f"cross-correlation bound: lambda_max(X^T X) = {top * top:.10g} > "
            f"4/(k1*k2) = {bound:.10g}"
        )
    return None


def precheck_columnsum(query: ExtendQuery, config: RunConfig = DEFAULT_CONFIG):
    """Row-square-sum bound on the rows of the first A (or B) copy.

    A bona fide extension Γ has ΓΓ^T <= I, so each row has square sum at
    most 1. A row of the first A copy reads [M_A, Z, ..., Z, X, ..., X]
    (k1 - 1 copies of Z, k2 of X), so sum_j (M_A)_ij^2 + k2 sum_j X_ij^2 <= 1
    is necessary at every k1: Z only adds (k1 - 1) sum_j Z_ij^2 >= 0. B-rows
    give the symmetric statement with Y and X^T. The check runs only at
    k1 = 1 (A-rows) and k2 = 1 (B-rows) by choice: at larger k it would
    turn some numerical verdicts into certified ones, a change left to the
    Gram-block precheck of ROADMAP item 3, which subsumes this bound.
    """
    x2 = np.square(query.b.block_x)
    sides = (
        (query.k1, query.k2, query.b.block_a, 1, "A", "X"),
        (query.k2, query.k1, query.b.block_b, 0, "B", "X^T"),
    )
    for k, copies, marg, x_axis, side, cross in sides:
        if k != 1:
            continue
        sums = np.sum(marg * marg, axis=1) + copies * np.sum(x2, axis=x_axis)
        worst = int(np.argmax(sums))
        if sums[worst] > 1.0 + config.eps_feas:
            return (
                f"column-sum row {worst + 1}: {sums[worst]:.10g} > 1 "
                f"({side}-row square sum with {copies} copies of {cross})"
            )
    return None


def _eliminated_side(query: ExtendQuery):
    """"B" when k2 = 1 and M_B = 0, else "A" when k1 = 1 and M_A = 0, else
    None: the side whose block _theorem_constraints eliminates."""
    if query.k2 == 1 and not query.b.block_b.any():
        return "B"
    if query.k1 == 1 and not query.b.block_a.any():
        return "A"
    return None


def cross_block_bound(query: ExtendQuery) -> float:
    """An upper bound on the margin of every Δ: 1 - sqrt(k1 k2) ‖X‖_op, or
    1 - k ‖X‖²_op, k the kept side's order, where _theorem_constraints
    eliminates a zero marginal. It holds at every (k1, k2).

    Its dual point lies on the last constraint alone (Boyd & Vandenberghe,
    Convex Optimization, §5.9): W = v vᴴ with v = (e ⊕ i f)/√2, (e, f) the
    top singular pair of X, or W = e eᵀ for a top eigenvector e of X Xᵀ
    (Xᵀ X when the A side goes) after the elimination. W's diagonal blocks
    are real, so Re tr(B_θ W) = 0 for every Δ entry, and Re tr(F(0) W) is
    the bound.
    """
    side = _eliminated_side(query)
    if side is None:
        return 1.0 - math.sqrt(query.k1 * query.k2) * query.x_norm
    return 1.0 - (query.k1 if side == "B" else query.k2) * query.x_norm**2


def _theorem_constraints(query: ExtendQuery):
    """Constraint list and warm start of the (possibly reduced) variables.

    Variables with vanishing coefficient (k = 1 on that side) are frozen
    at the marginal itself, matching the trivial choice Z = 0 / Y = 0. A
    frozen side with marginal exactly 0 (_eliminated_side) is the block I
    of the last matrix; its Schur complement keeps the feasible set and
    leaves I - k X X^T (X^T X for the A side) beside the other side's
    block: for a Choi state at (2, 1), the paper's antidegradability SDP.
    """
    m_a, m_b, x = query.b.block_a, query.b.block_b, query.b.block_x
    k1, k2 = query.k1, query.k2
    da, db = m_a.shape[0], m_b.shape[0]
    side = _eliminated_side(query)
    if side == "B":
        sides, sym, s = ((k1, m_a, 0),), np.eye(da) - k1 * x @ x.T, k1 * m_a
    elif side == "A":
        sides, sym, s = ((k2, m_b, 0),), np.eye(db) - k2 * x.T @ x, k2 * m_b
    else:
        sides, sym = ((k1, m_a, 0), (k2, m_b, da)), np.eye(da + db)
        s = _bipartite(k1 * m_a, math.sqrt(k1 * k2) * x, k2 * m_b)

    warm = []
    terms3 = []
    constraints = []
    for k, marg, off in sides:
        if k > 1:
            idx = len(warm)
            warm.append(marg.copy())
            terms3.append((-(k - 1.0), idx, off))
            dim = len(marg)
            constraints.append(
                MatrixConstraint(np.eye(dim), np.zeros((dim, dim)), ((1.0, idx, 0),))
            )
    constraints.append(MatrixConstraint(sym, s, tuple(terms3)))
    return constraints, warm


#: Golden-section steps of _one_mode_start: they shrink a p range of
#: width at most 2 to 2 · 0.618⁷⁵ < 5e-16.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 75


def _one_mode_start(query: ExtendQuery):
    """A start point in closed form for one mode per side and some k > 1, or None.

    Write M_A = aJ, M_B = bJ, Δ_A = αJ and Δ_B = βJ with J = [[0, 1], [-1, 0]],
    p = k1 a - (k1-1) α, q = k2 b - (k2-1) β, s² = k1 k2, d = det X and
    x1 >= x2 the singular values of X. For |p| < 1 the Schur complement of
    I + ipJ in the last constraint (Boyd & Vandenberghe, App. A.5.5; XᵀJX = dJ)
    leaves |q + c p d| <= r, c = s²/(1 - p²), r = sqrt((1 - c x1²)(1 - c x2²)),
    which needs |p| <= w = sqrt(1 - s² x1²). |α|, |β| <= 1 bound p and q to
    [k a - (k-1), k a + (k-1)]; a side with k = 1 stays at its marginal.

    None when the marginals already have a margin >= 0, tested in scalars:
    the last constraint's skew part K at the marginals has largest |eigenvalue|
    ν with ν² = (S + sqrt(S² - 4P²))/2, S = a² + b² + s²‖X‖²_F and P = Pf K
    = ab - s² d; None too when p's range is empty. Otherwise golden-section
    search maximises over p the length of the overlap of q's window with q's
    range, which is concave in p, and takes q at the overlap's middle. The
    point is returned whether or not it is feasible: an empty overlap (a
    negative length) leaves the point where q's window comes closest to q's
    range, and max_margin's warm-start test alone decides whether it is a
    witness. With k1 = 1 the sides are swapped first (a ↔ b, X → Xᵀ), so a
    query and its swapped copy compute the same floats.
    """
    b, k1, k2 = query.b, query.k1, query.k2
    if b.n_a != 1 or b.n_b != 1 or k1 == k2 == 1:
        return None
    (_, a, x00, x01), (_, _, x10, x11), (_, _, _, m_b), _ = b.mat.tolist()
    if k1 == 1:
        k1, k2, a, m_b, x01, x10 = k2, k1, m_b, a, x10, x01
    s2 = k1 * k2
    f, d = x00 * x00 + x01 * x01 + x10 * x10 + x11 * x11, x00 * x11 - x01 * x10
    big, pf = a * a + m_b * m_b + s2 * f, a * m_b - s2 * d
    if big + math.sqrt(max(big * big - 4.0 * pf * pf, 0.0)) <= 2.0:
        return None
    sq1 = (f + math.sqrt(max(f * f - 4.0 * d * d, 0.0))) / 2.0
    sq2 = max(f - sq1, 0.0)
    w = math.sqrt(max(1.0 - s2 * sq1, 0.0))
    p_lo, p_hi = max(k1 * a - (k1 - 1), -w), min(k1 * a + (k1 - 1), w)
    q_lo, q_hi = k2 * m_b - (k2 - 1), k2 * m_b + (k2 - 1)
    if not p_lo <= p_hi or w >= 1.0:
        return None

    def overlap(p):
        # the length and middle of q's window at p clipped to q's range;
        # 1 - c x1² < 0 (s² x1² > 1, or rounding at |p| = w) turns it inside out
        c = s2 / (1.0 - p * p)
        e1, e2 = 1.0 - c * sq1, 1.0 - c * sq2
        r = math.sqrt(e1 * e2) if e1 >= 0.0 else e1
        low, high = -c * p * d - r, -c * p * d + r
        low, high = low if low > q_lo else q_lo, high if high < q_hi else q_hi
        return high - low, (low + high) / 2.0

    # golden-section search: each step keeps the bracket around the larger
    # of two inner points and reuses the other inner point
    lo, hi = p_lo, p_hi
    left, right = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    (at_left, _), (at_right, _) = overlap(left), overlap(right)
    for _ in range(_GOLDEN_STEPS):
        if at_left < at_right:
            lo, left, at_left = left, right, at_right
            right = lo + _GOLDEN * (hi - lo)
            at_right, _ = overlap(right)
        else:
            hi, right, at_right = right, left, at_left
            left = hi - _GOLDEN * (hi - lo)
            at_left, _ = overlap(left)
    p = (lo + hi) / 2.0
    starts = [(k1 * a - p) / (k1 - 1)]
    if k2 > 1:
        starts.append((k2 * m_b - overlap(p)[1]) / (k2 - 1))
    return [np.array([[0.0, t], [-t, 0.0]]) for t in starts]


def _cross_block_start(query: ExtendQuery):
    """Δ_j = k_j M_j / (k_j - 1) when k1, k2 >= 2 and some side has more
    than one mode, else None.

    They zero the diagonal blocks of the last constraint's K, so its margin
    is cross_block_bound itself, and the point's margin is the smaller of
    that and 1 - k_j ‖M_j‖_op / (k_j - 1) from I + iΔ_j. Unclipped: scaled
    into the unit ball, a point whose ‖M_j‖_op lies below ‖X‖_op falls off
    the bound. 1+1 queries use _one_mode_start instead.
    """
    b, k1, k2 = query.b, query.k1, query.k2
    if k1 == 1 or k2 == 1 or b.n_a == b.n_b == 1:
        return None
    return [k * m / (k - 1) for k, m in ((k1, b.block_a), (k2, b.block_b))]


def solver_verdict(query: ExtendQuery, config: RunConfig) -> FeasibilityResult:
    """Decide a query by max_margin alone, without the prechecks.

    FEASIBLE, carrying the witnesses, iff the margin is at least
    margin_target(config); INFEASIBLE_NUMERICAL otherwise. The witnesses
    are exactly antisymmetric; a side with k = 1 carries its marginal.
    A 1+1 query with some k > 1, whose marginals miss a margin of 0 and
    whose p range is not empty, starts at _one_mode_start's point, feasible
    or not; every other query starts at the marginals. Either way max_margin's
    one rule, margin >= margin_target(config), accepts a witness, and a start
    that meets it returns after 0 iterations. Only a start that misses it
    reads _cross_block_start, the second start, and cross_block_bound, the
    second dual bound of max_margin's gap rule. An infeasible verdict whose
    gap that bound closed carries it as its certificate.

    A stalled run (SolverStalledError: a breakdown or an ambiguous-band
    exit) is still INFEASIBLE_NUMERICAL, with no margin and the bound as
    its certificate, when cross_block_bound is below margin_target(config):
    no Δ reaches the target. Otherwise the error propagates.
    """
    constraints, warm = _theorem_constraints(query)
    try:
        outcome = max_margin(
            constraints, _one_mode_start(query) or warm, config,
            closed_form=lambda: (_cross_block_start(query), cross_block_bound(query)),
        )
    except SolverStalledError:
        upper = cross_block_bound(query)
        if upper >= margin_target(config):
            raise
        return FeasibilityResult(
            FeasibilityStatus.INFEASIBLE_NUMERICAL, None, None, None, f"cross-block bound: margin <= {upper:.10g}"
        )
    if outcome.margin < margin_target(config):
        upper = cross_block_bound(query)
        cert = f"cross-block bound: margin <= {upper:.10g}" if outcome.bound == upper else None
        return FeasibilityResult(
            FeasibilityStatus.INFEASIBLE_NUMERICAL, None, None, outcome.margin, cert
        )
    deltas = list(outcome.deltas)
    delta_a = deltas.pop(0) if query.k1 > 1 else query.b.block_a
    delta_b = deltas.pop(0) if query.k2 > 1 else query.b.block_b
    witnesses = [matalg._exact(delta) for delta in (delta_a, delta_b)]
    return FeasibilityResult(FeasibilityStatus.FEASIBLE, *witnesses, outcome.margin, None)


def feasibility(query: ExtendQuery, config: RunConfig = DEFAULT_CONFIG) -> FeasibilityResult:
    """Decide (k1, k2)-extendibility; analytic prechecks run first.

    Feasible results carry witnesses with margin >= margin_target(config);
    numerical infeasibility requires a converged optimum below -100 eps_feas,
    or a cross-block bound below margin_target(config) (solver_verdict).

    Raises:
        SolverStalledError: neither verdict could be reached in budget.
    """
    cert = precheck_lemma3(query, config) or precheck_columnsum(query, config)
    if cert is not None:
        return FeasibilityResult(
            FeasibilityStatus.INFEASIBLE_CERTIFIED, None, None, None, cert
        )
    return solver_verdict(query, config)


def _copies(ext: np.ndarray, k1: int, da: int, k2: int, db: int):
    """Views (aa, bb, ab, ba) of the (A_i, A_j), (B_i, B_j), (A_i, B_j) and
    (B_i, A_j) blocks, at [i, j], of a matrix whose modes are the copies
    A_1..A_k1 then B_1..B_k2: the extension's mode order, stated once."""
    a, b = (slice(None, k1 * da), k1, da), (slice(k1 * da, None), k2, db)
    return tuple(
        ext[rows, cols].reshape(kr, dr, kc, dc).swapaxes(1, 2)
        for (rows, kr, dr), (cols, kc, dc) in ((a, a), (b, b), (a, b), (b, a))
    )


def build_extension(
    query: ExtendQuery, result: FeasibilityResult, config: RunConfig = DEFAULT_CONFIG
) -> CovarianceMatrix:
    """Assemble the explicit extension on k1 n_A + k2 n_B modes, written
    through _copies, the one writer of its layout.

    Diagonal blocks repeat M_A / M_B; off-diagonal same-side blocks are
    Z = M_A - Δ_A and Y = M_B - Δ_B; every A-B block is X. The result is
    block-permutation invariant by construction. Its I + iΓ splits into
    the witness constraints, so it is checked at eps_psd (plus rounding).
    """
    if not result.feasible:
        raise InvalidParameterError(f"cannot build an extension from {result.status}")
    m_a, m_b, x = query.b.block_a, query.b.block_b, query.b.block_x
    k1, k2 = query.k1, query.k2
    da, db = m_a.shape[0], m_b.shape[0]
    d = k1 * da + k2 * db
    ext = np.empty((d, d))
    aa, bb, ab, ba = _copies(ext, k1, da, k2, db)
    for blocks, marg, delta in ((aa, m_a, result.delta_a), (bb, m_b, result.delta_b)):
        if len(blocks) > 1:
            blocks[...] = marg - delta.mat
        for i in range(len(blocks)):
            blocks[i, i] = marg
    ab[...] = x
    ba[...] = -x.T
    slack = 10.0 * np.finfo(float).eps * d
    return validate_cm(matalg._exact(ext), eps_psd=config.eps_psd + slack)


def is_separable_gaussian(b: BipartiteCM, eps_psd: float = DEFAULT_CONFIG.eps_psd) -> bool:
    """Gaussian separability is exactly the product structure: ||X||_op <= eps."""
    return matalg.norms(_split(b).block_x)[0] <= eps_psd
