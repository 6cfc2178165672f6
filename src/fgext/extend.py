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
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matalg
from .config import RunConfig, DEFAULT_CONFIG
from .errors import InvalidParameterError, NotFeasibleError
from .fgs import BipartiteCM, CovarianceMatrix, validate_cm
from .solver import MatrixConstraint, max_margin

__all__ = [
    "ExtendQuery",
    "FeasibilityStatus",
    "FeasibilityResult",
    "precheck_lemma3",
    "precheck_columnsum",
    "feasibility",
    "one_sided_feasibility",
    "build_extension",
    "is_separable_gaussian",
]


class FeasibilityStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_CERTIFIED = "infeasible-certified"
    INFEASIBLE_NUMERICAL = "infeasible-numerical"


@dataclass(frozen=True)
class ExtendQuery:
    b: BipartiteCM
    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise InvalidParameterError("k1 and k2 must be positive integers")


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
    x = query.b.block_x
    top = matalg.norms(x)[0]
    bound = 4.0 / (query.k1 * query.k2)
    if top * top > bound + config.eps_feas:
        return (
            f"cross-correlation bound: lambda_max(X^T X) = {top * top:.10g} > "
            f"4/(k1*k2) = {bound:.10g}"
        )
    return None


def precheck_columnsum(query: ExtendQuery, config: RunConfig = DEFAULT_CONFIG):
    """Row-square-sum bound on extension rows that contain no unknown blocks.

    With k1 = 1 the A-rows of the extended matrix read [M_A, X, ..., X]
    (k2 copies), so sum_j (M_A)_ij^2 + k2 sum_j X_ij^2 <= 1 is necessary;
    k2 = 1 gives the symmetric statement on B-rows. Rows containing the
    unknown Y or Z blocks are not usable here.
    """
    m_a, m_b, x = query.b.block_a, query.b.block_b, query.b.block_x
    eps = config.eps_feas
    if query.k1 == 1:
        sums = np.sum(m_a * m_a, axis=1) + query.k2 * np.sum(x * x, axis=1)
        worst = int(np.argmax(sums))
        if sums[worst] > 1.0 + eps:
            return (
                f"column-sum row {worst + 1}: {sums[worst]:.10g} > 1 "
                f"(A-row square sum with {query.k2} copies of X)"
            )
    if query.k2 == 1:
        sums = np.sum(m_b * m_b, axis=1) + query.k1 * np.sum(x * x, axis=0)
        worst = int(np.argmax(sums))
        if sums[worst] > 1.0 + eps:
            return (
                f"column-sum row {worst + 1}: {sums[worst]:.10g} > 1 "
                f"(B-row square sum with {query.k1} copies of X^T)"
            )
    return None


def _theorem_constraints(query: ExtendQuery):
    """Constraint list and warm start of the (possibly reduced) variables.

    Variables with vanishing coefficient (k = 1 on that side) are frozen
    at the marginal itself, matching the trivial choice Z = 0 / Y = 0.
    """
    m_a, m_b, x = query.b.block_a, query.b.block_b, query.b.block_x
    k1, k2 = query.k1, query.k2
    da, db = m_a.shape[0], m_b.shape[0]
    d = da + db
    s = np.zeros((d, d))
    s[:da, :da] = k1 * m_a
    s[da:, da:] = k2 * m_b
    s[:da, da:] = math.sqrt(k1 * k2) * x
    s[da:, :da] = -math.sqrt(k1 * k2) * x.T

    warm = []
    terms3 = []
    constraints = []
    for k, marg, off in ((k1, m_a, 0), (k2, m_b, da)):
        if k > 1:
            idx = len(warm)
            warm.append(marg.copy())
            terms3.append((-(k - 1.0), idx, off))
            dim = len(marg)
            constraints.append(
                MatrixConstraint(np.eye(dim), np.zeros((dim, dim)), ((1.0, idx, 0),))
            )
    constraints.append(MatrixConstraint(np.eye(d), s, tuple(terms3)))
    return constraints, warm


def solver_verdict(outcome, delta_a, delta_b, config: RunConfig) -> FeasibilityResult:
    """The verdict on a max_margin outcome.

    FEASIBLE, carrying the witnesses, iff the margin is at least
    -eps_feas; INFEASIBLE_NUMERICAL otherwise. A channel's verdict has
    delta_b None.
    """
    if outcome.margin >= -config.eps_feas:
        return FeasibilityResult(
            FeasibilityStatus.FEASIBLE,
            matalg.antisymmetrize(delta_a),
            None if delta_b is None else matalg.antisymmetrize(delta_b),
            outcome.margin,
            None,
        )
    return FeasibilityResult(
        FeasibilityStatus.INFEASIBLE_NUMERICAL, None, None, outcome.margin, None
    )


def feasibility(query: ExtendQuery, config: RunConfig = DEFAULT_CONFIG) -> FeasibilityResult:
    """Decide (k1, k2)-extendibility; analytic prechecks run first.

    Feasible results carry witnesses with margin >= -eps_feas; numerical
    infeasibility requires a converged optimum below -100 eps_feas.

    Raises:
        SolverStalledError: neither verdict could be reached in budget.
    """
    cert = precheck_lemma3(query, config) or precheck_columnsum(query, config)
    if cert is not None:
        return FeasibilityResult(
            FeasibilityStatus.INFEASIBLE_CERTIFIED, None, None, None, cert
        )
    constraints, warm = _theorem_constraints(query)
    outcome = max_margin(constraints, warm, config)
    deltas = list(outcome.deltas)
    delta_a = deltas.pop(0) if query.k1 > 1 else query.b.block_a
    delta_b = deltas.pop(0) if query.k2 > 1 else query.b.block_b
    return solver_verdict(outcome, delta_a, delta_b, config)


def one_sided_feasibility(b: BipartiteCM, k: int, config: RunConfig = DEFAULT_CONFIG) -> FeasibilityResult:
    """k-extendibility on the B side: the (1, k) specialization."""
    if k < 1:
        raise InvalidParameterError("k must be a positive integer")
    return feasibility(ExtendQuery(b, 1, k), config)


def build_extension(
    query: ExtendQuery, result: FeasibilityResult, config: RunConfig = DEFAULT_CONFIG
) -> CovarianceMatrix:
    """Assemble the explicit extension on k1 n_A + k2 n_B modes.

    Diagonal blocks repeat M_A / M_B; off-diagonal same-side blocks are
    Z = M_A - Δ_A and Y = M_B - Δ_B; every A-B block is X. The result is
    block-permutation invariant by construction and bona fide within
    eps_feas whenever the witness margins are.
    """
    if not result.feasible:
        raise NotFeasibleError(f"cannot build an extension from {result.status}")
    m_a, m_b, x = query.b.block_a, query.b.block_b, query.b.block_x
    k1, k2 = query.k1, query.k2
    da, db = m_a.shape[0], m_b.shape[0]
    z = m_a - result.delta_a.mat
    y = m_b - result.delta_b.mat
    d = k1 * da + k2 * db
    ext = np.zeros((d, d))
    for i in range(k1):
        for j in range(k1):
            ext[i * da : (i + 1) * da, j * da : (j + 1) * da] = m_a if i == j else z
    off = k1 * da
    for i in range(k2):
        for j in range(k2):
            ext[off + i * db : off + (i + 1) * db, off + j * db : off + (j + 1) * db] = (
                m_b if i == j else y
            )
    for i in range(k1):
        for j in range(k2):
            ext[i * da : (i + 1) * da, off + j * db : off + (j + 1) * db] = x
            ext[off + j * db : off + (j + 1) * db, i * da : (i + 1) * da] = -x.T
    slack = 10.0 * np.finfo(float).eps * d
    return validate_cm(matalg.antisymmetrize(ext), eps_psd=config.eps_feas + slack)


def is_separable_gaussian(b: BipartiteCM, eps_psd: float = DEFAULT_CONFIG.eps_psd) -> bool:
    """Gaussian separability is exactly the product structure: ||X||_op <= eps."""
    return matalg.norms(b.block_x)[0] <= eps_psd
