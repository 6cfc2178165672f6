"""Max-margin solver for antisymmetric linear matrix inequalities.

Solves the semidefinite program

    maximize  t
    s.t.      F_c(Δ) = A_c + i (S_c + Σ_j coeff_cj · embed(Δ_j)) >= t I   for all c

over real antisymmetric Δ_j, on the d×d complex Hermitian F_c. With
y = (θ, t), θ the upper triangles of the Δ_j, the slacks are
Z_c = F_c(0) - Σ_i y_i B_ci >= 0. The dual minimizes Σ_c Re tr(F_c(0) X_c)
over X_c >= 0 with Σ_c tr X_c = 1 and Σ_c Re tr(B_ci X_c) = 0 on θ, so
every dual-feasible X bounds max t from above.

Method: one primal-dual path-following run with the HKM direction and
Mehrotra's predictor-corrector (Helmberg, Rendl, Vanderbei & Wolkowicz,
SIAM J. Optim. 6, 1996; Vandenberghe & Boyd, SIAM Rev. 38, 1996). Each
step solves one Schur system, M_ij = Re Σ_c tr(B_ci X_c B_cj Z_c⁻¹), of
size at most 57 at 4+4 modes. At these sizes a numpy call costs more than
its flops, so the constraints are grouped once per solve by block size (at
most three groups for an extendibility query, one for a channel) and every
eigensolve, Cholesky factorisation and inverse runs once per group on a
(g, d, d) stack. The Cholesky factor of M is inverted once per step and
reused by the predictor and the corrector.

The run starts strictly feasible on both sides, from θ₀ = warm start,
t₀ = f(θ₀) - 1 and X₀ = I/N (N the summed block size); a warm start with
f(θ₀) >= 0 is returned unchanged after 0 steps.

The reported margin is always the true f(θ) = min_c λ_min(F_c(θ)), never
t. The run stops when f(θ_k) >= -min(eps_feas, eps_psd), so the witness
passes the physicality check, or when the dual bound Re tr(F(0) X) is
below -eps_feas within 1e-8 · max(1, |bound|) of f(θ_k). A breakdown (X,
Z or the Schur matrix no longer numerically definite) returns only if
f(θ_k) >= -eps_feas or that gap is within 1e-6 · max(1, |bound|). A
margin in the ambiguous band [-100 eps_feas, -eps_feas), any other
breakdown and max_iters iterations raise SolverStalledError.
"""

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, DEFAULT_CONFIG
from .errors import SolverStalledError

__all__ = ["MatrixConstraint", "SolverOutcome", "max_margin", "minimize"]

#: Relative duality gaps accepted at convergence and at a breakdown.
GAP_TOL = 1e-8
BREAKDOWN_GAP_TOL = 1e-6

#: Fraction of the step to the boundary of the PSD cone taken by the corrector.
STEP_FRACTION = 0.95


@dataclass(frozen=True)
class MatrixConstraint:
    """A_c + i K_c(Δ) >= t I with K_c(Δ) = skew_const + Σ coeff · embed(Δ_j).

    terms: tuple of (coeff, var_index, row_offset); the variable block is
    added to K_c at the given diagonal offset.
    """

    sym_part: np.ndarray
    skew_const: np.ndarray
    terms: tuple

    @property
    def dim(self) -> int:
        return self.sym_part.shape[0]


@dataclass(frozen=True)
class SolverOutcome:
    """margin = f(deltas); bound >= max f is the final dual objective."""

    margin: float
    deltas: tuple
    iterations: int
    bound: float


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call, not with fgext.

    No fgext routine calls it. It stays only because perfbench/spans.py
    wraps ``solver.minimize`` by name for its solver.polish span; it goes
    once the benchmark reads solver-reported counters instead.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _hermitian(constraint, deltas):
    k = constraint.skew_const.copy()
    for coeff, var, off in constraint.terms:
        d = deltas[var].shape[0]
        k[off : off + d, off : off + d] += coeff * deltas[var]
    return constraint.sym_part + 1j * k


def _objective(constraints, deltas):
    return min(float(np.linalg.eigvalsh(_hermitian(c, deltas))[0]) for c in constraints)


def _stacks(constraints, triu, offsets):
    """Per block size d: F(0) as a (g, d, d) stack and the basis as (m+1, g, d, d).

    B_ci with F_c(θ) - t I = F_c(0) - Σ_i y_i B_ci, for y = (θ, t) of size
    m + 1. The basis is stored variable-major, so B @ X reshapes into a row
    of the Schur system without a transposed copy. Groups come in increasing
    d, so of the constraint order only the order within a group reaches the
    sums.
    """
    by_dim = {}
    for c in constraints:
        by_dim.setdefault(c.dim, []).append(c)
    consts, bases = [], []
    for d, members in sorted(by_dim.items()):
        basis = np.zeros((offsets[-1] + 1, len(members), d, d), dtype=complex)
        for k, c in enumerate(members):
            for coeff, var, off in c.terms:
                rows, cols = triu[var]
                idx = offsets[var] + np.arange(rows.size)
                basis[idx, k, off + rows, off + cols] -= 1j * coeff
                basis[idx, k, off + cols, off + rows] += 1j * coeff
        basis[-1] = np.eye(d)
        consts.append(np.stack([c.sym_part + 1j * c.skew_const for c in members]))
        bases.append(basis)
    return consts, bases


def _trace_with(basis, mats):
    """Re Σ_c tr(B_ci W_c) for every i, from per-group stacks of W_c."""
    return sum(
        np.real(b.reshape(len(b), -1) @ w.swapaxes(-1, -2).ravel()) for b, w in zip(basis, mats)
    )


def _step_to_boundary(inv_factors, dxs, dzs, fraction):
    """Largest α_p, α_d <= 1, times fraction, with L L^H + α step >= 0 for X and Z.

    inv_factors holds, per group, the inverse Cholesky factors of X and Z
    concatenated, so one eigensolve per group covers both directions.
    """
    low_p = low_d = 0.0
    for l_inv, dx, dz in zip(inv_factors, dxs, dzs):
        low = np.linalg.eigvalsh(l_inv @ np.concatenate([dx, dz]) @ _adjoint(l_inv))[:, 0]
        low_p = min(low_p, low[: len(dx)].min())
        low_d = min(low_d, low[len(dx) :].min())
    return tuple(min(1.0, -fraction / low) if low < 0 else 1.0 for low in (low_p, low_d))


def _newton_step(basis, xs, zs, rhs):
    """HKM predictor-corrector step: (Δy, ΔX, α_primal, α_dual).

    Every argument but rhs is a list with one entry per group of equal-size
    blocks: basis (m+1, g, d, d), xs and zs (g, d, d). Each group makes one
    Cholesky factorisation and one inverse of X and Z stacked together, and
    one eigensolve per phase for the step to the boundary. The Schur matrix
    is factorised and its Cholesky factor L inverted once; the predictor and
    the corrector both solve with Δy = L⁻ᵀ (L⁻¹ r).

    Raises LinAlgError when X, Z or the Schur matrix is no longer
    numerically positive definite.
    """
    n = rhs.size
    size = sum(x.shape[0] * x.shape[1] for x in xs)
    l_invs = [np.linalg.inv(np.linalg.cholesky(np.concatenate([x, z]))) for x, z in zip(xs, zs)]
    z_invs = [_adjoint(l[len(x) :]) @ l[len(x) :] for l, x in zip(l_invs, xs)]
    schur = sum(
        np.real((b @ x).reshape(n, -1) @ (b @ zi).transpose(0, 1, 3, 2).reshape(n, -1).T)
        for b, x, zi in zip(basis, xs, z_invs)
    )
    # M is symmetric only up to rounding, and cholesky reads one triangle
    schur_l_inv = np.linalg.inv(np.linalg.cholesky((schur + schur.T) / 2.0))
    mu = sum(np.real(np.vdot(x, z)) for x, z in zip(xs, zs)) / size

    def direction(r, sigma_mu, cross):
        dy = schur_l_inv.T @ (schur_l_inv @ r)
        dzs = [-(dy @ b.reshape(n, -1)).reshape(x.shape) for b, x in zip(basis, xs)]
        dxs = [
            sigma_mu * zi - x - _herm((x @ dz + w) @ zi)
            for x, dz, zi, w in zip(xs, dzs, z_invs, cross)
        ]
        return dy, dxs, dzs

    # predictor: the affine-scaling step, aiming at μ = 0
    dy, dxs, dzs = direction(rhs, 0.0, [0.0] * len(xs))
    a_p, a_d = _step_to_boundary(l_invs, dxs, dzs, 1.0)
    pairs = zip(xs, dxs, zs, dzs)
    mu_aff = sum(np.real(np.vdot(x + a_p * dx, z + a_d * dz)) for x, dx, z, dz in pairs) / size
    sigma_mu = min(1.0, (mu_aff / mu) ** 3) * mu
    # corrector: centring towards σμ plus Mehrotra's second-order term
    cross = [dx @ dz for dx, dz in zip(dxs, dzs)]
    r = rhs - sigma_mu * _trace_with(basis, z_invs) + _trace_with(
        basis, [w @ zi for w, zi in zip(cross, z_invs)]
    )
    dy, dxs, dzs = direction(r, sigma_mu, cross)
    a_p, a_d = _step_to_boundary(l_invs, dxs, dzs, STEP_FRACTION)
    return dy, dxs, a_p, a_d


def _adjoint(m):
    return m.conj().swapaxes(-1, -2)


def _herm(m):
    return (m + _adjoint(m)) / 2.0


def _checked(outcome, eps):
    """The outcome, unless its margin lies in the ambiguous band."""
    if -100.0 * eps <= outcome.margin < -eps:
        raise SolverStalledError(
            f"converged margin {outcome.margin:.3e} lies in the ambiguous band "
            f"[{-100.0 * eps:.1e}, {-eps:.1e}) after {outcome.iterations} iterations"
        )
    return outcome


def max_margin(constraints, warm_start, config: RunConfig = DEFAULT_CONFIG):
    """Best achievable margin and witnesses for a list of matrix constraints.

    Args:
        constraints: MatrixConstraint list.
        warm_start: initial antisymmetric variable matrices (e.g. the
            state marginals); their shapes fix the variable dimensions.
        config: eps_feas and eps_psd set the stopping rules, max_iters
            caps the interior-point iterations.

    Raises:
        SolverStalledError: a converged margin inside the ambiguous band
            [-100 eps_feas, -eps_feas), a breakdown before convergence, or
            max_iters iterations without meeting a stopping rule.
    """
    eps = config.eps_feas
    margin = _objective(constraints, warm_start)
    if not warm_start:
        return SolverOutcome(margin, (), 0, margin)
    size = sum(c.dim for c in constraints)
    if margin >= 0.0:
        bound = sum(float(np.trace(c.sym_part)) for c in constraints) / size
        return SolverOutcome(margin, tuple(warm_start), 0, bound)

    var_dims = [w.shape[0] for w in warm_start]
    triu = [np.triu_indices(d, 1) for d in var_dims]
    offsets = np.cumsum([0] + [iu[0].size for iu in triu])
    consts, basis = _stacks(constraints, triu, offsets)
    flats = [b.reshape(b.shape[0], -1) for b in basis]
    y = np.concatenate([m[iu] for m, iu in zip(warm_start, triu)] + [[margin - 1.0]])
    xs = [np.tile(np.eye(c.shape[-1], dtype=complex) / size, (len(c), 1, 1)) for c in consts]
    rhs = np.eye(y.size)[-1]

    for it in range(config.max_iters + 1):
        deltas = []
        for d, iu, lo, hi in zip(var_dims, triu, offsets[:-1], offsets[1:]):
            upper = np.zeros((d, d))
            upper[iu] = y[lo:hi]
            deltas.append(upper - upper.T)
        fs = [c - (y[:-1] @ f[:-1]).reshape(c.shape) for c, f in zip(consts, flats)]
        margin = min(float(np.linalg.eigvalsh(f)[:, 0].min()) for f in fs)
        bound = sum(float(np.real(np.vdot(c, x))) for c, x in zip(consts, xs))
        outcome = SolverOutcome(margin, tuple(deltas), it, bound)
        scale = max(1.0, abs(bound))
        if margin >= -min(eps, config.eps_psd) or (
            bound < -eps and bound - margin <= GAP_TOL * scale
        ):
            return _checked(outcome, eps)
        if it == config.max_iters:
            break
        zs = [f - y[-1] * np.eye(f.shape[-1]) for f in fs]
        try:
            dy, dxs, a_p, a_d = _newton_step(basis, xs, zs, rhs)
        except np.linalg.LinAlgError:
            if margin >= -eps or (bound < -eps and bound - margin <= BREAKDOWN_GAP_TOL * scale):
                return _checked(outcome, eps)
            raise SolverStalledError(
                f"factorization broke down at iteration {it} with margin "
                f"{margin:.3e} and dual bound {bound:.3e}"
            ) from None
        xs = [x + a_p * dx for x, dx in zip(xs, dxs)]
        y = y + a_d * dy
    raise SolverStalledError(f"no stopping rule met after {config.max_iters} iterations")
