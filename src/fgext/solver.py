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
size m + 1; its Cholesky factor is inverted once and reused by the
predictor and the corrector. The corrector takes the fraction
γ = 0.95 + 0.045 · min(α_p, α_d)² of the step to the boundary of the PSD
cone, α_p and α_d the predictor's step lengths, so γ rises towards 1 as
the affine step nears a full one (Mehrotra, SIAM J. Optim. 2, 1992; Toh,
Todd & Tütüncü, Optim. Methods Softw. 11, 1999); a fixed 0.95 caps the
gap's fall at about 20× per iteration.

The C blocks are kept as one (C, D, D) stack, each padded to D, the
largest block size, with an inert identity: on the pad F(0) = I, every
B_i is 0 and the steps of X are masked to 0, so X and Z stay exactly I
there and the pad adds only its size to the traces behind μ and the dual
bound, which subtract it. Every eigensolve, Cholesky factorisation and
inverse of a phase is one numpy call on that stack.

No B_i is stored as a matrix. A θ variable has two nonzeros in each block
it enters, -i·coeff at (R, S) and i·coeff at (S, R), and B_t is the
identity on the unpadded diagonal; F(θ) and ΔZ are scattered from these
index lists, and Re tr(B_i W) is gathered from them. M is built from
entries of X and W = Z⁻¹ alone (Fujisawa, Kojima & Nakata, Math.
Program. 79, 1997): over the pairs p, q of θ nonzeros in one block,

    Re tr(B_p X B_q W) = -c_p c_q (P1_pq + P1_qp - P2_pq - P3_pq),
    P1 = Re X_{S_p R_q} W_{S_q R_p},  P2 = Re X_{S_p S_q} W_{R_q R_p},
    P3 = Re X_{R_p R_q} W_{S_q S_p},

where P2 and P3 are symmetric, so M restricted to θ is U + Uᵀ with U
summed from -c_p c_q (P1 - (P2 + P3)/2); the t row is Re tr(B_i X W).
U is summed over slices of SCHUR_SLICE pairs, so the gathers hold one
slice at a time; a run with fewer pairs sums them in one bincount.

The index lists, the pad masks and the start point depend only on the
shape: the block sizes, the terms and the variable sizes. They form a
read-only layout, built once per shape and kept in a least recently used
cache of at most LAYOUT_CACHE_BYTES; a run fills only F(0) from its
constraints.

The run starts strictly feasible on both sides, from θ₀ = warm start,
t₀ = f(θ₀) - 1 and X₀ = I/N (N the summed block size); f(θ₀) is the
exact margin computed for the warm-start test, and is not recomputed on
the stack.

The reported margin is always the true f(θ) = min_c λ_min(F_c(θ)), never
t. One rule accepts a witness: f(θ) >= -min(eps_feas, eps_psd), so that
its extension passes the eps_psd physicality check. A warm start that
meets it returns after 0 steps, as does a problem without variables.
Otherwise the run stops at the first θ_k that meets it, or once the dual
bound Re tr(F(0) X) is below -eps_feas within 1e-8 · max(1, |bound|) of
f(θ_k), or within 1e-6 · max(1, |bound|) at a breakdown (X, Z or the
Schur matrix no longer numerically definite). A returned margin is thus
accepted or below -100 eps_feas: one in the band between, any other
breakdown and max_iters iterations raise SolverStalledError. A run over
SOLVER_BYTES_CAP (estimated) raises TooManyModesError before allocating.
"""

import itertools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, DEFAULT_CONFIG
from .errors import DimensionMismatchError, InvalidParameterError, SolverStalledError, TooManyModesError

__all__ = ["MatrixConstraint", "SolverOutcome", "SOLVER_BYTES_CAP", "margin_target", "max_margin", "minimize"]

#: Relative duality gaps accepted at convergence and at a breakdown.
GAP_TOL = 1e-8
BREAKDOWN_GAP_TOL = 1e-6

#: Largest estimated size of one run: the layout's index lists, the gathers
#: of one slice and the Schur matrices (see _estimated_bytes). At (3, 3),
#: 29+29 modes is the largest extendibility query under it; 28+28 is
#: estimated at 0.79 GiB (peak RSS 0.78 GiB, 9 s on one core), and 30+30
#: (1.04 GiB), 32+32 (1.34 GiB) and 40+40 (3.2 GiB) are refused.
SOLVER_BYTES_CAP = 2**30

#: Pairs of θ nonzeros whose Schur terms are gathered at once. A run with
#: fewer pairs (every query up to 10+10 modes at (3, 3)) has one slice.
SCHUR_SLICE = 2**18

#: Byte budget of the layouts kept between runs (see _layout): thousands of
#: small shapes, or none above 14+14 modes at (3, 3).
LAYOUT_CACHE_BYTES = 32 * 2**20


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


def _estimated_bytes(counts, dim, m):
    """Bytes of one run with counts[c] θ nonzeros in block c: 36 per pair of
    nonzeros in one block for the layout's index lists (three int32 indices
    into X and three into W, an int32 target and a float64 weight), 120 per
    pair of one slice for its two complex gathers of three products and
    their temporaries, four (m+1)² Schur matrices and the (C, D, D) stacks.
    At (3, 3) this bounds the peak RSS of a whole process that solves one
    24+24 or 28+28 query (interpreter and numpy included) by 1-2%."""
    pairs = sum(n * n for n in counts)
    return pairs * 36 + min(pairs, SCHUR_SLICE) * 120 + 4 * 8 * (m + 1) ** 2 + 64 * len(counts) * dim**2


class _Layout:
    """Everything about a padded (C, D, D) block stack that depends only on
    its shape: the pad masks, the start point, and the nonzeros of every B_i
    as index lists into the stack (see the module docstring). One layout
    serves every run whose blocks, terms and variables match, so all its
    arrays are read-only; the constraint values enter through consts().

    Scatters and gathers address a complex stack through its float64 view:
    entry (k, a, b) has its real part at 2((k D + a) D + b), its imaginary
    part one after.
    """

    def __init__(self, dims, terms, var_dims):
        n, d = len(dims), max(dims)
        self.shape = (n, d, d)
        self.var_dims = var_dims
        self.triu = [np.triu_indices(v, 1) for v in var_dims]
        self.offsets = offsets = np.cumsum([0] + [r.size for r, _ in self.triu])
        self.m = m = int(offsets[-1])
        self.size = sum(dims)
        self.pad = n * d - self.size
        counts = [sum(self.triu[var][0].size for _, var, _ in t) for t in terms]
        nbytes = _estimated_bytes(counts, d, m)
        if nbytes > SOLVER_BYTES_CAP:
            raise TooManyModesError(
                f"{m} variables on blocks of size up to {d} need about "
                f"{nbytes / 2**30:.2f} GiB, over the {SOLVER_BYTES_CAP / 2**30:.2f} GiB cap"
            )

        self.real = np.zeros(self.shape)
        for j, dim in enumerate(dims):
            self.real[j, :dim, :dim] = 1.0
        self.identity = self.real * np.eye(d)
        self.pad_eye = np.eye(d) - self.identity
        # X₀: I/N on the blocks, I on the pad
        self.x0 = (self.pad_eye + self.identity / self.size).astype(complex)
        self.rhs = np.zeros(m + 1)
        self.rhs[-1] = 1.0

        # one record per θ nonzero pair (R, S), (S, R): block k, coefficient c, variable v
        flat = [(j, coeff, var, off) for j, t in enumerate(terms) for coeff, var, off in t]
        sizes = [self.triu[var][0].size for _, _, var, _ in flat]
        k, c = (np.repeat([t[i] for t in flat], sizes) for i in (0, 1))
        r = np.concatenate([off + self.triu[var][0] for _, _, var, off in flat])
        s = np.concatenate([off + self.triu[var][1] for _, _, var, off in flat])
        v = np.concatenate([offsets[var] + np.arange(size) for size, (_, _, var, _) in zip(sizes, flat)])

        def at(k, a, b):
            return (k * d + a) * d + b

        # the θ nonzeros at (R, S) and (S, R), imaginary; B_t on the unpadded diagonal, real
        where = np.concatenate([2 * at(k, r, s) + 1, 2 * at(k, s, r) + 1, 2 * np.flatnonzero(self.identity)])
        weight = np.concatenate([c, -c, -np.ones(self.size)])
        var = np.concatenate([v, v, np.full(self.size, m)])
        self.gather = where, weight, var

        # ordered pairs p, q of θ nonzeros in one block (the records of a block
        # are contiguous), p-major; rows of P1, P2 and P3, built a slice at a time
        pairs = sum(n * n for n in counts)
        self.x_at = np.empty((3, pairs), np.int32)
        self.w_at = np.empty((3, pairs), np.int32)
        self.pair_weight = np.empty(pairs)
        self.pair_var = np.empty(pairs, np.int32)
        start = done = 0
        for j, count in enumerate(counts):
            q = slice(start, start + count)
            rows = max(1, SCHUR_SLICE // max(count, 1))
            for lo in range(start, start + count, rows):
                p = slice(lo, min(lo + rows, start + count))
                out = slice(done, done + (p.stop - p.start) * count)
                sp, rp = s[p, None], r[p, None]
                self.x_at[0, out] = at(j, sp, r[q]).ravel()
                self.x_at[1, out] = at(j, sp, s[q]).ravel()
                self.x_at[2, out] = at(j, rp, r[q]).ravel()
                self.w_at[0, out] = at(j, s[q], rp).ravel()
                self.w_at[1, out] = at(j, r[q], rp).ravel()
                self.w_at[2, out] = at(j, s[q], sp).ravel()
                self.pair_weight[out] = (-c[p, None] * c[q]).ravel()
                self.pair_var[out] = (v[p, None] * (m + 1) + v[q]).ravel()
                done = out.stop
            start = q.stop
        # slices of SCHUR_SLICE pairs; pairs are p-major, so a slice's targets
        # span a band [first, stop) of U, and pair_var counts from its first
        self.slices = []
        for lo in range(0, pairs, SCHUR_SLICE):
            part = slice(lo, min(lo + SCHUR_SLICE, pairs))
            first, stop = int(self.pair_var[part].min()), int(self.pair_var[part].max()) + 1
            self.pair_var[part] -= first
            self.slices.append((part, first, stop))

        owned = [*itertools.chain(*self.triu), self.offsets, self.real, self.identity, self.pad_eye,
                 self.x0, self.rhs, *self.gather, self.x_at, self.w_at, self.pair_weight, self.pair_var]
        for a in owned:
            a.setflags(write=False)
        self.nbytes = sum(a.nbytes for a in owned)
        # views of the frozen gather lists, so read-only too
        self.scatter_lists = tuple(a[: 2 * r.size] for a in self.gather)

    def consts(self, constraints):
        """F_c(0) = A_c + i S_c of each constraint, I on the pad: the one
        per-run part of the stack."""
        out = self.pad_eye.astype(complex)
        for j, con in enumerate(constraints):
            out[j, : con.dim, : con.dim] = con.sym_part + 1j * con.skew_const
        return out

    def scatter(self, y):
        """-Σ_i y_i B_i over θ, as a (C, D, D) complex stack."""
        where, weight, var = self.scatter_lists
        out = np.bincount(where, weight * y[var], 2 * self.pad_eye.size)
        return out.view(complex).reshape(self.shape)

    def trace_with(self, w):
        """Re Σ_c tr(B_ci W_c) for every i, t last, from a (C, D, D) stack W."""
        where, weight, var = self.gather
        floats = w.reshape(-1).view(np.float64)
        return -np.bincount(var, weight * floats[where], self.m + 1)

    def schur(self, x, w):
        """M_ij = Re Σ_c tr(B_ci X_c B_cj W_c) for Hermitian stacks X and W."""
        m = self.m + 1
        # bincount never returns -0.0, so with one slice U is bit for bit the
        # bincount of all pairs
        u = np.zeros(m * m)
        for part, first, stop in self.slices:
            prod = x.reshape(-1)[self.x_at[:, part]]
            prod *= w.reshape(-1)[self.w_at[:, part]]
            prod = prod.real
            terms = self.pair_weight[part] * (prod[0] - 0.5 * (prod[1] + prod[2]))
            u[first:stop] += np.bincount(self.pair_var[part], terms, stop - first)
        u = u.reshape(m, m)
        schur = u + u.T
        schur[-1] = schur[:, -1] = self.trace_with(x @ w)
        return schur

    def deltas(self, y):
        """The antisymmetric Δ_j whose upper triangles are θ."""
        out = []
        for d, iu, lo, hi in zip(self.var_dims, self.triu, self.offsets[:-1], self.offsets[1:]):
            upper = np.zeros((d, d))
            upper[iu] = y[lo:hi]
            out.append(upper - upper.T)
        return tuple(out)


#: Layouts by (block dims, terms, variable dims), least recently used first.
_LAYOUTS = OrderedDict()


def _layout(constraints, var_dims):
    """The layout of the constraints' shape: cached while the cache's arrays
    fit in LAYOUT_CACHE_BYTES, the least recently used evicted first; one
    larger than that is built for its run and not kept."""
    key = (tuple(c.dim for c in constraints), tuple(c.terms for c in constraints), tuple(var_dims))
    layout = _LAYOUTS.get(key)
    if layout is not None:
        _LAYOUTS.move_to_end(key)
        return layout
    layout = _Layout(*key)
    if layout.nbytes <= LAYOUT_CACHE_BYTES:
        _LAYOUTS[key] = layout
        total = sum(kept.nbytes for kept in _LAYOUTS.values())
        while total > LAYOUT_CACHE_BYTES:
            total -= _LAYOUTS.popitem(last=False)[1].nbytes
    return layout


def _lower_inverse(l, out=None):
    """Inverse of a lower-triangular l, into out (new by default): by halves,
    so that above 128 rows the flops are n³/3 in matrix products, not the
    8n³/3 of a general inverse, and in place, so that besides l and out the
    recursion holds one product of a quarter of their size."""
    n = len(l)
    if n <= 128:
        if out is None:
            return np.linalg.inv(l)
        out[...] = np.linalg.inv(l)
        return out
    if out is None:
        out = np.zeros_like(l)
    h = n // 2
    top, bottom = _lower_inverse(l[:h, :h], out[:h, :h]), _lower_inverse(l[h:, h:], out[h:, h:])
    np.matmul(bottom, l[h:, :h] @ top, out=out[h:, :h])
    np.negative(out[h:, :h], out=out[h:, :h])
    return out


def _step_to_boundary(inv_factors, inv_adjoints, dx, dz, fraction):
    """Largest α_p, α_d <= 1, times fraction, with L L^H + α step >= 0 for X and Z.

    inv_factors holds the inverse Cholesky factors of X and Z stacked, and
    inv_adjoints their adjoints, so one eigensolve covers both directions.
    """
    low = np.linalg.eigvalsh(inv_factors @ np.concatenate([dx, dz]) @ inv_adjoints)[:, 0]
    lows = (low[: len(dx)].min(), low[len(dx) :].min())
    return tuple(min(1.0, -fraction / low) if low < 0 else 1.0 for low in lows)


def _newton_step(stack, x, z, rhs):
    """HKM predictor-corrector step: (Δy, ΔX, α_primal, α_dual).

    x and z are (C, D, D) stacks. One Cholesky factorisation and one
    inverse cover X and Z together, and one eigensolve per phase gives the
    step to the boundary. The Schur matrix is factorised and its Cholesky
    factor L inverted once; the predictor and the corrector both solve
    with Δy = L⁻ᵀ (L⁻¹ r). ΔX is masked to 0 on the pad.

    Raises LinAlgError when X, Z or the Schur matrix is no longer
    numerically positive definite.
    """
    n = len(x)
    l_inv = np.linalg.inv(np.linalg.cholesky(np.concatenate([x, z])))
    l_inv_h = _adjoint(l_inv)
    z_inv = l_inv_h[n:] @ l_inv[n:]
    schur_l_inv = _lower_inverse(np.linalg.cholesky(stack.schur(x, z_inv)))
    mu = (np.real(np.vdot(x, z)) - stack.pad) / stack.size

    def direction(r, sigma_mu, cross):
        dy = schur_l_inv.T @ (schur_l_inv @ r)
        dz = stack.scatter(dy) - dy[-1] * stack.identity
        dx = stack.real * (sigma_mu * z_inv - x - _herm((x @ dz + cross) @ z_inv))
        return dy, dx, dz

    # predictor: the affine-scaling step, aiming at μ = 0
    dy, dx, dz = direction(rhs, 0.0, 0.0)
    a_p, a_d = _step_to_boundary(l_inv, l_inv_h, dx, dz, 1.0)
    mu_aff = (np.real(np.vdot(x + a_p * dx, z + a_d * dz)) - stack.pad) / stack.size
    sigma_mu = min(1.0, (mu_aff / mu) ** 3) * mu
    # corrector: centring towards σμ plus Mehrotra's second-order term
    cross = dx @ dz
    r = rhs + stack.trace_with(cross @ z_inv - sigma_mu * z_inv)
    dy, dx, dz = direction(r, sigma_mu, cross)
    fraction = 0.95 + 0.045 * min(a_p, a_d) ** 2
    a_p, a_d = _step_to_boundary(l_inv, l_inv_h, dx, dz, fraction)
    return dy, dx, a_p, a_d


def _adjoint(m):
    return m.conj().swapaxes(-1, -2)


def _herm(m):
    return (m + _adjoint(m)) / 2.0


def _gap_closed(bound, margin, eps, tol):
    """A dual bound below -eps_feas within tol · max(1, |bound|) of the margin,
    on either side: a bound below the margin is no closed gap but an
    inaccurate dual, and fails this test once it is off by more than tol."""
    return bound < -eps and abs(bound - margin) <= tol * max(1.0, abs(bound))


def _check_terms(constraints, var_dims):
    """There is a constraint, every term names a warm-start variable and fits
    in its constraint, and every variable enters some term with a nonzero
    coefficient: an unused one would leave its rows of the Schur matrix zero."""
    if not constraints:
        raise InvalidParameterError("no constraints: the margin is a minimum over an empty set")
    n, used = len(var_dims), set()
    for c, con in enumerate(constraints):
        for coeff, var, off in con.terms:
            if not 0 <= var < n:
                raise InvalidParameterError(f"constraint {c} names variable {var}, not in range({n}) of the warm start")
            if off < 0 or off + var_dims[var] > con.dim:
                raise DimensionMismatchError(
                    f"constraint {c} places variable {var} of size {var_dims[var]} at offset {off} "
                    f"in a block of size {con.dim}"
                )
            if coeff != 0:
                used.add(var)
    if len(used) < n:
        unused = min(set(range(n)) - used)
        raise InvalidParameterError(f"warm-start variable {unused} enters no constraint term")


def margin_target(config: RunConfig) -> float:
    """The least margin of an accepted witness: -min(eps_feas, eps_psd)."""
    return -min(config.eps_feas, config.eps_psd)


def _checked(outcome, eps, target):
    """The outcome, unless its margin lies in the ambiguous band."""
    if -100.0 * eps <= outcome.margin < target:
        raise SolverStalledError(
            f"converged margin {outcome.margin:.3e} lies in the ambiguous band "
            f"[{-100.0 * eps:.1e}, {target:.1e}) after {outcome.iterations} iterations"
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
        InvalidParameterError: the constraint list is empty, a term names a
            variable that the warm start lacks, or a warm-start variable
            enters no term with a nonzero coefficient.
        DimensionMismatchError: a term's variable overruns its constraint.
        SolverStalledError: a converged margin inside the ambiguous band
            [-100 eps_feas, margin_target(config)), a breakdown before
            convergence, or max_iters iterations without a stopping rule.
        TooManyModesError: the run's estimated bytes exceed
            SOLVER_BYTES_CAP; nothing large has been allocated.
    """
    var_dims = [w.shape[0] for w in warm_start]
    _check_terms(constraints, var_dims)
    eps, target = config.eps_feas, margin_target(config)
    margin = _objective(constraints, warm_start)
    size = sum(c.dim for c in constraints)
    if margin >= target or not warm_start:
        # X = I/N is dual feasible; without variables the margin is the optimum
        traces = sum(float(np.trace(c.sym_part)) for c in constraints)
        bound = traces / size if warm_start else margin
        return _checked(SolverOutcome(margin, tuple(warm_start), 0, bound), eps, target)

    stack = _layout(constraints, var_dims)
    consts = stack.consts(constraints)
    y = np.concatenate([w[iu] for w, iu in zip(warm_start, stack.triu)] + [[margin - 1.0]])
    x = stack.x0

    def outcome(it):
        deltas = stack.deltas(y)
        # the pad's eigenvalues are 1, so a padded minimum below 1 is the true
        # one; since λ_min(F_c) <= λ_min(A_c), 1 or more needs every A_c > I
        exact = margin if margin < 1.0 else _objective(constraints, deltas)
        return _checked(SolverOutcome(exact, deltas, it, bound), eps, target)

    for it in range(config.max_iters + 1):
        f = consts + stack.scatter(y)
        if it:
            margin = float(np.linalg.eigvalsh(f)[:, 0].min())
        bound = float(np.real(np.vdot(consts, x))) - stack.pad
        if margin >= target or _gap_closed(bound, margin, eps, GAP_TOL):
            return outcome(it)
        if it == config.max_iters:
            break
        z = f - y[-1] * stack.identity
        try:
            dy, dx, a_p, a_d = _newton_step(stack, x, z, stack.rhs)
        except np.linalg.LinAlgError:
            if _gap_closed(bound, margin, eps, BREAKDOWN_GAP_TOL):
                return outcome(it)
            raise SolverStalledError(
                f"factorization broke down at iteration {it} with margin "
                f"{margin:.3e} and dual bound {bound:.3e}"
            ) from None
        x = x + a_p * dx
        y = y + a_d * dy
    raise SolverStalledError(f"no stopping rule met after {config.max_iters} iterations")
