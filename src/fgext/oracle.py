"""Dense Fock-space oracle for small mode counts.

Exact 2^n x 2^n density matrices built from covariance matrices through
a Jordan-Wigner Majorana representation; used as ground truth for the
Gaussian-formalism layer. This is the only module that touches complex
arithmetic.

The Majorana pair of mode j (j = 0 … n-1) carries a string of -Z on the
preceding modes:

    γ_{2j} = (-Z)^⊗j ⊗ X ⊗ I…,   γ_{2j+1} = (-Z)^⊗j ⊗ Y ⊗ I…

which makes the two-point function reproduce M_pq = Tr(i γ_p γ_q ρ)
with the covariance-matrix conventions used across the package (the
vacuum block is [[0, -1], [1, 0]]).

Each γ_p is a Pauli string, a bit flip times a diagonal phase:
γ_p[x ^ m_p, x] = ph_p[x]. Mode j is bit n-1-j of the occupation index
x, both of its Majoranas flip that bit, and ph_p is the (-Z) string on
the earlier modes, times i(-1)^{b_j} for the Y Majorana. No routine here
multiplies dense Majorana matrices:

* cm_from_state and wick_check compose strings (XOR of the masks,
  product of the phases) and read one XOR diagonal ρ[x, x ^ m] per
  monomial, O(n² 2^n) for the whole covariance matrix;
* state_from_cm applies each multiplication by γ̃ = O^T γ as n
  bit-flipped views of ρ, each scaled by one phase per row, O(n² 4^n)
  in all;
* jordan_wigner and parity_operator build their dense matrices anew for
  each caller that asks for them and keep no copy.

Before allocating dense 2^n x 2^n matrices, a routine checks an estimate
of their bytes against DENSE_BYTES_CAP.
"""

import functools
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import matalg
from .fgs import CovarianceMatrix, validate_cm
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    OddSubsetError,
    TooManyModesError,
)

__all__ = [
    "MODE_CAP",
    "DENSE_BYTES_CAP",
    "DenseState",
    "jordan_wigner",
    "parity_operator",
    "state_from_cm",
    "cm_from_state",
    "trace_distance",
    "wick_check",
    "entropies",
    "dense_product",
]

#: Hard cap on dense mode count (4096-dimensional Fock space).
MODE_CAP = 12

#: Largest estimated size of the dense matrices one call may allocate: a
#: state at MODE_CAP modes (about 1 GiB) fits, the 6 GiB of dense Majorana
#: matrices at MODE_CAP modes do not.
DENSE_BYTES_CAP = 2 * 2**30

#: Dense 2^n x 2^n complex matrices alive at once in state_from_cm: ρ, two
#: products and a scratch buffer while building; the DenseState copy and
#: the temporaries of its checks take no more. Peak RSS grew by 4.1 and 4.0
#: matrices at 10 and 11 modes.
_STATE_BUILD_MATRICES = 4


@dataclass(frozen=True, slots=True, eq=False)
class DenseState:
    """An exact density matrix on the 2^n-dimensional Fock space."""

    n: int
    rho: np.ndarray = field(repr=False)
    check: InitVar[bool] = True

    def __post_init__(self, check):
        rho = np.array(self.rho, dtype=complex)
        if check:
            _check_state(self.n, rho)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


def _check_state(n: int, rho: np.ndarray):
    dim = 2**n
    if rho.shape != (dim, dim):
        raise DimensionMismatchError(f"expected shape {(dim, dim)}, got {rho.shape}")
    if np.linalg.norm(rho - rho.conj().T) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"trace is {np.trace(rho).real!r}, expected 1")
    low = float(np.linalg.eigvalsh(rho)[0])
    if low < -1e-10:
        raise ValueError(f"negative eigenvalue {low:.3e}")
    # (Pρ - ρP)_xy = (s_x - s_y) ρ_xy for P = diag(s)
    s = _parity_signs(n)
    if np.max(np.abs(np.subtract.outer(s, s) * rho)) > 1e-10:
        raise ValueError("state does not commute with the parity operator")


def _require_modes(n: int, matrices: int):
    """Refuse n outside [1, MODE_CAP], or `matrices` dense 2^n x 2^n
    complex matrices whose bytes exceed DENSE_BYTES_CAP."""
    if not 1 <= n <= MODE_CAP:
        raise TooManyModesError(f"mode count {n} outside [1, {MODE_CAP}]")
    nbytes = matrices * 16 * 4**n
    if nbytes > DENSE_BYTES_CAP:
        raise TooManyModesError(
            f"{n} modes need about {nbytes / 2**30:.2f} GiB of dense matrices, "
            f"over the {DENSE_BYTES_CAP / 2**30:.2f} GiB cap"
        )


@functools.lru_cache(maxsize=None)
def _majorana_strings(n: int):
    """(masks, phases) with γ_p[x ^ masks[p], x] = phases[p, x]."""
    x = np.arange(2**n)
    masks, phases = [], []
    z_string = np.ones(2**n, dtype=complex)  # (-Z) on the modes before j
    for j in range(n):
        bit = 1 << (n - 1 - j)
        sign = np.where(x & bit, -1.0, 1.0)  # (-1)^{b_j}
        masks += [bit, bit]
        phases += [z_string, 1j * sign * z_string]
        z_string = -sign * z_string
    phases = np.array(phases)
    phases.setflags(write=False)
    return tuple(masks), phases


def _parity_signs(n: int) -> np.ndarray:
    """(-1)^N on each occupation basis state."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate([signs, -signs])
    return signs


def jordan_wigner(n: int) -> tuple:
    """The 2n Hermitian Majorana operators, {γ_p, γ_q} = 2 δ_pq, as
    read-only dense matrices."""
    _require_modes(n, matrices=2 * n)
    masks, phases = _majorana_strings(n)
    x = np.arange(2**n)
    gammas = []
    for mask, phase in zip(masks, phases):
        op = np.zeros((2**n, 2**n), dtype=complex)
        op[x ^ mask, x] = phase
        op.setflags(write=False)
        gammas.append(op)
    return tuple(gammas)


def parity_operator(n: int) -> np.ndarray:
    """(-1)^N as a diagonal matrix in the occupation basis."""
    _require_modes(n, matrices=1)
    p = np.diag(_parity_signs(n).astype(complex))
    p.setflags(write=False)
    return p


def _string_trace(rho: np.ndarray, n: int, idx) -> complex:
    """Tr(γ_{idx[0]} γ_{idx[1]} … ρ) from the composed Pauli string."""
    masks, phases = _majorana_strings(n)
    x = np.arange(2**n)
    flip = 0
    phase = np.ones(2**n, dtype=complex)
    for p in reversed(idx):
        phase = phase * phases[p][x ^ flip]
        flip ^= masks[p]
    # the product maps |x> to phase[x] |x ^ flip>
    return complex(np.sum(phase * rho[x, x ^ flip]))


def _majorana_times(coeffs, rho, phases, out, scratch):
    """out = γ̃ ρ for γ̃ = Σ_q coeffs[q] γ_q; scratch is a work buffer.

    (γ_q ρ)[y, c] = ph_q[y ^ m_q] ρ[y ^ m_q, c], and both Majoranas of
    mode k flip the same bit, so γ̃ ρ is a sum of n row-flipped views of ρ
    (a reversed axis of a 4-d reshape, no copy), each scaled by one phase
    per row. That phase depends only on the bits of modes 0 … k.
    """
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    for k in range(n):
        shape = (2**k, 2, 2 ** (n - 1 - k), dim)
        row = coeffs[2 * k] * phases[2 * k] + coeffs[2 * k + 1] * phases[2 * k + 1]
        row = row.reshape(shape[:3])[:, ::-1, :1, None]
        target = out if k == 0 else scratch
        np.multiply(rho.reshape(shape)[:, ::-1], row, out=target.reshape(shape))
        if k:
            out += scratch


def _state_from_canonical(rotation: np.ndarray, lambdas, n: int) -> np.ndarray:
    """Dense ρ = 2^-n Π_j (I + i λ_j γ̃_{2j} γ̃_{2j+1}), γ̃ = O^T γ.

    The factors commute, so each is applied from the left to the product
    so far: row flips keep the contiguous column axis innermost. No
    physicality check; callers wanting a guaranteed state go through
    state_from_cm.
    """
    _, phases = _majorana_strings(n)
    rho = np.eye(2**n, dtype=complex)
    half, full, scratch = (np.empty_like(rho) for _ in range(3))
    for j, lam in enumerate(lambdas):
        _majorana_times(rotation[:, 2 * j + 1], rho, phases, half, scratch)
        _majorana_times(1j * lam * rotation[:, 2 * j], half, phases, full, scratch)
        rho += full
    rho /= 2**n
    return rho


def state_from_cm(m: CovarianceMatrix) -> DenseState:
    """Exact density matrix of the Gaussian state with covariance matrix M.

    Canonical eigenvalues are clipped into [-1, 1] after validation so
    boundary states reconstruct to genuinely positive matrices even when
    the covariance matrix carries an eps-sized physicality slack.
    """
    _require_modes(m.modes, matrices=_STATE_BUILD_MATRICES)
    form = matalg.canonical_form(m.body)
    lams = np.clip(form.lambdas, -1.0, 1.0)
    rho = _state_from_canonical(form.rotation, lams, m.modes)
    return DenseState(m.modes, rho)


def cm_from_state(state: DenseState) -> CovarianceMatrix:
    """Covariance matrix M_pq = Re Tr(i γ_p γ_q ρ) of a dense state."""
    d = 2 * state.n
    m = np.zeros((d, d))
    for p in range(d):
        for q in range(p + 1, d):
            val = (1j * _string_trace(state.rho, state.n, (p, q))).real
            m[p, q] = val
            m[q, p] = -val
    return validate_cm(matalg.AntisymmetricMatrix(m))


def trace_distance(a: DenseState, b: DenseState) -> float:
    """||ρ_a - ρ_b||_1, the sum of absolute eigenvalues of the difference."""
    if a.n != b.n:
        raise DimensionMismatchError(f"mode mismatch: {a.n} vs {b.n}")
    return float(np.sum(np.abs(np.linalg.eigvalsh(a.rho - b.rho))))


def wick_check(state: DenseState, m: CovarianceMatrix, idx) -> tuple:
    """(lhs, rhs) of the moment identity Tr(i^(|x|/2) γ(x) ρ) = Pf(M[x]).

    idx must be a strictly increasing, even-sized tuple of Majorana
    indices; for Gaussian states the two sides agree.
    """
    idx = tuple(idx)
    if len(idx) % 2 != 0:
        raise OddSubsetError(f"index subset {idx} has odd size")
    d = 2 * state.n
    if any(not 0 <= i < d for i in idx):
        raise IndexOutOfRangeError(f"indices {idx} outside [0, {d})")
    if list(idx) != sorted(set(idx)):
        raise IndexOutOfRangeError(f"indices {idx} must be strictly increasing")
    lhs = float(((1j) ** (len(idx) // 2) * _string_trace(state.rho, state.n, idx)).real)
    rhs = matalg.pfaffian(m.mat[np.ix_(idx, idx)]) if idx else 1.0
    return lhs, rhs


def _partial_trace_keep_prefix(rho: np.ndarray, n: int, keep: int) -> np.ndarray:
    da, db = 2**keep, 2 ** (n - keep)
    return np.einsum("ijkj->ik", rho.reshape(da, db, da, db))


def _partial_trace_keep_suffix(rho: np.ndarray, n: int, keep: int) -> np.ndarray:
    da, db = 2 ** (n - keep), 2**keep
    return np.einsum("ijik->jk", rho.reshape(da, db, da, db))


def _von_neumann_bits(rho: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > 1e-14]
    return float(-np.sum(eigs * np.log2(eigs)))


def entropies(state: DenseState, split) -> tuple:
    """(S_A, S_B, S_AB, I_AB) in bits for a contiguous (n_A, n_B) split.

    A is the first n_A modes; the reduced states are plain partial traces
    in the occupation basis, which is the correct fermionic marginal for
    prefix/suffix mode sets.
    """
    n_a, n_b = split
    if n_a + n_b != state.n or n_a < 1 or n_b < 1:
        raise DimensionMismatchError(f"bad split {split} for {state.n} modes")
    rho_a = _partial_trace_keep_prefix(state.rho, state.n, n_a)
    rho_b = _partial_trace_keep_suffix(state.rho, state.n, n_b)
    s_a = _von_neumann_bits(rho_a)
    s_b = _von_neumann_bits(rho_b)
    s_ab = _von_neumann_bits(state.rho)
    return s_a, s_b, s_ab, s_a + s_b - s_ab


def reduced_state(state: DenseState, n_keep: int, side: str = "A") -> DenseState:
    """Dense marginal on the first (side='A') or last (side='B') n_keep modes."""
    if side == "A":
        rho = _partial_trace_keep_prefix(state.rho, state.n, n_keep)
    elif side == "B":
        rho = _partial_trace_keep_suffix(state.rho, state.n, n_keep)
    else:
        raise ValueError("side must be 'A' or 'B'")
    return DenseState(n_keep, rho)


def dense_product(a: DenseState, b: DenseState) -> DenseState:
    """Product state ρ_a ⊗ ρ_b in the occupation basis.

    Valid fermionically because both factors commute with their parity
    operators (DenseState invariant).
    """
    return DenseState(a.n + b.n, np.kron(a.rho, b.rho))
