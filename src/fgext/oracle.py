"""Dense Fock-space oracle for small mode counts.

Exact 2^n x 2^n density matrices built from covariance matrices through
a Jordan-Wigner Majorana representation; used as ground truth for the
Gaussian-formalism layer.

The Majorana pair of mode j (j = 0 … n-1) carries a string of -Z on the
preceding modes:

    γ_{2j} = (-Z)^⊗j ⊗ X ⊗ I…,   γ_{2j+1} = (-Z)^⊗j ⊗ Y ⊗ I…

which makes the two-point function reproduce M_pq = Tr(i γ_p γ_q ρ)
with the covariance-matrix conventions used across the package (the
vacuum block is [[0, -1], [1, 0]]).

Each γ_p is a Pauli string, a bit flip times a diagonal phase:
γ_p[x ^ m_p, x] = ph_p[x]. Mode j is bit n-1-j of the occupation index
x, both of its Majoranas flip that bit, and ph_p is the (-Z) string on
the earlier modes, times i(-1)^{b_j} for the Y Majorana.

Every physical state commutes with the parity (-1)^N, so a DenseState
is block-diagonal: the even and the odd sector each hold a 2^(n-1) x
2^(n-1) block, and every entry between them is exactly zero. Row l of a
block is the basis state whose first n-1 modes hold the bits of l; the
last mode's bit follows from the sector's parity. Each Majorana swaps
the two sectors and flips one label bit (none for the last mode). The
routines work on these blocks, or on Pauli strings, and multiply no
dense Majorana matrices:

* state_from_cm builds each sector block with the product formula,
  applying γ̃ = O^T γ as n label-flipped views of the block, each scaled
  by one phase per row: n² 4^n complex multiply-adds in all, half of
  what the full matrix takes;
* the DenseState checks, trace_distance and entropies diagonalise the
  two sector blocks, a quarter of the work of one full eigvalsh;
* cm_from_state and wick_check compose strings (XOR of the masks,
  product of the phases) and read one XOR diagonal ρ[x, x ^ m] per
  monomial, O(n² 2^n) for the whole covariance matrix;
* jordan_wigner and parity_operator build their dense matrices anew for
  each caller that asks for them and keep no copy.

Before allocating dense 2^n x 2^n matrices, a routine checks an estimate
of their bytes against DENSE_BYTES_CAP.
"""

import functools
from dataclasses import dataclass, field

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
]

#: Hard cap on dense mode count (4096-dimensional Fock space).
MODE_CAP = 12

#: Largest estimated size of the dense matrices one call may allocate: a
#: state at MODE_CAP modes (about 0.5 GiB) fits, the 6 GiB of dense
#: Majorana matrices at MODE_CAP modes do not.
DENSE_BYTES_CAP = 2 * 2**30

#: Dense 2^n x 2^n complex matrices alive at once in state_from_cm: the
#: built ρ and its DenseState copy; the sector build itself peaks at 1.5.
#: Peak RSS grew by 2.08, 2.03 and 2.01 matrices at 10, 11 and 12 modes.
_STATE_BUILD_MATRICES = 2


@dataclass(frozen=True, eq=False)
class DenseState:
    """An exact density matrix on the 2^n-dimensional Fock space.

    n is read from ρ's dimension. Every ρ is checked: it must be
    Hermitian, of unit trace and commute with (-1)^N to 1e-10, and the
    stored matrix must have no eigenvalue below -1e-10. The stored ρ is
    read-only and exactly parity-even: its entries between the even and
    odd sectors are zero.
    """

    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        given = np.asarray(self.rho)
        even, odd = _sector_rows(_modes_of(given))
        _check_state(given, even, odd)
        rho = np.array(given, dtype=complex)  # the one copy; the caller's array is untouched
        rho[np.ix_(even, odd)] = 0.0
        rho[np.ix_(odd, even)] = 0.0
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return _modes_of(self.rho)

    def __repr__(self):
        return f"DenseState(n={self.n})"


def _modes_of(rho: np.ndarray) -> int:
    """n for a 2^n x 2^n matrix, n >= 1."""
    dim = rho.shape[0] if rho.ndim == 2 else 0
    if rho.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise DimensionMismatchError(
            f"expected a 2^n x 2^n matrix with n >= 1, got shape {rho.shape}"
        )
    return dim.bit_length() - 1


def _check_state(rho: np.ndarray, even, odd):
    """Require ρ Hermitian, of unit trace and parity-even to 1e-10, and
    its sector blocks free of eigenvalues below -1e-10. The blocks are
    all DenseState keeps, so the last test is exact for the stored ρ."""
    # ||ρ - ρ^†||² summed over row slabs of at most 2^18 entries
    rows = max(1, 2**18 // len(rho))
    slabs = range(0, len(rho), rows)
    if sum(np.linalg.norm(rho[i : i + rows] - rho[:, i : i + rows].conj().T) ** 2 for i in slabs) > 1e-20:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"trace is {np.trace(rho).real!r}, expected 1")
    # the largest entry of Pρ - ρP is twice the largest off-sector entry
    off = max(np.max(np.abs(rho[np.ix_(a, b)])) for a, b in ((even, odd), (odd, even)))
    if 2.0 * off > 1e-10:
        raise ValueError("state does not commute with the parity operator")
    low = float(np.min(_sector_eigvalsh(rho)))
    if low < -1e-10:
        raise ValueError(f"negative eigenvalue {low:.3e}")


def _sector_rows(n: int) -> tuple:
    """Occupation indices of the even and of the odd parity sector.

    Row l of a sector is the basis state whose first n-1 modes hold the
    bits of l; the last mode's bit is whichever gives the sector's parity.
    """
    label_odd = _parity_signs(n - 1) < 0
    twice = 2 * np.arange(2 ** (n - 1))
    return twice + label_odd, twice + ~label_odd


def _sector_eigvalsh(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a parity-even Hermitian ρ, from its two sector blocks."""
    return np.concatenate(
        [np.linalg.eigvalsh(rho[np.ix_(rows, rows)]) for rows in _sector_rows(_modes_of(rho))]
    )


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


def _majorana_times(coeffs, block, phases, out, scratch):
    """out = γ̃ B for γ̃ = Σ_q coeffs[q] γ_q and B a block whose rows lie in
    one parity sector; phases are the Majorana phases at that sector's
    rows, and scratch is a work buffer.

    γ_q takes the sector's row l to row l ^ (m_q >> 1) of the other sector,
    so (γ_q B)[l, c] = ph_q[l ^ (m_q >> 1)] B[l ^ (m_q >> 1), c]. Both
    Majoranas of mode k flip the same label bit, so γ̃ B is a sum of n
    row-flipped views of B (a reversed axis of a 4-d reshape, no copy),
    each scaled by one phase per row. That phase depends only on the bits
    of modes 0 … k. The last mode flips no label bit.
    """
    h = block.shape[0]
    n = h.bit_length()  # h = 2^(n-1)
    row_phases = coeffs[0::2, None] * phases[0::2] + coeffs[1::2, None] * phases[1::2]
    for k in range(n):
        shape = (2**k, 2, 2 ** (n - 2 - k), h) if k < n - 1 else (h, 1, 1, h)
        row = row_phases[k].reshape(shape[:3])[:, ::-1, :1, None]
        target = out if k == 0 else scratch
        np.multiply(block.reshape(shape)[:, ::-1], row, out=target.reshape(shape))
        if k:
            out += scratch


def _state_from_canonical(rotation: np.ndarray, lambdas, n: int) -> np.ndarray:
    """Dense ρ = 2^-n Π_j (I + i λ_j γ̃_{2j} γ̃_{2j+1}), γ̃ = O^T γ.

    Each factor is parity-even, so ρ is built one 2^(n-1) x 2^(n-1)
    sector block at a time: γ̃_{2j+1} takes the block to the other
    sector and γ̃_{2j} brings it back. The factors commute, so each is
    applied from the left to the product so far: row flips keep the
    contiguous column axis innermost. No physicality check; callers
    wanting a guaranteed state go through state_from_cm.
    """
    _, phases = _majorana_strings(n)
    h = 2 ** (n - 1)
    half, full, scratch = (np.empty((h, h), dtype=complex) for _ in range(3))
    sectors = _sector_rows(n)
    blocks = []
    for own, other in (sectors, sectors[::-1]):
        own_phases, other_phases = phases[:, own], phases[:, other]
        block = np.eye(h, dtype=complex)
        for j, lam in enumerate(lambdas):
            _majorana_times(rotation[:, 2 * j + 1], block, own_phases, half, scratch)
            _majorana_times(1j * lam * rotation[:, 2 * j], half, other_phases, full, scratch)
            block += full
        block /= 2**n
        blocks.append(block)
    del half, full, scratch  # freed before ρ: the build peaks at 1.5 full matrices
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for rows, block in zip(sectors, blocks):
        rho[np.ix_(rows, rows)] = block
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
    return DenseState(rho)


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
    return float(np.sum(np.abs(_sector_eigvalsh(a.rho - b.rho))))


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
    eigs = _sector_eigvalsh(rho)
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
    return DenseState(rho)
