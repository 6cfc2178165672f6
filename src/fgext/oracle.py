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
routines work on these blocks, on Pauli strings or on Majorana moments,
and multiply no dense Majorana matrices:

* state_from_cm builds the sector blocks from ρ's Majorana moments, the
  Pfaffians of M's principal submatrices (Wick's theorem): one table of
  all 4^n of them, n(2n-1) vectorised multiply-adds, then one 2 x 2
  butterfly per mode on the nonzero half that turns them into entries,
  each carrying the sign Φ(r, c) that the (-Z) strings leave on it (see
  _state_blocks). That is O(n 4^n), against n² 4^n for the product
  formula Π_j (I + i λ_j γ̃_{2j} γ̃_{2j+1}) that the tests keep;
* DenseState checks the sector blocks before it makes ρ of them: each
  plus 1e-10 I is factorised by Cholesky, a fraction of an eigensolve,
  and diagonalised only when that fails; trace_distance and entropies
  diagonalise the blocks, a quarter of the work of one full eigvalsh;
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
from .config import is_count
from .fgs import CovarianceMatrix, validate_cm
from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidParameterError,
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
#: state at MODE_CAP modes (2^24 complex entries, 0.25 GiB) fits, the
#: 6 GiB of dense Majorana matrices at MODE_CAP modes do not.
DENSE_BYTES_CAP = 2 * 2**30

#: Dense 2^n x 2^n complex matrices alive at once in state_from_cm: 1.25 in
#: the build (the real Pfaffian table, the sector blocks, the rows they
#: trade) and in the check (the blocks, a shifted block, LAPACK's copy and
#: the factor), 1.5 once ρ is made of the blocks. A first call in a fresh
#: process grew peak RSS by 1.63, 1.55 and 1.52 matrices at 10, 11 and 12
#: modes; the excess over 1.5 is a few MiB whatever n.
_STATE_BUILD_MATRICES = 1.55


@dataclass(frozen=True, eq=False)
class DenseState:
    """An exact density matrix on the 2^n-dimensional Fock space.

    n is read from ρ's dimension. Every ρ is checked: it must be finite and
    commute with (-1)^N to 1e-10, and its sector blocks Hermitian and of
    unit trace to 1e-10, with no eigenvalue below -1e-10 up to rounding of
    order 2^n times the unit roundoff. The stored ρ is read-only and its
    own: the given sector blocks and exact zeros between the sectors.
    """

    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        # the given array is only read
        object.__setattr__(self, "rho", _stored(_sector_blocks(np.asarray(self.rho, dtype=complex))))

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


def _adopt(blocks: np.ndarray) -> DenseState:
    """DenseState from the stack of its sector blocks, with the same checks."""
    state = object.__new__(DenseState)
    object.__setattr__(state, "rho", _stored(blocks))
    return state


#: Entries per row slab of _sector_blocks' temporaries.
_SLAB_ENTRIES = 2**13


def _sector_blocks(rho: np.ndarray) -> np.ndarray:
    """The stack of the complex ρ's sector blocks, once ρ is finite and
    parity-even to 1e-10; every temporary is a row slab."""
    n = _modes_of(rho)
    even, odd = _sector_rows(n)
    rows = max(1, _SLAB_ENTRIES // len(rho))
    off = 0.0  # the largest entry between the sectors
    for ours, theirs in ((even, odd), (odd, even)):
        for i in range(0, len(ours), rows):
            slab = rho[ours[i : i + rows]]  # a copy
            if not np.isfinite(slab).all():
                raise ValueError("density matrix has non-finite entries")
            off = max(off, np.max(np.abs(slab[:, theirs])))
    # the largest entry of Pρ - ρP is twice the largest off-sector entry
    if 2.0 * off > 1e-10:
        raise ValueError("state does not commute with the parity operator")
    return rho[_sectors(n)]


def _stored(blocks: np.ndarray) -> np.ndarray:
    """_full(blocks) once the blocks are finite, Hermitian and of unit trace
    to 1e-10 and each block + 1e-10 I has a Cholesky factor, which decides
    that no eigenvalue is below -1e-10 up to rounding of order 2^(n-1) u ||ρ||
    (u the unit roundoff; Higham, Accuracy and Stability of Numerical
    Algorithms, §10.1); eigvalsh runs only where that fails. The check's
    temporaries, of a block's size each, are freed before ρ is made."""
    if not np.isfinite(blocks).all():
        raise ValueError("density matrix has non-finite entries")
    square = sum(np.vdot(r, r).real for r in (b - b.conj().T for b in blocks))  # ||ρ - ρ^†||²
    if square > 1e-20:
        raise ValueError("density matrix is not Hermitian")
    trace = np.trace(blocks, axis1=1, axis2=2).sum().real
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"trace is {trace!r}, expected 1")
    for block in blocks:
        try:
            np.linalg.cholesky(block + 1e-10 * np.eye(len(block)))
        except np.linalg.LinAlgError:
            low = float(np.linalg.eigvalsh(block)[0])
            if low < -1e-10:
                raise ValueError(f"negative eigenvalue {low:.3e}") from None
    return _full(blocks)


def _full(blocks: np.ndarray) -> np.ndarray:
    """The read-only 2^n x 2^n matrix of these sector blocks and zeros."""
    dim = 2 * blocks.shape[-1]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[_sectors(dim.bit_length() - 1)] = blocks
    rho.setflags(write=False)
    return rho


def _sector_rows(n: int) -> tuple:
    """Occupation indices of the even and of the odd parity sector.

    Row l of a sector is the basis state whose first n-1 modes hold the
    bits of l; the last mode's bit is whichever gives the sector's parity.
    """
    label_odd = _parity_signs(n - 1) < 0
    twice = 2 * np.arange(2 ** (n - 1))
    return twice + label_odd, twice + ~label_odd


def _sectors(n: int) -> tuple:
    """rho[_sectors(n)] is the (2, 2^(n-1), 2^(n-1)) stack of sector blocks."""
    rows = np.array(_sector_rows(n))
    return rows[:, :, None], rows[:, None, :]


def _sector_eigvalsh(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a parity-even Hermitian ρ, from its two sector blocks."""
    return np.linalg.eigvalsh(rho[_sectors(_modes_of(rho))]).ravel()


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


def _pfaffian_table(m: np.ndarray, scale: float) -> tuple:
    """scale · Pf(m[x]) for every subset x of m's d indices, at x = Σ_{p∈x} 2^p,
    as two halves of 2^(d-1) entries: the subsets without and with d - 1.

    Expansion along the top element a of x,
    Pf(m[x]) = Σ_{b∈x, b<a} (-1)^{#{c∈x : c<b}} m[b, a] Pf(m[x∖{a, b}]),
    fills the subsets topped by a, the slice [2^a, 2^(a+1)), from the
    slice below it: one multiply-add per pair b < a. Odd subsets stay 0,
    so on every nonzero Pf(m[x∖{a, b}]) the parity of the bits below b is
    that of the bits between b and a; the sign is read from the shorter.
    """
    d = len(m)
    # two buffers, not one: freeing a half dense matrix would lift glibc's mmap
    # threshold above DenseState's quarter-matrix temporaries, which would then
    # stay resident (a first 10-mode state grew peak RSS by 2.56 matrices, not 2.06)
    halves = np.zeros(2 ** (d - 1)), np.zeros(2 ** (d - 1))
    halves[0][0] = scale
    signs = _parity_signs(d // 2)
    term = np.empty(2 ** (d - 2))
    for a in range(1, d):
        low = halves[0][: 2**a]
        top = halves[0][2**a : 2 ** (a + 1)] if a < d - 1 else halves[1]
        for b in range(a):
            above, below = 2 ** (a - 1 - b), 2**b
            shape = (above, 2, below)  # the middle axis is bit b
            sign = signs[:below] if below <= above else signs[:above, None]
            out = term[: 2 ** (a - 1)].reshape(above, below)
            np.multiply(low.reshape(shape)[:, 0], m[b, a] * sign, out=out)
            top.reshape(shape)[:, 1] += out
    return halves


def _state_from_canonical(rotation: np.ndarray, lambdas, n: int) -> np.ndarray:
    """Dense ρ built by _state_blocks, read-only; no physicality check."""
    return _full(_state_blocks(rotation, lambdas, n))


def _state_blocks(rotation: np.ndarray, lambdas, n: int) -> np.ndarray:
    """The sector blocks of ρ = 2^-n Σ_{x even} i^(|x|/2) Pf(M[x]) γ_{x_1} ⋯
    γ_{x_k} for M = R (⊕_j λ_j [[0, 1], [-1, 0]]) R^T: by Wick's theorem
    the Pfaffians are the Majorana moments of the Gaussian state.

    Entry by entry, ρ[r, c] = 2^-n Φ(r, c) Σ_x i^(|x|/2) Pf(M[x])
    Π_j σ_{s_j}[r_j, c_j], with σ = (I, X, Y, XY) for s_j = (bit 2j,
    bit 2j+1) of x and r_j, c_j the bits of mode j. A mode k with
    r_k ≠ c_k holds one Majorana, whose (-Z)^{⊗k} acts on the modes before
    it, and (-Z)[c, c] = -(-1)^c; hence
    Φ(r, c) = (-1)^{Σ_k (k + Σ_{j<k} c_j)(r_k ⊕ c_k)}.

    The table is copied in with bit 2j+1 of x at r_j and bit 2j at c_j.
    One 2 x 2 butterfly per mode then turns each (r_j, c_j) quartet into
    entries: i·XY = -Z on the diagonal pair, e^{iπ/4}(X, Y) on the
    off-diagonal pair. Splitting i^(|x|/2) into i per XY and e^{iπ/4} per
    X or Y keeps it a product over modes; mode j's factor of Φ depends on
    c_0 … c_{j-1} only, final by then, and rides on its e^{iπ/4}.

    Only the nonzero half, |r| + |c| even, is built: block i holds its
    entries with r_{n-1} = i, labelled as in _sector_rows. Modes 0 … n-2
    flip a label bit of r and c, so their butterflies stay in each block;
    the last pairs the blocks. Then the rows with odd labels trade blocks.
    """
    m = (rotation[:, 0::2] * np.asarray(lambdas, dtype=float)) @ rotation[:, 1::2].T
    halves = _pfaffian_table(m - m.T, 2.0**-n)
    dim = 2 ** (n - 1)
    blocks = np.empty((2, dim, dim), dtype=complex)
    # bit 2n-1 of x is r_{n-1}; a half's quarters (c_{n-1}), each zero where the other
    # is not, add up to the block, whose bits run r_0 … r_{n-2}, c_0 … c_{n-2}
    axes = [2 * (n - 2 - j) for j in range(n - 1)] + [2 * (n - 2 - j) + 1 for j in range(n - 1)]
    for block, half in zip(blocks, halves):
        quarter = np.add(half[: dim * dim], half[dim * dim :], out=half[: dim * dim])
        np.copyto(block.reshape((2,) * (2 * n - 2)), quarter.reshape((2,) * (2 * n - 2)).transpose(axes))
    # the halves become the butterflies' scratch arrays, and no call below
    # writes where its inputs lie, so numpy makes no hidden copies
    scratch = [half.view(complex) for half in halves]
    # e^{iπ/4} (-1)^{c_0 + … + c_{k-1}} over the first 2^k entries, for mode k
    signs = _parity_signs(n - 1)
    phases = np.exp(0.25j * np.pi) * signs
    for k in range(n - 1):
        shape = (2, 2**k, 2, 2 ** (n - 2 - k), 2**k, 2, 2 ** (n - 2 - k))
        a, b, c, d = (blocks.reshape(shape)[:, :, i, :, :, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        t1, t2 = (t[: a.size].reshape(a.shape) for t in scratch)
        np.subtract(a, d, out=t1)
        np.add(a, d, out=t2)
        np.copyto(a, t1)
        np.copyto(d, t2)
        phase = (-1) ** k * phases[: 2**k, None]
        np.multiply(b, phase, out=t1)
        np.multiply(c, 1j * phase, out=t2)
        np.subtract(t1, t2, out=b)
        np.add(t1, t2, out=c)
    # last mode: the blocks pair at equal labels, as (b, c) where their parities differ, else (a, d)
    odd = signs < 0
    pair_bc = np.not_equal.outer(odd, odd)[..., None]
    u, v = blocks.reshape(2, dim, dim, 1)
    t1, t2 = (t.reshape(u.shape) for t in scratch)
    t1[...], t2[...] = u, v
    phase = (-1) ** (n - 1) * phases[:, None]
    np.multiply(u, phase, out=t1, where=pair_bc)
    np.multiply(v, 1j * phase, out=t2, where=pair_bc)
    np.subtract(t1, t2, out=u)
    np.add(t1, t2, out=v)
    blocks[:, odd] = blocks[::-1, odd]
    return blocks


def state_from_cm(m: CovarianceMatrix) -> DenseState:
    """Exact density matrix of the Gaussian state with covariance matrix M.

    Canonical eigenvalues are clipped into [-1, 1] after validation so
    boundary states reconstruct to genuinely positive matrices even when
    the covariance matrix carries an eps-sized physicality slack.
    """
    _require_modes(m.modes, matrices=_STATE_BUILD_MATRICES)
    form = matalg.canonical_form(m.body)
    lams = np.clip(form.lambdas, -1.0, 1.0)
    return _adopt(_state_blocks(form.rotation, lams, m.modes))


def cm_from_state(state: DenseState) -> CovarianceMatrix:
    """M_pq = Re Tr(i γ_p γ_q ρ), all p < q at once by _string_trace's arithmetic."""
    masks, phases = _majorana_strings(state.n)
    masks, x, m = np.array(masks), np.arange(len(state.rho)), np.zeros((2 * state.n,) * 2)
    for q in range(1, len(m)):
        phase = np.ones(len(x), dtype=complex) * phases[q] * phases[:q, x ^ masks[q]]
        traces = np.sum(phase * state.rho[x, x ^ masks[q] ^ masks[:q, None]], axis=1)
        m[:q, q] = (1j * traces).real
        m[q, :q] = -m[:q, q]
    return validate_cm(matalg._exact(m))


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


def _partial_trace(rho: np.ndarray, n: int, keep: int, side: str) -> np.ndarray:
    """Trace out all but the first (side 'A') or last (side 'B') keep of
    the n modes: mode 0 is the leading factor of the occupation basis."""
    if side not in ("A", "B"):
        raise InvalidParameterError("side must be 'A' or 'B'")
    if not (is_count(keep) and keep <= n):
        raise DimensionMismatchError(f"cannot keep {keep!r} of {n} modes")
    da = 2 ** (keep if side == "A" else n - keep)
    db = len(rho) // da
    return np.einsum("ijkj->ik" if side == "A" else "ijik->jk", rho.reshape(da, db, da, db))


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
    rho_a = _partial_trace(state.rho, state.n, n_a, "A")
    rho_b = _partial_trace(state.rho, state.n, n_b, "B")
    s_a = _von_neumann_bits(rho_a)
    s_b = _von_neumann_bits(rho_b)
    s_ab = _von_neumann_bits(state.rho)
    return s_a, s_b, s_ab, s_a + s_b - s_ab


def reduced_state(state: DenseState, n_keep: int, side: str = "A") -> DenseState:
    """Dense marginal on the first (side='A') or last (side='B') n_keep
    modes; DimensionMismatchError unless n_keep is a count in [1, n]."""
    return DenseState(_partial_trace(state.rho, state.n, n_keep, side))
