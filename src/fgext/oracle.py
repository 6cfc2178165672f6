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
  the 2^(2n-1) even ones (the odd ones vanish), n(2n-1) vectorised
  multiply-adds, gathered straight into the two blocks, whose entries
  they number exactly; then one 2 x 2 butterfly per mode turns them into
  entries, each carrying the sign Φ(r, c) that the (-Z) strings leave on
  it (see _state_blocks). That is O(n 4^n), against n² 4^n for the
  product formula Π_j (I + i λ_j γ̃_{2j} γ̃_{2j+1}) that the tests keep;
* DenseState checks the sector blocks before it makes ρ of them, each
  block's floor of -1e-10 by matalg.floor_violation; trace_distance and
  entropies diagonalise the blocks, a quarter of the work of one full
  eigvalsh, and trace_distance subtracts the two states' blocks, not ρ;
* cm_from_state and wick_check compose strings (XOR of the masks,
  product of the phases) and read one XOR diagonal ρ[x, x ^ m] per
  monomial, O(n² 2^n) for the whole covariance matrix;
* jordan_wigner and parity_operator build their dense matrices anew for
  each caller that asks for them and keep no copy.

Every routine refuses more than MODE_CAP modes before it allocates, and
jordan_wigner also 2n dense matrices whose bytes exceed DENSE_BYTES_CAP.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import matalg
from .config import is_count
from .fgs import CovarianceMatrix, validate_cm
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotBonaFideError,
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

#: Hard cap on dense mode count (4096-dimensional Fock space), the one bound
#: on a dense state: a first state_from_cm in a fresh process grew peak RSS
#: by 1.70-1.72, 1.57 and 1.53 dense 2^n x 2^n complex matrices at 10, 11 and
#: 12 modes (random_bona_fide_cm, seeds 1-3), 0.43 GiB at 12.
MODE_CAP = 12

#: Largest size of the dense matrices jordan_wigner may allocate: two
#: states at MODE_CAP modes (2^24 complex entries, 0.25 GiB each) fit, the
#: 6 GiB of dense Majorana matrices at MODE_CAP modes do not.
DENSE_BYTES_CAP = 2 * 2**30


@dataclass(frozen=True, eq=False)
class DenseState:
    """An exact density matrix on the 2^n-dimensional Fock space.

    n is read from ρ's dimension. Every ρ is checked (NotBonaFideError): it
    must be finite and commute with (-1)^N to 1e-10, and its sector blocks
    Hermitian and of unit trace to 1e-10, with no eigenvalue below -1e-10
    (matalg.floor_violation). The stored ρ is read-only and its own: the
    given sector blocks and exact zeros between the sectors.
    TooManyModesError for n over MODE_CAP, before anything is allocated.
    """

    rho: np.ndarray

    def __post_init__(self):
        # the given array is only read
        _require_modes(_modes_of(np.asarray(self.rho)))
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
                raise NotBonaFideError("density matrix has non-finite entries")
            off = max(off, np.max(np.abs(slab[:, theirs])))
    # the largest entry of Pρ - ρP is twice the largest off-sector entry
    if 2.0 * off > 1e-10:
        raise NotBonaFideError("state does not commute with the parity operator")
    return rho[_sectors(n)]


def _stored(blocks: np.ndarray) -> np.ndarray:
    """_full(blocks) once the blocks are finite, Hermitian and of unit trace
    to 1e-10 and no block has an eigenvalue below -1e-10, as
    matalg.floor_violation decides. The check's temporaries, of a block's
    size each, are freed before ρ is made."""
    if not np.isfinite(blocks).all():
        raise NotBonaFideError("density matrix has non-finite entries")
    square = sum(np.vdot(r, r).real for r in (b - b.conj().T for b in blocks))  # ||ρ - ρ^†||²
    if square > 1e-20:
        raise NotBonaFideError("density matrix is not Hermitian")
    trace = np.trace(blocks, axis1=1, axis2=2).sum().real
    if abs(trace - 1.0) > 1e-10:
        raise NotBonaFideError(f"trace is {trace!r}, expected 1")
    for block in blocks:
        low = matalg.floor_violation(block, 1e-10)
        if low is not None:
            raise NotBonaFideError(f"negative eigenvalue {low:.3e}")
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


def _require_modes(n: int):
    """Refuse n outside [1, MODE_CAP]."""
    if not 1 <= n <= MODE_CAP:
        raise TooManyModesError(f"mode count {n} outside [1, {MODE_CAP}]")


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
    """(-1)^N on each occupation basis state, filled in place: freeing
    intermediate arrays would lift glibc's mmap threshold (see _pfaffian_table)."""
    signs = np.ones(2**n)
    for k in range(n):
        np.negative(signs[: 2**k], out=signs[2**k : 2 ** (k + 1)])
    return signs


def jordan_wigner(n: int) -> tuple:
    """The 2n Hermitian Majorana operators, {γ_p, γ_q} = 2 δ_pq, as
    read-only dense matrices."""
    _require_modes(n)
    nbytes = 2 * n * 16 * 4**n
    if nbytes > DENSE_BYTES_CAP:
        raise TooManyModesError(
            f"{n} modes need about {nbytes / 2**30:.2f} GiB of dense matrices, "
            f"over the {DENSE_BYTES_CAP / 2**30:.2f} GiB cap"
        )
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
    _require_modes(n)
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


def _pfaffian_table(m: np.ndarray, scale: float) -> np.ndarray:
    """scale · Pf(m[x]) for every even subset x of m's d indices, at x >> 1 for
    x = Σ_{p∈x} 2^p: 2^(d-1) entries, bit 0 of x being the parity of the rest
    (odd subsets have Pf = 0 and no entry).

    Expansion along the top element a of x,
    Pf(m[x]) = Σ_{b∈x, b<a} (-1)^{#{c∈x : c<b}} m[b, a] Pf(m[x∖{a, b}]),
    fills the subsets topped by a, the slice [2^(a-1), 2^a), from the slice
    below it: one multiply-add per pair b < a, b = 0 first. For b = 0 the
    source x∖{a, 0} has bit 0 clear, so only the even-parity entries below
    contribute; for b ≥ 1, bit b of x is bit b-1 of the entry. Every source
    is even, so the parity of its bits below b is that of its bits between
    b and a.
    """
    d = len(m)
    table = np.zeros(2 ** (d - 1))
    table[0] = scale
    # the signs and both products share one buffer of the table's size: freeing smaller
    # ones would lift glibc's mmap threshold above DenseState's bool temporaries, which
    # would then stay resident (a first 12-mode state grew peak RSS by 1.551 matrices, not 1.521)
    signs, term, coef = np.split(np.empty(2 ** (d - 1)), [2 ** (d - 2), 2 ** (d - 2) + 2**d // 8])
    signs[...] = _parity_signs(d - 2)
    even = signs > 0
    for a in range(1, d):
        half = 2 ** (a - 1)
        low, top = table[:half], table[half : 2 * half]
        np.multiply(low, even[:half], out=top)
        top *= m[0, a]
        for b in range(1, a):
            above, below = 2 ** (a - 1 - b), 2 ** (b - 1)
            shape = (above, 2, below)  # the middle axis is bit b of x
            out = term[: half // 2].reshape(above, below)
            sign = np.multiply(signs[:above], m[b, a], out=coef[:above])
            np.multiply(low.reshape(shape)[:, 0], sign[:, None], out=out)
            top.reshape(shape)[:, 1] += out
    return table


def _block_index(n: int) -> np.ndarray:
    """_pfaffian_table's index of every entry of the (2, 2^(n-1), 2^(n-1))
    stack of sector blocks, as _state_blocks lays them out: x >> 1 for x
    with bit 2j+1 = r_j and bit 2j = c_j, r_{n-1} the block and c_{n-1} the
    bit that makes x even."""
    bits = np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 2, -1, -1) & 1  # column j: mode j's bit
    step = 4 ** np.arange(n - 1)
    rows, cols = bits @ (2 * step), bits @ step
    odd = _parity_signs(n - 1) < 0
    # c_{n-1}, below r_{n-1}, is r_{n-1} ⊕ parity(row label) ⊕ parity(column label):
    # the rows and the columns each carry their share, and the XOR joins them
    last = 1 << (2 * n - 2)
    rows = np.array([rows | odd * last, rows | ~odd * last | 2 * last])
    return np.bitwise_xor.outer(rows >> 1, (cols | odd * last) >> 1)


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

    The table's entries are gathered with bit 2j+1 of x at r_j and bit 2j
    at c_j. One 2 x 2 butterfly per mode then turns each (r_j, c_j) quartet
    into entries: i·XY = -Z on the diagonal pair, e^{iπ/4}(X, Y) on the
    off-diagonal pair. Splitting i^(|x|/2) into i per XY and e^{iπ/4} per
    X or Y keeps it a product over modes; mode j's factor of Φ depends on
    c_0 … c_{j-1} only, final by then, and rides on its e^{iπ/4}.

    Only the nonzero half, |r| + |c| even, is built: block i holds its
    entries with r_{n-1} = i, labelled as in _sector_rows, so the table's
    entries are exactly the blocks'. Modes 0 … n-2 flip a label bit of r
    and c, so their butterflies stay in each block; the last pairs the
    blocks, and the rows with odd labels trade blocks as it writes them.
    """
    m = (rotation[:, 0::2] * np.asarray(lambdas, dtype=float)) @ rotation[:, 1::2].T
    table = _pfaffian_table(m - m.T, 2.0**-n)
    dim = 2 ** (n - 1)
    # the blocks' real entries are gathered into `spare`, which the last mode reuses;
    # np.take's mode "clip" (every index is in range) writes into `out` unbuffered
    spare = np.empty((dim, dim), dtype=complex)
    entries = np.take(table, _block_index(n), out=spare.view(float).reshape(2, dim, dim), mode="clip")
    blocks = entries.astype(complex)
    # the table becomes the butterflies' scratch; a + d is written into d, a view
    # numpy proves disjoint from a, so it makes no hidden copy
    scratch = table.view(complex)
    # e^{iπ/4} (-1)^{c_0 + … + c_{k-1}} over the first 2^k entries, for mode k
    signs = _parity_signs(n - 1)
    phases = np.exp(0.25j * np.pi) * signs
    for k in range(n - 1):
        shape = (2, 2**k, 2, 2 ** (n - 2 - k), 2**k, 2, 2 ** (n - 2 - k))
        a, b, c, d = (blocks.reshape(shape)[:, :, i, :, :, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        t1, t2 = scratch.reshape((2,) + a.shape)
        np.subtract(a, d, out=t1)
        np.add(a, d, out=d)
        np.copyto(a, t1)
        phase = (-1) ** k * phases[: 2**k, None]
        np.multiply(b, phase, out=t1)
        np.multiply(c, 1j * phase, out=t2)
        np.subtract(t1, t2, out=b)
        np.add(t1, t2, out=c)
    # last mode: the blocks u, v pair at equal labels, as (a, d) where the labels'
    # parities agree and as (b, c) where they differ. A row of even label keeps
    # (u', v') = (α u - β v, α u + β v), with (α, β) = (1, 1) for (a, d) and the
    # mode's (phase, i phase) for (b, c); a row of odd label trades them, which
    # negating its β does. Both coefficients are rows picked by the row's parity.
    odd = signs < 0
    phase = (-1) ** (n - 1) * phases
    same = np.equal.outer([False, True], odd)
    alpha = np.where(same, 1.0, phase)
    beta = np.where(same, 1.0, 1j * phase) * [[1.0], [-1.0]]
    t1, t2 = scratch.reshape(dim, dim), spare
    parity = odd.astype(np.intp)
    np.take(alpha, parity, axis=0, out=t1, mode="clip")
    np.take(beta, parity, axis=0, out=t2, mode="clip")
    u, v = blocks
    np.multiply(u, t1, out=t1)  # u first: numpy's complex product is not bitwise commutative
    np.multiply(v, t2, out=t2)
    np.subtract(t1, t2, out=u)
    np.add(t1, t2, out=v)
    return blocks


def state_from_cm(m: CovarianceMatrix) -> DenseState:
    """Exact density matrix of the Gaussian state with covariance matrix M.

    Canonical eigenvalues are clipped into [-1, 1] after validation so
    boundary states reconstruct to genuinely positive matrices even when
    the covariance matrix carries an eps-sized physicality slack.
    """
    _require_modes(m.modes)
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
    s = _sectors(a.n)
    diff = a.rho[s]
    diff -= b.rho[s]
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def wick_check(state: DenseState, m: CovarianceMatrix, idx) -> tuple:
    """(lhs, rhs) of the moment identity Tr(i^(|x|/2) γ(x) ρ) = Pf(M[x]).

    idx must be a strictly increasing, even-sized tuple of Majorana
    indices (InvalidParameterError); for Gaussian states the two sides
    agree. M must have the state's mode count (DimensionMismatchError).
    """
    d = 2 * state.n
    if len(m.mat) != d:
        raise DimensionMismatchError(f"mode mismatch: state {state.n} vs covariance matrix {len(m.mat) // 2}")
    idx = tuple(idx)
    if len(idx) % 2 != 0:
        raise InvalidParameterError(f"index subset {idx} has odd size")
    if any(not 0 <= i < d for i in idx):
        raise InvalidParameterError(f"indices {idx} outside [0, {d})")
    if list(idx) != sorted(set(idx)):
        raise InvalidParameterError(f"indices {idx} must be strictly increasing")
    lhs = float(((1j) ** (len(idx) // 2) * _string_trace(state.rho, state.n, idx)).real)
    rhs = matalg.pfaffian(m.mat[np.ix_(idx, idx)])
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
    eigs = np.linalg.eigvalsh(rho[_sectors(_modes_of(rho))]).ravel()
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
