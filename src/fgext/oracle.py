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
  multiply-adds, as many as the blocks have entries. Gathered by row and
  by p = row ⊕ column, they turn into entries under one Sylvester-Hadamard
  transform H^⊗n between phases that are all ±1 or ±i: two real matrix
  products on BLAS, O(2^(n/2) 4^n), then one scatter into the blocks
  (see _state_blocks). The product formula Π_j (I + i λ_j γ̃_{2j}
  γ̃_{2j+1}) that the tests keep costs n² 4^n;
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
from typing import NamedTuple

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


def _bits(k: int) -> np.ndarray:
    """(2^k, k): row x holds the k bits of x, the most significant first."""
    return np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1


#: (-i)^e for e = 0 … 3: every phase of the build is the conjugate of one of
#: _hadamard_plan's i^e, exactly.
_CONJUGATE_UNITS = np.array([1.0, -1.0j, -1.0, 1.0j])


class _Half(NamedTuple):
    """_state_blocks' tables for a run of modes, over (u, p): the run's bits
    of the transform's input u (of its output c for phase_out) and of p, in
    the occupation index's order. Each entry is a sum over the run's modes."""

    hadamard: np.ndarray  # (-1)^(u·c), the run's factor of H^⊗n
    index: np.ndarray  # _pfaffian_table's index x >> 1: Σ_j u_j 4^j // 2 + (u_j ⊕ p_j) 4^j
    phase_in: np.ndarray  # exponent of i in In: Σ_j 2 u_j (1 - p_j) + p_j (1 - u_j)
    phase_out: np.ndarray  # exponent of i in Out: Σ_j 2 c_j (p_j ⊕ … ⊕ p_(n-1))


@functools.lru_cache(maxsize=None)
def _sylvester(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester-Hadamard matrix (-1)^(x·y), read-only."""
    bits = _bits(k)
    h = np.where(bits @ bits.T & 1, -1.0, 1.0)
    h.setflags(write=False)
    return h


@functools.lru_cache(maxsize=None)
def _hadamard_plan(n: int) -> tuple:
    """(first, rest, rest_p, p_phase, row_label, row_start): the tables, of
    O(2^n) entries each, that _state_blocks combines at n modes.

    first and rest are the _Half tables of the first n // 2 modes and of the
    others. The array's p >> 1 is (p_first, p_mid), and the last mode's bit
    of p is the parity of both, so the rest's p is rest_p[p_first, p_mid].
    p_phase[p >> 1] is the exponent of i in i^(|p|/2) (-1)^(Σ_j j p_j). Row
    r of the array's two halves, in order, is row label r >> 1 of block
    parity(r), which starts at row_start in the stack of blocks.
    """
    half = n // 2
    halves = []
    # |p| is even, so the modes after the first run carry that run's parity of p
    for modes, later in ((np.arange(half), 1), (np.arange(half, n), 0)):
        bits = _bits(len(modes))
        u, p = bits[:, None, :], bits[None, :, :]
        suffix = np.cumsum(p[..., ::-1], axis=-1)[..., ::-1] + later * np.sum(p, axis=-1, keepdims=True)
        halves.append(
            _Half(
                _sylvester(len(modes)),
                np.sum(u * (4**modes // 2) + (u ^ p) * 4**modes, axis=-1),
                (np.sum(2 * u * (1 - p) + p * (1 - u), axis=-1) % 4).astype(np.uint8),
                (np.sum(2 * u * suffix, axis=-1) % 4).astype(np.uint8),
            )
        )
    odd = _parity_signs(n - 1) < 0
    mid = 2 ** (n - 1 - half)
    rest_p = 2 * np.arange(mid) + np.not_equal.outer(odd[::mid], odd[:mid])
    p = np.column_stack([_bits(n - 1), odd])
    p_phase = ((np.sum(p, axis=1) // 2 + 2 * (p @ np.arange(n))) % 4).astype(np.uint8)
    r = np.arange(2**n).reshape(2**half, 2, mid).swapaxes(0, 1).ravel()
    row_label = r >> 1
    row_start = (np.where(_parity_signs(n)[r] < 0, 2 ** (n - 1), 0) + row_label) << (n - 1)
    tables = (*halves[0][1:], *halves[1][1:], rest_p, p_phase, row_label, row_start)
    for array in tables:
        array.setflags(write=False)
    return (*halves, rest_p, p_phase, row_label, row_start)


def _state_blocks(rotation: np.ndarray, lambdas, n: int) -> np.ndarray:
    """The sector blocks of ρ = 2^-n Σ_{x even} i^(|x|/2) Pf(M[x]) γ_{x_1} ⋯
    γ_{x_k} for M = R (⊕_j λ_j [[0, 1], [-1, 0]]) R^T: by Wick's theorem
    the Pfaffians are the Majorana moments of the Gaussian state.

    Index entry ρ[r, c] by c and p = r ⊕ c. On mode j the string γ(x) acts
    as X^(u_j) Y^(u_j ⊕ p_j), u_j the bit 2j of x, times the (-Z) of every
    later Majorana, and (-Z)[c, c] = -(-1)^c. Taking i per XY and e^{iπ/4}
    per X or Y out of i^(|x|/2) gives

        ρ[r, c] = Out(p, c) Σ_u (-1)^(u·c) In(p, u) table[x(p, u) >> 1],

    where In(p, u) = Π_j f(p_j, u_j) with f = 1, -1, i, 1 at (0, 0), (0, 1),
    (1, 0), (1, 1), and Out(p, c) = Π_{j: p_j = 1} (-1)^j e^{iπ/4} (-1)^(c_0
    ⊕ … ⊕ c_j) = i^(|p|/2) (-1)^(Σ_j j p_j + Σ_j c_j (p_j ⊕ … ⊕ p_(n-1))).
    |p| is even, so every phase is ±1 or ±i, exactly. The sum over u is the
    Sylvester-Hadamard matrix H^⊗n = H_first ⊗ H_rest, over the first
    n // 2 modes and the others: two real products on the float view.

    The table and H are real and ρ is Hermitian, so the same sum with every
    phase conjugated is ρ[c, r]. The build therefore makes the transform's
    output the row: its (r, p >> 1) array, of the nonzero half |p| even
    only, holds in row r a row of a block, row label r >> 1 of block
    parity(r), whose column label is (r >> 1) ⊕ (p >> 1). Every index and
    phase is a broadcast sum of _hadamard_plan's tables over the two runs of
    modes. The array is kept as its two halves in r_rest, beside one buffer
    of the blocks' size, which is the products' other operand and then the
    blocks: no buffer of that size is freed, whose release would lift
    glibc's mmap threshold above DenseState's temporaries (see
    _pfaffian_table).
    """
    first, rest, rest_p, p_phase, row_label, row_start = _hadamard_plan(n)
    m = (rotation[:, 0::2] * np.asarray(lambdas, dtype=float)) @ rotation[:, 1::2].T
    table = _pfaffian_table(m - m.T, 2.0**-n)
    h, k = len(first.hadamard), len(rest.hadamard)
    shape = (h, k, h, k // 2)  # (u_first, u_rest, p_first, p_mid), then r for u
    index = np.empty(shape, dtype=np.intp)
    np.add(first.index[:, None, :, None], rest.index[:, rest_p], out=index)
    # np.take's mode "clip" (every index is in range) writes into `out` unbuffered
    blocks = np.empty(shape, dtype=complex)
    entries = np.take(table, index, out=blocks.view(float).reshape(-1)[: table.size].reshape(shape), mode="clip")
    del table  # before the halves: the peak is the blocks' buffer, the halves and one index
    halves = (slice(None, k // 2), slice(k // 2, None))
    parts = [np.multiply(entries[:, rows], _CONJUGATE_UNITS[first.phase_in][:, None, :, None]) for rows in halves]
    for rows, part in zip(halves, parts):
        np.matmul(first.hadamard, part.view(float).reshape(h, -1), out=blocks[:, rows].view(float).reshape(h, -1))
    # H_first has acted: the first run's output phases and the rest's input phases
    blocks *= _CONJUGATE_UNITS[first.phase_out][:, None, :, None]
    blocks *= _CONJUGATE_UNITS[rest.phase_in[:, rest_p]]
    phase_out = _CONJUGATE_UNITS[(rest.phase_out[:, rest_p] + p_phase.reshape(h, k // 2)) % 4]
    for rows, part in zip(halves, parts):
        np.matmul(rest.hadamard[rows], blocks.view(float).reshape(h, k, -1), out=part.view(float).reshape(h, k // 2, -1))
        part *= phase_out[rows]
    dim = 2 ** (n - 1)
    index = index.reshape(2**n, dim)
    np.bitwise_xor.outer(row_label, np.arange(dim), out=index)
    index += row_start[:, None]
    for target, part in zip(index.reshape(2, -1), parts):
        np.put(blocks, target, part, mode="clip")
    return blocks.reshape(2, dim, dim)


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
