"""Real antisymmetric / Hermitian matrix algebra.

Everything downstream reduces to three structural facts about a real
antisymmetric matrix K:

* iK is Hermitian with spectrum symmetric about zero, and every
  constraint A + iB (A symmetric, B antisymmetric) is a complex
  Hermitian matrix that numpy's eigvalsh takes directly. Every yes/no
  verdict h >= -shift, whether h is I + iK, a channel's CP matrix or a
  dense state's sector block, is floor_violation's;
* K = O (⊕_j [[0, λ_j], [-λ_j, 0]]) O^T for some special orthogonal O,
  whose rotation planes are the real and imaginary parts of the
  eigenvectors of iK;
* Pf(K)^2 = det(K), with Pf evaluated stably by Parlett-Reid elimination.

All three need numpy alone.

Antisymmetry is decided once per matrix, at one of two gates:

* antisymmetrize, tolerant (ANTISYM_RTOL relative), for data from outside:
  files, and raw arrays given to validate_cm or validate_channel;
* the AntisymmetricMatrix constructor, strict (1e-12 absolute), for
  callers outside the package, and for raw arrays given to
  hermitian_spectrum, pfaffian or canonical_form.

Matrices that fgext assembles from parts already checked (the
projection itself, witnesses, extensions, Choi and literal states) are
exactly antisymmetric by construction and are wrapped unchecked by the
module-private _exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotAntisymmetricError

__all__ = [
    "AntisymmetricMatrix",
    "CanonicalForm",
    "antisymmetrize",
    "hermitian_spectrum",
    "pfaffian",
    "canonical_form",
    "min_eigenvalue",
    "certified_floor",
    "floor_violation",
    "norms",
]

#: Symmetric residue, relative to max(‖raw‖_F, 1), that antisymmetrize accepts.
ANTISYM_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class AntisymmetricMatrix:
    """A validated real antisymmetric matrix of even dimension.

    Construction rejects a complex or non-finite entry and asymmetry beyond
    1e-12 in absolute value, then projects exactly: K/2 - K^T/2 has an
    exactly zero diagonal, and halving first keeps every finite entry finite.
    The wrapped array is made read-only; instances are safe to share.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _require_even_square(self.mat)
        half = mat / 2.0
        residue = 2.0 * float(np.max(np.abs(half + half.T), initial=0.0))
        if not residue <= 1e-12:
            raise NotAntisymmetricError(
                f"asymmetry {residue:.3e} exceeds the 1e-12 construction tolerance"
            )
        mat = half - half.T
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def modes(self) -> int:
        return self.dim // 2

    def __repr__(self):
        return f"AntisymmetricMatrix(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Block canonical form K = O (⊕_j [[0, λ_j], [-λ_j, 0]]) O^T.

    ``rotation`` is special orthogonal; ``lambdas`` are sorted in
    descending order, nonnegative except possibly the last one, whose
    sign absorbs the orientation needed to keep det(O) = +1. Both arrays
    are read-only.
    """

    rotation: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        for name in ("rotation", "lambdas"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def block_matrix(self) -> np.ndarray:
        """The direct sum ⊕_j [[0, λ_j], [-λ_j, 0]]."""
        n = len(self.lambdas)
        blocks = np.zeros((n, 2, n, 2))
        j = np.arange(n)
        blocks[j, 0, j, 1] = self.lambdas
        blocks[j, 1, j, 0] = -self.lambdas
        return blocks.reshape(2 * n, 2 * n)

    def reconstruct(self) -> np.ndarray:
        o = self.rotation
        return o @ self.block_matrix() @ o.T


def _finite_real(mat):
    """(mat as a float array, None), or (None, what an entry is not: 'real'
    for a nonzero imaginary part, else 'finite'). An imaginary part that is
    exactly zero is dropped, with no ComplexWarning."""
    mat = np.asarray(mat)
    if mat.dtype.kind == "c" and np.any(mat.imag):
        return None, "real"
    mat = np.asarray(mat.real, dtype=float)
    return (mat, None) if np.isfinite(mat).all() else (None, "finite")


def _require_even_square(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] % 2 != 0:
        raise DimensionMismatchError(f"dimension {mat.shape[0]} is odd")
    mat, lacks = _finite_real(mat)
    if lacks:
        raise NotAntisymmetricError(f"matrix has a non-{lacks} entry")
    return mat


def _exact(mat: np.ndarray) -> AntisymmetricMatrix:
    """AntisymmetricMatrix(mat) without its check, for a finite float array
    that is exactly antisymmetric by construction and that nothing writes
    to: made read-only and wrapped as it is."""
    mat.setflags(write=False)
    k = object.__new__(AntisymmetricMatrix)
    object.__setattr__(k, "mat", mat)
    return k


def antisymmetrize(raw: np.ndarray) -> AntisymmetricMatrix:
    """Project a nearly antisymmetric matrix onto raw/2 - raw^T/2.

    Rejects a complex or non-finite entry, and input whose symmetric
    residue exceeds ANTISYM_RTOL relative to max(‖raw‖_F, 1); the diagonal
    of the result is exactly zero. Both norms are taken on raw scaled by a
    power of two to a largest entry below 1, which rounds exactly as the
    unscaled norms would and keeps their squares finite for entries up to
    the largest float.
    """
    raw = _require_even_square(raw)
    unit = 2.0 ** -max(int(np.frexp(np.max(np.abs(raw), initial=0.0))[1]), 0)
    scaled = raw * unit
    scale = np.linalg.norm(scaled)
    residue = np.linalg.norm((scaled + scaled.T) / 2.0)
    if residue > ANTISYM_RTOL * max(scale, unit):
        raise NotAntisymmetricError(
            f"symmetric residue {float(residue) / unit:.3e} exceeds {ANTISYM_RTOL:.1e} * max(norm, 1) = "
            f"{float(ANTISYM_RTOL * max(scale, unit)) / unit:.3e}"
        )
    half = raw / 2.0
    return _exact(half - half.T)


def _as_mat(k) -> np.ndarray:
    return (k if isinstance(k, AntisymmetricMatrix) else AntisymmetricMatrix(k)).mat


def hermitian_spectrum(k) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix iK, ascending, in ±λ_j pairs."""
    return np.linalg.eigvalsh(1j * _as_mat(k))


def min_eigenvalue(a_sym: np.ndarray, b_antisym: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix A + iB."""
    return float(np.linalg.eigvalsh(a_sym + 1j * np.asarray(b_antisym))[0])


#: Unit roundoff and smallest subnormal of IEEE double precision.
_UNIT = 2.0**-53
_TINY = 2.0**-1074


def certified_floor(h: np.ndarray, shift: float) -> bool:
    """True only if a Cholesky factorisation proves λ_min(h) >= -shift.

    h is read as eigvalsh and LAPACK read it: the Hermitian (or real
    symmetric) matrix of its lower triangle and the real part of its
    diagonal, in double precision. One shifted copy A = fl(h + s I),
    s = fl(shift - c), is factorised; True iff c < shift and the factor
    exists and is finite. False proves nothing, and the caller decides by
    eigvalsh. c bounds the rounding a priori (Rump, BIT 46, 2006). With
    n = len(h), u = 2^-53, η = 2^-1074, γ_k = ku / (1 - ku) and
    T = Σ |h_ii| + n shift:

    * A = h + s I + E, E diagonal with |E_ii| <= u |A_ii| <= u (1 + u) T
      (the shifted diagonal is rounded once), and s <= shift - c + u shift;
    * a factor R that exists satisfies R^H R = A + ΔA with |ΔA| <=
      γ_{n+3} |R^H| |R| (Higham, Accuracy and Stability of Numerical
      Algorithms, Thm 10.3, whose γ_{n+1} counts one rounding per real
      product; a complex product is off by at most √2 γ_2 <= γ_3, his
      Lemma 3.5, two roundings more; any summation order, fused or not);
    * column i of R has |r_i|² = A_ii + ΔA_ii, so |r_i|² <= A_ii /
      (1 - γ_{n+3}) and ||ΔA||_2 <= γ_{n+3} Σ |r_i|² <= g tr(A), with
      g = γ_{n+3} / (1 - γ_{n+3}) = (n+3)u / (1 - 2(n+3)u) and
      tr(A) <= (1 + u) T;
    * gradual underflow adds at most n (3n + 1 + T) η to ||ΔA||_2, and a
      finite factor shows that nothing overflowed. A non-finite entry of
      row i makes the pivot r_ii = sqrt(A_ii - Σ_j |r_ij|²) non-finite
      (or the factorisation fail), so the diagonal shows any.

    Then h = A - s I - E has λ_min(h) >= -s - ||ΔA||_2 - ||E||_2 >= -shift
    once c >= (1 + u) (g + u) T + u shift + n (3n + 1 + T) η. c is
    1.01 (g + 2u) T + 4n (n + 1 + T) η with T as computed, the factor 1.01
    covering the rounding of T and of c while n < 10^12: about 1.6e-13
    for I + iK at n = 36, and 2.3e-13 for a 2048 x 2048 block of unit trace.
    """
    n = len(h)
    a = h.astype(np.promote_types(h.dtype, np.float64), order="C")
    diag = a.reshape(-1)[:: n + 1]
    total = sum(map(abs, diag.real.tolist())) + n * shift  # overflows to inf, silently
    k = (n + 3) * _UNIT
    c = 1.01 * (k / (1.0 - 2.0 * k) + 2.0 * _UNIT) * total + 4.0 * n * (n + 1 + total) * _TINY
    if not c < shift:  # a NaN diagonal fails too
        return False
    diag += shift - c
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return all(map(math.isfinite, factor.diagonal().real.tolist()))


def floor_violation(h: np.ndarray, shift: float) -> float | None:
    """None if λ_min(h) >= -shift, else eigvalsh's smallest eigenvalue of
    h; certified_floor proves the floor where it can, so eigvalsh runs only
    to decide and explain what it does not prove. A non-finite h is
    refused with NaN before either runs: LAPACK may hide its NaN or fail."""
    if not np.isfinite(h).all():
        return math.nan
    if certified_floor(h, shift):
        return None
    low = float(np.linalg.eigvalsh(h)[0])
    return None if low >= -shift else low


def pfaffian(k) -> float:
    """Pfaffian of a real antisymmetric matrix by Parlett-Reid elimination.

    Partial pivoting on the first column of each trailing block keeps the
    elimination stable; each row/column swap flips the sign. The empty
    0x0 matrix has Pfaffian 1 (empty product).
    """
    mat = _as_mat(k)
    m = mat.shape[0]
    if m == 0:
        return 1.0
    work = mat.copy()
    value = 1.0
    for col in range(0, m - 1, 2):
        pivot_row = col + 1 + int(np.argmax(np.abs(work[col + 1 :, col])))
        if work[pivot_row, col] == 0.0:
            return 0.0
        if pivot_row != col + 1:
            work[[col + 1, pivot_row], :] = work[[pivot_row, col + 1], :]
            work[:, [col + 1, pivot_row]] = work[:, [pivot_row, col + 1]]
            value = -value
        value *= work[col, col + 1]
        if col + 2 < m:
            tau = work[col, col + 2 :] / work[col, col + 1]
            rest = work[col + 2 :, col + 1]
            work[col + 2 :, col + 2 :] += np.outer(tau, rest) - np.outer(rest, tau)
    return float(value)


def canonical_form(k) -> CanonicalForm:
    """Canonical form of an antisymmetric matrix from the eigenvectors of iK.

    An eigenvector a + ib of iK with eigenvalue λ >= 0 satisfies
    K b = -λ a and K a = λ b, so (b, a) spans a rotation plane of the
    block [[0, λ], [-λ, 0]]. The planes of the n largest eigenvalues are
    re-orthonormalised by QR: the eigenvectors of a zero or near-zero ±λ
    pair may mix the two signs, which leaves their real and imaginary
    parts inside the pair's invariant subspace but not orthonormal. Each
    λ_j is then read from O^T K O. A negative λ_j has its first column
    negated, blocks are sorted by descending λ, and if det(O) = -1 the
    last block's first column and λ sign are flipped (so O stays special
    orthogonal).
    """
    mat = _as_mat(k)
    d = mat.shape[0]
    n = d // 2
    _, vecs = np.linalg.eigh(1j * mat)
    top = vecs[:, ::-1][:, :n]
    planes = np.empty((d, d))
    planes[:, 0::2] = top.imag
    planes[:, 1::2] = top.real
    o, _ = np.linalg.qr(planes)
    lams = np.einsum("ij,ik,kj->j", o[:, 0::2], mat, o[:, 1::2])
    o[:, 0::2] *= np.where(lams < 0, -1.0, 1.0)
    lams = np.abs(lams)
    order = np.argsort(-lams, kind="stable")
    lams = lams[order]
    o = o.reshape(d, n, 2)[:, order].reshape(d, d)
    if np.linalg.det(o) < 0:
        o[:, d - 2] = -o[:, d - 2]
        lams[-1] = -lams[-1]
    return CanonicalForm(o, lams)


def norms(mat: np.ndarray):
    """Operator and trace norm via singular values.

    Returns:
        (op, trace) = (largest singular value, sum of singular values).
    """
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return 0.0, 0.0
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[0]), float(np.sum(s))
