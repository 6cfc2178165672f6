"""Real antisymmetric / Hermitian matrix algebra.

Everything downstream reduces to three structural facts about a real
antisymmetric matrix K:

* iK is Hermitian with spectrum symmetric about zero, and every
  constraint A + iB (A symmetric, B antisymmetric) is a complex
  Hermitian matrix that numpy's eigvalsh takes directly;
* K = O (⊕_j [[0, λ_j], [-λ_j, 0]]) O^T for some special orthogonal O,
  whose rotation planes are the real and imaginary parts of the
  eigenvectors of iK;
* Pf(K)^2 = det(K), with Pf evaluated stably by Parlett-Reid elimination.

All three need numpy alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DimensionOddError, NotAntisymmetricError

__all__ = [
    "AntisymmetricMatrix",
    "CanonicalForm",
    "antisymmetrize",
    "hermitian_spectrum",
    "pfaffian",
    "canonical_form",
    "min_eigenvalue",
    "norms",
]

#: Symmetric residue, relative to max(‖raw‖_F, 1), that antisymmetrize accepts.
ANTISYM_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class AntisymmetricMatrix:
    """A validated real antisymmetric matrix of even dimension.

    Construction rejects asymmetry beyond 1e-12 in absolute value, then
    projects exactly (zero diagonal included). The wrapped array is made
    read-only; instances are safe to share.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _require_even_square(self.mat)
        residue = np.max(np.abs(mat + mat.T))
        if residue > 1e-12:
            raise NotAntisymmetricError(
                f"asymmetry {residue:.3e} exceeds the 1e-12 construction tolerance"
            )
        mat = (mat - mat.T) / 2.0
        np.fill_diagonal(mat, 0.0)
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


def _require_even_square(mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[0] % 2 != 0:
        raise DimensionOddError(f"dimension {mat.shape[0]} is odd")
    return mat


def antisymmetrize(raw: np.ndarray) -> AntisymmetricMatrix:
    """Project a nearly antisymmetric matrix onto (raw - raw^T)/2.

    Rejects input whose symmetric residue exceeds ANTISYM_RTOL relative
    to the input norm; the diagonal of the result is exactly zero.
    """
    raw = _require_even_square(raw)
    sym = (raw + raw.T) / 2.0
    scale = np.linalg.norm(raw)
    residue = np.linalg.norm(sym)
    if residue > ANTISYM_RTOL * max(scale, 1.0):
        raise NotAntisymmetricError(
            f"symmetric residue {residue:.3e} exceeds {ANTISYM_RTOL:.1e} * max(norm, 1) = "
            f"{ANTISYM_RTOL * max(scale, 1.0):.3e}"
        )
    return AntisymmetricMatrix((raw - raw.T) / 2.0)


def _as_mat(k) -> np.ndarray:
    return k.mat if isinstance(k, AntisymmetricMatrix) else _require_even_square(k)


def hermitian_spectrum(k) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix iK, ascending, in ±λ_j pairs."""
    return np.linalg.eigvalsh(1j * _as_mat(k))


def min_eigenvalue(a_sym: np.ndarray, b_antisym: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix A + iB."""
    return float(np.linalg.eigvalsh(a_sym + 1j * np.asarray(b_antisym))[0])


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
