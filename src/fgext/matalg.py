"""Real antisymmetric / Hermitian matrix algebra.

Everything downstream reduces to three structural facts about a real
antisymmetric matrix K:

* iK is Hermitian with spectrum symmetric about zero, computable on the
  real symmetric embedding [[A, -B], [B, A]] of A + iB (so the whole
  package needs only real eigensolvers);
* K = O (⊕_j [[0, λ_j], [-λ_j, 0]]) O^T for some special orthogonal O;
* Pf(K)^2 = det(K), with Pf evaluated stably by Parlett-Reid elimination.
"""

import numpy as np
from scipy.linalg import schur

from .config import EIG_TOL, EPS_PSD
from .errors import DimensionMismatchError, DimensionOddError, NotAntisymmetricError

__all__ = [
    "AntisymmetricMatrix",
    "CanonicalForm",
    "antisymmetrize",
    "hermitian_spectrum",
    "pfaffian",
    "canonical_form",
    "realify",
    "realify_psd_check",
    "norms",
]


class AntisymmetricMatrix:
    """A validated real antisymmetric matrix of even dimension.

    Construction rejects asymmetry beyond 1e-12 in absolute value, then
    projects exactly (zero diagonal included). The wrapped array is made
    read-only; instances are safe to share.
    """

    __slots__ = ("mat",)

    def __init__(self, mat: np.ndarray):
        mat = _require_even_square(mat)
        residue = np.max(np.abs(mat + mat.T))
        if residue > 1e-12:
            raise NotAntisymmetricError(
                f"asymmetry {residue:.3e} exceeds the 1e-12 construction tolerance"
            )
        mat = (mat - mat.T) / 2.0
        np.fill_diagonal(mat, 0.0)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("AntisymmetricMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def modes(self) -> int:
        return self.dim // 2

    def __repr__(self):
        return f"AntisymmetricMatrix(dim={self.dim})"


class CanonicalForm:
    """Block canonical form K = O (⊕_j [[0, λ_j], [-λ_j, 0]]) O^T.

    ``rotation`` is special orthogonal; ``lambdas`` are sorted in
    descending order, nonnegative except possibly the last one, whose
    sign absorbs the orientation needed to keep det(O) = +1.
    """

    __slots__ = ("rotation", "lambdas")

    def __init__(self, rotation: np.ndarray, lambdas: np.ndarray):
        rotation = np.array(rotation, dtype=float)
        lambdas = np.array(lambdas, dtype=float)
        rotation.setflags(write=False)
        lambdas.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "lambdas", lambdas)

    def __setattr__(self, name, value):
        raise AttributeError("CanonicalForm is immutable")

    def block_matrix(self) -> np.ndarray:
        """The direct sum ⊕_j [[0, λ_j], [-λ_j, 0]]."""
        n = len(self.lambdas)
        blocks = np.zeros((2 * n, 2 * n))
        for j, lam in enumerate(self.lambdas):
            blocks[2 * j, 2 * j + 1] = lam
            blocks[2 * j + 1, 2 * j] = -lam
        return blocks

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


def antisymmetrize(raw: np.ndarray, rtol: float = 1e-8) -> AntisymmetricMatrix:
    """Project a nearly antisymmetric matrix onto (raw - raw^T)/2.

    Rejects input whose symmetric residue exceeds ``rtol`` relative to
    the input norm; the diagonal of the result is exactly zero.
    """
    raw = _require_even_square(raw)
    sym = (raw + raw.T) / 2.0
    scale = np.linalg.norm(raw)
    residue = np.linalg.norm(sym)
    if residue > rtol * max(scale, 1.0):
        raise NotAntisymmetricError(
            f"symmetric residue {residue:.3e} exceeds {rtol:.1e} * max(norm, 1) = "
            f"{rtol * max(scale, 1.0):.3e}"
        )
    out = (raw - raw.T) / 2.0
    np.fill_diagonal(out, 0.0)
    return AntisymmetricMatrix(out)


def _as_mat(k) -> np.ndarray:
    return k.mat if isinstance(k, AntisymmetricMatrix) else _require_even_square(k)


def realify(a_sym: np.ndarray, b_antisym: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[A, -B], [B, A]] of the Hermitian A + iB."""
    a_sym = np.asarray(a_sym, dtype=float)
    b = np.asarray(b_antisym, dtype=float)
    if a_sym.shape != b.shape:
        raise DimensionMismatchError(
            f"shape mismatch {a_sym.shape} vs {b.shape}"
        )
    return np.block([[a_sym, -b], [b, a_sym]])


def hermitian_spectrum(k) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix iK, ascending.

    They come in ±λ_j pairs. The embedding doubles every eigenvalue, so
    the sorted doubled list is decimated by two.
    """
    mat = _as_mat(k)
    d = mat.shape[0]
    doubled = np.linalg.eigvalsh(realify(np.zeros((d, d)), mat))
    return doubled[::2]


def min_eigenvalue(a_sym: np.ndarray, b_antisym: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix A + iB."""
    return float(np.linalg.eigvalsh(realify(a_sym, b_antisym))[0])


def realify_psd_check(a_sym: np.ndarray, b_antisym, eps_psd: float = EPS_PSD):
    """Minimum eigenvalue of A + iB and whether it clears -eps_psd.

    Returns:
        (min_eig, is_psd) with is_psd = (min_eig >= -eps_psd).
    """
    mat = _as_mat(b_antisym) if not isinstance(b_antisym, np.ndarray) else b_antisym
    low = min_eigenvalue(np.asarray(a_sym, dtype=float), np.asarray(mat, dtype=float))
    return low, bool(low >= -eps_psd)


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


def _extract_blocks(t: np.ndarray, tol: float):
    """Walk the quasi-triangular diagonal, yielding (index, lam) 2x2 blocks.

    Isolated 1x1 (zero) blocks are paired up afterwards.
    """
    d = t.shape[0]
    pairs = []
    singles = []
    i = 0
    while i < d:
        if i + 1 < d and abs(t[i + 1, i]) > tol:
            pairs.append((i, i + 1, 0.5 * (t[i, i + 1] - t[i + 1, i])))
            i += 2
        else:
            singles.append(i)
            i += 1
    for a, b in zip(singles[::2], singles[1::2]):
        pairs.append((a, b, 0.0))
    return pairs


def canonical_form(k) -> CanonicalForm:
    """Canonical form of an antisymmetric matrix via the real Schur decomposition.

    Post-processing: λ signs are made nonnegative by swapping the two
    columns of the offending block, blocks are sorted by descending |λ|,
    and if the accumulated column operations leave det(O) = -1 the last
    block's λ sign is flipped instead (so O stays special orthogonal).
    """
    mat = _as_mat(k)
    d = mat.shape[0]
    if d == 0:
        return CanonicalForm(np.eye(0), np.zeros(0))
    t, q = schur(mat, output="real")
    scale = max(np.max(np.abs(mat)), 1.0)
    blocks = _extract_blocks(t, 1e-12 * scale)

    cols = []
    lams = []
    for i, j, lam in blocks:
        if lam >= 0:
            cols.append((q[:, i], q[:, j]))
            lams.append(lam)
        else:
            # swap the pair to flip the block orientation
            cols.append((q[:, j], q[:, i]))
            lams.append(-lam)
    order = np.argsort(-np.array(lams), kind="stable")
    lams = [lams[idx] for idx in order]
    cols = [cols[idx] for idx in order]

    o = np.empty((d, d))
    for slot, (u, v) in enumerate(cols):
        o[:, 2 * slot] = u
        o[:, 2 * slot + 1] = v
    if np.linalg.det(o) < 0:
        o[:, [d - 2, d - 1]] = o[:, [d - 1, d - 2]]
        lams[-1] = -lams[-1]
    return CanonicalForm(o, np.array(lams))


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


def opnorm_antisym4(k: np.ndarray) -> float:
    """Operator norm of a 4x4 antisymmetric matrix in closed form.

    With ±ir_1, ±ir_2 the eigenvalues, r² solves r⁴ - s r² + p = 0 where
    s = ||K||_F²/2 and p = Pf(K)²; the largest root gives the norm.
    """
    s = 0.5 * float(np.sum(k * k))
    pf = k[0, 1] * k[2, 3] - k[0, 2] * k[1, 3] + k[0, 3] * k[1, 2]
    disc = max((0.5 * s) ** 2 - pf * pf, 0.0)
    return float(np.sqrt(max(0.5 * s + np.sqrt(disc), 0.0)))
