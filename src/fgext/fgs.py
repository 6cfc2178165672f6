"""Fermionic Gaussian states as Majorana covariance matrices.

A state on n modes is represented by its real antisymmetric 2n x 2n
covariance matrix M with entries M_pq = Tr(i γ_p γ_q ρ) for p < q.
Physicality (bona fide) means spec(iM) ⊆ [-1, 1], i.e. I + iM >= 0.
Canonical eigenvalues λ_j ∈ [-1, 1] fix the full spectrum of ρ, so
entropies are functions of the canonical form.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matalg
from .config import DEFAULT_CONFIG, is_count
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotBonaFideError,
    WrongSplitError,
)

__all__ = [
    "CovarianceMatrix",
    "BipartiteCM",
    "validate_cm",
    "vacuum_cm",
    "bell_cm",
    "epr_cm",
    "single_mode_cm",
    "marginal",
    "product_cm",
    "overlap",
    "binary_entropy",
    "gaussian_entropy",
    "mutual_information",
]


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """A bona fide covariance matrix; its mode count is half its dimension."""

    body: matalg.AntisymmetricMatrix

    @property
    def mat(self) -> np.ndarray:
        return self.body.mat

    @property
    def modes(self) -> int:
        return self.body.modes

    def __repr__(self):
        return f"CovarianceMatrix(modes={self.modes})"


@dataclass(frozen=True, eq=False)
class BipartiteCM:
    """A covariance matrix with a declared (n_A, n_B) mode split.

    Block layout: mat = [[M_A, X], [-X^T, M_B]] with M_A on the first
    2 n_A Majorana indices; _bipartite is its one writer (bounds writes
    its two-mode families as literals).
    """

    cm: CovarianceMatrix
    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a + self.n_b != self.cm.modes:
            raise WrongSplitError(
                f"split ({self.n_a}, {self.n_b}) does not add up to {self.cm.modes} modes"
            )
        if not (is_count(self.n_a) and is_count(self.n_b)):
            raise WrongSplitError("both sides of the split need a positive integer number of modes")

    @property
    def body(self) -> matalg.AntisymmetricMatrix:
        return self.cm.body

    @property
    def mat(self) -> np.ndarray:
        return self.cm.mat

    @property
    def modes(self) -> int:
        return self.cm.modes

    @property
    def block_a(self) -> np.ndarray:
        d = 2 * self.n_a
        return self.mat[:d, :d]

    @property
    def block_b(self) -> np.ndarray:
        d = 2 * self.n_a
        return self.mat[d:, d:]

    @property
    def block_x(self) -> np.ndarray:
        d = 2 * self.n_a
        return self.mat[:d, d:]

    def __repr__(self):
        return f"BipartiteCM(n_a={self.n_a}, n_b={self.n_b})"


def _split(b) -> BipartiteCM:
    """b itself; WrongSplitError unless it is a BipartiteCM, which declares the split."""
    if not isinstance(b, BipartiteCM):
        raise WrongSplitError(f"b must be a BipartiteCM, not {type(b).__name__}")
    return b


def validate_cm(k, eps_psd: float = DEFAULT_CONFIG.eps_psd) -> CovarianceMatrix:
    """Accept K as a covariance matrix iff I + iK >= -eps_psd.

    A Cholesky factorisation proves the floor with its rounding bounded a
    priori (matalg.certified_floor); eigvalsh runs only where it does not,
    decides by its smallest eigenvalue and supplies the refusal's message.

    Raises:
        NotBonaFideError: reporting the violating spectral radius of iK,
            or a non-finite entry.
        DimensionMismatchError: K has no mode.
    """
    if not isinstance(k, matalg.AntisymmetricMatrix):
        k = np.asarray(k, dtype=float)
        if not np.isfinite(k).all():
            raise NotBonaFideError("covariance matrix has a non-finite entry")
        k = matalg.antisymmetrize(k)
    if k.dim == 0:
        raise DimensionMismatchError("a covariance matrix needs at least one mode, got a 0x0 matrix")
    h = np.zeros((k.dim, k.dim), dtype=complex)
    h.imag = k.mat
    h.reshape(-1)[:: k.dim + 1] = 1.0
    if not matalg.certified_floor(h, eps_psd):
        low = matalg.min_eigenvalue(np.eye(k.dim), k.mat)
        if not low >= -eps_psd:  # a NaN spectrum fails too
            radius = 1.0 - low
            raise NotBonaFideError(
                f"spectrum of iM reaches {radius:.12g} > 1 (min eig of I+iM is {low:.3e})",
                violating_eigenvalue=radius,
            )
    return CovarianceMatrix(k)


def _bipartite(m_a: np.ndarray, x: np.ndarray, m_b: np.ndarray) -> np.ndarray:
    """The matrix [[M_A, X], [-X^T, M_B]]."""
    da = len(m_a)
    out = np.empty((da + len(m_b),) * 2)
    out[:da, :da] = m_a
    out[:da, da:] = x
    out[da:, :da] = -x.T
    out[da:, da:] = m_b
    return out


_VACUUM_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])

_BELL_SIGNS = {
    "phi+": (1.0, 1.0),
    "phi-": (-1.0, -1.0),
    "psi+": (-1.0, 1.0),
    "psi-": (1.0, -1.0),
}


def vacuum_cm(n: int) -> CovarianceMatrix:
    """Fock vacuum on n modes: direct sum of [[0, -1], [1, 0]]."""
    if not is_count(n):
        raise InvalidParameterError("need at least one mode")
    body = np.zeros((n, 2, n, 2))
    body[np.arange(n), :, np.arange(n), :] = _VACUUM_BLOCK
    return validate_cm(matalg._exact(body.reshape(2 * n, 2 * n)))


def single_mode_cm(lam: float) -> CovarianceMatrix:
    """One-mode state [[0, λ], [-λ, 0]]; λ = -1 is the vacuum, λ = 0 maximally mixed."""
    if not -1.0 <= lam <= 1.0:
        raise InvalidParameterError(f"single-mode parameter {lam} outside [-1, 1]")
    return validate_cm(matalg._exact(np.array([[0.0, lam], [-lam, 0.0]])))


def bell_cm(kind: str) -> BipartiteCM:
    """Two-mode Bell-state covariance matrix ('phi+', 'phi-', 'psi+', 'psi-')."""
    try:
        s14, s23 = _BELL_SIGNS[kind]
    except KeyError:
        raise InvalidParameterError(
            f"unknown Bell kind {kind!r}; expected one of {sorted(_BELL_SIGNS)}"
        ) from None
    m = _bipartite(np.zeros((2, 2)), np.array([[0.0, s14], [s23, 0.0]]), np.zeros((2, 2)))
    return BipartiteCM(validate_cm(matalg._exact(m)), 1, 1)


def epr_cm(m: int) -> BipartiteCM:
    """Maximally entangled state of two m-mode registers: [[0, I], [-I, 0]]."""
    if not is_count(m):
        raise InvalidParameterError("need at least one mode per register")
    zero = np.zeros((2 * m, 2 * m))
    body = _bipartite(zero, np.eye(2 * m), zero)
    return BipartiteCM(validate_cm(matalg._exact(body)), m, m)


def marginal(b: BipartiteCM, side: str) -> CovarianceMatrix:
    """Reduced covariance matrix of side 'A' or 'B' (a principal submatrix)."""
    _split(b)
    if side not in ("A", "B"):
        raise InvalidParameterError("side must be 'A' or 'B'")
    block = b.block_a if side == "A" else b.block_b
    return validate_cm(matalg._exact(block.copy()))


def product_cm(m_a: CovarianceMatrix, m_b: CovarianceMatrix) -> BipartiteCM:
    """Block-diagonal covariance matrix of the product state (X = 0)."""
    body = _bipartite(m_a.mat, np.zeros((len(m_a.mat), len(m_b.mat))), m_b.mat)
    return BipartiteCM(validate_cm(matalg._exact(body)), m_a.modes, m_b.modes)


def overlap(m1: CovarianceMatrix, m2: CovarianceMatrix) -> float:
    """State overlap tr(ρ1 ρ2) = sqrt(det((M1 M2 - I)/2)).

    Tiny negative determinants (>= -1e-12) are clamped to zero; anything
    lower signals a pair that is not bona fide (NotBonaFideError).
    """
    if m1.modes != m2.modes:
        raise DimensionMismatchError(
            f"mode mismatch: {m1.modes} vs {m2.modes}"
        )
    d = 2 * m1.modes
    det = float(np.linalg.det((m1.mat @ m2.mat - np.eye(d)) / 2.0))
    if det < -1e-12:
        raise NotBonaFideError(f"overlap determinant {det:.3e} < -1e-12")
    return math.sqrt(max(det, 0.0))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0 exactly."""
    if not 0.0 <= x <= 1.0:
        raise InvalidParameterError(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gaussian_entropy(m: CovarianceMatrix) -> float:
    """Von Neumann entropy in bits: S = Σ_j h((1 + λ_j)/2).

    Validation admits |λ_j| up to 1 + eps_psd, so (1 + λ_j)/2 is clipped
    into [0, 1] first.
    """
    lams = matalg.canonical_form(m.body).lambdas
    probs = np.clip((1.0 + lams) / 2.0, 0.0, 1.0)
    return float(sum(binary_entropy(p) for p in probs))


def mutual_information(b: BipartiteCM) -> float:
    """I(A;B) = S(A) + S(B) - S(AB) in bits."""
    s_a = gaussian_entropy(marginal(b, "A"))
    s_b = gaussian_entropy(marginal(b, "B"))
    s_ab = gaussian_entropy(b.cm)
    return s_a + s_b - s_ab
