"""Fermionic Gaussian channels on covariance matrices.

A channel is a pair (X, N) acting as M -> X M X^T + N; it is completely
positive iff I + iN - X X^T >= 0, which is the same as its Choi state
[[N, X], [-X^T, 0]] being bona fide. Antidegradability reduces to a
two-constraint feasibility problem over one antisymmetric matrix and is
equivalent to 2-extendibility of the Choi state on the output side.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matalg
from .config import RunConfig, DEFAULT_CONFIG
from .errors import DimensionMismatchError, NotCPError, OutOfRangeError
from .extend import ExtendQuery, FeasibilityResult, feasibility, solver_verdict
from .fgs import _VACUUM_BLOCK, BipartiteCM, CovarianceMatrix, validate_cm
from .solver import MatrixConstraint, max_margin

__all__ = [
    "GaussianChannel",
    "validate_channel",
    "apply_channel",
    "choi_cm",
    "antidegradable",
    "is_entanglement_breaking",
    "pure_loss",
    "channel_k_extendible",
]


@dataclass(frozen=True)
class GaussianChannel:
    """M -> X M X^T + N; X is 2 n_out x 2 n_in, N is 2 n_out x 2 n_out."""

    x_mat: np.ndarray
    n_mat: matalg.AntisymmetricMatrix

    @property
    def n_in(self) -> int:
        return self.x_mat.shape[1] // 2

    @property
    def n_out(self) -> int:
        return self.n_mat.modes


def validate_channel(x_mat: np.ndarray, n_mat, eps_psd: float = DEFAULT_CONFIG.eps_psd) -> GaussianChannel:
    """Construct a channel iff I + iN - X X^T >= -eps_psd.

    Raises:
        NotCPError: reporting the violating eigenvalue.
    """
    x_mat = np.array(x_mat, dtype=float)
    if not isinstance(n_mat, matalg.AntisymmetricMatrix):
        n_mat = matalg.antisymmetrize(n_mat)
    if x_mat.ndim != 2 or x_mat.shape[0] != n_mat.dim:
        raise DimensionMismatchError(
            f"X is {x_mat.shape}, N is {n_mat.dim}x{n_mat.dim}"
        )
    if x_mat.shape[1] % 2 != 0:
        raise DimensionMismatchError("X must have an even number of columns")
    low = matalg.min_eigenvalue(np.eye(n_mat.dim) - x_mat @ x_mat.T, n_mat.mat)
    if low < -eps_psd:
        raise NotCPError(
            f"I + iN - XX^T has eigenvalue {low:.6e} < -{eps_psd:.1e}",
            violating_eigenvalue=low,
        )
    x_mat.setflags(write=False)
    return GaussianChannel(x_mat, n_mat)


def apply_channel(ch: GaussianChannel, m: CovarianceMatrix, eps_psd: float = DEFAULT_CONFIG.eps_psd) -> CovarianceMatrix:
    """M -> X M X^T + N; output physicality is asserted, not assumed."""
    if m.modes != ch.n_in:
        raise DimensionMismatchError(
            f"channel expects {ch.n_in} input modes, state has {m.modes}"
        )
    out = ch.x_mat @ m.mat @ ch.x_mat.T + ch.n_mat.mat
    return validate_cm(matalg.antisymmetrize(out), eps_psd=eps_psd)


def choi_cm(ch: GaussianChannel) -> BipartiteCM:
    """Choi state covariance matrix [[N, X], [-X^T, 0]], split (n_out, n_in)."""
    d_out, d_in = 2 * ch.n_out, 2 * ch.n_in
    m = np.zeros((d_out + d_in, d_out + d_in))
    m[:d_out, :d_out] = ch.n_mat.mat
    m[:d_out, d_out:] = ch.x_mat
    m[d_out:, :d_out] = -ch.x_mat.T
    return BipartiteCM(
        validate_cm(matalg.AntisymmetricMatrix(m)), ch.n_out, ch.n_in
    )


def antidegradable(ch: GaussianChannel, config: RunConfig = DEFAULT_CONFIG) -> FeasibilityResult:
    """Decide antidegradability: find antisymmetric Δ with

        iΔ <= I   and   iΔ <= I + 2iN - 2XX^T,

    solved by the shared max-margin engine (both constraints rewritten
    as I + i(-Δ) >= 0 forms). The verdict coincides with 2-extendibility
    of the Choi state on the output side.
    """
    d = ch.n_mat.dim
    c1 = MatrixConstraint(np.eye(d), np.zeros((d, d)), ((-1.0, 0, 0),))
    c2 = MatrixConstraint(
        np.eye(d) - 2.0 * ch.x_mat @ ch.x_mat.T,
        2.0 * ch.n_mat.mat,
        ((-1.0, 0, 0),),
    )
    outcome = max_margin([c1, c2], [ch.n_mat.mat], config)
    return solver_verdict(outcome, outcome.deltas[0], None, config)


def is_entanglement_breaking(ch: GaussianChannel, eps_psd: float = DEFAULT_CONFIG.eps_psd) -> bool:
    """True iff the channel is a replacement channel (X = 0 in operator norm).

    Entanglement-breaking Gaussian channels are exactly replacements. The
    Choi state's cross block is X, so their Choi states are separable.
    """
    return matalg.norms(ch.x_mat)[0] <= eps_psd


def pure_loss(lam: float) -> GaussianChannel:
    """Single-mode loss of transmissivity λ into a vacuum environment.

    X = sqrt(λ) I, N = (1-λ) Ω; λ = 1 is the identity, λ = 0 replaces
    every input with the vacuum.
    """
    if not 0.0 <= lam <= 1.0:
        raise OutOfRangeError(f"transmissivity {lam} outside [0, 1]")
    return validate_channel(math.sqrt(lam) * np.eye(2), (1.0 - lam) * _VACUUM_BLOCK)


def channel_k_extendible(ch: GaussianChannel, k: int, config: RunConfig = DEFAULT_CONFIG) -> FeasibilityResult:
    """k-extendibility of the channel = (k, 1)-extendibility of its Choi state
    with the extension on the output block."""
    return feasibility(ExtendQuery(choi_cm(ch), k, 1), config)
