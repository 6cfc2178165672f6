"""Fermionic Gaussian channels on covariance matrices.

A channel is a pair (X, N) acting as M -> X M X^T + N; it is completely
positive iff I + iN - X X^T >= 0, which is the same as its Choi state
[[N, X], [-X^T, 0]] being bona fide. Channel criteria are decided on the
Choi state: antidegradability is its (2, 1)-extendibility, k-extendibility
its (k, 1)-extendibility, both on the output side.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matalg
from .config import RunConfig, DEFAULT_CONFIG
from .errors import DimensionMismatchError, InvalidParameterError, NotAntisymmetricError, NotCPError
from .extend import ExtendQuery, FeasibilityResult, feasibility, solver_verdict
from .fgs import _VACUUM_BLOCK, BipartiteCM, CovarianceMatrix, _bipartite, validate_cm

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
    """M -> X M X^T + N; X is 2 n_out x 2 n_in, N is 2 n_out x 2 n_out.

    X is kept as a read-only float copy, so the channel never shares it
    with the caller; a non-finite entry is refused (NotCPError), and so are
    an N that is not an AntisymmetricMatrix (NotAntisymmetricError), a
    side without modes and an X that does not fit N (DimensionMismatchError).
    """

    x_mat: np.ndarray
    n_mat: matalg.AntisymmetricMatrix

    def __post_init__(self):
        x_mat = np.array(self.x_mat, dtype=float)
        if not np.isfinite(x_mat).all():
            raise NotCPError("X must have finite entries")
        if not isinstance(self.n_mat, matalg.AntisymmetricMatrix):
            raise NotAntisymmetricError(
                f"N must be an AntisymmetricMatrix, not {type(self.n_mat).__name__}; "
                "validate_channel checks and wraps a raw N"
            )
        if 0 in x_mat.shape or self.n_mat.dim == 0:
            raise DimensionMismatchError(
                f"a channel needs an input and an output mode: X is {x_mat.shape}, N is {self.n_mat.mat.shape}"
            )
        dim = self.n_mat.dim
        if x_mat.ndim != 2 or x_mat.shape[0] != dim:
            raise DimensionMismatchError(f"X is {x_mat.shape}, N is {dim}x{dim}")
        if x_mat.shape[1] % 2 != 0:
            raise DimensionMismatchError("X must have an even number of columns")
        x_mat.setflags(write=False)
        object.__setattr__(self, "x_mat", x_mat)

    @property
    def n_in(self) -> int:
        return self.x_mat.shape[1] // 2

    @property
    def n_out(self) -> int:
        return self.n_mat.modes


def validate_channel(x_mat: np.ndarray, n_mat, eps_psd: float = DEFAULT_CONFIG.eps_psd) -> GaussianChannel:
    """Construct a channel iff I + iN - X X^T >= -eps_psd.

    Raises:
        DimensionMismatchError: X and N do not fit, or either side has no mode.
        NotCPError: a non-finite entry, or reporting the violating eigenvalue.
    """
    if not isinstance(n_mat, matalg.AntisymmetricMatrix):
        n_raw = np.asarray(n_mat, dtype=float)
        if not np.isfinite(n_raw).all():
            raise NotCPError("N must have finite entries")
        n_mat = matalg.antisymmetrize(n_raw)
    channel = GaussianChannel(x_mat, n_mat)
    _require_cp(channel.x_mat, channel.n_mat, eps_psd)
    return channel


def _require_cp(x_mat, n_mat, eps_psd):
    """Raise NotCPError, reporting the violating eigenvalue, unless
    I + iN - X X^T >= -eps_psd: proven by matalg.certified_floor's Cholesky
    factorisation, or else decided by eigvalsh, which runs only then."""
    a_sym = np.eye(n_mat.dim) - x_mat @ x_mat.T
    if matalg.certified_floor(a_sym + 1j * n_mat.mat, eps_psd):
        return
    low = matalg.min_eigenvalue(a_sym, n_mat.mat)
    if not low >= -eps_psd:  # a NaN spectrum fails too
        raise NotCPError(
            f"I + iN - XX^T has eigenvalue {low:.6e} < -{eps_psd:.1e}",
            violating_eigenvalue=low,
        )


def apply_channel(ch: GaussianChannel, m: CovarianceMatrix, eps_psd: float = DEFAULT_CONFIG.eps_psd) -> CovarianceMatrix:
    """M -> X M X^T + N; output physicality is asserted, not assumed."""
    if m.modes != ch.n_in:
        raise DimensionMismatchError(
            f"channel expects {ch.n_in} input modes, state has {m.modes}"
        )
    out = ch.x_mat @ m.mat @ ch.x_mat.T + ch.n_mat.mat
    return validate_cm(out, eps_psd=eps_psd)


def choi_cm(ch: GaussianChannel) -> BipartiteCM:
    """Choi state covariance matrix [[N, X], [-X^T, 0]], split (n_out, n_in),
    not validated again: I + iM has the block I on the input side, whose
    Schur complement is I + iN - XX^T, so it is bona fide iff the channel
    is CP. validate_channel checks that, and so does every Choi route."""
    m = _bipartite(ch.n_mat.mat, ch.x_mat, np.zeros((2 * ch.n_in, 2 * ch.n_in)))
    return BipartiteCM(CovarianceMatrix(matalg._exact(m)), ch.n_out, ch.n_in)


def antidegradable(ch: GaussianChannel, config: RunConfig = DEFAULT_CONFIG) -> FeasibilityResult:
    """Decide antidegradability: find antisymmetric Δ with

        iΔ <= I   and   iΔ <= I + 2iN - 2XX^T,

    the (2, 1)-extendibility SDP of the Choi state once extend eliminates
    its zero input block (the first constraint up to Δ -> -Δ). No
    precheck runs, so an infeasible channel keeps its numerical margin.

    Raises:
        NotCPError: the channel is not completely positive at config.eps_psd.
    """
    return solver_verdict(_choi_query(ch, 2, config), config)


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
        raise InvalidParameterError(f"transmissivity {lam} outside [0, 1]")
    return validate_channel(math.sqrt(lam) * np.eye(2), (1.0 - lam) * _VACUUM_BLOCK)


def channel_k_extendible(ch: GaussianChannel, k: int, config: RunConfig = DEFAULT_CONFIG) -> FeasibilityResult:
    """k-extendibility of the channel = (k, 1)-extendibility of its Choi state
    with the extension on the output block.

    Raises:
        NotCPError: the channel is not completely positive at config.eps_psd.
    """
    return feasibility(_choi_query(ch, k, config), config)


def _choi_query(ch, k, config):
    """The (k, 1) query on the channel's Choi state, once the channel has
    passed the CP check at config.eps_psd: a channel built directly, not
    by validate_channel, has a Choi matrix that need not be bona fide."""
    _require_cp(ch.x_mat, ch.n_mat, config.eps_psd)
    return ExtendQuery(choi_cm(ch), k, 1)
