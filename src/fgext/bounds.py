"""Finite de Finetti bounds and the explicit extendible family.

For a (k1, k2)-extendible Gaussian state on n_A + n_B modes, with
T = (2/sqrt(k1 k2)) min(n_A, n_B, sqrt(k1 k2)):

    ||ρ - SEP||_1        <= T
    E_R(ρ)  (bits)       <= (n_A + n_B) T / 2 + h(T/2)
    E_sq(ρ) (bits)       <= (n_A + n_B) T / 4 + h(T/2) / 2

The two-mode family M(k1, k2) built from a Bell pair through per-side
transmissivity-1/k losses realizes the scaling: distance to the
separable set is between 1/sqrt(k1 k2) and 2/sqrt(k1 k2).

For a covariance matrix with cross block X both sides of that bracket
are singular values of X, at every split: ||X||_op bounds the distance
to the separable set from below (lower_bound_two_mode) and ||X||_1
bounds the distance to the marginal product from above
(trace_upper_from_cm).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fgs, matalg
from .config import is_count
from .errors import OutOfRangeError
from .fgs import BipartiteCM, validate_cm

__all__ = [
    "DeFinettiReport",
    "definetti_bounds",
    "trace_upper_from_cm",
    "lower_bound_two_mode",
    "family_cm",
    "family_spectrum",
    "epsilon_family",
    "bosonic_strategy_lower_bound",
]


@dataclass(frozen=True)
class DeFinettiReport:
    t: float
    er_upper: float
    esq_upper: float


def definetti_bounds(n_a: int, n_b: int, k1: int, k2: int) -> DeFinettiReport:
    """Evaluate the three closure bounds for given mode counts and (k1, k2).

    T is clamped at 2 (trace distance can never exceed it), which the
    min(..., sqrt(k1 k2)) term implements exactly.
    """
    if not all(map(is_count, (n_a, n_b, k1, k2))):
        raise OutOfRangeError("mode counts and extension orders must be positive integers")
    root = math.sqrt(k1 * k2)
    t = 2.0 * min(n_a, n_b, root) / root
    er = 0.5 * (n_a + n_b) * t + fgs.binary_entropy(t / 2.0)
    esq = 0.25 * (n_a + n_b) * t + 0.5 * fgs.binary_entropy(t / 2.0)
    return DeFinettiReport(t=t, er_upper=er, esq_upper=esq)


def trace_upper_from_cm(b: BipartiteCM) -> float:
    """||X||_1: the trace-norm bound on the distance to the marginal product.

    Clamped at 2, the largest trace distance: a state admitted at a loose
    eps_psd can have ||X||_1 just above it.
    """
    return min(2.0, matalg.norms(b.block_x)[1])


def lower_bound_two_mode(b: BipartiteCM) -> float:
    """inf over bona fide CMs diag(D_A, D_B) of ||M - diag(D_A, D_B)||_op.

    Separable fermionic states have block-diagonal covariance matrices,
    and ||M - M'||_op <= ||ρ - ρ'||_1, so this infimum lower-bounds the
    trace distance to the separable set at every split. It equals
    ||X||_op: X is the off-diagonal block of every M - diag(D_A, D_B),
    and a block has no larger operator norm than the whole; the marginal
    product diag(M_A, M_B), which is bona fide, attains it.
    """
    return matalg.norms(b.block_x)[0]


def _require_family_orders(k1, k2):
    if not (is_count(k1) and is_count(k2)):
        raise OutOfRangeError("family parameters must be positive integers")


def family_cm(k1: int, k2: int) -> BipartiteCM:
    """The two-mode (k1, k2)-extendible state family.

    Entries: diagonal blocks ±(k_i - 1)/k_i, cross block antidiagonal
    1/sqrt(k1 k2). Always bona fide; (1, 1) is the Bell pair. Equals the
    per-side pure-loss construction on a Bell pair up to the per-mode
    Majorana swap γ_{2j-1} <-> γ_{2j}.
    """
    _require_family_orders(k1, k2)
    a = (k1 - 1.0) / k1
    c = (k2 - 1.0) / k2
    x = 1.0 / math.sqrt(k1 * k2)
    m = np.array(
        [
            [0.0, a, 0.0, x],
            [-a, 0.0, x, 0.0],
            [0.0, -x, 0.0, c],
            [-x, 0.0, -c, 0.0],
        ]
    )
    return BipartiteCM(validate_cm(matalg._exact(m)), 1, 1)


def family_spectrum(k1: int, k2: int) -> np.ndarray:
    """Spectrum of i M(k1, k2) in closed form, ascending.

    With a = (k1-1) sqrt(k2/k1), b = (k2-1) sqrt(k1/k2) the scaled matrix
    has eigenvalue moduli r with r² = (a²+b²)/2 + 1 ± |a-b| sqrt((a+b)²+4)/2;
    dividing by sqrt(k1 k2) gives the spectrum {±r_1, ±r_2}.
    """
    _require_family_orders(k1, k2)
    a = (k1 - 1.0) * math.sqrt(k2 / k1)
    b = (k2 - 1.0) * math.sqrt(k1 / k2)
    half = 0.5 * (a * a + b * b) + 1.0
    shift = 0.5 * abs(a - b) * math.sqrt((a + b) ** 2 + 4.0)
    r1 = math.sqrt(half + shift)
    r2 = math.sqrt(max(half - shift, 0.0))
    scale = math.sqrt(k1 * k2)
    return np.array([-r1, -r2, r2, r1]) / scale


def epsilon_family(eps: float) -> BipartiteCM:
    """A pure two-mode state at trace distance <= ε from separable.

    Diagonal blocks sqrt(1 - (ε/2)²) J, cross block diag(ε/2, -ε/2); the
    sign split keeps C² = -I (purity, hence bona fide) for all ε in
    (0, 2]. Both (1,2) and (2,1) extendibility fail by the column-sum
    bound: the relevant row sum is 1 + ε²/4.
    """
    if not 0.0 < eps <= 2.0:
        raise OutOfRangeError(f"epsilon {eps} outside (0, 2]")
    a = math.sqrt(1.0 - (eps / 2.0) ** 2)
    x = eps / 2.0
    m = np.array(
        [
            [0.0, a, x, 0.0],
            [-a, 0.0, 0.0, -x],
            [-x, 0.0, 0.0, a],
            [0.0, x, -a, 0.0],
        ]
    )
    return BipartiteCM(validate_cm(matalg._exact(m)), 1, 1)


def bosonic_strategy_lower_bound(k1: int, k2: int) -> float:
    """Overlap-based lower bound on distance to separable states.

    Equals overlap(M(k1,k2), M(1,1)) - 1/2 in closed form; for k1 = k2 = k
    this is 1/(2k²), strictly weaker than the tight 1/k bound.
    """
    _require_family_orders(k1, k2)
    ov = 0.25 * ((2.0 * k1 * k2 - k1 - k2 + 2.0) / (k1 * k2)
                 + 2.0 / math.sqrt(k1 * k2))
    return ov - 0.5
