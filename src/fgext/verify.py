"""Randomized oracle-vs-covariance-matrix property suites.

Each suite is the residual of one seeded trial: it draws random Gaussian
states, runs one structural identity through both the covariance-matrix
layer and the dense Fock-space oracle, and returns how far the two sides
disagree. run_suite runs the trials from one generator and reports the
worst residual; a NaN residual is the worst, so it fails the suite. These
back the `oracle-verify` command and the heavier regression tests.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import extend, fgs, matalg, oracle
from .config import is_count
from .errors import InvalidParameterError

__all__ = [
    "SuiteReport",
    "random_bona_fide_cm",
    "random_bipartite_cm",
    "twirled_extendible_instance",
    "run_suite",
]


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool


def random_bona_fide_cm(rng, n: int, lam_max: float = 1.0) -> fgs.CovarianceMatrix:
    """Random covariance matrix: random SO(2n) conjugation of random blocks."""
    gauss = rng.standard_normal((2 * n, 2 * n))
    q, _ = np.linalg.qr(gauss)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    lams = rng.uniform(-lam_max, lam_max, size=n)
    form = matalg.CanonicalForm(q, lams)
    return fgs.validate_cm(matalg.AntisymmetricMatrix(form.reconstruct()))


def random_bipartite_cm(rng, n_a: int, n_b: int, lam_max: float = 1.0) -> fgs.BipartiteCM:
    cm = random_bona_fide_cm(rng, n_a + n_b, lam_max)
    return fgs.BipartiteCM(cm, n_a, n_b)


def twirled_extendible_instance(rng, n_a: int, n_b: int, k1: int, k2: int):
    """A (k1, k2)-extendible bipartite CM with a known witness.

    Draw a random bona fide matrix on k1 n_A + k2 n_B modes, average its
    blocks over the two permutation groups (the twirl stays bona fide by
    convexity), and read off the pair marginal together with the witness
    pair (Δ_A, Δ_B) = (M_A - Z, M_B - Y). InvalidParameterError unless
    n_a, n_b, k1 and k2 are integers of at least 1.
    """
    if not all(is_count(v) for v in (n_a, n_b, k1, k2)):
        raise InvalidParameterError(f"mode counts and orders must be integers >= 1, not {(n_a, n_b, k1, k2)}")
    grand = random_bona_fide_cm(rng, k1 * n_a + k2 * n_b, lam_max=0.95).mat
    aa, bb, ab, _ = extend._copies(grand, k1, 2 * n_a, k2, 2 * n_b)

    def means(blocks):
        """Mean of the diagonal blocks, and of the off-diagonal ones (0 if k = 1)."""
        k = len(blocks)
        pairs = [blocks[i, j] for i in range(k) for j in range(k) if i != j]
        diag = sum(blocks[i, i] for i in range(k)) / k
        return diag, sum(pairs) / len(pairs) if pairs else np.zeros_like(diag)

    m_a, z = means(aa)
    m_b, y = means(bb)
    x = sum(ab[i, j] for i in range(k1) for j in range(k2)) / (k1 * k2)
    m_a, m_b = (m_a - m_a.T) / 2, (m_b - m_b.T) / 2
    z, y = (z - z.T) / 2, (y - y.T) / 2
    b = fgs.BipartiteCM(fgs.validate_cm(fgs._bipartite(m_a, x, m_b)), n_a, n_b)
    return b, (m_a - z, m_b - y)


def _roundtrip(rng, n_max, trial):
    n = int(rng.integers(1, n_max + 1))
    cm = random_bona_fide_cm(rng, n)
    back = oracle.cm_from_state(oracle.state_from_cm(cm))
    return np.max(np.abs(back.mat - cm.mat))


def _wick(rng, n_max, trial):
    n = int(rng.integers(1, n_max + 1))
    cm = random_bona_fide_cm(rng, n)
    state = oracle.state_from_cm(cm)
    moments = (
        oracle.wick_check(state, cm, idx)
        for size in (2, 4, 6)
        if size <= 2 * n
        for idx in itertools.combinations(range(2 * n), size)
    )
    return np.max([abs(lhs - rhs) for lhs, rhs in moments])


def _sandwich(rng, n_max, trial):
    n = int(rng.integers(1, n_max + 1))
    cm1 = random_bona_fide_cm(rng, n)
    cm2 = random_bona_fide_cm(rng, n)
    dist = oracle.trace_distance(oracle.state_from_cm(cm1), oracle.state_from_cm(cm2))
    op, tr = matalg.norms(cm1.mat - cm2.mat)
    return np.max([op - dist, dist - 0.5 * tr])


def _extension(rng, n_max, trial):
    # one mode per side whatever n_max: each copy has 2 Majorana indices
    k1, k2 = [(2, 1), (1, 2), (2, 2)][trial % 3]
    b, _ = twirled_extendible_instance(rng, 1, 1, k1, k2)
    query = extend.ExtendQuery(b, k1, k2)
    result = extend.feasibility(query)
    if not result.feasible:
        return 1.0
    ext = extend.build_extension(query, result)
    spread = np.max(np.abs(matalg.hermitian_spectrum(ext.body))) - 1.0
    # every (A_i, B_j) marginal must reproduce the input exactly
    aa, bb, ab, ba = extend._copies(ext.mat, k1, 2, k2, 2)
    ref = (b.block_a, b.block_b, b.block_x, -b.block_x.T)
    gaps = [
        np.max(np.abs(p - r))
        for i, j in itertools.product(range(k1), range(k2))
        for p, r in zip((aa[i, i], bb[j, j], ab[i, j], ba[j, i]), ref)
    ]
    return np.max([spread, *gaps])


# each suite: the residual of one seeded trial (rng, n_max, trial) -> float, and its tolerance
_SUITES = {
    "roundtrip": (_roundtrip, 1e-9),
    "wick": (_wick, 1e-8),
    "sandwich": (_sandwich, 1e-9),
    "extension": (_extension, 1e-7),
}


def run_suite(suite: str, n_max: int = 3, trials: int = 50, seed: int = 0) -> SuiteReport:
    """Run a named property suite and report the worst residual over its trials; a NaN
    residual is the worst and fails the suite. InvalidParameterError for an unknown
    suite, or unless n_max, trials >= 1 and seed >= 0 are integers."""
    if suite not in _SUITES:
        raise InvalidParameterError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    for name, value, low in (("n_max", n_max, 1), ("trials", trials, 1), ("seed", seed, 0)):
        if not is_count(value, low):
            raise InvalidParameterError(f"{name} must be an integer >= {low}, not {value!r}")
    rng = np.random.default_rng(seed)
    residual, tol = _SUITES[suite]
    # np.max, not max: Python's max drops a NaN that is not its first argument
    worst = float(np.max([0.0, *(residual(rng, n_max, trial) for trial in range(trials))]))
    return SuiteReport(suite=suite, trials=trials, max_residual=worst, tolerance=tol, passed=worst < tol)
