"""Randomized oracle-vs-covariance-matrix property suites.

Each suite draws seeded random Gaussian states, runs one structural
identity through both the covariance-matrix layer and the dense
Fock-space oracle, and reports the worst residual. These back the
`oracle-verify` command and the heavier regression tests.
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


def _suite_roundtrip(n_max, trials, rng):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        cm = random_bona_fide_cm(rng, n)
        back = oracle.cm_from_state(oracle.state_from_cm(cm))
        worst = max(worst, float(np.max(np.abs(back.mat - cm.mat))))
    return worst, 1e-9


def _suite_wick(n_max, trials, rng):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        cm = random_bona_fide_cm(rng, n)
        state = oracle.state_from_cm(cm)
        indices = range(2 * n)
        for size in (2, 4, 6):
            if size > 2 * n:
                break
            for idx in itertools.combinations(indices, size):
                lhs, rhs = oracle.wick_check(state, cm, idx)
                worst = max(worst, abs(lhs - rhs))
    return worst, 1e-8


def _suite_sandwich(n_max, trials, rng):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        cm1 = random_bona_fide_cm(rng, n)
        cm2 = random_bona_fide_cm(rng, n)
        dist = oracle.trace_distance(
            oracle.state_from_cm(cm1), oracle.state_from_cm(cm2)
        )
        diff = cm1.mat - cm2.mat
        op, tr = matalg.norms(diff)
        worst = max(worst, op - dist, dist - 0.5 * tr)
    return worst, 1e-9


def _suite_extension(n_max, trials, rng):
    # one mode per side whatever n_max: each copy has 2 Majorana indices
    worst = 0.0
    ks = [(2, 1), (1, 2), (2, 2)]
    for trial in range(trials):
        k1, k2 = ks[trial % len(ks)]
        b, (delta_a, delta_b) = twirled_extendible_instance(rng, 1, 1, k1, k2)
        query = extend.ExtendQuery(b, k1, k2)
        result = extend.feasibility(query)
        if not result.feasible:
            worst = max(worst, 1.0)
            continue
        ext = extend.build_extension(query, result)
        spread = matalg.hermitian_spectrum(ext.body)
        worst = max(worst, float(np.max(np.abs(spread)) - 1.0))
        # every (A_i, B_j) marginal must reproduce the input exactly
        aa, bb, ab, ba = extend._copies(ext.mat, k1, 2, k2, 2)
        ref = [blocks[0, 0] for blocks in extend._copies(b.mat, 1, 2, 1, 2)]
        for i, j in itertools.product(range(k1), range(k2)):
            pair = (aa[i, i], bb[j, j], ab[i, j], ba[j, i])
            worst = max(worst, *(float(np.max(np.abs(p - r))) for p, r in zip(pair, ref)))
    return worst, 1e-7


_SUITES = {
    "roundtrip": _suite_roundtrip,
    "wick": _suite_wick,
    "sandwich": _suite_sandwich,
    "extension": _suite_extension,
}


def run_suite(suite: str, n_max: int = 3, trials: int = 50, seed: int = 0) -> SuiteReport:
    """Run a named property suite and report the worst residual. ValueError for an unknown
    suite; InvalidParameterError unless n_max, trials >= 1 and seed >= 0 are integers."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    for name, value, low in (("n_max", n_max, 1), ("trials", trials, 1), ("seed", seed, 0)):
        if not is_count(value, low):
            raise InvalidParameterError(f"{name} must be an integer >= {low}, not {value!r}")
    rng = np.random.default_rng(seed)
    worst, tol = _SUITES[suite](n_max, trials, rng)
    return SuiteReport(
        suite=suite,
        trials=trials,
        max_residual=float(worst),
        tolerance=tol,
        passed=bool(worst < tol),
    )
