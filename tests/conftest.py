import numpy as np
import pytest

from fgext import channels, fgs, matalg
from fgext.bounds import family_cm
from fgext.verify import random_bona_fide_cm, random_bipartite_cm


@pytest.fixture(autouse=True)
def exact_antisymmetry_guard(monkeypatch):
    """Check what the library trusts without checking: every matrix wrapped
    by matalg._exact is finite and exactly antisymmetric."""
    exact = matalg._exact

    def guarded(mat):
        assert np.isfinite(mat).all(), "matalg._exact got a non-finite entry"
        assert np.array_equal(mat, -mat.T), "matalg._exact got a matrix that is not exactly antisymmetric"
        return exact(mat)

    monkeypatch.setattr(matalg, "_exact", guarded)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_cm_factory(rng):
    def make(n, lam_max=1.0):
        return random_bona_fide_cm(rng, n, lam_max)

    return make


@pytest.fixture
def random_bipartite_factory(rng):
    def make(n_a, n_b, lam_max=1.0):
        return random_bipartite_cm(rng, n_a, n_b, lam_max)

    return make


def random_antisymmetric(rng, dim, scale=1.0):
    raw = scale * rng.standard_normal((dim, dim))
    return (raw - raw.T) / 2.0


def special_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pure(rng, n_a, n_b):
    """Random SO(2n) conjugation of a canonical form with every λ = ±1."""
    n = n_a + n_b
    form = matalg.CanonicalForm(special_orthogonal(rng, 2 * n), rng.choice([-1.0, 1.0], n))
    return bipartite(form.reconstruct(), n_a, n_b)


def stinespring(rng, n_in, n_env, n_out):
    """Keep n_out modes of a random SO(2(n_in + n_env)) rotation of the input
    beside a random bona fide environment: X = O[out, in], N = E M_E E^T."""
    o = special_orthogonal(rng, 2 * (n_in + n_env))[: 2 * n_out]
    e = o[:, 2 * n_in :]
    return channels.validate_channel(o[:, : 2 * n_in], e @ random_bona_fide_cm(rng, n_env).mat @ e.T)


def bipartite(mat, n_a, n_b):
    return fgs.BipartiteCM(fgs.validate_cm(matalg.antisymmetrize(mat)), n_a, n_b)


def copies(b, rng):
    """b, b under a random local rotation O_A ⊕ O_B, and b with A and B swapped."""
    da, d = 2 * b.n_a, b.mat.shape[0]
    rot = np.zeros((d, d))
    rot[:da, :da] = special_orthogonal(rng, da)
    rot[da:, da:] = special_orthogonal(rng, d - da)
    perm = list(range(da, d)) + list(range(da))
    rotated = bipartite(rot @ b.mat @ rot.T, b.n_a, b.n_b)
    swapped = bipartite(b.mat[np.ix_(perm, perm)], b.n_b, b.n_a)
    return rotated, swapped


def family22_direct_sum(n, rng):
    """n copies of family_cm(2, 2), A mode j paired with B mode j, under a random O_A ⊕ O_B."""
    m = np.zeros((4 * n, 4 * n))
    for j in range(n):
        idx = [2 * j, 2 * j + 1, 2 * n + 2 * j, 2 * n + 2 * j + 1]
        m[np.ix_(idx, idx)] = family_cm(2, 2).mat
    return copies(bipartite(m, n, n), rng)[0]


def family22_x_scaled(scale):
    """family_cm(2, 2) with X scaled; at (2, 2) its optimum is just below 0."""
    m = family_cm(2, 2).mat.copy()
    m[:2, 2:] *= scale
    m[2:, :2] *= scale
    return bipartite(m, 1, 1)
