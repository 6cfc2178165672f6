import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import fgext
from fgext import channels, fgs, matalg, oracle
from fgext.config import DEFAULT_CONFIG
from fgext.errors import DimensionMismatchError, NotAntisymmetricError, NotBonaFideError, NotCPError
from fgext.verify import random_bona_fide_cm

from conftest import random_antisymmetric

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
VACUUM = -J


def combinatorial_pfaffian(mat):
    """Independent oracle: recursive cofactor expansion along the first row."""
    m = mat.shape[0]
    if m == 0:
        return 1.0
    if m % 2:
        return 0.0
    total = 0.0
    rest = list(range(1, m))
    for pos, j in enumerate(rest):
        keep = [i for i in rest if i != j]
        sub = mat[np.ix_(keep, keep)]
        total += (-1.0) ** pos * mat[0, j] * combinatorial_pfaffian(sub)
    return total


class TestAntisymmetrize:
    def test_zero(self):
        out = matalg.antisymmetrize(np.zeros((2, 2)))
        assert_allclose(out.mat, np.zeros((2, 2)))

    def test_already_antisymmetric(self):
        out = matalg.antisymmetrize(J)
        assert_allclose(out.mat, J)

    def test_residue_rejected(self):
        bad = np.array([[0.0, 1.0], [-1.0 + 2e-3, 0.0]])
        with pytest.raises(NotAntisymmetricError):
            matalg.antisymmetrize(bad)

    def test_small_residue_projected(self):
        nearly = J + 1e-12 * np.ones((2, 2))
        out = matalg.antisymmetrize(nearly)
        assert_allclose(out.mat, out.mat * (1 - np.eye(2)) - out.mat.T * 0, atol=0)
        assert np.all(np.diag(out.mat) == 0.0)

    def test_odd_dimension(self):
        with pytest.raises(DimensionMismatchError, match="odd"):
            matalg.antisymmetrize(np.zeros((3, 3)))

    def test_immutable(self):
        out = matalg.antisymmetrize(J)
        with pytest.raises(ValueError):
            out.mat[0, 1] = 5.0

    def test_not_square(self):
        with pytest.raises(DimensionMismatchError):
            matalg.antisymmetrize(np.zeros((2, 4)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused_before_arithmetic(self, value):
        # an antisymmetric pair of infinities: inf + -inf would warn
        with pytest.raises(NotAntisymmetricError, match="non-finite"):
            matalg.antisymmetrize(np.array([[0.0, value], [-value, 0.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e200, 1e308, np.finfo(float).max])
    def test_huge_entries(self, big):
        with pytest.raises(NotAntisymmetricError, match="exceeds"):
            matalg.antisymmetrize(np.array([[0.0, big], [big, 0.0]]))
        out = matalg.antisymmetrize(np.array([[0.0, big], [-big, 0.0]]))
        assert out.mat[0, 1] == big and out.mat[1, 0] == -big

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 3.0, 1e100])
    def test_residue_message_as_unscaled(self, rng, scale):
        # the power-of-two scale leaves the reported residue and bound as the
        # unscaled norms give them wherever those do not overflow
        bad = scale * rng.standard_normal((4, 4))
        sym = np.linalg.norm((bad + bad.T) / 2.0)
        bound = matalg.ANTISYM_RTOL * max(np.linalg.norm(bad), 1.0)
        with pytest.raises(NotAntisymmetricError) as err:
            matalg.antisymmetrize(bad)
        assert str(err.value) == f"symmetric residue {sym:.3e} exceeds 1.0e-08 * max(norm, 1) = {bound:.3e}"

    def test_residue_message_past_overflow(self):
        with pytest.raises(NotAntisymmetricError) as err:
            matalg.antisymmetrize(np.array([[0.0, 1e200], [1e200, 0.0]]))
        assert str(err.value) == "symmetric residue 1.414e+200 exceeds 1.0e-08 * max(norm, 1) = 1.414e+192"

    def test_empty(self):
        assert matalg.antisymmetrize(np.zeros((0, 0))).dim == 0


class TestExactGuard:
    """The Tier-1 guard on matalg._exact, from conftest."""

    @pytest.mark.parametrize(
        "mat",
        [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 1.0], [-1.0 + 1e-16, 0.0]]),
         np.array([[0.0, np.nan], [np.nan, 0.0]])],
        ids=["symmetric", "last-bit", "nan"],
    )
    def test_fires(self, mat):
        with pytest.raises(AssertionError, match="matalg._exact got"):
            matalg._exact(mat)

    def test_passes_and_wraps_read_only(self):
        mat = J.copy()
        out = matalg._exact(mat)
        assert isinstance(out, matalg.AntisymmetricMatrix) and out.mat is mat
        assert not mat.flags.writeable

    def test_not_exported(self):
        assert "_exact" not in matalg.__all__ and not hasattr(fgext, "_exact")


class TestAntisymmetricMatrix:
    def test_asymmetry_above_construction_tolerance(self):
        with pytest.raises(NotAntisymmetricError, match="1e-12 construction tolerance"):
            matalg.AntisymmetricMatrix(np.array([[0.0, 1.0], [-1.0 + 1e-9, 0.0]]))

    def test_finite_diagonal_projected_to_exact_zero(self):
        out = matalg.AntisymmetricMatrix(J + 4e-13 * np.eye(2))
        assert np.all(np.diag(out.mat) == 0.0)
        assert_allclose(out.mat, J, atol=0)

    @pytest.mark.parametrize("place", ["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused(self, value, place):
        mat = J.copy()
        if place == "diagonal":
            mat[0, 0] = value
        else:
            mat[0, 1], mat[1, 0] = value, -value
        with pytest.raises(NotAntisymmetricError, match="non-finite"):
            matalg.AntisymmetricMatrix(mat)

    @pytest.mark.filterwarnings("error")
    def test_largest_entries_stay_finite(self):
        big = np.finfo(float).max
        out = matalg.AntisymmetricMatrix(np.array([[0.0, big], [-big, 0.0]]))
        assert out.mat[0, 1] == big and out.mat[1, 0] == -big
        out = matalg.AntisymmetricMatrix(np.array([[0.0, 1e308], [-1e308, 0.0]]))
        assert out.mat[0, 1] == 1e308 and out.mat[1, 0] == -1e308

    @pytest.mark.filterwarnings("error")
    def test_huge_asymmetry_refused_without_overflow_warning(self):
        with pytest.raises(NotAntisymmetricError, match="construction tolerance"):
            matalg.AntisymmetricMatrix(np.array([[0.0, 1e308], [1e308, 0.0]]))

    def test_empty(self):
        out = matalg.AntisymmetricMatrix(np.zeros((0, 0)))
        assert out.dim == 0 and matalg.pfaffian(out) == 1.0

    @pytest.mark.parametrize("routine", ["hermitian_spectrum", "pfaffian", "canonical_form"])
    @pytest.mark.parametrize(
        "raw", [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [5.0, 0.0]]], ids=["symmetric", "asymmetric"]
    )
    def test_raw_array_passes_the_strict_gate(self, routine, raw):
        with pytest.raises(NotAntisymmetricError, match="construction tolerance"):
            getattr(matalg, routine)(np.array(raw))


class TestHermitianSpectrum:
    def test_vacuum(self):
        assert_allclose(matalg.hermitian_spectrum(VACUUM), [-1.0, 1.0], atol=1e-12)

    def test_zero(self):
        assert_allclose(matalg.hermitian_spectrum(np.zeros((2, 2))), [0.0, 0.0])

    def test_family_one_sided(self):
        # diagonal entries 0 and 1/2 with antidiagonal cross block 1/sqrt(2)
        x = 1.0 / np.sqrt(2.0)
        m = np.array(
            [
                [0.0, 0.0, 0.0, x],
                [0.0, 0.0, x, 0.0],
                [0.0, -x, 0.0, 0.5],
                [-x, 0.0, -0.5, 0.0],
            ]
        )
        assert_allclose(
            matalg.hermitian_spectrum(m), [-1.0, -0.5, 0.5, 1.0], atol=1e-10
        )

    def test_symmetric_about_zero(self, rng):
        for n in (1, 2, 3, 4):
            k = random_antisymmetric(rng, 2 * n)
            spec = matalg.hermitian_spectrum(k)
            assert_allclose(spec, -spec[::-1], atol=1e-9)

    def test_matches_complex_reference(self, rng):
        for n in (1, 2, 3, 4):
            k = random_antisymmetric(rng, 2 * n)
            ref = np.linalg.eigvalsh(1j * k)
            assert_allclose(matalg.hermitian_spectrum(k), ref, atol=1e-9)


class TestPfaffian:
    def test_two_by_two(self):
        k = np.array([[0.0, 0.7], [-0.7, 0.0]])
        assert matalg.pfaffian(k) == pytest.approx(0.7)

    def test_block_sum(self):
        k = np.zeros((4, 4))
        k[0, 1], k[1, 0] = 1.0, -1.0
        k[2, 3], k[3, 2] = 1.0, -1.0
        assert matalg.pfaffian(k) == pytest.approx(1.0)

    def test_empty(self):
        assert matalg.pfaffian(np.zeros((0, 0))) == 1.0

    def test_against_determinant_and_expansion(self, rng):
        for _ in range(10):
            k = random_antisymmetric(rng, 6)
            pf = matalg.pfaffian(k)
            det = np.linalg.det(k)
            assert pf * pf == pytest.approx(det, rel=1e-8)
            assert pf == pytest.approx(combinatorial_pfaffian(k), rel=1e-9)

    def test_square_is_determinant_all_dims(self, rng):
        for dim in (2, 4, 6, 8):
            for _ in range(5):
                k = random_antisymmetric(rng, dim)
                pf = matalg.pfaffian(k)
                assert pf * pf == pytest.approx(np.linalg.det(k), rel=1e-8)

    def test_singular(self):
        k = np.zeros((4, 4))
        k[0, 1], k[1, 0] = 1.0, -1.0
        assert matalg.pfaffian(k) == 0.0


def _special_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _signed_permutation(rng, d):
    p = np.eye(d)[:, rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    return p


# name -> (lambdas for n modes, rotation); every λ pair is checked against
# hermitian_spectrum, so ordering within a case does not matter
CANONICAL_CASES = {
    "repeated": (lambda rng, n: np.r_[np.full(n - 1, 0.5), -0.5], _special_orthogonal),
    "zeros": (lambda rng, n: np.where(np.arange(n) % 2 == 1, 0.0, rng.uniform(-1, 1, n)),
              _special_orthogonal),
    "zeros-axis-aligned": (lambda rng, n: np.where(np.arange(n) % 2 == 0, 0.0, rng.uniform(-1, 1, n)),
                           _signed_permutation),
    "tiny-pair": (lambda rng, n: np.r_[rng.uniform(-1, 1, n - 1), -1e-10], _special_orthogonal),
    "pure": (lambda rng, n: rng.choice([-1.0, 1.0], n), _special_orthogonal),
    "vacuum": (lambda rng, n: -np.ones(n), lambda rng, d: np.eye(d)),
}


class TestCanonicalForm:
    def test_vacuum_sign_convention(self):
        form = matalg.canonical_form(VACUUM)
        assert len(form.lambdas) == 1
        assert form.lambdas[0] == pytest.approx(-1.0)
        assert np.linalg.det(form.rotation) == pytest.approx(1.0)
        assert_allclose(form.reconstruct(), VACUUM, atol=1e-12)

    def test_zero(self):
        form = matalg.canonical_form(np.zeros((4, 4)))
        assert_allclose(form.lambdas, [0.0, 0.0])
        assert_allclose(form.reconstruct(), np.zeros((4, 4)), atol=1e-12)

    def test_epr(self):
        m = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        form = matalg.canonical_form(m)
        assert_allclose(np.abs(form.lambdas), [1.0, 1.0], atol=1e-12)
        assert np.linalg.norm(form.reconstruct() - m, ord=2) < 1e-9

    def test_roundtrip_random(self, rng):
        for n in (1, 2, 3, 4, 5):
            for _ in range(6):
                k = random_antisymmetric(rng, 2 * n)
                form = matalg.canonical_form(k)
                assert np.linalg.norm(form.reconstruct() - k, ord=2) < 1e-9
                o = form.rotation
                assert np.linalg.norm(o @ o.T - np.eye(2 * n), ord=2) < 1e-10
                assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-10)
                lams = form.lambdas
                assert all(lams[i] >= lams[i + 1] for i in range(len(lams) - 1))
                assert np.all(lams[:-1] >= 0)

    def test_degenerate_lambdas(self, rng):
        # repeated |lambda|: only reconstruction is promised
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        blocks = np.zeros((6, 6))
        for j in range(3):
            blocks[2 * j, 2 * j + 1] = 0.5
            blocks[2 * j + 1, 2 * j] = -0.5
        k = q @ blocks @ q.T
        form = matalg.canonical_form(k)
        assert np.linalg.norm(form.reconstruct() - k, ord=2) < 1e-9

    def test_rank_deficient(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        blocks = np.zeros((6, 6))
        blocks[0, 1], blocks[1, 0] = 0.9, -0.9
        k = q @ blocks @ q.T
        form = matalg.canonical_form(k)
        assert np.linalg.norm(form.reconstruct() - k, ord=2) < 1e-9
        assert_allclose(sorted(np.abs(form.lambdas)), [0.0, 0.0, 0.9], atol=1e-10)

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("case", sorted(CANONICAL_CASES))
    def test_cases(self, rng, case, n):
        draw_lams, draw_rotation = CANONICAL_CASES[case]
        lams = draw_lams(rng, n)
        q = draw_rotation(rng, 2 * n)
        k = matalg.antisymmetrize(q @ matalg.CanonicalForm(np.eye(2 * n), lams).block_matrix() @ q.T).mat
        form = matalg.canonical_form(k)
        o = form.rotation
        assert np.max(np.abs(form.reconstruct() - k)) <= 1e-12 * max(1.0, np.max(np.abs(k)))
        assert np.linalg.norm(o @ o.T - np.eye(2 * n), ord=2) <= 1e-12
        assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-12)
        got = form.lambdas
        assert all(got[i] >= got[i + 1] for i in range(n - 1))
        assert np.all(got[:-1] >= 0)
        assert_allclose(np.sort(np.abs(got)), matalg.hermitian_spectrum(k)[n:], rtol=0, atol=1e-12)
        if case == "vacuum":
            # Pf of the n-mode vacuum is (-1)^n, and det(O) = +1 puts that sign on the last λ
            assert_allclose(got, np.r_[np.ones(n - 1), (-1.0) ** n], rtol=0, atol=1e-12)

    def test_frozen(self):
        form = matalg.canonical_form(VACUUM)
        with pytest.raises(AttributeError):
            form.lambdas = np.zeros(1)
        with pytest.raises(ValueError):
            form.rotation[0, 0] = 2.0
        with pytest.raises(ValueError):
            form.lambdas[0] = 2.0


class TestMinEigenvalue:
    def test_vacuum_boundary(self):
        low = matalg.min_eigenvalue(np.eye(2), VACUUM)
        assert low == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        low = matalg.min_eigenvalue(np.eye(2), np.zeros((2, 2)))
        assert low == pytest.approx(1.0)

    def test_scaled_violation(self):
        low = matalg.min_eigenvalue(np.eye(2), 1.5 * J)
        assert low == pytest.approx(-0.5)

    def test_against_complex_reference(self, rng):
        for n in (1, 2, 3, 4):
            sym = rng.standard_normal((2 * n, 2 * n))
            sym = (sym + sym.T) / 2.0
            k = random_antisymmetric(rng, 2 * n)
            low = matalg.min_eigenvalue(sym, k)
            ref = float(np.linalg.eigvalsh(sym + 1j * k)[0])
            assert low == pytest.approx(ref, abs=1e-9)


EPS = DEFAULT_CONFIG.eps_psd
UNIT = 2.0**-53


def known_spectrum(rng, lams, complex_):
    """Q diag(λ) Q^H for a random unitary (or orthogonal) Q."""
    d = len(lams)
    z = rng.standard_normal((d, d))
    if complex_:
        z = z + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    return (q * lams) @ q.conj().T


def applied_c(monkeypatch, h, shift):
    """The c that certified_floor takes off the shift for h, read from the
    diagonal it hands to Cholesky (to within u |h_ii|); no factor is made."""
    seen = []

    def spy(a):
        seen.append(a.diagonal().real - h.diagonal().real)
        raise np.linalg.LinAlgError("spy")

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    assert matalg.certified_floor(h, shift) is False
    (added,) = seen
    return shift - float(added.min())


def one_mode(lam):
    return np.array([[0.0, lam], [-lam, 0.0]])


class TestCertifiedFloor:
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("d", [2, 8, 36, 256])
    @pytest.mark.parametrize("shift", [EPS, 1e-10])
    def test_known_spectrum_either_side(self, rng, d, complex_, shift):
        for low, proven in ((-2.0 * shift, False), (-shift / 2.0, True)):
            lams = rng.uniform(0.0, 1.0, d)
            lams[rng.integers(d)] = low
            assert matalg.certified_floor(known_spectrum(rng, lams, complex_), shift) is proven

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("place", ["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("complex_", [False, True])
    def test_non_finite_entry(self, value, place, complex_):
        h = np.eye(4, dtype=complex if complex_ else float)
        if place == "diagonal":
            h[2, 2] = value
        else:
            h[2, 1] = h[1, 2] = value
        assert matalg.certified_floor(h, EPS) is False

    def test_shift_at_or_below_c_proves_nothing(self):
        assert matalg.certified_floor(np.eye(3), 0.0) is False
        assert matalg.certified_floor(np.eye(3), -1.0) is False
        assert matalg.certified_floor(np.eye(3), 1e-16) is False

    def test_leaves_h_untouched(self, rng):
        h = known_spectrum(rng, rng.uniform(0.0, 1.0, 6), True)
        before = h.copy()
        assert matalg.certified_floor(h, EPS) is True
        assert np.array_equal(h, before)

    @pytest.mark.parametrize("d", [2, 8, 36, 64])
    def test_c_for_i_plus_ik(self, monkeypatch, d):
        k = random_bona_fide_cm(np.random.default_rng(d), d // 2).mat
        h = np.eye(d) + 1j * k
        c = applied_c(monkeypatch, h, EPS)
        assert (d + 1) * UNIT * d <= c <= 1e-11

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_c_for_an_oracle_block(self, monkeypatch, n):
        d = 2 ** (n - 1)
        h = np.zeros((d, d), dtype=complex)
        h.reshape(-1)[:: d + 1] = (1.0 + d * 1e-10) / d  # the largest trace a floor can meet
        c = applied_c(monkeypatch, h, 1e-10)
        assert (d + 1) * UNIT <= c <= 1e-11

    def test_validate_cm_either_side(self):
        fgs.validate_cm(one_mode(1.0 + EPS / 2.0))
        with pytest.raises(NotBonaFideError, match=r"min eig of I\+iM is -2.000e-09") as err:
            fgs.validate_cm(one_mode(1.0 + 2.0 * EPS))
        assert err.value.violating_eigenvalue == pytest.approx(1.0 + 2.0 * EPS, abs=1e-15)

    def test_validate_channel_either_side(self):
        # I + iN - XX^T = (1 - t) I + iν J has eigenvalues 1 - t ± ν
        x = np.sqrt(0.5) * np.eye(2)
        channels.validate_channel(x, one_mode(0.5 + EPS / 2.0))
        with pytest.raises(NotCPError, match="eigenvalue -2.0000") as err:
            channels.validate_channel(x, one_mode(0.5 + 2.0 * EPS))
        assert err.value.violating_eigenvalue == pytest.approx(-2.0 * EPS, abs=1e-15)

    def test_validate_cm_refuses_an_unchecked_nan_matrix(self):
        # matalg._exact without conftest's guard, which refuses NaN itself
        k = object.__new__(matalg.AntisymmetricMatrix)
        object.__setattr__(k, "mat", np.array([[0.0, np.nan], [np.nan, 0.0]]))
        with pytest.raises(NotBonaFideError, match="nan"):
            fgs.validate_cm(k)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 48), st.booleans(), st.sampled_from([EPS, 1e-10]),
           st.floats(0.0, 2.0), st.floats(0.01, 4.0), st.integers(0, 2**32 - 1))
    def test_never_proven_below_the_floor(self, d, complex_, shift, below, top, seed):
        # the stored h misses the spectrum by about d u top, far under 1e-12
        rng = np.random.default_rng(seed)
        lams = rng.uniform(0.0, top, d)
        lams[0] = -shift - 1e-12 - below * shift
        assert matalg.certified_floor(known_spectrum(rng, lams, complex_), shift) is False


class TestFloorVerdictSweep:
    """validate_cm, validate_channel and DenseState decide as eigvalsh does,
    except within 1e-12 of the floor, where Cholesky may prove what
    eigvalsh's own rounding denies."""

    BAND = 1e-12

    @staticmethod
    def agree(accepts, low, shift):
        """The verdict, once it is eigvalsh's; None within the band."""
        if abs(low + shift) <= TestFloorVerdictSweep.BAND:
            return None
        verdict = accepts()
        assert verdict is bool(low >= -shift)
        return verdict

    @staticmethod
    def accepts(call, error):
        try:
            call()
        except error:
            return False
        return True

    def cm_verdicts(self, rng):
        for modes in range(1, 7):
            for trial in range(100):
                k = random_bona_fide_cm(rng, modes).mat
                if trial % 2:  # spectral radius 1 + t eps_psd, t in [-4, 4]
                    radius = np.abs(np.linalg.eigvalsh(1j * k)).max()
                    k = k * ((1.0 + rng.uniform(-4.0, 4.0) * EPS) / radius)
                body = matalg.antisymmetrize(k)
                low = np.linalg.eigvalsh(np.eye(2 * modes) + 1j * body.mat)[0]
                yield self.agree(lambda: self.accepts(lambda: fgs.validate_cm(body), NotBonaFideError),
                                 low, EPS)

    def channel_verdicts(self, rng):
        for trial in range(300):
            n_in, n_out = rng.integers(1, 4, size=2)
            x0 = rng.standard_normal((2 * n_out, 2 * n_in))
            n = 0.5 * random_bona_fide_cm(rng, n_out).mat
            d = 2 * n_out

            def low_at(beta):
                x = beta * x0
                return np.linalg.eigvalsh(np.eye(d) - x @ x.T + 1j * n)[0]

            # bisect for a CP margin of -t eps_psd, t in [-4, 4]
            target, lo, hi = -rng.uniform(-4.0, 4.0) * EPS, 0.0, 2.0
            for _ in range(60):
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if low_at(mid) > target else (lo, mid)
            x = lo * x0
            yield self.agree(
                lambda: self.accepts(lambda: channels.validate_channel(x, n), NotCPError), low_at(lo), EPS
            )

    def block_verdicts(self, rng):
        for trial in range(200):
            modes = int(rng.integers(2, 5))
            blocks = oracle.state_from_cm(random_bona_fide_cm(rng, modes)).rho[oracle._sectors(modes)]
            side = rng.integers(2)
            w, v = np.linalg.eigh(blocks[side])
            target = -rng.uniform(-4.0, 4.0) * 1e-10
            w[-1] += w[0] - target  # keeps the trace
            w[0] = target
            blocks[side] = (v * w) @ v.conj().T
            low = min(np.linalg.eigvalsh(b)[0] for b in blocks)
            rho = oracle._full(blocks)
            yield self.agree(lambda: self.accepts(lambda: oracle.DenseState(rho), NotBonaFideError), low, 1e-10)

    def test_sweep(self, rng):
        decided = 0
        for name in ("cm", "channel", "block"):
            verdicts = list(getattr(self, f"{name}_verdicts")(rng))
            accepted, refused = verdicts.count(True), verdicts.count(False)
            assert accepted + refused >= 0.95 * len(verdicts)
            assert min(accepted, refused) >= 0.1 * len(verdicts), (name, accepted, refused)
            decided += accepted + refused
        assert decided >= 1000


class TestNorms:
    def test_identity(self):
        op, tr = matalg.norms(np.eye(3))
        assert (op, tr) == (pytest.approx(1.0), pytest.approx(3.0))

    def test_family_cross_block(self):
        x = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
        op, tr = matalg.norms(x)
        assert op == pytest.approx(0.5)
        assert tr == pytest.approx(1.0)

    def test_zero(self):
        assert matalg.norms(np.zeros((2, 5))) == (0.0, 0.0)

    def test_empty(self):
        assert matalg.norms(np.zeros((0, 3))) == (0.0, 0.0)

    def test_op_below_trace(self, rng):
        for _ in range(20):
            m = rng.standard_normal((4, 6))
            op, tr = matalg.norms(m)
            assert op <= tr + 1e-12

    def test_trace_norm_from_canonical(self, rng):
        # each canonical lambda contributes twice as a singular value
        for n in (1, 2, 3):
            k = random_antisymmetric(rng, 2 * n)
            form = matalg.canonical_form(k)
            _, tr = matalg.norms(k)
            assert tr == pytest.approx(2.0 * np.sum(np.abs(form.lambdas)), rel=1e-9)
