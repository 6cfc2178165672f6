import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgext import fgs, matalg, oracle
from fgext.bounds import family_cm
from fgext.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotBonaFideError,
    WrongSplitError,
)

VACUUM = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestValidateCm:
    def test_vacuum(self):
        cm = fgs.validate_cm(matalg.antisymmetrize(VACUUM))
        assert cm.modes == 1

    def test_scaled_rejected(self):
        with pytest.raises(NotBonaFideError) as err:
            fgs.validate_cm(matalg.antisymmetrize(1.2 * VACUUM))
        assert err.value.violating_eigenvalue == pytest.approx(1.2, abs=1e-9)

    def test_family22(self):
        spec = matalg.hermitian_spectrum(family_cm(2, 2).cm.body)
        root_half = math.sqrt(2.0) / 2.0
        assert_allclose(spec, [-root_half, -root_half, root_half, root_half], atol=1e-12)

    def test_entry_and_row_invariants(self, random_cm_factory):
        # |M_ij| <= 1 and row square sums <= 1 are implied by bona fide
        for n in (1, 2, 3, 4):
            m = random_cm_factory(n).mat
            assert np.max(np.abs(m)) <= 1.0 + 1e-9
            assert np.max(np.sum(m * m, axis=0)) <= 1.0 + 1e-9

    @pytest.mark.parametrize("place", ["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_refused(self, value, place):
        mat = np.array([[0.0, 0.5], [-0.5, 0.0]])
        if place == "diagonal":
            mat[0, 0] = value
        else:
            mat[0, 1], mat[1, 0] = value, -value
        with pytest.raises(NotBonaFideError, match="non-finite"):
            fgs.validate_cm(mat)

    @pytest.mark.filterwarnings("error")
    def test_huge_entries_refused_without_warning(self):
        with pytest.raises(NotBonaFideError):
            fgs.validate_cm(np.array([[0.0, 1e200], [-1e200, 0.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("checked", [False, True])
    def test_no_mode_refused(self, checked):
        k = matalg.AntisymmetricMatrix(np.zeros((0, 0))) if checked else np.zeros((0, 0))
        with pytest.raises(DimensionMismatchError, match="at least one mode"):
            fgs.validate_cm(k)


class TestStandardStates:
    def test_vacuum_three_modes(self):
        cm = fgs.vacuum_cm(3)
        expected = np.zeros((6, 6))
        for j in range(3):
            expected[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = VACUUM
        assert_allclose(cm.mat, expected)

    def test_bell_phi_plus_matrix(self):
        b = fgs.bell_cm("phi+")
        expected = np.zeros((4, 4))
        expected[0, 3], expected[3, 0] = 1.0, -1.0
        expected[1, 2], expected[2, 1] = 1.0, -1.0
        assert_allclose(b.mat, expected)

    @pytest.mark.parametrize(
        "kind,s14,s23",
        [("phi+", 1, 1), ("phi-", -1, -1), ("psi+", -1, 1), ("psi-", 1, -1)],
    )
    def test_bell_signs(self, kind, s14, s23):
        b = fgs.bell_cm(kind)
        assert b.mat[0, 3] == s14
        assert b.mat[1, 2] == s23

    def test_single_mode_zero_is_maximally_mixed(self):
        cm = fgs.single_mode_cm(0.0)
        assert_allclose(cm.mat, np.zeros((2, 2)))

    def test_single_mode_range(self):
        with pytest.raises(InvalidParameterError):
            fgs.single_mode_cm(1.5)

    def test_bell_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            fgs.bell_cm("sigma+")

    @pytest.mark.parametrize("build", [fgs.vacuum_cm, fgs.epr_cm])
    @pytest.mark.parametrize("count", [0, 2.0, 2.5, True])
    def test_mode_count_not_a_positive_integer(self, build, count):
        with pytest.raises(InvalidParameterError):
            build(count)

    @pytest.mark.parametrize("build", [fgs.vacuum_cm, fgs.epr_cm])
    def test_numpy_integer_mode_count(self, build):
        assert_allclose(build(np.int64(2)).mat, build(2).mat, atol=0)

    def test_epr(self):
        b = fgs.epr_cm(2)
        d = 4
        assert_allclose(b.block_x, np.eye(d))
        assert_allclose(b.block_a, np.zeros((d, d)))
        spec = matalg.hermitian_spectrum(b.cm.body)
        assert_allclose(np.abs(spec), np.ones(2 * d), atol=1e-12)


class TestBlocksAndMarginals:
    def test_family_marginal_a(self):
        got = fgs.marginal(family_cm(2, 2), "A")
        assert_allclose(got.mat, np.array([[0.0, 0.5], [-0.5, 0.0]]))

    def test_unknown_side(self):
        with pytest.raises(InvalidParameterError):
            fgs.marginal(family_cm(2, 2), "C")

    def test_product_marginal(self, random_cm_factory):
        p = random_cm_factory(2)
        q = random_cm_factory(1)
        b = fgs.product_cm(p, q)
        assert_allclose(fgs.marginal(b, "B").mat, q.mat)
        assert_allclose(b.block_x, np.zeros((4, 2)))

    def test_bell_marginal_is_maximally_mixed(self):
        assert_allclose(fgs.marginal(fgs.bell_cm("phi+"), "A").mat, np.zeros((2, 2)))

    def test_vacuum_product_is_two_mode_vacuum(self):
        b = fgs.product_cm(fgs.vacuum_cm(1), fgs.vacuum_cm(1))
        assert_allclose(b.mat, fgs.vacuum_cm(2).mat)

    def test_marginal_bona_fide_many(self, rng, random_bipartite_factory):
        # eigenvalue interlacing: any marginal of a valid CM is valid
        for _ in range(500):
            n_a = int(rng.integers(1, 5))
            n_b = int(rng.integers(1, 5))
            b = random_bipartite_factory(n_a, n_b)
            fgs.marginal(b, "A")
            fgs.marginal(b, "B")


class TestFrozenTypes:
    def test_assignment_refused(self):
        # a field, a derived property or a typo: each raises AttributeError
        b = family_cm(2, 2)
        cases = [
            (b, ("n_a", "block_x", "foo")),
            (b.cm, ("body", "modes", "foo")),
            (b.cm.body, ("mat", "modes", "foo")),
            (matalg.canonical_form(b.cm.body), ("lambdas", "foo")),
            (oracle.state_from_cm(b.cm), ("rho", "n", "foo")),
        ]
        for obj, names in cases:
            for name in names:
                with pytest.raises(AttributeError, match=name):
                    setattr(obj, name, 3)

    def test_repr(self):
        b = family_cm(2, 2)
        assert repr(b) == "BipartiteCM(n_a=1, n_b=1)"
        assert repr(b.cm) == "CovarianceMatrix(modes=2)"
        assert repr(b.cm.body) == "AntisymmetricMatrix(dim=4)"

    def test_split_checked_on_construction(self):
        cm = fgs.vacuum_cm(3)
        assert (fgs.BipartiteCM(cm, 1, 2).n_a, fgs.BipartiteCM(cm, 2, 1).n_b) == (1, 1)
        with pytest.raises(WrongSplitError):
            fgs.BipartiteCM(cm, 1, 1)
        with pytest.raises(WrongSplitError):
            fgs.BipartiteCM(cm, 0, 3)
        # a CM without a declared split
        for routine in (fgs.mutual_information, lambda b: fgs.marginal(b, "A")):
            with pytest.raises(WrongSplitError):
                routine(fgs.vacuum_cm(2))

    @pytest.mark.parametrize(
        "routine",
        [
            lambda m: oracle.state_from_cm(m).rho,
            fgs.gaussian_entropy,
            lambda m: fgs.overlap(m, m),
            lambda m: fgs.product_cm(m, m).mat,
        ],
        ids=["state_from_cm", "gaussian_entropy", "overlap", "product_cm"],
    )
    def test_bipartite_cm_reads_as_its_cm(self, routine):
        # a BipartiteCM is accepted wherever a covariance matrix is read
        b = family_cm(2, 2)
        assert np.asarray(routine(b)).tobytes() == np.asarray(routine(b.cm)).tobytes()

    def test_split_counts_are_integers(self):
        cm = fgs.vacuum_cm(2)
        for n_a, n_b in ((True, 1), (1, True), (1.0, 1), (1.5, 0.5)):
            with pytest.raises(WrongSplitError):
                fgs.BipartiteCM(cm, n_a, n_b)
        assert fgs.BipartiteCM(cm, np.int64(1), np.int64(1)).n_a == 1


class TestOverlap:
    def test_family_vs_epr(self):
        got = fgs.overlap(family_cm(2, 2).cm, family_cm(1, 1).cm)
        assert got == pytest.approx(0.625, abs=1e-12)

    def test_pure_self_overlap(self):
        cm = fgs.vacuum_cm(2)
        assert fgs.overlap(cm, cm) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_maximally_mixed(self):
        got = fgs.overlap(fgs.vacuum_cm(1), fgs.single_mode_cm(0.0))
        # dense oracle: tr(|0><0| . I/2) = 1/2
        dense = oracle.state_from_cm(fgs.vacuum_cm(1)).rho @ (np.eye(2) / 2.0)
        assert got == pytest.approx(float(np.trace(dense).real), abs=1e-12)

    def test_matches_dense_trace(self, random_cm_factory):
        for n in (1, 2, 3):
            m1 = random_cm_factory(n)
            m2 = random_cm_factory(n)
            dense = float(
                np.trace(
                    oracle.state_from_cm(m1).rho @ oracle.state_from_cm(m2).rho
                ).real
            )
            assert fgs.overlap(m1, m2) == pytest.approx(dense, abs=1e-9)

    def test_self_overlap_canonical_identity(self, random_cm_factory):
        # two evaluation paths: determinant formula vs prod (1+lambda^2)/2
        for n in (1, 2, 3, 4):
            m = random_cm_factory(n)
            lams = matalg.canonical_form(m.body).lambdas
            expected = float(np.prod((1.0 + lams**2) / 2.0))
            assert fgs.overlap(m, m) == pytest.approx(expected, abs=1e-9)

    def test_orthogonal_states_clamp_to_zero(self):
        # vacuum vs occupied: exact zero overlap, determinant may round below 0
        vac = fgs.vacuum_cm(1)
        occ = fgs.single_mode_cm(1.0)
        assert fgs.overlap(vac, occ) == 0.0

    def test_negative_determinant_error_is_not_bona_fide(self):
        assert issubclass(NotBonaFideError, ValueError)

    def test_mode_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fgs.overlap(fgs.vacuum_cm(1), fgs.vacuum_cm(2))

    def test_negative_determinant_refused(self):
        # det((M1 M2 - I)/2) is a square for antisymmetric M1, M2, so only
        # rounding takes it below zero: on pairs far from bona fide, with
        # M1 M2 = I on one rotated mode and entries 1e4 on the other.
        rng = np.random.default_rng(5)
        refused = 0
        for _ in range(40):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            pair = []
            for a, b in ((1e4, 1e4), (-1e-4, 1e4)):
                body = np.zeros((2, 2, 2, 2))
                body[0, :, 0, :], body[1, :, 1, :] = a * VACUUM, b * VACUUM
                mat = q @ body.reshape(4, 4) @ q.T
                pair.append(fgs.CovarianceMatrix(matalg.AntisymmetricMatrix((mat - mat.T) / 2)))
            try:
                assert fgs.overlap(*pair) >= 0.0
            except NotBonaFideError:
                refused += 1
        assert refused > 0


class TestEntropies:
    def test_vacuum_pure(self):
        assert fgs.gaussian_entropy(fgs.vacuum_cm(1)) == 0.0

    def test_boundary_slack_is_pure(self):
        # validation admits |λ| = 1 + 1e-12; (1 + λ)/2 is clipped, not rejected
        for lam in (1.0 + 1e-12, -1.0 - 1e-12):
            m = fgs.validate_cm(np.array([[0.0, lam], [-lam, 0.0]]))
            assert fgs.gaussian_entropy(m) == 0.0

    def test_maximally_mixed(self):
        assert fgs.gaussian_entropy(fgs.single_mode_cm(0.0)) == pytest.approx(1.0)

    def test_family_marginal_value(self):
        got = fgs.gaussian_entropy(fgs.marginal(family_cm(2, 2), "A"))
        assert got == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_against_dense(self, random_cm_factory):
        for n in (1, 2, 3):
            m = random_cm_factory(n)
            rho = oracle.state_from_cm(m).rho
            eigs = np.linalg.eigvalsh(rho)
            eigs = eigs[eigs > 1e-14]
            dense = float(-np.sum(eigs * np.log2(eigs)))
            assert fgs.gaussian_entropy(m) == pytest.approx(dense, abs=1e-8)

    def test_rotation_invariance(self, rng, random_cm_factory):
        for n in (2, 3):
            m = random_cm_factory(n)
            q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            rotated = fgs.validate_cm(matalg.antisymmetrize(q @ m.mat @ q.T))
            assert fgs.gaussian_entropy(rotated) == pytest.approx(
                fgs.gaussian_entropy(m), abs=1e-9
            )


class TestMutualInformation:
    def test_product_is_zero(self, random_cm_factory):
        b = fgs.product_cm(random_cm_factory(1), random_cm_factory(2))
        assert fgs.mutual_information(b) == pytest.approx(0.0, abs=1e-9)

    def test_bell_two_bits(self):
        assert fgs.mutual_information(fgs.bell_cm("phi+")) == pytest.approx(2.0)

    def test_family_against_dense(self):
        b = family_cm(2, 2)
        dense = oracle.entropies(oracle.state_from_cm(b.cm), (1, 1))[3]
        assert fgs.mutual_information(b) == pytest.approx(dense, abs=1e-8)

    def test_nonnegative(self, random_bipartite_factory):
        for _ in range(50):
            b = random_bipartite_factory(2, 2)
            assert fgs.mutual_information(b) >= -1e-9


class TestHamiltonian:
    def test_roundtrip_dense_state(self, random_cm_factory):
        # the Gaussian state of M is proportional to exp(i/2 gamma^T h gamma),
        # with the quadratic Hamiltonian h = 2 arctanh(M) on the canonical form
        from scipy.linalg import expm

        m = random_cm_factory(2, lam_max=0.9)
        form = matalg.canonical_form(m.body)
        h = matalg.CanonicalForm(form.rotation, 2.0 * np.arctanh(form.lambdas)).reconstruct()
        gammas = oracle.jordan_wigner(2)
        quad = sum(
            0.5j * h[p, q] * gammas[p] @ gammas[q]
            for p in range(4)
            for q in range(4)
            if p != q
        )
        rho = expm(0.5 * quad)
        rho = rho / np.trace(rho)
        assert_allclose(rho, oracle.state_from_cm(m).rho, atol=1e-9)


def test_validate_matches_dense_psd(rng):
    # acceptance of validate_cm coincides with dense-state positivity
    for _ in range(40):
        n = int(rng.integers(1, 4))
        q, _ = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        lams = rng.uniform(-1.15, 1.15, size=n)
        form = matalg.CanonicalForm(q, lams)
        body = matalg.antisymmetrize(form.reconstruct())
        accepted = True
        try:
            fgs.validate_cm(body)
        except NotBonaFideError:
            accepted = False
        rho = oracle._full(oracle._state_blocks(q, lams, n))
        dense_ok = bool(np.linalg.eigvalsh(rho)[0] >= -1e-10)
        assert accepted == dense_ok
