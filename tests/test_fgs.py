import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgext import fgs, matalg, oracle
from fgext.bounds import family_cm
from fgext.errors import (
    InvalidParameterError,
    NegativeDeterminantError,
    NotBonaFideError,
    SingularStateError,
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

    def test_epr(self):
        b = fgs.epr_cm(2)
        d = 4
        assert_allclose(b.block_x, np.eye(d))
        assert_allclose(b.block_a, np.zeros((d, d)))
        spec = matalg.hermitian_spectrum(b.cm.body)
        assert_allclose(np.abs(spec), np.ones(2 * d), atol=1e-12)

    def test_dispatch(self):
        assert fgs.standard_state("vacuum", 2).modes == 2
        assert fgs.standard_state("bell_psi_minus").mat[0, 3] == 1.0
        assert fgs.standard_state("epr", 1).n_a == 1
        with pytest.raises(InvalidParameterError):
            fgs.standard_state("bell_sigma_plus")


class TestBlocksAndMarginals:
    def test_family_marginal_a(self):
        got = fgs.marginal(family_cm(2, 2), "A")
        assert_allclose(got.mat, np.array([[0.0, 0.5], [-0.5, 0.0]]))

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
    def test_frozen_and_slotted(self):
        b = family_cm(2, 2)
        for obj, name, value in ((b, "n_a", 2), (b.cm, "body", b.cm.body), (b.cm.body, "mat", VACUUM)):
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            assert not hasattr(obj, "__dict__")

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

    def test_negative_determinant_error_exists(self):
        assert issubclass(NegativeDeterminantError, ValueError)


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
        assert fgs.e_cq(fgs.bell_cm("phi+")) == pytest.approx(1.0)

    def test_family_against_dense(self):
        b = family_cm(2, 2)
        dense = oracle.entropies(oracle.state_from_cm(b.cm), (1, 1))[3]
        assert fgs.mutual_information(b) == pytest.approx(dense, abs=1e-8)

    def test_nonnegative(self, random_bipartite_factory):
        for _ in range(50):
            b = random_bipartite_factory(2, 2)
            assert fgs.mutual_information(b) >= -1e-9


class TestHamiltonian:
    def test_zero_cm(self):
        h = fgs.hamiltonian_from_cm(fgs.single_mode_cm(0.0))
        assert_allclose(h.mat, np.zeros((2, 2)))

    def test_single_mode_value(self):
        h = fgs.hamiltonian_from_cm(fgs.single_mode_cm(math.tanh(1.0)))
        assert abs(h.mat[0, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_pure_state_raises(self):
        with pytest.raises(SingularStateError):
            fgs.hamiltonian_from_cm(fgs.vacuum_cm(1))

    def test_roundtrip_scipy_tanhm(self, random_cm_factory):
        # independent route: tanh of the Hermitian form, tanh(i h / 2) = i M
        from scipy.linalg import tanhm

        for n in (1, 2, 3):
            m = random_cm_factory(n, lam_max=0.95)
            h = fgs.hamiltonian_from_cm(m)
            assert_allclose(tanhm(0.5j * h.mat), 1j * m.mat, atol=1e-8)

    def test_roundtrip_dense_state(self, random_cm_factory):
        # the Gaussian state of M is proportional to exp(i/2 gamma^T h gamma)
        from scipy.linalg import expm

        m = random_cm_factory(2, lam_max=0.9)
        h = fgs.hamiltonian_from_cm(m)
        gammas = oracle.jordan_wigner(2)
        quad = sum(
            0.5j * h.mat[p, q] * gammas[p] @ gammas[q]
            for p in range(4)
            for q in range(4)
            if p != q
        )
        rho = expm(0.5 * quad)
        rho = rho / np.trace(rho)
        assert_allclose(rho, oracle.state_from_cm(m).rho, atol=1e-9)


def test_validate_matches_dense_psd(rng):
    # acceptance of validate_cm coincides with dense-state positivity
    from fgext.oracle import _state_from_canonical

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
        rho = _state_from_canonical(q, lams, n)
        dense_ok = bool(np.linalg.eigvalsh(rho)[0] >= -1e-10)
        assert accepted == dense_ok
