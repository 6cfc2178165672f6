import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import stinespring
from fgext import channels, extend, fgs, matalg, solver
from fgext.bounds import family_cm
from fgext.config import DEFAULT_CONFIG
from fgext.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotAntisymmetricError,
    NotCPError,
    SolverStalledError,
)
from fgext.extend import FeasibilityStatus

#: Single-mode vacuum covariance block.
OMEGA = fgs.vacuum_cm(1).mat

#: The least margin of an accepted witness.
TARGET = solver.margin_target(DEFAULT_CONFIG)


def antideg_analytic(lam):
    """Independent reduction for the single-mode loss channel.

    With Δ = d Ω the two constraints read |d| <= 1 and
    (1 - 2λ) ± (2(1 - λ) - d) >= 0, i.e. d in [1, 3 - 4λ]; feasible iff
    λ <= 1/2.
    """
    return lam <= 0.5


def paper_reference(ch):
    """The paper's antidegradability SDP written out by hand: one Δ with
    iΔ <= I and iΔ <= I + 2iN - 2XX^T, both as I + i(-Δ) >= 0 forms."""
    d = ch.n_mat.dim
    terms = ((-1.0, 0, 0),)
    return solver.max_margin(
        [
            solver.MatrixConstraint(np.eye(d), np.zeros((d, d)), terms),
            solver.MatrixConstraint(np.eye(d) - 2.0 * ch.x_mat @ ch.x_mat.T, 2.0 * ch.n_mat.mat, terms),
        ],
        [ch.n_mat.mat],
    )


def random_channels(count):
    rng = np.random.default_rng(2017)
    shapes = ((1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 1, 2), (2, 2, 3))
    return [stinespring(rng, *shapes[j % len(shapes)]) for j in range(count)]


def verdict(decide):
    """decide()'s True or False, or "stalled"."""
    try:
        return decide()
    except SolverStalledError:
        return "stalled"


class TestValidateChannel:
    def test_pure_loss_valid(self):
        ch = channels.pure_loss(0.3)
        low = matalg.min_eigenvalue(
            np.eye(2) - ch.x_mat @ ch.x_mat.T, ch.n_mat.mat
        )
        assert low == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        ch = channels.validate_channel(np.eye(2), np.zeros((2, 2)))
        assert ch.n_in == ch.n_out == 1

    def test_overamplifying_rejected(self):
        with pytest.raises(NotCPError):
            channels.validate_channel(1.1 * np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("entry", ["x", "n"])
    def test_nan_rejected(self, entry):
        loss = channels.pure_loss(0.4)
        x, n = loss.x_mat.copy(), loss.n_mat.mat.copy()
        if entry == "x":
            x[0, 0] = np.nan
        else:
            n[0, 1] = n[1, 0] = np.nan
        with pytest.raises(NotCPError):
            channels.validate_channel(x, n)

    @pytest.mark.parametrize("place", ["x", "n diagonal", "n off-diagonal"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value, place):
        loss = channels.pure_loss(0.4)
        x, n = loss.x_mat.copy(), loss.n_mat.mat.copy()
        if place == "x":
            x[1, 0] = value
        elif place == "n diagonal":
            n[1, 1] = value
        else:
            n[0, 1], n[1, 0] = value, -value
        with pytest.raises(NotCPError, match="finite"):
            channels.validate_channel(x, n)

    def test_rectangular(self):
        x = np.zeros((2, 4))
        ch = channels.validate_channel(x, OMEGA)
        assert (ch.n_in, ch.n_out) == (2, 1)

    @pytest.mark.parametrize(
        "x_shape, n",
        [((4, 2), OMEGA), ((2, 3), OMEGA), ((2,), OMEGA), ((2, 2), np.zeros((2, 4)))],
        ids=["rows-not-n", "odd-columns", "one-dimensional", "n-not-square"],
    )
    def test_shapes_that_do_not_fit(self, x_shape, n):
        with pytest.raises(DimensionMismatchError):
            channels.validate_channel(np.zeros(x_shape), n)

    @pytest.mark.parametrize(
        "x_shape, n_dim", [((2, 0), 2), ((0, 2), 0), ((0, 0), 0)], ids=["no-input", "no-output", "neither"]
    )
    def test_no_modes_on_a_side(self, x_shape, n_dim):
        with pytest.raises(DimensionMismatchError, match="an input and an output mode"):
            channels.validate_channel(np.zeros(x_shape), np.zeros((n_dim, n_dim)))

    def test_direct_construction_freezes_a_copy_of_x(self):
        x = np.eye(2)
        ch = channels.GaussianChannel(x, matalg.AntisymmetricMatrix(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            ch.x_mat[0, 0] = 5.0
        x[0, 0] = 5.0
        assert ch.x_mat[0, 0] == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x, match",
        [(np.eye(4), r"X is \(4, 4\), N is 2x2"), (np.ones(2), r"X is \(2,\), N is 2x2"),
         (np.ones((2, 3)), "even number of columns")],
        ids=["too-many-rows", "not-a-matrix", "odd-columns"],
    )
    def test_direct_construction_refuses_an_x_that_does_not_fit(self, x, match):
        # before the fit moved into the channel, choi_cm and antidegradable
        # ended in numpy's bare broadcasting errors
        with pytest.raises(DimensionMismatchError, match=match):
            channels.GaussianChannel(x, matalg.AntisymmetricMatrix(np.zeros((2, 2))))

    @pytest.mark.filterwarnings("error")
    def test_direct_construction_refuses_a_raw_n(self):
        with pytest.raises(NotAntisymmetricError, match="validate_channel"):
            channels.GaussianChannel(np.eye(2), np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_direct_construction_refuses_non_finite_x(self, value):
        # the Choi matrix wraps X unchecked, so the channel itself refuses it
        x = np.eye(2)
        x[0, 1] = value
        with pytest.raises(NotCPError, match="finite"):
            channels.GaussianChannel(x, matalg.AntisymmetricMatrix(np.zeros((2, 2))))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x_shape, n_dim", [((2, 0), 2), ((0, 2), 0), ((0, 0), 0)], ids=["no-input", "no-output", "neither"]
    )
    def test_direct_construction_refuses_a_side_without_modes(self, x_shape, n_dim):
        # the Choi state and the CP test need a mode on each side
        with pytest.raises(DimensionMismatchError, match="an input and an output mode"):
            channels.GaussianChannel(np.zeros(x_shape), matalg.AntisymmetricMatrix(np.zeros((n_dim, n_dim))))


class TestApply:
    def test_identity(self, random_cm_factory):
        m = random_cm_factory(1)
        ch = channels.validate_channel(np.eye(2), np.zeros((2, 2)))
        assert_allclose(channels.apply_channel(ch, m).mat, m.mat)

    def test_vacuum_fixed_point(self):
        ch = channels.pure_loss(0.7)
        out = channels.apply_channel(ch, fgs.vacuum_cm(1))
        assert_allclose(out.mat, OMEGA)

    def test_dimension_mismatch(self, random_cm_factory):
        ch = channels.pure_loss(0.5)
        with pytest.raises(DimensionMismatchError):
            channels.apply_channel(ch, random_cm_factory(2))

    def test_bona_fide_preserved(self, rng, random_cm_factory):
        for _ in range(500):
            n = int(rng.integers(1, 4))
            d = 2 * n
            x = rng.standard_normal((d, d)) * 0.5
            nb = rng.standard_normal((d, d))
            nb = (nb - nb.T) / 2
            # shrink until valid
            for _ in range(60):
                try:
                    ch = channels.validate_channel(x, nb)
                    break
                except NotCPError:
                    x *= 0.8
                    nb *= 0.8
            else:
                pytest.fail("could not build a valid channel")
            channels.apply_channel(ch, random_cm_factory(n))

    def test_loss_composition_on_bell_matches_family_up_to_swap(self):
        # loss 1/k2 on side B then 1/k1 on side A of a Bell pair equals the
        # printed family after swapping the two Majoranas of each mode
        for k1, k2 in [(1, 1), (2, 2), (3, 2), (4, 1)]:
            bell = fgs.bell_cm("phi+").mat
            l1, l2 = 1.0 / k1, 1.0 / k2
            xa = np.kron(np.diag([math.sqrt(l1), 1.0]), np.eye(2))
            na = np.zeros((4, 4))
            na[:2, :2] = (1 - l1) * OMEGA
            after_a = xa @ bell @ xa.T + na
            xb = np.kron(np.diag([1.0, math.sqrt(l2)]), np.eye(2))
            nb = np.zeros((4, 4))
            nb[2:, 2:] = (1 - l2) * OMEGA
            composed = xb @ after_a @ xb.T + nb
            swap = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
            assert np.max(np.abs(swap @ composed @ swap.T - family_cm(k1, k2).mat)) < 1e-15


class TestChoi:
    def test_identity_choi_is_epr(self):
        ch = channels.validate_channel(np.eye(2), np.zeros((2, 2)))
        assert_allclose(channels.choi_cm(ch).mat, fgs.epr_cm(1).mat)

    def test_replacement_choi_is_product(self):
        ch = channels.validate_channel(np.zeros((2, 2)), OMEGA)
        b = channels.choi_cm(ch)
        assert_allclose(b.block_x, np.zeros((2, 2)))
        assert_allclose(b.block_a, OMEGA)

    def test_pure_loss_half(self):
        b = channels.choi_cm(channels.pure_loss(0.5))
        assert_allclose(b.block_a, 0.5 * OMEGA)
        assert_allclose(b.block_x, math.sqrt(0.5) * np.eye(2))
        assert_allclose(b.block_b, np.zeros((2, 2)))

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.0 + 1e-3])
    def test_bona_fide_as_far_as_the_channel_is_cp(self, scale):
        # the input block of I + iM is I, with Schur complement I + iN - XX^T
        for ch in random_channels(30):
            near = channels.GaussianChannel(scale * ch.x_mat, ch.n_mat)
            cp = matalg.min_eigenvalue(np.eye(near.n_mat.dim) - near.x_mat @ near.x_mat.T, near.n_mat.mat)
            choi = channels.choi_cm(near).mat
            assert matalg.min_eigenvalue(np.eye(len(choi)), choi) >= min(0.0, cp) - 1e-12


class TestAntidegradable:
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_feasible_below_half(self, lam):
        res = channels.antidegradable(channels.pure_loss(lam))
        assert res.feasible == antideg_analytic(lam)
        assert res.margin >= -1e-7

    @pytest.mark.parametrize("lam", [0.6, 0.7, 0.8, 0.9, 1.0])
    def test_infeasible_above_half(self, lam):
        res = channels.antidegradable(channels.pure_loss(lam))
        assert not res.feasible
        assert res.margin == pytest.approx(-(2.0 * lam - 1.0), abs=1e-6)

    def test_matches_choi_route_on_sweep(self):
        for lam in np.arange(0.0, 1.01, 0.1):
            ch = channels.pure_loss(float(lam))
            direct = channels.antidegradable(ch)
            via_choi = channels.channel_k_extendible(ch, 2)
            assert direct.feasible == via_choi.feasible


class TestPaperReference:
    """antidegradable, decided on the Choi state, against the paper's SDP."""

    @pytest.mark.parametrize("lam", [0.6, 0.65, 0.7, 0.85, 0.9])
    def test_infeasible_margin_is_the_reference_optimum(self, lam):
        ch = channels.pure_loss(lam)
        result = channels.antidegradable(ch)
        assert result.status is FeasibilityStatus.INFEASIBLE_NUMERICAL
        assert result.margin == pytest.approx(paper_reference(ch).margin, abs=1e-9)

    def test_verdicts_agree_on_the_loss_line(self):
        for lam in np.linspace(0.0, 1.0, 21):
            ch = channels.pure_loss(float(lam))
            assert channels.antidegradable(ch).feasible == (paper_reference(ch).margin >= TARGET)

    def test_verdicts_agree_on_random_channels(self):
        seen = set()
        for ch in random_channels(120):
            ours = verdict(lambda: channels.antidegradable(ch).feasible)
            reference = verdict(lambda: paper_reference(ch).margin >= TARGET)
            assert ours == reference
            seen.add(ours)
        assert {True, False} <= seen

    def test_witness_meets_the_paper_constraints(self):
        for ch in random_channels(60) + [channels.pure_loss(0.3)]:
            result = channels.antidegradable(ch)
            if result.feasible:
                delta = result.delta_a.mat
                d = ch.n_mat.dim
                low = min(
                    matalg.min_eigenvalue(np.eye(d), -delta),
                    matalg.min_eigenvalue(np.eye(d) - 2.0 * ch.x_mat @ ch.x_mat.T, 2.0 * ch.n_mat.mat - delta),
                )
                assert low >= TARGET
                assert not result.delta_b.mat.any()

    def test_same_as_two_extendibility(self):
        # one LMI for one fact: equal verdicts, and equal margins wherever
        # no precheck settles channel_k_extendible first
        chans = random_channels(100) + [channels.pure_loss(float(lam)) for lam in np.linspace(0, 1, 21)]
        for ch in chans:
            try:
                ours = channels.antidegradable(ch)
            except SolverStalledError:
                with pytest.raises(SolverStalledError):
                    channels.channel_k_extendible(ch, 2)
                continue
            two = channels.channel_k_extendible(ch, 2)
            assert ours.feasible == two.feasible
            if two.status is not FeasibilityStatus.INFEASIBLE_CERTIFIED:
                assert ours.margin == two.margin


class TestEntanglementBreaking:
    def test_replacement(self, random_cm_factory, rng):
        # every entanglement-breaking verdict comes with a separable Choi state
        cases = [(np.zeros((2, 2)), OMEGA)]
        for n_out, n_in in ((1, 1), (2, 1), (1, 2), (2, 3)):
            for scale in (0.0, 1e-12, 1e-11):
                x = scale * rng.standard_normal((2 * n_out, 2 * n_in))
                cases.append((x, random_cm_factory(n_out, 0.9).mat))
        for x, n in cases:
            ch = channels.validate_channel(x, n)
            assert channels.is_entanglement_breaking(ch)
            assert extend.is_separable_gaussian(channels.choi_cm(ch))

    def test_pure_loss_not_eb(self):
        assert not channels.is_entanglement_breaking(channels.pure_loss(0.99))

    def test_tiny_x_below_tolerance(self):
        ch = channels.validate_channel(1e-12 * np.eye(2), 0.5 * OMEGA)
        assert channels.is_entanglement_breaking(ch)


class TestPureLoss:
    def test_endpoints(self):
        ident = channels.pure_loss(1.0)
        assert_allclose(ident.x_mat, np.eye(2))
        assert_allclose(ident.n_mat.mat, np.zeros((2, 2)))
        repl = channels.pure_loss(0.0)
        assert_allclose(repl.x_mat, np.zeros((2, 2)))
        assert_allclose(repl.n_mat.mat, OMEGA)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            channels.pure_loss(-0.1)
        with pytest.raises(InvalidParameterError):
            channels.pure_loss(1.1)


class TestChannelExtendibility:
    def test_identity_not_two_extendible(self):
        ch = channels.validate_channel(np.eye(2), np.zeros((2, 2)))
        res = channels.channel_k_extendible(ch, 2)
        assert not res.feasible
        assert not channels.antidegradable(ch).feasible

    def test_replacement_highly_extendible(self):
        ch = channels.validate_channel(np.zeros((2, 2)), OMEGA)
        assert channels.channel_k_extendible(ch, 10).feasible

    @pytest.mark.parametrize("decide", [channels.antidegradable, lambda ch: channels.channel_k_extendible(ch, 2)],
                             ids=["antidegradable", "k-ext"])
    def test_channel_built_without_the_cp_check_is_refused(self, decide):
        # I + iN - XX^T = -3 I: the Choi matrix is not bona fide, so no verdict
        ch = channels.GaussianChannel(2 * np.eye(2), matalg.AntisymmetricMatrix(np.zeros((2, 2))))
        with pytest.raises(NotCPError, match=r"eigenvalue -3\.000000e\+00 < -1\.0e-09"):
            decide(ch)

    def test_boundary_loss_two_extendible(self):
        res = channels.channel_k_extendible(channels.pure_loss(0.5), 2)
        assert res.feasible

    def test_certified_refutation_at_large_k(self):
        # any channel with x != 0 fails extendibility once k exceeds
        # 4 / lambda_max(X X^T)
        for lam in (0.3, 0.5, 0.8):
            ch = channels.pure_loss(lam)
            top = matalg.norms(ch.x_mat @ ch.x_mat.T)[0]
            k_cap = math.ceil(4.0 / top) + 1
            found = False
            for k in range(2, k_cap + 1):
                res = channels.channel_k_extendible(ch, k)
                if res.status is FeasibilityStatus.INFEASIBLE_CERTIFIED:
                    found = True
                    break
            assert found
