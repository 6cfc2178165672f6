import argparse
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import copies, family22_direct_sum, family22_x_scaled
from fgext import channels, cli, fgs, io, matalg, oracle, verify
from fgext.bounds import epsilon_family, family_cm
from fgext.config import RunConfig
from fgext.errors import DimensionMismatchError, InvalidParameterError, NotAntisymmetricError, ParseError


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family22.cm"
    io.save_cm(path, family_cm(2, 2))
    return str(path)


class TestCmFormat:
    def test_roundtrip_bipartite(self, tmp_path, random_bipartite_factory):
        b = random_bipartite_factory(1, 2)
        path = tmp_path / "state.cm"
        io.save_cm(path, b)
        back = io.load_cm(path)
        assert isinstance(back, fgs.BipartiteCM)
        assert (back.n_a, back.n_b) == (1, 2)
        assert_allclose(back.mat, b.mat, atol=1e-15)

    def test_roundtrip_plain(self, tmp_path, random_cm_factory):
        m = random_cm_factory(2)
        path = tmp_path / "state.cm"
        io.save_cm(path, m)
        back = io.load_cm(path)
        assert isinstance(back, fgs.CovarianceMatrix)
        assert_allclose(back.mat, m.mat, atol=1e-15)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "in.cm"
        path.write_text(
            "# vacuum\nmodes 1\n\nmatrix\n0 -1  # row one\n1 0\n"
        )
        cm = io.load_cm(path)
        assert_allclose(cm.mat, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_non_antisymmetric_rejected(self, tmp_path):
        path = tmp_path / "bad.cm"
        path.write_text("modes 1\nmatrix\n0 1\n-0.9 0\n")
        with pytest.raises(ParseError):
            io.load_cm(path)

    @pytest.mark.parametrize(
        "bare, error",
        [
            (np.zeros((3, 3)), DimensionMismatchError),
            (np.array([[0.0, 1.0], [1.0, 0.0]]), NotAntisymmetricError),
            (np.array([[0.0, np.nan], [-np.nan, 0.0]]), NotAntisymmetricError),
        ],
        ids=["odd", "symmetric", "nan"],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, bare, error):
        path = tmp_path / "bad.cm"
        with pytest.raises(error):
            io.save_cm(path, bare)
        assert not path.exists()

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.cm"
        path.write_text("modes 1\n")
        with pytest.raises(ParseError):
            io.load_cm(path)

    def test_short_matrix(self, tmp_path):
        path = tmp_path / "bad.cm"
        path.write_text("modes 2\nmatrix\n0 0 0 0\n")
        with pytest.raises(ParseError):
            io.load_cm(path)


class TestChannelFormat:
    def test_roundtrip(self, tmp_path):
        ch = channels.pure_loss(0.4)
        path = tmp_path / "loss.ch"
        io.save_channel(path, ch)
        back = io.load_channel(path)
        assert_allclose(back.x_mat, ch.x_mat, atol=1e-15)
        assert_allclose(back.n_mat.mat, ch.n_mat.mat, atol=1e-15)


CM_BODY = "matrix\n0 1\n-1 0\n"
CHANNEL_COUNTS = "n_in 1\nn_out 1\n"


class TestReaderRefusals:
    """The reader's refusals on each format they apply to, with their messages;
    TestBadInputsExit3 covers counts below 1, non-integer counts, non-finite
    entries and a split that does not fit."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("modes 1\nfoo 3\n" + CM_BODY, "line 2: unknown field 'foo'"),
            (CM_BODY, "line 1: 'matrix' before 'modes'"),
            ("modes 1 1\n" + CM_BODY, "line 1: 'modes' takes one integer"),
            ("modes 1\nsplit 1\n" + CM_BODY, "line 2: 'split' takes two integers"),
            ("modes 1\nmatrix\n0 1\n", "unexpected end of file inside matrix"),
            ("modes 1\nmatrix\n0 x\n-1 0\n", "line 3: could not convert string to float: 'x'"),
            ("modes 1\nmatrix\n0 1 2\n-1 0\n", "line 3: expected 2 entries in matrix, got 3"),
            ("modes 1\n", "file must declare 'modes' and 'matrix'"),
            ("modes 1\nmatrix\n0 1\n-0.9 0\n", "matrix is not antisymmetric: symmetric residue"),
        ],
    )
    def test_cm_file(self, tmp_path, text, message):
        path = tmp_path / "bad.cm"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            io.load_cm_raw(path)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_in 1\nmodes 1\n", "line 2: unknown field 'modes'"),
            ("x_matrix\n1 0\n0 1\n", "line 1: 'x_matrix' before 'n_in'"),
            ("n_out 1\nx_matrix\n1 0\n0 1\n", "line 2: 'x_matrix' before 'n_in'"),
            ("n_in 1\nx_matrix\n1 0\n0 1\n", "line 2: 'x_matrix' before 'n_out'"),
            ("n_in 1\nn_matrix\n0 0\n0 0\n", "line 2: 'n_matrix' before 'n_out'"),
            ("n_in 1 2\nn_out 1\n", "line 1: 'n_in' takes one integer"),
            (CHANNEL_COUNTS + "x_matrix\n1 0\n", "unexpected end of file inside x_matrix"),
            (CHANNEL_COUNTS + "x_matrix\n1 y\n0 1\n", "line 4: could not convert string to float: 'y'"),
            (CHANNEL_COUNTS + "x_matrix\n1\n0 1\n", "line 4: expected 2 entries in x_matrix, got 1"),
            (CHANNEL_COUNTS + "n_matrix\n0 inf\n-1 0\n", "line 4: non-finite entry in n_matrix"),
            (CHANNEL_COUNTS + "x_matrix\n1 0\n0 1\n", "file must declare 'x_matrix' and 'n_matrix'"),
            (
                CHANNEL_COUNTS + "x_matrix\n1 0\n0 1\nn_matrix\n0 1\n0 0\n",
                "n_matrix is not antisymmetric: symmetric residue",
            ),
        ],
    )
    def test_channel_file(self, tmp_path, text, message):
        path = tmp_path / "bad.ch"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            io.load_channel(path)
        assert str(err.value).startswith(message)

    def test_written_files_read_back_byte_for_byte(self, tmp_path):
        cm, ch = tmp_path / "family.cm", tmp_path / "loss.ch"
        io.save_cm(cm, family_cm(2, 2))
        io.save_channel(ch, channels.pure_loss(0.4))
        assert cm.read_text() == (
            "modes 2\nsplit 1 1\nmatrix\n0.0 0.5 0.0 0.5\n-0.5 0.0 0.5 0.0\n"
            "0.0 -0.5 0.0 0.5\n-0.5 0.0 -0.5 0.0\n"
        )
        io.save_cm(tmp_path / "again.cm", io.load_cm(cm))
        io.save_channel(tmp_path / "again.ch", io.load_channel(ch))
        assert (tmp_path / "again.cm").read_text() == cm.read_text()
        assert (tmp_path / "again.ch").read_text() == ch.read_text()


def run_cli(*argv):
    return cli.main(list(argv))


class TestCheckCm(object):
    def test_family_file(self, family_file, capsys):
        code = run_cli("check-cm", family_file)
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["valid"] is True
        assert out["pure"] is False
        root_half = math.sqrt(0.5)
        assert_allclose(
            out["spectrum"], [-root_half, -root_half, root_half, root_half], atol=1e-9
        )

    def test_pure_flag_on_vacuum(self, tmp_path, capsys):
        path = tmp_path / "vac.cm"
        io.save_cm(path, fgs.vacuum_cm(1))
        assert run_cli("check-cm", str(path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pure"] is True
        assert_allclose(out["lambdas"], [-1.0])

    def test_invalid_cm_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cm"
        path.write_text("modes 1\nmatrix\n0 -1.2\n1.2 0\n")
        assert run_cli("check-cm", str(path)) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False

    @pytest.mark.parametrize("lam, valid, code", [("1.0000000005", True, 0), ("1.000000002", False, 2)])
    def test_either_side_of_the_floor(self, tmp_path, capsys, lam, valid, code):
        # min eig of I + iM at -eps_psd / 2 and at -2 eps_psd
        path = tmp_path / "edge.cm"
        path.write_text(f"modes 1\nmatrix\n0 {lam}\n-{lam} 0\n")
        assert run_cli("check-cm", str(path)) == code
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is valid
        assert out["min_eig_I_plus_iM"] == pytest.approx(1.0 - float(lam), abs=1e-15)

    def test_valid_is_the_verdict_of_validate_cm(self, tmp_path, capsys, monkeypatch):
        # a floor that Cholesky proves decides, whatever eigvalsh reports
        path = tmp_path / "edge.cm"
        path.write_text("modes 1\nmatrix\n0 1.000000002\n-1.000000002 0\n")
        monkeypatch.setattr(matalg, "certified_floor", lambda h, shift: True)
        assert run_cli("check-cm", str(path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True and out["min_eig_I_plus_iM"] < -1e-9

    def test_pure_at_the_configured_eps_psd(self, tmp_path, capsys):
        path = tmp_path / "near.cm"
        io.save_cm(path, fgs.single_mode_cm(1.0 - 1e-7))
        for argv, pure in (((), False), (("--eps-psd", "1e-6"), True)):
            assert run_cli(*argv, "check-cm", str(path)) == 0
            assert json.loads(capsys.readouterr().out)["pure"] is pure

    def test_parse_error_exit_3(self, tmp_path):
        path = tmp_path / "bad.cm"
        path.write_text("modes 1\nmatrix\n0 1\n-0.9 0\n")
        assert run_cli("check-cm", str(path)) == 3

    def test_table_format(self, family_file, capsys):
        assert run_cli("--format", "table", "check-cm", family_file) == 0
        text = capsys.readouterr().out
        assert "valid" in text and "True" in text


class TestExtendible:
    def test_family_feasible_exit_0(self, family_file, capsys):
        code = run_cli("extendible", family_file, "2", "2")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["status"] == "feasible"
        assert out["margin"] >= -1e-7

    def test_hierarchy_exit_1(self, family_file, capsys):
        code = run_cli("extendible", family_file, "3", "2")
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["status"] in ("infeasible-numerical", "infeasible-certified")

    def test_epsilon_family_certificate(self, tmp_path, capsys):
        path = tmp_path / "eps.cm"
        io.save_cm(path, epsilon_family(0.1))
        code = run_cli("extendible", str(path), "1", "2")
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["status"] == "infeasible-certified"
        assert "column-sum" in out["certificate"]
        assert "1.0025" in out["certificate"]

    def test_emit_extension_and_witness(self, family_file, tmp_path, capsys):
        ext_path = str(tmp_path / "ext.cm")
        wit_prefix = str(tmp_path / "wit")
        code = run_cli(
            "extendible", family_file, "2", "2",
            "--emit-extension", ext_path, "--emit-witness", wit_prefix,
        )
        assert code == 0
        ext = io.load_cm(ext_path)
        assert ext.modes == 4
        delta_a = io.load_cm(wit_prefix + ".deltaA.cm")
        assert delta_a.modes == 1
        capsys.readouterr()

    def test_missing_split_is_parse_error(self, tmp_path):
        path = tmp_path / "nosplit.cm"
        io.save_cm(path, fgs.vacuum_cm(2))
        assert run_cli("extendible", str(path), "1", "1") == 3


class TestExtensionReadsBack:
    """Every feasible verdict's emitted extension loads at the default eps_psd."""

    @staticmethod
    def emit(tmp_path, b, k1, k2):
        path, ext = str(tmp_path / "state.cm"), tmp_path / "ext.cm"
        io.save_cm(path, b)
        code = run_cli("extendible", path, str(k1), str(k2), "--emit-extension", str(ext))
        return code, ext

    @pytest.mark.parametrize("k1, k2", [(k1, k2) for k1 in range(1, 5) for k2 in range(1, 5)])
    def test_family_at_its_own_order(self, tmp_path, capsys, k1, k2):
        code, ext = self.emit(tmp_path, family_cm(k1, k2), k1, k2)
        assert code == 0
        assert io.load_cm(ext).modes == k1 + k2
        capsys.readouterr()

    @pytest.mark.parametrize("n_a, n_b", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_twirled_instances(self, tmp_path, capsys, n_a, n_b):
        rng = np.random.default_rng(10 * n_a + n_b)
        for k1 in range(1, 4):
            for k2 in range(1, 4):
                b, _ = verify.twirled_extendible_instance(rng, n_a, n_b, k1, k2)
                code, ext = self.emit(tmp_path, b, k1, k2)
                assert code == 0, (k1, k2)
                assert io.load_cm(ext).modes == k1 * n_a + k2 * n_b
        capsys.readouterr()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_zero_marginal_side_eliminated(self, tmp_path, capsys, k):
        # family_cm(k, 1) at (q, 1) and its swapped copy at (1, q) solve the
        # same reduced constraint, so they print the same margin
        b = family_cm(k, 1)
        swapped = copies(b, np.random.default_rng(k))[1]
        for q in range(1, k + 1):
            margins = []
            for state, k1, k2 in ((b, q, 1), (swapped, 1, q)):
                code, ext = self.emit(tmp_path, state, k1, k2)
                assert code == 0
                margins.append(json.loads(capsys.readouterr().out)["margin"])
                assert run_cli("check-cm", str(ext)) == 0
                assert json.loads(capsys.readouterr().out)["valid"] is True
            assert margins[0] == margins[1]

    @pytest.mark.parametrize("scale", [1.0 + 1e-8, 1.0 + 5e-9])
    def test_band_reproducer_stalls_and_writes_nothing(self, tmp_path, capsys, scale):
        # margins -1e-8 and -5e-9 fall between -eps_feas and -eps_psd
        code, ext = self.emit(tmp_path, family22_x_scaled(scale), 2, 2)
        assert code == 4
        assert not ext.exists()
        assert capsys.readouterr().err.startswith("solver stalled: factorization broke down")


class TestTooLargeExit5:
    def test_refused_solver_size(self, tmp_path, capsys):
        path = str(tmp_path / "big.cm")
        io.save_cm(path, family22_direct_sum(40, np.random.default_rng(40)))
        assert run_cli("extendible", path, "3", "3") == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("too large: 6320 variables on blocks of size up to 160")


class TestBoundsCmd:
    def test_plain(self, capsys):
        code = run_cli("bounds", "2", "2", "--na", "1", "--nb", "1")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["T"] == pytest.approx(1.0)
        assert out["er_upper"] == pytest.approx(2.0)
        assert out["esq_upper"] == pytest.approx(1.0)

    def test_clamp(self, capsys):
        run_cli("bounds", "1", "1")
        out = json.loads(capsys.readouterr().out)
        assert out["T"] == 2.0

    def test_table_prints_a_dash_for_none(self, capsys):
        # without --cm there is no trace_lower
        assert run_cli("--format", "table", "bounds", "2", "2") == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(), row.split()))
        assert cells["trace_lower"] == "-"

    def test_with_cm(self, family_file, capsys):
        code = run_cli("bounds", "2", "2", "--cm", family_file)
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["trace_upper_cm"] == pytest.approx(1.0)
        assert out["trace_lower"] == pytest.approx(0.5, abs=1e-8)

    def test_with_cm_at_two_plus_one(self, tmp_path, random_bipartite_factory, capsys):
        # trace_lower is ||X||_op at every split, not only on 1 + 1
        b = random_bipartite_factory(2, 1)
        path = tmp_path / "state21.cm"
        io.save_cm(path, b)
        assert run_cli("bounds", "2", "2", "--cm", str(path)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["trace_lower"] == pytest.approx(np.linalg.norm(b.block_x, 2), abs=1e-12)

    @pytest.mark.parametrize("flags", [("--na", "3"), ("--nb", "5"), ("--na", "3", "--nb", "5")])
    def test_mode_counts_refused_beside_cm(self, family_file, capsys, flags):
        # the file sets the mode counts; these flags used to be dropped without a word
        assert run_cli("bounds", "2", "2", "--cm", family_file, *flags) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("parse error: --na and --nb cannot be given with --cm")

    def test_zero_modes_reach_the_bounds_refusal(self, capsys):
        assert run_cli("bounds", "2", "2", "--na", "0") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mode counts and extension orders must be positive integers\n"


class TestFamilyCmd:
    def test_single(self, capsys):
        code = run_cli("family", "3", "3")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["trace_lower"] == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert out["trace_upper_cm"] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_sweep_deterministic(self, capsys):
        run_cli("family", "1", "1", "--k1-max", "2", "--k2-max", "2")
        first = capsys.readouterr().out
        run_cli("family", "1", "1", "--k1-max", "2", "--k2-max", "2")
        second = capsys.readouterr().out
        assert first == second
        rows = json.loads(first)
        assert len(rows) == 4

    def test_emit(self, tmp_path, capsys):
        out_path = str(tmp_path / "fam.cm")
        assert run_cli("family", "2", "2", "--emit", out_path) == 0
        capsys.readouterr()
        assert_allclose(io.load_cm(out_path).mat, family_cm(2, 2).mat, atol=1e-15)


class TestChannelCmd:
    @pytest.fixture
    def loss_file(self, tmp_path):
        def make(lam):
            path = tmp_path / f"loss{lam}.ch"
            io.save_channel(path, channels.pure_loss(lam))
            return str(path)

        return make

    def test_antidegradable_sweep(self, loss_file, capsys):
        assert run_cli("channel", loss_file(0.4), "antidegradable") == 0
        capsys.readouterr()
        assert run_cli("channel", loss_file(0.6), "antidegradable") == 1
        capsys.readouterr()

    def test_eb(self, tmp_path, capsys):
        path = tmp_path / "repl.ch"
        io.save_channel(
            path, channels.validate_channel(np.zeros((2, 2)), fgs.vacuum_cm(1).mat)
        )
        assert run_cli("channel", str(path), "eb") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["entanglement_breaking"] is True

    def test_choi(self, loss_file, tmp_path, capsys):
        out_path = str(tmp_path / "choi.cm")
        assert run_cli("channel", loss_file(0.5), "choi", "--out", out_path) == 0
        capsys.readouterr()
        b = io.load_cm(out_path)
        assert (b.n_a, b.n_b) == (1, 1)

    def test_k_ext(self, loss_file, capsys):
        assert run_cli("channel", loss_file(0.5), "k-ext", "--k", "2") == 0
        capsys.readouterr()


class TestEpsPsdFlag:
    """--eps-psd sets the tolerance of every file a command loads."""

    @pytest.fixture
    def near_files(self, tmp_path):
        # 1 + 2e-8 times a valid matrix: rejected at eps_psd = 1e-9, accepted at 1e-6
        scale = 1.0 + 2e-8
        cm = fgs.validate_cm(family_cm(1, 1).mat * scale, eps_psd=1e-6)
        loss = channels.pure_loss(0.4)
        paths = {"cm": str(tmp_path / "near.cm"), "ch": str(tmp_path / "near.ch")}
        io.save_cm(paths["cm"], fgs.BipartiteCM(cm, 1, 1))
        io.save_channel(
            paths["ch"], channels.validate_channel(loss.x_mat * scale, loss.n_mat, eps_psd=1e-6)
        )
        return paths

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-cm", "{cm}"),
            ("extendible", "{cm}", "1", "1"),
            ("bounds", "2", "2", "--cm", "{cm}"),
            ("channel", "{ch}", "validate"),
            ("channel", "{ch}", "antidegradable"),
            ("channel", "{ch}", "choi"),
            ("channel", "{ch}", "k-ext"),
        ],
    )
    def test_loose_flag_reaches_loader(self, near_files, capsys, argv):
        argv = [arg.format(**near_files) for arg in argv]
        assert run_cli(*argv) == 2
        capsys.readouterr()
        assert run_cli("--eps-psd", "1e-6", *argv) == 0
        assert "not physical" not in capsys.readouterr().out

    @pytest.mark.parametrize("action", ["antidegradable", "k-ext"])
    def test_cp_boundary_channel_stalls_on_both_routes(self, tmp_path, capsys, action):
        # CP margin -1e-7: accepted at eps_psd 1e-6, but the optimum lies in
        # the ambiguous band, whichever command decides the same fact
        loss = channels.pure_loss(0.4)
        path = str(tmp_path / "edge.ch")
        io.save_channel(
            path, channels.validate_channel(loss.x_mat * (1 + 1.25e-7), loss.n_mat, eps_psd=1e-6)
        )
        assert run_cli("--eps-psd", "1e-6", "channel", path, action) == 4
        assert capsys.readouterr().err.startswith("solver stalled: converged margin -1.000e-07")

    def test_trace_upper_cm_clamped_at_two(self, near_files, capsys):
        # ||X||_1 of the loose file is 2 (1 + 2e-8), above any trace distance
        assert run_cli("--eps-psd", "1e-6", "bounds", "2", "2", "--cm", near_files["cm"]) == 0
        assert json.loads(capsys.readouterr().out)["trace_upper_cm"] == 2.0


class TestOracleVerifyCmd:
    @pytest.mark.parametrize("suite", ["roundtrip", "wick", "sandwich"])
    def test_suites_pass(self, suite, capsys):
        code = run_cli("oracle-verify", suite, "--n-max", "3", "--trials", "20")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["passed"] is True

    def test_extension_suite(self, capsys):
        code = run_cli("oracle-verify", "extension", "--trials", "6")
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["passed"] is True

    def test_deterministic_given_seed(self, capsys):
        run_cli("--seed", "7", "oracle-verify", "roundtrip", "--trials", "10")
        first = capsys.readouterr().out
        run_cli("--seed", "7", "oracle-verify", "roundtrip", "--trials", "10")
        assert capsys.readouterr().out == first

    def test_suite_choices_are_the_suite_table(self):
        commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in commands.choices["oracle-verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == tuple(verify._SUITES)

    def test_refused_state_exits_2(self, monkeypatch, capsys):
        # a canonical value of 1.2 builds a unit-trace Hermitian ρ with a negative
        # eigenvalue; its refusal is "not physical", not a traceback read as infeasible
        build = oracle._state_blocks

        def unphysical(rotation, lambdas, n):
            lambdas = np.array(lambdas, dtype=float)
            lambdas[-1] = 1.2
            return build(rotation, lambdas, n)

        monkeypatch.setattr(oracle, "_state_blocks", unphysical)
        assert run_cli("oracle-verify", "roundtrip", "--trials", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("not physical: negative eigenvalue")


class TestBadInputsExit3:
    """Malformed files and out-of-range values: exit 3, one stderr line, no traceback."""

    @staticmethod
    def assert_parse_error(capsys, *argv, prefix="parse error: "):
        assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix)
        return lines[0]

    def test_non_integer_modes(self, tmp_path, capsys):
        path = tmp_path / "bad.cm"
        path.write_text("modes abc\nmatrix\n0 -1\n1 0\n")
        err = self.assert_parse_error(capsys, "check-cm", str(path))
        assert "'modes' takes one integer" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_modes_below_one(self, tmp_path, capsys, count):
        path = tmp_path / "bad.cm"
        path.write_text(f"modes {count}\nmatrix\n")
        err = self.assert_parse_error(capsys, "check-cm", str(path))
        assert err == f"parse error: line 1: 'modes' must be at least 1, got {count}"

    @pytest.mark.parametrize("key, line", [("n_in", 1), ("n_out", 2)])
    def test_channel_mode_count_below_one(self, tmp_path, capsys, key, line):
        counts = {"n_in": 1, "n_out": 1, key: 0}
        path = tmp_path / "bad.ch"
        path.write_text(f"n_in {counts['n_in']}\nn_out {counts['n_out']}\nx_matrix\nn_matrix\n0 1\n-1 0\n")
        err = self.assert_parse_error(capsys, "channel", str(path), "validate")
        assert err == f"parse error: line {line}: '{key}' must be at least 1, got 0"

    @pytest.mark.parametrize("header", ["n_in\n", "n_in x\n"])
    def test_malformed_channel_header(self, tmp_path, capsys, header):
        path = tmp_path / "bad.ch"
        path.write_text(header + "n_out 1\nx_matrix\n1 0\n0 1\nn_matrix\n0 0\n0 0\n")
        err = self.assert_parse_error(capsys, "channel", str(path), "validate")
        assert "'n_in' takes one integer" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("kind", ["cm", "channel"])
    def test_non_finite_entry(self, tmp_path, capsys, kind, value):
        if kind == "cm":
            path = tmp_path / "bad.cm"
            path.write_text(f"modes 1\nmatrix\n0 {value}\n-1 0\n")
            argv = ("check-cm", str(path))
        else:
            path = tmp_path / "bad.ch"
            path.write_text(f"n_in 1\nn_out 1\nx_matrix\n{value} 0\n0 1\nn_matrix\n0 0\n0 0\n")
            argv = ("channel", str(path), "validate")
        assert "non-finite entry" in self.assert_parse_error(capsys, *argv)

    @pytest.mark.filterwarnings("error")
    def test_huge_symmetric_matrix(self, tmp_path, capsys):
        # both Frobenius norms of a 1e200 matrix overflow unless scaled first
        path = tmp_path / "bad.cm"
        path.write_text("modes 1\nmatrix\n0 1e200\n1e200 0\n")
        assert "matrix is not antisymmetric" in self.assert_parse_error(capsys, "check-cm", str(path))

    def test_family_empty_range(self, capsys):
        self.assert_parse_error(capsys, "family", "3", "3", "--k1-max", "2")

    @pytest.mark.parametrize("split", ["5 7", "0 2"])
    @pytest.mark.parametrize("command", [("check-cm",), ("extendible", "1", "1")])
    def test_split_that_does_not_fit_the_modes(self, tmp_path, capsys, split, command):
        path = tmp_path / "bad.cm"
        path.write_text(f"modes 2\nsplit {split}\nmatrix\n" + "0 0 0 0\n" * 4)
        err = self.assert_parse_error(capsys, command[0], str(path), *command[1:])
        assert f"split {split} is not two positive counts adding up to 2 modes" in err

    def test_family_emit_needs_one_tuple(self, tmp_path, capsys):
        err = self.assert_parse_error(capsys, "family", "1", "1", "--k1-max", "2", "--emit", str(tmp_path / "x.cm"))
        assert "--emit requires a single (k1, k2) tuple" in err
        assert not (tmp_path / "x.cm").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "2", "2", "--cm", ""),
            ("family", "2", "2", "--emit", ""),
            ("extendible", "{family}", "2", "2", "--emit-extension", ""),
            ("channel", "{loss}", "choi", "--out", ""),
        ],
        ids=["bounds-cm", "family-emit", "extendible-emit-extension", "channel-out"],
    )
    def test_empty_path_reaches_the_file_layer(self, tmp_path, capsys, family_file, argv):
        # an empty path is a path, not an absent flag: opening it fails
        loss = tmp_path / "loss.ch"
        io.save_channel(loss, channels.pure_loss(0.4))
        argv = [arg.format(family=family_file, loss=loss) for arg in argv]
        self.assert_parse_error(capsys, *argv, prefix="io error: ")

    def test_empty_witness_prefix(self, tmp_path, capsys, family_file, monkeypatch):
        # an empty prefix would name the hidden files .deltaA.cm and .deltaB.cm
        monkeypatch.chdir(tmp_path)
        err = self.assert_parse_error(capsys, "extendible", family_file, "2", "2", "--emit-witness", "")
        assert "--emit-witness" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["family22.cm"]

    @pytest.mark.parametrize("flag", ["--n-max", "--trials"])
    def test_oracle_verify_below_one(self, capsys, flag):
        # zero trials would report an empty suite as passed; run_suite refuses it
        assert run_cli("oracle-verify", "roundtrip", flag, "0") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert flag[2:].replace("-", "_") in lines[0]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps-psd", "-1"),
            ("--max-iters", "0"),
            ("--eps-psd", "nan"),
            ("--eps-feas", "inf"),
            ("--seed", "-1"),
        ],
    )
    def test_invalid_run_config(self, capsys, family_file, flag, value):
        self.assert_parse_error(capsys, flag, value, "check-cm", family_file)


class TestOtherErrorsExit3:
    def test_family_below_one(self, capsys):
        assert run_cli("family", "0", "1") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: family parameters must be positive integers")

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli("check-cm", str(tmp_path / "absent.cm")) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("io error: ")


def test_run_config_accepts_numpy_scalars():
    config = RunConfig(eps_psd=np.float64(1e-6), eps_feas=np.float32(1e-5), max_iters=np.int64(5))
    assert (config.eps_psd, config.eps_feas, config.max_iters) == (1e-6, np.float32(1e-5), 5)


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(InvalidParameterError, match="unknown suite 'nope'"):
        verify.run_suite("nope")


@pytest.mark.parametrize(
    "kwargs", [{"trials": -1}, {"trials": 0}, {"n_max": 0}, {"n_max": 2.0}, {"seed": -1}, {"seed": True}]
)
def test_run_suite_refuses_bad_counts(kwargs):
    # trials=-1 used to report a passed suite that ran nothing
    with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
        verify.run_suite("wick", **kwargs)


@pytest.mark.parametrize(
    "suite, module, name, fake",
    [
        ("roundtrip", oracle, "cm_from_state", lambda state: SimpleNamespace(mat=np.full((2 * state.n,) * 2, math.nan))),
        ("wick", oracle, "wick_check", lambda state, cm, idx: (math.nan, 0.0)),
        ("sandwich", oracle, "trace_distance", lambda a, b: math.nan),
        ("extension", matalg, "hermitian_spectrum", lambda k: np.array([math.nan])),
    ],
    ids=["roundtrip", "wick", "sandwich", "extension"],
)
def test_nan_residual_fails_the_suite(monkeypatch, capsys, suite, module, name, fake):
    # Python's max(worst, nan) keeps worst, which reported these suites as passed
    monkeypatch.setattr(module, name, fake)
    report = verify.run_suite(suite, n_max=2, trials=3)
    assert report.passed is False and math.isnan(report.max_residual)
    assert run_cli("oracle-verify", suite, "--n-max", "2", "--trials", "3") == 1
    # strict JSON: NaN is written as null, never as the bare token NaN
    printed = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert printed["passed"] is False and printed["max_residual"] is None


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("counts", [(1, 1, 1, 0), (1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 2.0, 1)])
def test_twirled_instance_refuses_bad_counts(counts):
    with pytest.raises(InvalidParameterError):
        verify.twirled_extendible_instance(np.random.default_rng(0), *counts)


def test_fgext_config_is_ignored(tmp_path, monkeypatch, capsys, family_file):
    # settings come from the global flags alone; no file named in the environment changes them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_format": "table", "eps_psd": 0.5, "seed": 3}))
    outputs = []
    for value in (None, str(cfg), str(tmp_path / "absent.json")):
        if value is not None:
            monkeypatch.setenv("FGEXT_CONFIG", value)
        for argv in (("check-cm", family_file), ("oracle-verify", "roundtrip", "--trials", "3")):
            assert run_cli(*argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
    assert outputs[2:4] == outputs[:2] and outputs[4:] == outputs[:2]
    json.loads(outputs[0])
