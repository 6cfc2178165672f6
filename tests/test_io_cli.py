import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fgext import channels, cli, fgs, io
from fgext.bounds import epsilon_family, family_cm
from fgext.errors import ParseError


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

    def test_with_cm(self, family_file, capsys):
        code = run_cli("bounds", "2", "2", "--cm", family_file)
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["trace_upper_cm"] == pytest.approx(1.0)
        assert out["trace_lower"] == pytest.approx(0.5, abs=1e-8)


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


class TestBadInputsExit3:
    """Malformed files and out-of-range values: exit 3, one stderr line, no traceback."""

    @staticmethod
    def assert_parse_error(capsys, *argv):
        assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("parse error: ")
        return lines[0]

    def test_non_integer_modes(self, tmp_path, capsys):
        path = tmp_path / "bad.cm"
        path.write_text("modes abc\nmatrix\n0 -1\n1 0\n")
        err = self.assert_parse_error(capsys, "check-cm", str(path))
        assert "'modes' takes one integer" in err

    @pytest.mark.parametrize("header", ["n_in\n", "n_in x\n"])
    def test_malformed_channel_header(self, tmp_path, capsys, header):
        path = tmp_path / "bad.ch"
        path.write_text(header + "n_out 1\nx_matrix\n1 0\n0 1\nn_matrix\n0 0\n0 0\n")
        err = self.assert_parse_error(capsys, "channel", str(path), "validate")
        assert "'n_in' takes one integer" in err

    def test_family_empty_range(self, capsys):
        self.assert_parse_error(capsys, "family", "3", "3", "--k1-max", "2")

    @pytest.mark.parametrize("flag", ["--n-max", "--trials"])
    def test_oracle_verify_below_one(self, capsys, flag):
        # zero trials would report an empty suite as passed
        self.assert_parse_error(capsys, "oracle-verify", "roundtrip", flag, "0")

    @pytest.mark.parametrize("flag, value", [("--eps-psd", "-1"), ("--max-iters", "0")])
    def test_invalid_run_config(self, capsys, family_file, flag, value):
        self.assert_parse_error(capsys, flag, value, "check-cm", family_file)

    @pytest.mark.parametrize("text", ['{"no_such_key": 1}', "{not json", "[1, 2]"])
    def test_invalid_config_file(self, tmp_path, monkeypatch, capsys, family_file, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        monkeypatch.setenv("FGEXT_CONFIG", str(cfg))
        self.assert_parse_error(capsys, "check-cm", family_file)


def test_config_env_override(tmp_path, monkeypatch, capsys, family_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output_format": "table"}))
    monkeypatch.setenv("FGEXT_CONFIG", str(cfg))
    assert run_cli("check-cm", family_file) == 0
    text = capsys.readouterr().out
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)
