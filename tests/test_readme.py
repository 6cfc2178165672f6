"""README's Python example and command sequence run as documented."""

import ast
import pathlib
import re
import shlex

import pytest

from fgext import channels, cli, io
from fgext.extend import FeasibilityStatus

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

#: (info string, body) of every fenced block, in order.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def block_index(info, first_line_start):
    return next(
        i for i, (tag, body) in enumerate(BLOCKS) if tag == info and body.startswith(first_line_start)
    )


def test_python_example_values():
    code = BLOCKS[block_index("python", "import fgext")][1]
    namespace, values = {}, []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    status, lower, upper, report, antidegradable = values
    assert status is FeasibilityStatus.FEASIBLE
    assert lower == pytest.approx(0.5, abs=1e-12)
    assert upper == pytest.approx(1.0, abs=1e-12)
    assert (report.t, report.er_upper, report.esq_upper) == pytest.approx((1.0, 2.0, 1.0))
    assert antidegradable is True
    assert len(namespace["ext"].mat) == 8


def test_channel_file_is_what_save_channel_writes(tmp_path):
    shown = BLOCKS[block_index("sh", "fgext family") - 1][1]
    io.save_channel(tmp_path / "loss.ch", channels.pure_loss(0.4))
    assert (tmp_path / "loss.ch").read_text(encoding="utf-8") == shown


def test_command_sequence(tmp_path, monkeypatch, capsys):
    index = block_index("sh", "fgext family")
    (tmp_path / "loss.ch").write_text(BLOCKS[index - 1][1], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    codes, outputs = [], []
    for line in BLOCKS[index][1].splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "fgext"
        codes.append(cli.main(argv[1:]))
        outputs.append(capsys.readouterr().out)
    assert codes == [0, 0, 0, 0, 1, 0, 0, 0]
    assert '"status": "infeasible-certified"' in outputs[4] and "column-sum" in outputs[4]
    assert '"status": "feasible"' in outputs[6]
    for name in ("fam22.cm", "ext.cm", "wit.deltaA.cm", "wit.deltaB.cm", "fam12.cm"):
        assert (tmp_path / name).is_file()
