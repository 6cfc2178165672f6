"""Text formats for covariance matrices and channels.

Covariance-matrix files:

    modes 2
    split 1 1          # optional
    matrix
    0.0 0.5 0.0 0.5
    -0.5 0.0 0.5 0.0
    0.0 -0.5 0.0 0.5
    -0.5 0.0 -0.5 0.0

Channel files:

    n_in 1
    n_out 1
    x_matrix
    <2 n_out rows of 2 n_in decimals>
    n_matrix
    <2 n_out rows of 2 n_out decimals>

Blank lines and '#' comments are ignored. Matrices must be antisymmetric
to the standard tolerance; validation happens on load.
"""

import numpy as np

from . import matalg
from .channels import GaussianChannel, validate_channel
from .errors import NotAntisymmetricError, ParseError
from .fgs import BipartiteCM, validate_cm

__all__ = ["load_cm", "load_cm_raw", "save_cm", "load_channel", "save_channel"]


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_rows(lines, count, width, what):
    rows = []
    for _ in range(count):
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise ParseError(f"unexpected end of file inside {what}") from None
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if len(row) != width:
            raise ParseError(
                f"line {lineno}: expected {width} entries in {what}, got {len(row)}"
            )
        rows.append(row)
    return np.array(rows)


def _header_ints(lineno, key, rest, count):
    """The `count` integer values of a header line, or ParseError."""
    if len(rest) == count:
        try:
            return [int(tok) for tok in rest]
        except ValueError:
            pass
    words = {1: "one integer", 2: "two integers"}[count]
    raise ParseError(f"line {lineno}: '{key}' takes {words}")


def load_cm_raw(path):
    """Parse a covariance-matrix file without the physicality check.

    Returns (AntisymmetricMatrix, split-or-None); antisymmetry itself is
    still required (a violation is a malformed file).
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = _tokenize(text)
    modes = None
    split = None
    matrix = None
    for lineno, line in lines:
        key, *rest = line.split()
        if key == "modes":
            (modes,) = _header_ints(lineno, key, rest, 1)
        elif key == "split":
            split = tuple(_header_ints(lineno, key, rest, 2))
        elif key == "matrix":
            if modes is None:
                raise ParseError(f"line {lineno}: 'matrix' before 'modes'")
            matrix = _parse_rows(lines, 2 * modes, 2 * modes, "matrix")
        else:
            raise ParseError(f"line {lineno}: unknown field {key!r}")
    if modes is None or matrix is None:
        raise ParseError("file must declare 'modes' and 'matrix'")
    try:
        body = matalg.antisymmetrize(matrix)
    except NotAntisymmetricError as exc:
        raise ParseError(f"matrix is not antisymmetric: {exc}") from exc
    return body, split


def load_cm(path):
    """Read a covariance-matrix file.

    Returns a BipartiteCM when the file declares a split, else a
    CovarianceMatrix. Raises NotBonaFideError for unphysical matrices.
    """
    body, split = load_cm_raw(path)
    cm = validate_cm(body)
    if split is not None:
        return BipartiteCM(cm, *split)
    return cm


def _format_matrix(mat):
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in mat)


def save_cm(path, cm):
    """Write a CovarianceMatrix, a BipartiteCM or a bare matrix in the text format."""
    mat = np.asarray(getattr(cm, "mat", cm))
    header = f"modes {mat.shape[0] // 2}\n"
    if isinstance(cm, BipartiteCM):
        header += f"split {cm.n_a} {cm.n_b}\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "matrix\n" + _format_matrix(mat) + "\n")


def load_channel(path) -> GaussianChannel:
    """Read a channel file; validity (complete positivity) is checked."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = _tokenize(text)
    n_in = n_out = None
    x_mat = n_mat = None
    for lineno, line in lines:
        key, *rest = line.split()
        if key == "n_in":
            (n_in,) = _header_ints(lineno, key, rest, 1)
        elif key == "n_out":
            (n_out,) = _header_ints(lineno, key, rest, 1)
        elif key == "x_matrix":
            if n_in is None or n_out is None:
                raise ParseError(f"line {lineno}: 'x_matrix' before mode counts")
            x_mat = _parse_rows(lines, 2 * n_out, 2 * n_in, "x_matrix")
        elif key == "n_matrix":
            if n_out is None:
                raise ParseError(f"line {lineno}: 'n_matrix' before 'n_out'")
            n_mat = _parse_rows(lines, 2 * n_out, 2 * n_out, "n_matrix")
        else:
            raise ParseError(f"line {lineno}: unknown field {key!r}")
    if x_mat is None or n_mat is None:
        raise ParseError("file must declare 'x_matrix' and 'n_matrix'")
    try:
        n_anti = matalg.antisymmetrize(n_mat)
    except NotAntisymmetricError as exc:
        raise ParseError(f"n_matrix is not antisymmetric: {exc}") from exc
    return validate_channel(x_mat, n_anti)


def save_channel(path, ch: GaussianChannel):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"n_in {ch.n_in}\nn_out {ch.n_out}\nx_matrix\n"
            + _format_matrix(ch.x_mat)
            + "\nn_matrix\n"
            + _format_matrix(ch.n_mat.mat)
            + "\n"
        )
