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

Each format is a table of its fields in file order, which one reader and
one writer follow. A header is a line of integers, a mode count one
integer of at least 1. A matrix is its name, then 2 rows lines of 2 cols
finite decimals, rows and cols being counts declared above it; `matrix`
and `n_matrix` must be antisymmetric to the standard tolerance. Blank
lines and '#' comments are ignored; validation happens on load.
"""

import math
from collections import namedtuple
from itertools import islice

import numpy as np

from . import matalg
from .channels import GaussianChannel, validate_channel
from .config import DEFAULT_CONFIG
from .errors import NotAntisymmetricError, ParseError
from .fgs import BipartiteCM, validate_cm

__all__ = ["load_cm", "load_cm_raw", "save_cm", "load_channel", "save_channel"]

# A header takes `ints` integers, each at least `low` if that is given; a
# matrix has `size`, the counts of its row and column modes, and may have
# to be antisymmetric.
_Field = namedtuple("_Field", "ints low size antisymmetric", defaults=(0, None, (), False))

_CM_FIELDS = {
    "modes": _Field(ints=1, low=1),
    "split": _Field(ints=2),
    "matrix": _Field(size=("modes", "modes"), antisymmetric=True),
}

_CHANNEL_FIELDS = {
    "n_in": _Field(ints=1, low=1),
    "n_out": _Field(ints=1, low=1),
    "x_matrix": _Field(size=("n_out", "n_in")),
    "n_matrix": _Field(size=("n_out", "n_out"), antisymmetric=True),
}


def _parse_rows(lines, count, width, what):
    rows = []
    for lineno, line in islice(lines, count):
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if len(row) != width:
            raise ParseError(f"line {lineno}: expected {width} entries in {what}, got {len(row)}")
        if not all(map(math.isfinite, row)):
            raise ParseError(f"line {lineno}: non-finite entry in {what}")
        rows.append(row)
    if len(rows) < count:
        raise ParseError(f"unexpected end of file inside {what}")
    return np.array(rows)


def _read(path, fields, required):
    """The values of a file laid out by `fields`, by name: an int or a tuple
    per header, an array or (if marked) AntisymmetricMatrix per matrix."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    lines = ((lineno, line) for lineno, line in enumerate(stripped, start=1) if line)
    values = {}
    for lineno, line in lines:
        key, *rest = line.split()
        if key not in fields:
            raise ParseError(f"line {lineno}: unknown field {key!r}")
        field = fields[key]
        if field.size:
            for count in fields:
                if count in field.size and count not in values:
                    raise ParseError(f"line {lineno}: '{key}' before '{count}'")
            rows, cols = (2 * values[name] for name in field.size)
            values[key] = _parse_rows(lines, rows, cols, key)
            continue
        try:
            ints = [int(tok) for tok in rest]
        except ValueError:
            ints = []
        if len(ints) != field.ints:
            words = {1: "one integer", 2: "two integers"}[field.ints]
            raise ParseError(f"line {lineno}: '{key}' takes {words}")
        if field.low is not None and min(ints) < field.low:
            raise ParseError(f"line {lineno}: '{key}' must be at least {field.low}, got {min(ints)}")
        values[key] = ints[0] if field.ints == 1 else tuple(ints)
    if not all(key in values for key in required):
        raise ParseError("file must declare " + " and ".join(map(repr, required)))
    for key, field in fields.items():
        if field.antisymmetric:
            try:
                values[key] = matalg.antisymmetrize(values[key])
            except NotAntisymmetricError as exc:
                raise ParseError(f"{key} is not antisymmetric: {exc}") from exc
    return values


def _write(path, fields, values):
    """Write `values` by name in the layout of `fields`, leaving out None."""
    lines = []
    for key, field in fields.items():
        value = values[key]
        if value is None:
            continue
        if field.size:
            lines.append(key)
            lines.extend(" ".join(repr(float(v)) for v in row) for row in value)
        else:
            lines.append(" ".join([key, *map(str, value if field.ints > 1 else [value])]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def load_cm_raw(path):
    """Parse a covariance-matrix file without the physicality check.

    Returns (AntisymmetricMatrix, split-or-None); antisymmetry itself is
    still required (a violation is a malformed file).
    """
    values = _read(path, _CM_FIELDS, ("modes", "matrix"))
    modes, split = values["modes"], values.get("split")
    if split is not None and (min(split) < 1 or sum(split) != modes):
        raise ParseError(f"split {split[0]} {split[1]} is not two positive counts adding up to {modes} modes")
    return values["matrix"], split


def load_cm(path, eps_psd: float = DEFAULT_CONFIG.eps_psd):
    """Read a covariance-matrix file.

    Returns a BipartiteCM when the file declares a split, else a
    CovarianceMatrix. Raises NotBonaFideError for matrices that
    validate_cm rejects at eps_psd.
    """
    body, split = load_cm_raw(path)
    cm = validate_cm(body, eps_psd)
    if split is not None:
        return BipartiteCM(cm, *split)
    return cm


def save_cm(path, cm):
    """Write a CovarianceMatrix, a BipartiteCM, an AntisymmetricMatrix or a bare
    matrix that passes the AntisymmetricMatrix check, in the text format."""
    mat = cm.mat if hasattr(cm, "mat") else matalg.AntisymmetricMatrix(cm).mat
    split = (cm.n_a, cm.n_b) if isinstance(cm, BipartiteCM) else None
    _write(path, _CM_FIELDS, {"modes": mat.shape[0] // 2, "split": split, "matrix": mat})


def load_channel(path, eps_psd: float = DEFAULT_CONFIG.eps_psd) -> GaussianChannel:
    """Read a channel file; complete positivity is checked at eps_psd."""
    values = _read(path, _CHANNEL_FIELDS, ("x_matrix", "n_matrix"))
    return validate_channel(values["x_matrix"], values["n_matrix"], eps_psd)


def save_channel(path, ch: GaussianChannel):
    values = {"n_in": ch.n_in, "n_out": ch.n_out, "x_matrix": ch.x_mat, "n_matrix": ch.n_mat.mat}
    _write(path, _CHANNEL_FIELDS, values)
