"""Correctness checks computed apart from fgext, with plain numpy.

Every check raises CheckFailed on a wrong answer. None compares against
a stored copy of fgext's output: each recomputes the quantity from its
definition or closed form, or tests a property the method must have.
"""

import math

import numpy as np

#: fgext's default witness tolerance (RunConfig.eps_feas).
EPS_FEAS = 1e-7

#: Margin agreement demanded of the solver: its ambiguous band is
#: [-100 eps_feas, -eps_feas), so nothing tighter is promised.
MARGIN_TOL = 100 * EPS_FEAS


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(value, expected, tol, what):
    require(value is not None and abs(value - expected) <= tol,
            f"{what}: got {value!r}, expected {expected!r} within {tol:g}")


def spectrum_i(mat):
    """Eigenvalues of the Hermitian matrix i M, ascending."""
    return np.linalg.eigvalsh(1j * np.asarray(mat))


def binary_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gaussian_entropy(mat):
    """Von Neumann entropy in bits from the spectrum ±ν_j of i M."""
    nus = spectrum_i(mat)
    return sum(binary_entropy((1.0 + nu) / 2.0) for nu in nus[nus.size // 2:])


# -- extendibility -----------------------------------------------------------


def check_feasible(status, margin):
    require(status == "feasible", f"status {status!r}, expected 'feasible'")
    require(margin is not None and margin >= -EPS_FEAS,
            f"feasible margin {margin!r} below -eps_feas")


def check_infeasible(status):
    require(status in ("infeasible-certified", "infeasible-numerical"),
            f"status {status!r}, expected an infeasible verdict")


def check_extension(ext, b_mat, n_a, n_b, k1, k2):
    """Bona fide, and every (A_i, B_j) pair marginal reproduces the input."""
    ext = np.asarray(ext)
    da, db = 2 * n_a, 2 * n_b
    require(ext.shape == (k1 * da + k2 * db,) * 2, f"extension shape {ext.shape}")
    slack = 10.0 * np.finfo(float).eps * ext.shape[0]
    top = float(np.max(np.abs(spectrum_i(ext))))
    require(top <= 1.0 + EPS_FEAS + slack, f"extension spectrum reaches {top!r} > 1")
    off = k1 * da
    for i in range(k1):
        for j in range(k2):
            rows = list(range(i * da, (i + 1) * da)) + list(
                range(off + j * db, off + (j + 1) * db))
            err = float(np.max(np.abs(ext[np.ix_(rows, rows)] - b_mat)))
            require(err <= 1e-12, f"pair marginal (A{i + 1}, B{j + 1}) off by {err:.3e}")


def family_margin(k1, k2, q1, q2):
    """Observed optimum for M(k1, k2) queried at (q1, q2) >= (k1, k2)."""
    return 1.0 - math.sqrt(q1 * q2 / (k1 * k2))


def check_certificate(b_mat, n_a, k1, k2):
    """Recompute the violated necessary condition of a certified refutation."""
    da = 2 * n_a
    m_a, m_b, x = b_mat[:da, :da], b_mat[da:, da:], b_mat[:da, da:]
    top = float(np.linalg.svd(x, compute_uv=False)[0]) ** 2
    violated = top > 4.0 / (k1 * k2)
    if k1 == 1:
        violated |= bool(np.max(np.sum(m_a**2, axis=1) + k2 * np.sum(x**2, axis=1)) > 1.0)
    if k2 == 1:
        violated |= bool(np.max(np.sum(m_b**2, axis=1) + k1 * np.sum(x**2, axis=0)) > 1.0)
    require(violated, "certified refutation, but no necessary condition is violated")


def check_antidegradable_witness(delta, x_mat, n_mat):
    """iΔ <= I and iΔ <= I + 2iN - 2XX^T, tested on the Hermitian matrices."""
    d = n_mat.shape[0]
    low1 = float(np.linalg.eigvalsh(np.eye(d) - 1j * delta)[0])
    low2 = float(np.linalg.eigvalsh(
        np.eye(d) - 2.0 * x_mat @ x_mat.T + 1j * (2.0 * n_mat - delta))[0])
    require(min(low1, low2) >= -EPS_FEAS,
            f"antidegrading witness violates a constraint by {min(low1, low2):.3e}")


# -- dense oracle ------------------------------------------------------------


def check_roundtrip(back, cm):
    err = float(np.max(np.abs(np.asarray(back) - np.asarray(cm))))
    require(err <= 1e-9, f"round-trip residual {err:.3e} > 1e-9")


def check_entropies(result, mat, n_a):
    """(S_A, S_B, S_AB, I_AB) against the Gaussian formula."""
    da = 2 * n_a
    s_a = gaussian_entropy(mat[:da, :da])
    s_b = gaussian_entropy(mat[da:, da:])
    s_ab = gaussian_entropy(mat)
    for got, want, what in zip(result, (s_a, s_b, s_ab, s_a + s_b - s_ab),
                               ("S_A", "S_B", "S_AB", "I_AB")):
        close(got, want, 1e-8, what)


def check_sandwich(dist, m1, m2):
    """||M1 - M2||_op <= ||ρ1 - ρ2||_1 <= ||M1 - M2||_1 / 2."""
    sv = np.linalg.svd(np.asarray(m1) - np.asarray(m2), compute_uv=False)
    require(sv[0] - 1e-9 <= dist <= 0.5 * np.sum(sv) + 1e-9,
            f"trace distance {dist!r} outside [{sv[0]!r}, {0.5 * np.sum(sv)!r}]")


# -- command line ------------------------------------------------------------


def family_spectrum(k1, k2):
    """Spectrum of i M(k1, k2), ascending, from its closed form."""
    a = (k1 - 1.0) * math.sqrt(k2 / k1)
    b = (k2 - 1.0) * math.sqrt(k1 / k2)
    half = 0.5 * (a * a + b * b) + 1.0
    shift = 0.5 * abs(a - b) * math.sqrt((a + b) ** 2 + 4.0)
    r1 = math.sqrt(half + shift)
    r2 = math.sqrt(max(half - shift, 0.0))
    return np.array([-r1, -r2, r2, r1]) / math.sqrt(k1 * k2)


def definetti_t(n_a, n_b, k1, k2):
    root = math.sqrt(k1 * k2)
    return 2.0 * min(n_a, n_b, root) / root


def check_exit(code, expected):
    require(code == expected, f"exit code {code}, expected {expected}")


def check_vector(values, expected, tol, what):
    values = np.asarray(values, dtype=float)
    require(values.shape == np.shape(expected)
            and float(np.max(np.abs(values - expected))) <= tol,
            f"{what}: got {values.tolist()}, expected {np.asarray(expected).tolist()}")


def check_repeat(first, again):
    require(first == again, "repeated call printed different bytes")
