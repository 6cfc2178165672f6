"""Inputs and operation lists of the four workloads.

Each builder returns (ops, warm_up). An op is one call into fgext's
public API (or one CLI process) with a check of its output; a pass runs
the whole list in order, and every pass of a run is identical. Inputs
depend only on the seed, so the same seed gives the same list.
"""

import contextlib
import io as _io
import json
import math
import os
import subprocess
import sys

import numpy as np

import checks
from fgext import bounds, channels, cli, extend, fgs, io, matalg, oracle, verify

#: Seed of decide_hard's random states and rotations. They are fixed
#: because these operations are its slowest and set its tail, and their
#: solve times vary by about 25% from one draw to the next; --seed only
#: orders the pass.
HARD_SEED = 2508

# decide_hard
FAMILY_OWN = ((1, 2), (2, 2), (2, 3), (3, 3), (4, 4), (1, 4), (3, 1))
FAMILY_UP = (((2, 2), (3, 3)), ((3, 3), (4, 4)), ((3, 4), (4, 5)), ((2, 4), (3, 5)),
             ((2, 1), (3, 2)))
#: Five calls of about 300 ms each hold the middle of the pass, so that
#: the median falls inside one class of operations.
LOSS_HARD = (0.6, 0.65, 0.7, 0.85, 0.9)
#: Antidegradable pure loss; most λ <= 1/2 are not settled quickly.
LOSS_INSIDE = (0.03, 0.08, 0.25, 0.35, 0.45)
RANDOM_SPLITS = ((2, 2), (1, 3))

# decide_easy
INTERIOR_SPLITS = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3))
INTERIOR_ORDERS = ((1, 2), (2, 1), (2, 2), (3, 3))
INTERIOR_REPEATS = 4
CERT_FAMILY = tuple(((k, 1), (k + 1, 1)) for k in range(1, 5)) + tuple(
    ((1, k), (2, 1)) for k in range(2, 5))
EPSILON_COUNT = 12
THERMAL_COUNT = 25

# cli_cold: one fixed, quickly settled λ, since this workload measures start-up
LOSS_CLI = 0.25

# oracle_dense
ORACLE_MODES = (6, 7, 8, 9)
#: The operations below 9 modes run this many times per pass, so that their
#: mean time, which sets the median, rests on six calls rather than two.
ORACLE_SMALL_REPEATS = 3


class Op:
    """One timed call: ``run(ctx)`` returns an output that ``check(out, ctx)`` tests.

    ``ctx`` is one dict per run, shared by the ops, so that an op can use
    an earlier op's output of the same pass.
    """

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def _bipartite(mat, n_a, n_b):
    return fgs.BipartiteCM(fgs.validate_cm(matalg.antisymmetrize(mat)), n_a, n_b)


def _special_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _warm_margin(mat, n_a, k1, k2):
    """Margin of the optimizer's first point, Δ = marginals, by plain numpy."""
    da = 2 * n_a
    s = np.array(mat, copy=True)
    s[:da, da:] *= math.sqrt(k1 * k2)
    s[da:, :da] *= math.sqrt(k1 * k2)
    lows = [np.linalg.eigvalsh(np.eye(len(s)) + 1j * s)[0]]
    if k1 > 1:
        lows.append(np.linalg.eigvalsh(np.eye(da) + 1j * mat[:da, :da])[0])
    if k2 > 1:
        lows.append(np.linalg.eigvalsh(np.eye(len(s) - da) + 1j * mat[da:, da:])[0])
    return float(min(lows))


def _surely_not_22(mat, n_a):
    """Not (2, 2)-extendible by the (1, 2) or (2, 1) row bound, yet not refuted at (2, 2)."""
    da = 2 * n_a
    m_a, m_b, x = mat[:da, :da], mat[da:, da:], mat[:da, da:]
    top = float(np.linalg.svd(x, compute_uv=False)[0]) ** 2
    rows = max(np.max(np.sum(m_a**2, axis=1) + 2 * np.sum(x**2, axis=1)),
               np.max(np.sum(m_b**2, axis=1) + 2 * np.sum(x**2, axis=0)))
    return top < 1.0 - 1e-3 and rows > 1.0 + 1e-3


def _draw(rng, make, accept, what):
    for _ in range(1000):
        item = make()
        if accept(item):
            return item
    raise RuntimeError(f"no {what} accepted in 1000 draws")


# -- shared op bodies ----------------------------------------------------------


def _decide_and_extend(query):
    def run(ctx):
        result = extend.feasibility(query)
        ext = extend.build_extension(query, result)
        return result.status.value, result.margin, ext.mat

    def check(out, ctx):
        status, margin, ext = out
        checks.check_feasible(status, margin)
        b = query.b
        checks.check_extension(ext, b.mat, b.n_a, b.n_b, query.k1, query.k2)

    return run, check


def _antidegradable_op(ch, name):
    def run(ctx):
        result = channels.antidegradable(ch)
        return result.status.value, result.margin, result.delta_a.mat

    def check(out, ctx):
        status, margin, delta = out
        checks.check_feasible(status, margin)
        checks.check_antidegradable_witness(delta, ch.x_mat, ch.n_mat.mat)

    return Op(name, run, check)


def _decide(query):
    def run(ctx):
        result = extend.feasibility(query)
        return result.status.value, result.margin

    return run


# -- decide_hard ---------------------------------------------------------------


def build_decide_hard(seed):
    ops = []
    for k1, k2 in FAMILY_OWN:
        run, check = _decide_and_extend(extend.ExtendQuery(bounds.family_cm(k1, k2), k1, k2))
        ops.append(Op(f"family{k1}{k2}@own", run, check))
    for (k1, k2), (q1, q2) in FAMILY_UP:
        def check(out, ctx, k=(k1, k2, q1, q2)):
            status, margin = out
            checks.require(status == "infeasible-numerical", f"status {status!r}")
            checks.close(margin, checks.family_margin(*k), checks.MARGIN_TOL, "family margin")

        query = extend.ExtendQuery(bounds.family_cm(k1, k2), q1, q2)
        ops.append(Op(f"family{k1}{k2}@{q1}{q2}", _decide(query), check))
    for lam in LOSS_HARD:
        ch = channels.pure_loss(lam)

        def run(ctx, ch=ch):
            result = channels.antidegradable(ch)
            return result.status.value, result.margin

        def check(out, ctx, lam=lam):
            status, margin = out
            checks.check_infeasible(status)
            checks.close(margin, 1.0 - 2.0 * lam, checks.MARGIN_TOL, "pure-loss margin")

        ops.append(Op(f"loss{lam}", run, check))
    for lam in LOSS_INSIDE:
        ops.append(_antidegradable_op(channels.pure_loss(lam), f"loss{lam}"))

    rng = np.random.default_rng(HARD_SEED)
    for n_a, n_b in RANDOM_SPLITS:
        base = _draw(rng, lambda: verify.random_bipartite_cm(rng, n_a, n_b),
                     lambda b: _surely_not_22(b.mat, n_a), "hard random state")
        da = 2 * n_a
        rot = np.zeros_like(base.mat)
        rot[:da, :da] = _special_orthogonal(rng, da)
        rot[da:, da:] = _special_orthogonal(rng, 2 * n_b)
        perm = list(range(da, 2 * (n_a + n_b))) + list(range(da))
        key = f"random{n_a}+{n_b}"
        copies = (
            ("", base),
            (".rotated", _bipartite(rot @ base.mat @ rot.T, n_a, n_b)),
            (".swapped", _bipartite(base.mat[np.ix_(perm, perm)], n_b, n_a)),
        )
        for suffix, b in copies:
            def check(out, ctx, key=key):
                # the three copies must share one margin; the first decided sets it
                status, margin = out
                checks.require(status == "infeasible-numerical", f"status {status!r}")
                checks.close(margin, ctx.setdefault(key, margin), checks.MARGIN_TOL,
                             f"{key} margin")

            ops.append(Op(key + suffix, _decide(extend.ExtendQuery(b, 2, 2)), check))
    order = np.random.default_rng(seed).permutation(len(ops))
    ops = [ops[i] for i in order]

    def warm_up():
        extend.feasibility(extend.ExtendQuery(bounds.family_cm(1, 1), 2, 2))
        channels.antidegradable(channels.pure_loss(0.8))

    return ops, warm_up


# -- decide_easy ---------------------------------------------------------------


def build_decide_easy(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for rep in range(INTERIOR_REPEATS):
        for n_a, n_b in INTERIOR_SPLITS:
            for k1, k2 in INTERIOR_ORDERS:
                b, _ = _draw(
                    rng,
                    lambda: verify.twirled_extendible_instance(rng, n_a, n_b, k1, k2),
                    lambda inst: _warm_margin(inst[0].mat, n_a, k1, k2) > 1e-3,
                    "interior instance")
                run, check = _decide_and_extend(extend.ExtendQuery(b, k1, k2))
                ops.append(Op(f"interior{n_a}+{n_b}@{k1}{k2}#{rep}", run, check))

    def certified(b, k1, k2, name):
        def check(out, ctx):
            status, _ = out
            checks.require(status == "infeasible-certified", f"status {status!r}")
            checks.check_certificate(b.mat, b.n_a, k1, k2)

        return Op(name, _decide(extend.ExtendQuery(b, k1, k2)), check)

    for (k1, k2), (q1, q2) in CERT_FAMILY:
        ops.append(certified(bounds.family_cm(k1, k2), q1, q2, f"family{k1}{k2}@{q1}{q2}"))
    for eps in rng.uniform(0.2, 2.0, size=EPSILON_COUNT):
        b = bounds.epsilon_family(float(eps))
        ops.append(certified(b, 1, 2, f"epsilon{eps:.3f}@12"))
        ops.append(certified(b, 2, 1, f"epsilon{eps:.3f}@21"))
    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    for _ in range(THERMAL_COUNT):
        # loss λ into a thermal environment; |μ| <= 1 - 2λ makes Δ = N interior
        lam = float(rng.uniform(0.05, 0.4))
        mu = float(rng.uniform(-0.9, 0.9)) * (1.0 - 2.0 * lam)
        ch = channels.validate_channel(math.sqrt(lam) * np.eye(2), mu * omega)
        ops.append(_antidegradable_op(ch, f"thermal{lam:.3f},{mu:.3f}"))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]

    def warm_up():
        ctx = {}
        for op in ops:
            op.check(op.run(ctx), ctx)

    return ops, warm_up


# -- oracle_dense --------------------------------------------------------------


def build_oracle_dense(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for n in ORACLE_MODES:
        cm_a = verify.random_bona_fide_cm(rng, n)
        cm_b = verify.random_bona_fide_cm(rng, n)
        split = (n // 2, n - n // 2)

        def build(cm, slot):
            def run(ctx):
                ctx[slot] = oracle.state_from_cm(cm)
                return ctx[slot]

            def check(state, ctx):
                checks.close(float(np.trace(state.rho).real), 1.0, 1e-10, "trace of rho")

            return run, check

        group = [
            Op(f"state_from_cm.n{n}.a", *build(cm_a, (n, "a"))),
            Op(f"state_from_cm.n{n}.b", *build(cm_b, (n, "b"))),
            Op(f"cm_from_state.n{n}",
               lambda ctx, n=n: oracle.cm_from_state(ctx[(n, "a")]).mat,
               lambda back, ctx, cm=cm_a: checks.check_roundtrip(back, cm.mat)),
            Op(f"trace_distance.n{n}",
               lambda ctx, n=n: oracle.trace_distance(ctx[(n, "a")], ctx[(n, "b")]),
               lambda dist, ctx, a=cm_a, b=cm_b: checks.check_sandwich(dist, a.mat, b.mat)),
            Op(f"entropies.n{n}",
               lambda ctx, n=n, split=split: oracle.entropies(ctx[(n, "a")], split),
               lambda out, ctx, cm=cm_a, n_a=split[0]: checks.check_entropies(out, cm.mat, n_a)),
        ]
        ops += group * (ORACLE_SMALL_REPEATS if n < max(ORACLE_MODES) else 1)

    def warm_up():
        for n in ORACLE_MODES:
            oracle.jordan_wigner(n)
            oracle.parity_operator(n)

    return ops, warm_up


def jw_cache_mb():
    """Size of the cached Jordan-Wigner matrices for ORACLE_MODES, computed as 2n·4^n·16 B."""
    return sum(2 * n * 4**n * 16 for n in ORACLE_MODES) / 2**20


# -- cli_cold ------------------------------------------------------------------

CLI_BOOT = "import sys; from fgext.cli import main; sys.exit(main())"


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run_cli_process(argv, workdir, env, rss_kb):
    """One fresh `fgext` process: (exit code, stdout bytes); its peak RSS (kB) goes to rss_kb."""
    proc = subprocess.Popen([sys.executable, "-c", CLI_BOOT, *argv], cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_kb.append(usage.ru_maxrss)
    return proc.returncode, out


def run_cli_inprocess(argv):
    """The same call through cli.main in this process (used by the traced run)."""
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(_io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def build_cli_cold(seed, workdir, runner):
    """``runner(argv)`` returns (exit code, stdout bytes)."""
    rng = np.random.default_rng(seed)
    k1, k2 = (int(v) for v in rng.integers(2, 5, size=2))
    kc = int(rng.integers(1, 5))
    q1, q2 = (int(v) for v in rng.integers(2, 6, size=2))
    n_a, n_b = (int(v) for v in rng.integers(1, 4, size=2))
    fam = bounds.family_cm(k1, k2)
    cert = bounds.family_cm(kc, 1)
    easy = _draw(rng, lambda: verify.twirled_extendible_instance(rng, 1, 1, 2, 2)[0],
                 lambda b: _warm_margin(b.mat, 1, 2, 2) > 1e-3, "interior instance")
    loss = channels.pure_loss(LOSS_CLI)
    paths = {name: os.path.join(workdir, name)
             for name in ("fam.cm", "cert.cm", "easy.cm", "loss.ch")}
    io.save_cm(paths["fam.cm"], fam)
    io.save_cm(paths["cert.cm"], cert)
    io.save_cm(paths["easy.cm"], easy)
    io.save_channel(paths["loss.ch"], loss)
    # what the files hold, as parsed back from the decimal text
    fam_mat = io.load_cm(paths["fam.cm"]).mat
    cert_mat = io.load_cm(paths["cert.cm"]).mat
    choi = np.zeros((4, 4))
    choi[:2, :2] = loss.n_mat.mat
    choi[:2, 2:] = loss.x_mat
    choi[2:, :2] = -loss.x_mat.T
    root = math.sqrt(k1 * k2)

    def definetti(rec, n_a, n_b, k1, k2):
        t = checks.definetti_t(n_a, n_b, k1, k2)
        h = checks.binary_entropy(t / 2.0)
        checks.close(rec["T"], t, 1e-12, "T")
        checks.close(rec["er_upper"], 0.5 * (n_a + n_b) * t + h, 1e-10, "er_upper")
        checks.close(rec["esq_upper"], 0.25 * (n_a + n_b) * t + 0.5 * h, 1e-10, "esq_upper")

    def bounds_cm(rec):
        definetti(rec, 1, 1, k1, k2)
        checks.close(rec["trace_upper_cm"], 2.0 / root, 1e-10, "trace_upper_cm")
        checks.close(rec["trace_lower"], 1.0 / root, 1e-6, "trace_lower")

    def fam_record(rec):
        bounds_cm(rec)
        checks.check_vector(rec["spectrum"], checks.family_spectrum(k1, k2), 1e-10, "spectrum")

    def bounds_plain(rec):
        definetti(rec, n_a, n_b, q1, q2)

    def check_cm(rec):
        checks.require(rec["valid"] is True and rec["modes"] == 2, f"record {rec}")
        checks.check_vector(rec["spectrum"], checks.spectrum_i(fam_mat), 1e-10, "spectrum")
        checks.check_vector(rec["spectrum"], checks.family_spectrum(k1, k2), 1e-10,
                            "closed-form spectrum")

    def certified(rec):
        checks.require(rec["status"] == "infeasible-certified", f"status {rec['status']!r}")
        checks.check_certificate(cert_mat, 1, kc + 1, 1)

    def feasible(rec):
        checks.check_feasible(rec["status"], rec["margin"])

    def not_eb(rec):
        checks.require(rec == {"entanglement_breaking": False}, f"record {rec}")

    def choi_record(rec):
        checks.require(rec["n_out"] == 1 and rec["n_in"] == 1, f"record {rec}")
        checks.check_vector(rec["spectrum"], checks.spectrum_i(choi), 1e-10, "Choi spectrum")

    def suite(rec):
        checks.require(rec["passed"] is True and rec["max_residual"] < rec["tolerance"],
                       f"record {rec}")

    script = (
        (("check-cm", paths["fam.cm"]), 0, check_cm),
        (("family", str(k1), str(k2)), 0, fam_record),
        (("bounds", str(k1), str(k2), "--cm", paths["fam.cm"]), 0, bounds_cm),
        (("bounds", str(q1), str(q2), "--na", str(n_a), "--nb", str(n_b)), 0, bounds_plain),
        (("extendible", paths["cert.cm"], str(kc + 1), "1"), 1, certified),
        (("extendible", paths["easy.cm"], "2", "2"), 0, feasible),
        (("channel", paths["loss.ch"], "eb"), 0, not_eb),
        (("channel", paths["loss.ch"], "choi"), 0, choi_record),
        (("channel", paths["loss.ch"], "antidegradable"), 0, feasible),
        (("--seed", str(seed), "oracle-verify", "wick", "--n-max", "3", "--trials", "5"),
         0, suite),
    )
    ops = []
    for argv, code, check_record in script:
        name = " ".join(os.path.basename(a) for a in argv)

        def check(out, ctx, name=name, code=code, check_record=check_record):
            got, stdout = out
            checks.check_exit(got, code)
            try:
                record = json.loads(stdout)
            except ValueError:
                raise checks.CheckFailed(f"{name}: stdout is not JSON") from None
            check_record(record)
            checks.check_repeat(ctx.setdefault(("stdout", name), stdout), stdout)

        ops.append(Op(name, lambda ctx, argv=argv: runner(list(argv)), check))

    def warm_up():
        # every measured call is a fresh process: there is nothing to warm
        pass

    return ops, warm_up


def build(workload, seed, workdir, runner=None):
    """(ops, warm_up) of a workload; cli_cold writes its inputs to ``workdir``."""
    if workload == "cli_cold":
        return build_cli_cold(seed, workdir, runner)
    return {
        "decide_hard": build_decide_hard,
        "decide_easy": build_decide_easy,
        "oracle_dense": build_oracle_dense,
    }[workload](seed)
