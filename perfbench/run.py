"""Benchmark of fgext: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload decide_hard --seed 1 --seconds 12 --trace 0

With --trace 0 it measures one workload for about --seconds seconds, in
whole passes over the workload's fixed operation list (at least two), and
prints the end-to-end metrics. With --trace 1 it makes one traced pass
of every workload, so that every layer is measured on fixed work, and
runs each operation of the named workload untraced just before its traced
call; it prints the per-layer metrics and the tracing overhead of that
workload, and writes the spans under
perfbench/results/. The last line of stdout is always one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import os

#: BLAS threads, fixed before numpy loads; no more than nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("decide_hard", "decide_easy", "oracle_dense", "cli_cold")
SETUP_PROBES = 8
MIN_PASSES = 2
#: An operation that ran this many times in a run is timed by its fastest
#: call, one that ran fewer times by its mean (see op_ms).
FASTEST_FROM = 20


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def require_sources():
    if not (SRC / "fgext" / "__init__.py").is_file():
        fail(f"no fgext sources under {SRC}; run from the root of a checkout")


def load_fgext():
    require_sources()
    sys.path.insert(0, str(SRC))
    import fgext

    if Path(fgext.__file__).resolve().parent != (SRC / "fgext").resolve():
        fail(f"imported fgext from {fgext.__file__}, not from {SRC}")
    return fgext


# -- set-up ------------------------------------------------------------------


def setup(workload, seed, workdir, rss_kb=None):
    """Import, input generation and warm-up, each timed. Returns (ops, times).

    CLI processes append their peak RSS (kB) to ``rss_kb``.
    """
    t0 = time.perf_counter()
    load_fgext()
    import workloads

    t1 = time.perf_counter()
    runner = None
    if workload == "cli_cold":
        env = workloads.cli_env(SRC)
        rss_kb = [] if rss_kb is None else rss_kb
        runner = lambda argv: workloads.run_cli_process(argv, workdir, env, rss_kb)  # noqa: E731
    ops, warm_up = workloads.build(workload, seed, workdir, runner)
    t2 = time.perf_counter()
    warm_up()
    t3 = time.perf_counter()
    return ops, {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2,
                 "total_s": t3 - t0}


def workdir_for(tag):
    path = RESULTS / f"work-{os.getpid()}-{tag}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def probe_main(args):
    """Child process: one cold set-up, reported as JSON on the last line."""
    workdir = workdir_for("probe")
    try:
        _, times = setup(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(times))


def setup_probes(workload, seed, count):
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- measurement -------------------------------------------------------------


class Tally:
    """Per-op times, failures and check results of a run."""

    def __init__(self):
        self.by_op_ms = {}
        self.attempted = 0
        self.failed = 0
        self.check_errors = []
        self.fault_traces = []

    @property
    def samples_ms(self):
        return [ms for times in self.by_op_ms.values() for ms in times]

    @property
    def op_ms(self):
        """Each operation's time in the run, one value per distinct operation.

        Its fastest call if it ran FASTEST_FROM times or more, else the mean
        of its calls. Many calls of a short operation reach the host's fast
        stretches, and their minimum is the steadier figure; the minimum of
        two to six long calls is a noisy extreme, and their mean is steadier.
        """
        return [min(times) if len(times) >= FASTEST_FROM else statistics.fmean(times)
                for times in self.by_op_ms.values()]

    def run_pass(self, ops, ctx):
        import checks

        for op in ops:
            self.attempted += 1
            start = time.perf_counter_ns()
            try:
                out = op.run(ctx)
            except Exception:  # an operation fault is counted, not fatal
                self.failed += 1
                self.fault_traces.append(f"{op.name}: {traceback.format_exc()}")
                continue
            elapsed_ms = (time.perf_counter_ns() - start) / 1e6
            self.by_op_ms.setdefault(op.name, []).append(elapsed_ms)
            try:
                op.check(out, ctx)
            except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                self.check_errors.append(f"{op.name}: {exc!r}")

    def absorb(self, other):
        for name, times in other.by_op_ms.items():
            self.by_op_ms.setdefault(name, []).extend(times)
        self.attempted += other.attempted
        self.failed += other.failed
        self.check_errors += other.check_errors
        self.fault_traces += other.fault_traces


def measure(ops, seconds, tally):
    """Whole passes until the end of a pass falls closest to ``seconds``."""
    ctx = {}
    start = time.perf_counter()
    passes = 0
    while True:
        tally.run_pass(ops, ctx)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + 0.5 * elapsed / passes >= seconds:
            return passes, elapsed


def tail_percentile(ops):
    """Highest percentile of the op times with at least ten of them beyond it.

    There is one time per distinct operation (Tally.op_ms), L in all, so that is
    100 (1 - 10 / L). Below L = 20 it would fall under the median; the tail
    is then the median.
    """
    distinct = len({op.name for op in ops})
    return max(50.0, 100.0 * (1.0 - 10.0 / distinct))


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile.

    A Beta-weighted mean of all order statistics. On a shared host
    single operations jitter by 10-20% from one call to the next, and a
    single order statistic carries that jitter whole; the weighted mean
    spreads it over the neighbouring samples.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    p = q / 100.0
    edges = betainc((n + 1) * p, (n + 1) * (1.0 - p), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def latency_metrics(tally, tail_q):
    """Rate and percentiles of the per-operation times of a run."""
    times = tally.op_ms
    return {
        "ops_per_s": len(times) / (sum(times) / 1e3),
        "op_p50_ms": percentile(times, 50.0),
        "op_tail_ms": percentile(times, tail_q),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- provenance ----------------------------------------------------------------


def provenance():
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fgext").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def write_result(tag, record):
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = RESULTS / f"{tag}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def run_correct(tally):
    """Every check passed and no operation raised.

    No operation of any workload is expected to raise, so a fault fails the
    run: a change that made the slowest calls raise would otherwise drop
    them from the timings and read faster.
    """
    return not tally.check_errors and not tally.failed


def finish(tally, metrics, units, record):
    correct = run_correct(tally)
    for line in tally.check_errors[:10]:
        print(f"CHECK FAILED {line}")
    for line in tally.fault_traces[:3]:
        print(f"FAILED {line}")
    print(f"attempted {tally.attempted}  failed {tally.failed}  correct {correct}")
    record.update(correct=correct, attempted=tally.attempted, failed=tally.failed,
                  check_errors=tally.check_errors[:50], faults=tally.fault_traces[:5],
                  op_ms=dict(zip(tally.by_op_ms, tally.op_ms)),
                  op_samples_ms=tally.by_op_ms,
                  metrics=metrics)
    print(f"result written to {write_result(record['tag'], record).relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# -- untraced run ----------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}


def untraced_main(args):
    # half the cold set-ups before the measurement and half after, so that
    # their median spans the host's state over the whole run
    probes = setup_probes(args.workload, args.seed, SETUP_PROBES // 2)
    workdir = workdir_for(args.workload)
    try:
        child_rss_kb = []
        ops, own = setup(args.workload, args.seed, workdir, child_rss_kb)
        tally = Tally()
        passes, elapsed = measure(ops, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes += setup_probes(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    setups = [s["total_s"] for s in probes] + [own["total_s"]]
    tail_q = tail_percentile(ops)
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(latency_metrics(tally, tail_q))
    if args.workload == "cli_cold":
        metrics["peak_rss_mb"] = max(child_rss_kb) / 1024.0
    else:
        metrics["peak_rss_mb"] = peak_rss_mb()
    for name, value in metrics.items():
        print(f"{args.workload}  {name:12s} {value:12.5f} {E2E_UNITS[name]}")
    print(f"passes {passes} of {len(ops)} ops in {elapsed:.2f} s, {len(tally.samples_ms)} "
          f"samples; tail is p{tail_q:.2f} of {len(tally.by_op_ms)} op times; set-up samples "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    record = {"tag": f"{args.workload}-seed{args.seed}-trace0", "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": 0, "passes": passes,
              "ops_per_pass": len(ops), "tail_percentile": tail_q,
              "setup_samples": probes + [own], **provenance()}
    finish(tally, metrics, E2E_UNITS, record)


# -- traced run ----------------------------------------------------------------

PER_LAYER = {
    "solver.max_margin.calls": "count", "solver.max_margin.self_ms": "ms",
    "solver.eig.calls": "count", "solver.eig.ms": "ms",
    "solver.polish.calls": "count", "solver.polish.ms": "ms", "solver.stalled": "count",
    "extend.feasibility.calls": "count", "extend.feasibility.self_ms": "ms",
    "extend.precheck.calls": "count", "extend.precheck.fired": "count",
    "extend.precheck.ms": "ms", "extend.build_extension.ms": "ms",
    "channels.antidegradable.calls": "count", "channels.antidegradable.ms": "ms",
    "fgs.validate_cm.calls": "count", "fgs.validate_cm.ms": "ms",
    "matalg.hermitian_spectrum.ms": "ms", "matalg.canonical_form.ms": "ms",
    "matalg.norms.ms": "ms", "matalg.min_eigenvalue.ms": "ms", "matalg.pfaffian.ms": "ms",
    "bounds.lower_bound_two_mode.calls": "count", "bounds.lower_bound_two_mode.ms": "ms",
    **{f"oracle.{fn}.n{n}_ms": "ms" for fn in ("state_from_cm", "cm_from_state")
       for n in (6, 7, 8, 9)},
    "oracle.trace_distance.ms": "ms", "oracle.entropies.ms": "ms",
    "oracle.jw_build.ms": "ms", "oracle.jw_cache_mb": "MB",
    "io.load_cm.ms": "ms", "verify.run_suite.ms": "ms",
    "cli.interp_ms": "ms", "cli.import_ms": "ms",
    "cli.import.scipy_linalg_ms": "ms", "cli.import.scipy_optimize_ms": "ms",
    "cli.main_ms": "ms",
}


def _import_times(env):
    """Cumulative import times (ms) from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fgext.cli"],
                          env=env, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"import of fgext.cli failed:\n{proc.stderr}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
    # a module the CLI no longer imports at start-up costs it nothing
    return {
        "cli.import_ms": cumulative["fgext"] + cumulative.get("fgext.cli", 0.0),
        "cli.import.scipy_linalg_ms": cumulative.get("scipy.linalg", 0.0),
        "cli.import.scipy_optimize_ms": cumulative.get("scipy.optimize", 0.0),
    }


def startup_metrics(repeats=3):
    import workloads

    env = workloads.cli_env(SRC)
    interp = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interp.append((time.perf_counter() - start) * 1e3)
    imports = [_import_times(env) for _ in range(repeats)]
    out = {"cli.interp_ms": statistics.median(interp)}
    for key in imports[0]:
        out[key] = statistics.median(run[key] for run in imports)
    return out


def traced_main(args):
    import spans

    fgext = load_fgext()
    import workloads

    tracer = spans.Tracer()
    workdir = workdir_for("trace")
    tally = Tally()
    try:
        built = {}
        for name in WORKLOADS:
            runner = workloads.run_cli_inprocess if name == "cli_cold" else None
            ops, warm_up = workloads.build(name, args.seed, workdir, runner)
            if name == "oracle_dense":
                with tracer.span("oracle.jw_build"):
                    warm_up()
            else:
                warm_up()
            built[name] = ops
        for name, ops in built.items():
            # the named workload runs each op untraced and then traced, one
            # after the other, so that the host's drift falls on both alike
            traced, plain = Tally(), Tally()
            traced_ctx, plain_ctx = {}, {}
            for op in ops:
                if name == args.workload:
                    plain.run_pass([op], plain_ctx)
                spans.instrument(tracer)
                try:
                    traced.run_pass([op], traced_ctx)
                finally:
                    tracer.restore()
            tally.absorb(traced)
            if name == args.workload:
                tally.absorb(plain)
                q = tail_percentile(ops)
                overhead = {"workload": name,
                            "untraced": latency_metrics(plain, q),
                            "traced": latency_metrics(traced, q)}
        startup = startup_metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    totals = tracer.totals()

    def total(name, field="ms"):
        return totals[name][field] if name in totals else 0.0

    metrics = {
        "solver.max_margin.calls": total(spans.SOLVER_SPAN, "calls"),
        "solver.max_margin.self_ms": total(spans.SOLVER_SPAN, "self_ms"),
        "solver.eig.calls": tracer.counts["solver.eig.calls"],
        "solver.eig.ms": tracer.counts["solver.eig.ns"] / 1e6,
        "solver.polish.calls": total("solver.polish", "calls"),
        "solver.polish.ms": total("solver.polish"),
        "solver.stalled": tracer.counts["solver.stalled"],
        "extend.feasibility.calls": total("extend.feasibility", "calls"),
        "extend.feasibility.self_ms": total("extend.feasibility", "self_ms"),
        "extend.precheck.calls": total("extend.precheck", "calls"),
        "extend.precheck.fired": tracer.counts["extend.precheck.fired"],
        "extend.precheck.ms": total("extend.precheck"),
        "extend.build_extension.ms": total("extend.build_extension"),
        "channels.antidegradable.calls": total("channels.antidegradable", "calls"),
        "channels.antidegradable.ms": total("channels.antidegradable"),
        "fgs.validate_cm.calls": total("fgs.validate_cm", "calls"),
        "fgs.validate_cm.ms": total("fgs.validate_cm"),
        "bounds.lower_bound_two_mode.calls": total("bounds.lower_bound_two_mode", "calls"),
        "bounds.lower_bound_two_mode.ms": total("bounds.lower_bound_two_mode"),
        "oracle.jw_cache_mb": workloads.jw_cache_mb(),
        "cli.main_ms": total("cli.main"),
        **startup,
    }
    for fn in ("hermitian_spectrum", "canonical_form", "norms", "min_eigenvalue", "pfaffian"):
        metrics[f"matalg.{fn}.ms"] = total(f"matalg.{fn}")
    for fn in ("state_from_cm", "cm_from_state"):
        for n in workloads.ORACLE_MODES:
            metrics[f"oracle.{fn}.n{n}_ms"] = total(f"oracle.{fn}.n{n}")
    for name in ("oracle.trace_distance", "oracle.entropies", "oracle.jw_build",
                 "io.load_cm", "verify.run_suite"):
        metrics[f"{name}.ms"] = total(name)
    metrics = {name: metrics[name] for name in PER_LAYER}

    for name, value in metrics.items():
        print(f"layer  {name:36s} {value:14.4f} {PER_LAYER[name]}")
    a, b = overhead["untraced"], overhead["traced"]
    print(f"tracing overhead on one paired pass of {args.workload}: ops_per_s {a['ops_per_s']:.5g} "
          f"untraced, {b['ops_per_s']:.5g} traced "
          f"({100.0 * (a['ops_per_s'] / b['ops_per_s'] - 1.0):+.1f}% time); op_p50_ms "
          f"{a['op_p50_ms']:.5g} untraced, {b['op_p50_ms']:.5g} traced")
    tag = f"{args.workload}-seed{args.seed}-trace1"
    spans_path = RESULTS / f"{tag}-{os.getpid()}.spans.jsonl"
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    record = {"tag": tag, "workload": args.workload, "seed": args.seed, "trace": 1,
              "overhead": overhead, "spans_file": spans_path.name,
              "fgext_version": fgext.__version__, **provenance()}
    finish(tally, metrics, PER_LAYER, record)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    if args.probe:
        probe_main(args)
    elif args.trace:
        traced_main(args)
    else:
        require_sources()
        untraced_main(args)


if __name__ == "__main__":
    main()
