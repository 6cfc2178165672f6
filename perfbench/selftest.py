"""Self-tests of the benchmark's correctness checks.

Each case runs one real operation of a workload, shows that its check
accepts the output, then changes the output in one place and shows that
the check rejects it. Run from the root of a checkout:

    python3 perfbench/selftest.py

Exit status 0 means every check accepted the right answer and rejected
every wrong one. These tests are not part of the repository's test suite.
"""

import json
import sys
import tempfile

import run  # sets the BLAS thread count before numpy loads

run.load_fgext()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

RESULTS = {"accepted": 0, "rejected": 0, "wrong": []}


def expect(check, out, ctx, wrong=None, what=""):
    """``check`` must pass on ``out``; on ``wrong(out)`` it must raise CheckFailed."""
    if wrong is None:
        try:
            check(out, dict(ctx))
        except checks.CheckFailed as exc:
            RESULTS["wrong"].append(f"{what}: right answer rejected: {exc}")
        else:
            RESULTS["accepted"] += 1
        return
    try:
        check(wrong(out), dict(ctx))
    except checks.CheckFailed:
        RESULTS["rejected"] += 1
    else:
        RESULTS["wrong"].append(f"{what}: wrong answer accepted")


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


def perturb(mat, i, j, delta):
    out = np.array(mat, copy=True)
    out[i, j] += delta
    out[j, i] -= delta
    return out


def cases_decide(ops, ctx):
    op = op_named(ops, "family33@own")
    out = op.run(ctx)
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: (o[0], -1e-3, o[2]), "feasible margin -1e-3")
    expect(op.check, out, ctx, lambda o: ("infeasible-numerical", o[1], o[2]), "status")
    expect(op.check, out, ctx, lambda o: (o[0], o[1], perturb(o[2], 0, 6, 1e-6)),
           "extension pair marginal off by 1e-6")
    expect(op.check, out, ctx, lambda o: (o[0], o[1], 1.01 * o[2]), "extension not bona fide")

    op = op_named(ops, "family22@33")
    out = op.run(ctx)
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: (o[0], o[1] + 1e-3), "family margin off by 1e-3")
    expect(op.check, out, ctx, lambda o: ("feasible", o[1]), "family verdict")

    op = op_named(ops, "loss0.9")
    out = op.run(ctx)
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: (o[0], o[1] - 1e-3), "pure-loss margin off by 1e-3")
    expect(op.check, out, ctx, lambda o: ("feasible", o[1]), "pure-loss verdict")

    op = op_named(ops, "loss0.25")
    out = op.run(ctx)
    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: (o[0], o[1], 1.5 * omega), "antidegrading witness")

    first, second = op_named(ops, "random2+2"), op_named(ops, "random2+2.swapped")
    group = {}
    first.check(first.run(group), group)
    out = second.run(group)
    expect(second.check, out, group, what=second.name)
    expect(second.check, out, group, lambda o: (o[0], o[1] + 1e-3), "swapped margin off by 1e-3")


def cases_easy(ops, ctx):
    op = next(op for op in ops if op.name.startswith("interior2+3@22"))
    out = op.run(ctx)
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: (o[0], o[1], perturb(o[2], 1, 9, 1e-9)),
           "interior pair marginal off by 1e-9")
    op = next(op for op in ops if op.name.startswith("epsilon"))
    out = op.run(ctx)
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: ("infeasible-numerical", o[1]), "certified status")
    vacuum = np.kron(np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    try:
        checks.check_certificate(vacuum, 1, 2, 1)
    except checks.CheckFailed:
        RESULTS["rejected"] += 1
    else:
        RESULTS["wrong"].append("certificate recomputation accepted a product state")
    op = next(op for op in ops if op.name.startswith("thermal"))
    out = op.run(ctx)
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: (o[0], o[1], 1.5 * vacuum[:2, :2]), "thermal witness")


def cases_oracle(ops, ctx):
    for name in ("state_from_cm.n6.a", "state_from_cm.n6.b"):
        op = op_named(ops, name)
        expect(op.check, op.run(ctx), ctx, what=name)
    op = op_named(ops, "cm_from_state.n6")
    out = op.run(ctx)
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: perturb(o, 2, 7, 1e-8), "round trip entry off by 1e-8")
    op = op_named(ops, "trace_distance.n6")
    out = op.run(ctx)
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: 0.0, "trace distance below the operator norm")
    expect(op.check, out, ctx, lambda o: 100.0, "trace distance above half the trace norm")
    op = op_named(ops, "entropies.n6")
    out = op.run(ctx)
    expect(op.check, out, ctx, what=op.name)
    expect(op.check, out, ctx, lambda o: (o[0] + 1e-6, *o[1:]), "S_A off by 1e-6")
    expect(op.check, out, ctx, lambda o: (*o[:3], o[3] - 1e-6), "I_AB off by 1e-6")


def cases_cli(ops):
    def edit(field, change):
        def wrong(out):
            record = json.loads(out[1])
            record[field] = change(record[field])
            return out[0], json.dumps(record, sort_keys=True).encode()

        return wrong

    for op in ops:
        out = op.run({})
        seen = {("stdout", op.name): out[1]}
        expect(op.check, out, {}, what=op.name)
        expect(op.check, out, seen, what=f"{op.name} repeated")
        expect(op.check, out, seen, lambda o: (o[0], o[1] + b" "), f"{op.name}: bytes differ")
        expect(op.check, out, {}, lambda o: (1 - o[0] if o[0] in (0, 1) else 0, o[1]),
               f"{op.name}: exit code changed")
        record = json.loads(out[1])
        if "spectrum" in record:
            expect(op.check, out, {}, edit("spectrum", lambda v: [v[0] + 1e-6] + v[1:]),
                   f"{op.name}: spectrum entry off by 1e-6")
        for field in ("T", "trace_upper_cm", "trace_lower", "er_upper"):
            if record.get(field) is not None:
                expect(op.check, out, {}, edit(field, lambda v: v * 1.001),
                       f"{op.name}: {field} off by 0.1%")
        if "status" in record:
            flip = lambda v: "feasible" if v != "feasible" else "infeasible-numerical"  # noqa: E731
            expect(op.check, out, {}, edit("status", flip), f"{op.name}: status")
        if "passed" in record:
            expect(op.check, out, {}, edit("passed", lambda v: False), f"{op.name}: suite")


def cases_tally():
    """A run whose operations raise, or whose checks fail, is not correct."""
    def good(ctx):
        return 1.0

    def accept(out, ctx):
        checks.require(out == 1.0, "value")

    def faulty(ctx):
        raise RuntimeError("solver stalled")

    def reject(out, ctx):
        raise checks.CheckFailed("wrong value")

    for ops, what in (([workloads.Op("good", good, accept)], None),
                      ([workloads.Op("good", good, accept), workloads.Op("bad", faulty, accept)],
                       "an operation raised"),
                      ([workloads.Op("bad", good, reject)], "a check failed")):
        tally = run.Tally()
        tally.run_pass(ops, {})
        if run.run_correct(tally) == (what is None):
            RESULTS["accepted" if what is None else "rejected"] += 1
        else:
            RESULTS["wrong"].append(f"run_correct: {what or 'clean run'} misjudged")


def main():
    seed = 7
    cases_tally()
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as workdir:
        cases_decide(workloads.build("decide_hard", seed, workdir)[0], {})
        cases_easy(workloads.build("decide_easy", seed, workdir)[0], {})
        cases_oracle(workloads.build("oracle_dense", seed, workdir)[0], {})
        cli_ops, _ = workloads.build("cli_cold", seed, workdir, workloads.run_cli_inprocess)
        cases_cli(cli_ops)
    for line in RESULTS["wrong"]:
        print(f"FAIL {line}")
    print(f"{RESULTS['accepted']} right answers accepted, {RESULTS['rejected']} wrong answers "
          f"rejected, {len(RESULTS['wrong'])} failures")
    return 1 if RESULTS["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
