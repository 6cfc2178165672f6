"""In-memory span tracing around calls into fgext's public functions.

The tracer never edits fgext's files. It wraps module attributes from the
outside: every reference to a traced function in any loaded ``fgext``
module is replaced by a wrapper that records a span (name, start, end,
parent) and restored afterwards. Eigensolves and polish calls are traced
only while ``solver.max_margin`` is running, because that is the layer
they belong to; eigensolves are too many to keep as spans, so they are
kept as a count and a total time charged to the enclosing span.
"""

import contextlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

SOLVER_SPAN = "solver.max_margin"


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, parent, start_ns, end_ns]
        self.stack = []
        self.counts = defaultdict(int)
        self.light_ns = defaultdict(int)  # light-call time charged per span id
        self.solver_depth = 0
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        span = [len(self.spans), name, self.stack[-1] if self.stack else None,
                time.perf_counter_ns(), None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def _close(self, span):
        span[4] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, on_result=None, on_error=None, only_in_solver=False):
        """Wrapper recording one span per call; ``name`` may be a callable of args."""
        tracer = self

        def traced(*args, **kwargs):
            if only_in_solver and tracer.solver_depth == 0:
                return fn(*args, **kwargs)
            span = tracer._open(name(*args, **kwargs) if callable(name) else name)
            solver = span[1] == SOLVER_SPAN
            tracer.solver_depth += solver
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.solver_depth -= solver
                tracer._close(span)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def wrap_light(self, name, fn):
        """Count and time calls made under the solver, without a span each."""
        tracer = self

        def counted(*args, **kwargs):
            if tracer.solver_depth == 0:
                return fn(*args, **kwargs)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                tracer.counts[name + ".calls"] += 1
                tracer.counts[name + ".ns"] += elapsed
                tracer.light_ns[tracer.stack[-1]] += elapsed

        return counted

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, original, replacement):
        """Replace every reference to ``original`` held by a loaded fgext module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fgext" or mod_name.startswith("fgext.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------

    def totals(self):
        """Per span name: calls, total ms, and self ms (children excluded)."""
        child_ns = defaultdict(int)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for sid, name, _, start, end in self.spans:
            dur = end - start
            own = dur - child_ns[sid] - self.light_ns[sid]
            entry = out[name]
            entry["calls"] += 1
            entry["ms"] += dur / 1e6
            entry["self_ms"] += own / 1e6
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def instrument(tracer):
    """Wrap the public functions of each fgext layer; ``tracer.restore()`` undoes it."""
    from fgext import bounds, channels, cli, extend, fgs, io, matalg, oracle, solver, verify
    from fgext.errors import SolverStalledError

    def stalled(t, exc):
        if isinstance(exc, SolverStalledError):
            t.counts["solver.stalled"] += 1

    def fired(t, result):
        if result is not None:
            t.counts["extend.precheck.fired"] += 1

    plain = [
        (solver.max_margin, SOLVER_SPAN, None, stalled),
        (extend.feasibility, "extend.feasibility", None, None),
        (extend.precheck_lemma3, "extend.precheck", fired, None),
        (extend.precheck_columnsum, "extend.precheck", fired, None),
        (extend.build_extension, "extend.build_extension", None, None),
        (channels.antidegradable, "channels.antidegradable", None, None),
        (fgs.validate_cm, "fgs.validate_cm", None, None),
        (matalg.hermitian_spectrum, "matalg.hermitian_spectrum", None, None),
        (matalg.canonical_form, "matalg.canonical_form", None, None),
        (matalg.norms, "matalg.norms", None, None),
        (matalg.min_eigenvalue, "matalg.min_eigenvalue", None, None),
        (matalg.pfaffian, "matalg.pfaffian", None, None),
        (bounds.lower_bound_two_mode, "bounds.lower_bound_two_mode", None, None),
        (oracle.state_from_cm, lambda m: f"oracle.state_from_cm.n{m.modes}", None, None),
        (oracle.cm_from_state, lambda s: f"oracle.cm_from_state.n{s.n}", None, None),
        (oracle.trace_distance, "oracle.trace_distance", None, None),
        (oracle.entropies, "oracle.entropies", None, None),
        (io.load_cm, "io.load_cm", None, None),
        (verify.run_suite, "verify.run_suite", None, None),
        (cli.main, "cli.main", None, None),
    ]
    for fn, name, on_result, on_error in plain:
        tracer.patch_everywhere(fn, tracer.wrap(name, fn, on_result, on_error))
    tracer.patch(solver, "minimize",
                 tracer.wrap("solver.polish", solver.minimize, only_in_solver=True))
    for attr in ("eigh", "eigvalsh"):
        tracer.patch(np.linalg, attr, tracer.wrap_light("solver.eig", getattr(np.linalg, attr)))
