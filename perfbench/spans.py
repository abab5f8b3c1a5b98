"""Span recording for the benchmark's traced run.

The program is traced from outside: install() wraps a fixed list of heunqdot's
public functions and rebinds every module attribute (and every entry of a
module-level dict, such as cli._DISPATCH) that holds the original, so that
callers which look the name up at call time reach the wrapper. scipy's eig is
reached from heunqdot.oracle through its `linalg` attribute, which is replaced
by a proxy whose eig is wrapped.

Each call records a span [id, parent id, name, start, end, attrs] in memory;
the worker hands the list back when its pass ends, and layer_metrics() turns
the spans of one pass into the per-layer metrics. An untraced pass wraps the
same functions, and a few more (MARKED), with Marks, which records only the
start and end time of each call: the boundaries of the segments by which
run.pass_time takes the fastest time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class Marks:
    """The times at which checkpointed calls start and end, in call order.

    Every pass, traced or not, records them; they cut each operation into
    segments that are the same from pass to pass (see run.pass_time).
    Recording costs two clock reads and two appends per call.
    """

    def __init__(self):
        self.marks: list[float] = []

    def mark(self, fn):
        marks, clock = self.marks, time.perf_counter

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            marks.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(clock())

        return marked

    def wrap(self, name, fn, attrs=None):
        return self.mark(fn)


class Recorder(Marks):
    """Collects spans in memory; the parent of a span is the innermost open one."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        clock = time.perf_counter
        marks = self.marks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None,
                    name, clock(), None, None]
            marks.append(span[3])
            self.spans.append(span)
            self._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                marks.append(span[4])
                self._open.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced


def _termination_attrs(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        conv = bound.arguments["convention"]
        return {"key": [getattr(conv, "value", conv), bound.arguments["n"],
                        bound.arguments["l"]],
                "degree": result.cleared.degree,
                "roots": len(result.rootset.roots)}

    return attrs


def _eigen_attrs(fn):
    def attrs(args, kwargs, result):
        return {"width": max(e.convergence_width for e in result.eigenvalues)}

    return attrs


# (module, function, span name, attribute extractor factory)
TRACED = (
    ("heunqdot.termination", "solve_termination", "termination.solve", _termination_attrs),
    ("heunqdot.termination", "determinant_sequence", "termination.recurrence", None),
    ("heunqdot.termination", "clear_denominators", "termination.recurrence", None),
    ("heunqdot.termination", "isolate_roots", "termination.isolate", None),
    ("heunqdot.ratpoly", "refine_root_bisect", "ratpoly.refine", None),
    ("heunqdot.oracle", "solve_eigen", "oracle.solve_eigen", _eigen_attrs),
    ("heunqdot.oracle", "validate_root", "oracle.validate", None),
    ("heunqdot.oracle", "validate_oscillator", "oracle.validate", None),
    ("heunqdot.wavefunction", "assemble_polynomial", "wavefunction", None),
    ("heunqdot.wavefunction", "normalize", "wavefunction", None),
    ("heunqdot.wavefunction", "moment", "wavefunction", None),
    ("heunqdot.wavefunction", "residual", "wavefunction.residual", None),
    ("heunqdot.report", "build_report", "report.build", None),
    ("heunqdot.cli", "cmd_report", "report.serialize", None),
)

# functions that only mark segment boundaries: no span, no metric
MARKED = (
    ("heunqdot.ratpoly", "count_roots_open_closed"),
)


class _LinalgProxy:
    """scipy.linalg with eig replaced; every other name passes through."""

    def __init__(self, module, eig):
        self._module = module
        self.eig = eig

    def __getattr__(self, name):
        return getattr(self._module, name)


def _rebind(original, wrapper):
    for name, module in list(sys.modules.items()):
        if not name.startswith("heunqdot"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif type(value) is dict:
                for key, entry in value.items():
                    if entry is original:
                        value[key] = wrapper


def install(recorder: Marks) -> None:
    """Wrap every traced and marked function whose module the process has
    imported; a name the program no longer has is skipped."""
    for module_name, fn_name, span_name, attrs in TRACED:
        original = getattr(sys.modules.get(module_name), fn_name, None)
        if original is None:
            continue
        _rebind(original, recorder.wrap(
            span_name, original, attrs(original) if attrs else None))
    for module_name, fn_name in MARKED:
        original = getattr(sys.modules.get(module_name), fn_name, None)
        if original is not None:
            _rebind(original, recorder.mark(original))
    oracle = sys.modules.get("heunqdot.oracle")
    eig = getattr(getattr(oracle, "linalg", None), "eig", None)
    if eig is not None:
        oracle.linalg = _LinalgProxy(oracle.linalg, recorder.wrap("oracle.eig", eig))


LAYER_METRICS = (
    ("termination.solve.calls", "count", "lower"),
    ("termination.solve.distinct", "count", "lower"),
    ("termination.solve.s", "s", "lower"),
    ("termination.recurrence.s", "s", "lower"),
    ("termination.isolate.s", "s", "lower"),
    ("ratpoly.refine.s", "s", "lower"),
    ("termination.cleared_degree.max", "count", "lower"),
    ("termination.roots", "count", "higher"),
    ("oracle.solve_eigen.calls", "count", "lower"),
    ("oracle.solve_eigen.s", "s", "lower"),
    ("oracle.eig.calls", "count", "lower"),
    ("oracle.eig.s", "s", "lower"),
    ("oracle.solve_eigen.other_s", "s", "lower"),
    ("oracle.validate.self_s", "s", "lower"),
    ("oracle.convergence_width.max", "Ha", "lower"),
    ("wavefunction.calls", "count", "lower"),
    ("wavefunction.s", "s", "lower"),
    ("wavefunction.residual.s", "s", "lower"),
    ("report.build.self_s", "s", "lower"),
    ("report.serialize.s", "s", "lower"),
)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, total times and self times of one pass."""
    child_time: dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for sid, _, name, start, end, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + end - start
        own[name] = own.get(name, 0.0) + end - start - child_time.get(sid, 0.0)
    solves = [s[5] for s in spans if s[2] == "termination.solve"]
    widths = [s[5]["width"] for s in spans if s[2] == "oracle.solve_eigen"]
    return {
        "termination.solve.calls": calls.get("termination.solve", 0),
        "termination.solve.distinct": len({tuple(a["key"]) for a in solves}),
        "termination.solve.s": total.get("termination.solve", 0.0),
        "termination.recurrence.s": total.get("termination.recurrence", 0.0),
        "termination.isolate.s": total.get("termination.isolate", 0.0),
        "ratpoly.refine.s": total.get("ratpoly.refine", 0.0),
        "termination.cleared_degree.max": max((a["degree"] for a in solves), default=0),
        "termination.roots": sum(a["roots"] for a in solves),
        "oracle.solve_eigen.calls": calls.get("oracle.solve_eigen", 0),
        "oracle.solve_eigen.s": total.get("oracle.solve_eigen", 0.0),
        "oracle.eig.calls": calls.get("oracle.eig", 0),
        "oracle.eig.s": total.get("oracle.eig", 0.0),
        "oracle.solve_eigen.other_s": own.get("oracle.solve_eigen", 0.0),
        "oracle.validate.self_s": own.get("oracle.validate", 0.0),
        "oracle.convergence_width.max": max(widths, default=0.0),
        "wavefunction.calls": calls.get("wavefunction", 0),
        "wavefunction.s": total.get("wavefunction", 0.0),
        "wavefunction.residual.s": total.get("wavefunction.residual", 0.0),
        "report.build.self_s": own.get("report.build", 0.0),
        "report.serialize.s": own.get("report.serialize", 0.0),
    }
