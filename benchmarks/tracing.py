"""Span tracing of framefit's layers, installed from outside the package.

``installed(tracer)`` replaces the public functions listed in ``LAYERS`` (and
``RadarFrameFamily.jet``) with wrappers that record one span per call.  A
function is replaced under every name any framefit module binds it to, so
calls through ``from .core import error_value`` in ``solver`` or ``cli`` are
seen as well as calls through the defining module.  The originals come back
when the context exits, so untraced passes run the unmodified code.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _jet_name(args, kwargs):
    order = args[2] if len(args) > 2 else kwargs.get("order", 2)
    return f"radar.jet{order}"


def _newton_accepted(args, result, exc):
    return exc is None and not np.array_equal(result, args[2])


def _rk4_steps_attempted(args, result, exc):
    if exc is None:
        return len(result.times) - 1
    partial = getattr(exc, "partial", None)
    return 0 if partial is None else len(partial.times)


# (module, attribute, span name, note); a note is computed from
# (positional args, result, exception) when the call returns or raises.
LAYERS = [
    ("radar", "load_scenario", "radar.load_scenario", None),
    ("core", "error_value", "core.error_value", None),
    ("core", "dual_synthesis", "core.dual_synthesis", None),
    ("derivatives", "projector_pieces", "derivatives.projector_pieces", None),
    ("derivatives", "error_gradient_hessian", "derivatives.error_gradient_hessian", None),
    ("solver", "grid_search", "solver.grid_search", None),
    ("solver", "newton_step", "solver.newton_step", _newton_accepted),
    ("solver", "localize", "solver.localize",
     lambda args, result, exc: 0 if exc else len(result.iterates)),
    ("diagnostics", "level_set", "diagnostics.level_set",
     lambda args, result, exc: 0 if exc else len(result.points)),
    ("diagnostics", "uniqueness_certificate", "diagnostics.uniqueness_certificate", None),
    ("tracking", "shooting_search", "tracking.shooting_search", None),
    ("tracking", "integrate_trajectory", "tracking.integrate_trajectory",
     _rk4_steps_attempted),
    ("tracking", "el_acceleration", "tracking.el_acceleration", None),
    ("tracking", "functional_value", "tracking.functional_value", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "cmd_localize", "cli.localize", None),
    ("cli", "cmd_diagnose", "cli.diagnose", None),
]

NAME, START, END, PARENT, OP, ERROR, NOTE = range(7)


class Tracer:
    """Keeps every span in memory as [name, start, end, parent, op, error, note].

    ``parent`` is the index of the innermost open span (-1 at top level),
    ``op`` the operation id the workload set before the call, and ``error``
    the exception class name when the call raised.  ``pauses`` holds
    (innermost open span, seconds) for time spent inside spans on work that
    is not framefit's (the benchmark's reference blocks); span times exclude it.
    """

    def __init__(self):
        self.spans = []
        self.pauses = []
        self.op = -1
        self._open = []

    def pause(self, seconds):
        self.pauses.append((self._open[-1] if self._open else -1, seconds))

    def wrap(self, fn, name, note=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    open_[-1] if open_ else -1, self.op, None, None]
            index = len(spans)
            spans.append(span)
            result = exc = None
            # A pause between START and the push (or between the pop and END)
            # goes to the enclosing span; it still lies inside that span.
            span[START] = perf_counter()
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                span[ERROR] = type(e).__name__
                raise
            finally:
                open_.pop()
                span[END] = perf_counter()
                if note is not None:
                    span[NOTE] = note(args, result, exc)

        return traced

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,op,error,note\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},"
                         f"{s[ERROR] or ''},{'' if s[NOTE] is None else int(s[NOTE])}\n")


@contextmanager
def installed(tracer):
    """Route every framefit binding of the LAYERS functions through ``tracer``."""
    import framefit.cli  # noqa: F401  (imports every traced module)
    from framefit.radar import RadarFrameFamily

    modules = [m for n, m in list(sys.modules.items())
               if n == "framefit" or n.startswith("framefit.")]
    patches = [(RadarFrameFamily, "jet", RadarFrameFamily.jet)]
    RadarFrameFamily.jet = tracer.wrap(RadarFrameFamily.jet, _jet_name)
    try:
        for module, attr, span_name, note in LAYERS:
            original = getattr(sys.modules[f"framefit.{module}"], attr)
            wrapped = tracer.wrap(original, span_name, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        patches.append((m, key, value))
                        setattr(m, key, wrapped)
        yield tracer
    finally:
        for owner, key, value in reversed(patches):
            setattr(owner, key, value)


def layer_table(tracer):
    """Per span name: calls, total_s, self_s (total minus child spans), errors.

    Pauses are taken out of the span they happened in and of its ancestors.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    paused = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    for parent, seconds in tracer.pauses:
        if parent >= 0:
            child_s[parent] += seconds
        while parent >= 0:
            paused[parent] += seconds
            parent = spans[parent][PARENT]
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
    for i, s in enumerate(spans):
        row = table[s[NAME]]
        row["calls"] += 1
        row["total_s"] += s[END] - s[START] - paused[i]
        row["self_s"] += s[END] - s[START] - child_s[i]
        row["errors"] += s[ERROR] is not None
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    spans = tracer.spans
    t = layer_table(tracer)
    under = Counter()          # (child, parent) -> calls
    rejected_under = Counter()
    for s in spans:
        key = (s[NAME], spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None)
        under[key] += 1
        rejected_under[key] += s[ERROR] is not None

    def notes(name, finished_only=False):
        return sum(int(s[NOTE]) for s in spans
                   if s[NAME] == name and not (finished_only and s[ERROR]))

    grid_points = under["core.error_value", "solver.grid_search"]
    grid_rejected = rejected_under["core.error_value", "solver.grid_search"]
    newton_calls = t["solver.newton_step"]["calls"]
    rk4_attempted = notes("tracking.integrate_trajectory")
    m = {}
    for order in (0, 1, 2):
        m[f"radar.jet{order}.calls"] = (t[f"radar.jet{order}"]["calls"], "count")
        m[f"radar.jet{order}.self_s"] = (t[f"radar.jet{order}"]["self_s"], "s")
    m["radar.load_scenario.total_s"] = (t["radar.load_scenario"]["total_s"], "s")
    m["core.error_value.calls"] = (t["core.error_value"]["calls"], "count")
    m["core.error_value.self_s"] = (t["core.error_value"]["self_s"], "s")
    m["core.error_value.rejected"] = (t["core.error_value"]["errors"], "count")
    for name in ("core.dual_synthesis", "derivatives.projector_pieces",
                 "derivatives.error_gradient_hessian"):
        m[f"{name}.calls"] = (t[name]["calls"], "count")
        m[f"{name}.self_s"] = (t[name]["self_s"], "s")
    m["solver.grid_search.total_s"] = (t["solver.grid_search"]["total_s"], "s")
    m["solver.grid_search.self_s"] = (t["solver.grid_search"]["self_s"], "s")
    m["solver.grid_points"] = (grid_points, "count")
    m["solver.grid_in_domain_ratio"] = (_ratio(grid_points - grid_rejected, grid_points), "ratio")
    m["solver.newton_step.calls"] = (newton_calls, "count")
    m["solver.newton_step.total_s"] = (t["solver.newton_step"]["total_s"], "s")
    m["solver.newton_trials"] = (under["core.error_value", "solver.newton_step"], "count")
    m["solver.newton_accept_ratio"] = (_ratio(notes("solver.newton_step"), newton_calls), "ratio")
    m["solver.iterates"] = (notes("solver.localize"), "count")
    m["solver.egh_per_iterate"] = (
        _ratio(t["derivatives.error_gradient_hessian"]["calls"], notes("solver.localize")),
        "ratio")
    m["diagnostics.level_set.total_s"] = (t["diagnostics.level_set"]["total_s"], "s")
    m["diagnostics.level_set.points_kept"] = (notes("diagnostics.level_set"), "count")
    m["diagnostics.uniqueness_certificate.total_s"] = (
        t["diagnostics.uniqueness_certificate"]["total_s"], "s")
    m["tracking.shooting_search.total_s"] = (t["tracking.shooting_search"]["total_s"], "s")
    for name in ("tracking.integrate_trajectory", "tracking.el_acceleration"):
        m[f"{name}.calls"] = (t[name]["calls"], "count")
        m[f"{name}.self_s"] = (t[name]["self_s"], "s")
    m["tracking.functional_value.total_s"] = (t["tracking.functional_value"]["total_s"], "s")
    m["tracking.candidates_left_domain"] = (t["tracking.integrate_trajectory"]["errors"], "count")
    m["tracking.rk4_steps"] = (rk4_attempted, "count")
    m["tracking.rk4_useful_ratio"] = (
        _ratio(notes("tracking.integrate_trajectory", finished_only=True), rk4_attempted),
        "ratio")
    for cmd in ("simulate", "localize", "diagnose"):
        m[f"cli.{cmd}.total_s"] = (t[f"cli.{cmd}"]["total_s"], "s")
        m[f"cli.{cmd}.self_s"] = (t[f"cli.{cmd}"]["self_s"], "s")
    m["cli.localize.extra_grid_evals"] = (under["core.error_value", "cli.localize"], "count")
    return m


# Layers whose cost per call the combined report tabulates.
PER_CALL = ["radar.jet0", "radar.jet1", "radar.jet2", "core.dual_synthesis",
            "core.error_value", "derivatives.projector_pieces",
            "derivatives.error_gradient_hessian", "tracking.el_acceleration"]
