"""Span tracing from outside the package.

``Tracer.install`` replaces public functions of the ``antimagic`` modules
and ``Graph.__init__`` with timing wrappers, in every module namespace that
holds them, and ``uninstall`` puts the originals back.  Nothing under ``src/`` changes.  The
package calls its own functions through module globals, so a call from
``construct`` into ``friendship_corona`` or from ``exact_chi_la`` into
``make_certificate`` is seen as a child span.

Spans stay in memory; ``layer_metrics`` folds them into per-layer numbers.
A layer's self time is the duration of its spans minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import time

PACKAGE_MODULES = ("antimagic", "antimagic.graphs", "antimagic.labeling",
                   "antimagic.construction", "antimagic.bounds",
                   "antimagic.solver", "antimagic.cli")

# layer -> (defining module, public function names)
LAYER_FUNCTIONS = {
    "graphs": ("antimagic.graphs",
               ("friendship", "fan", "null_graph", "cycle", "path",
                "complete", "corona", "friendship_corona", "fan_corona")),
    "labeling": ("antimagic.labeling",
                 ("make_certificate", "verify_certificate")),
    "construction": ("antimagic.construction",
                     ("construct", "construct_odd", "construct_even",
                      "construct_small", "chi_la_friendship_o1")),
    "bounds": ("antimagic.bounds",
               ("sweep_friendship_inequalities", "sweep_fan_inequalities",
                "witnesses_to_csv", "bound_report", "lb_friendship",
                "lb_fan", "known_exact_c3_corona", "known_exact_kn_k1")),
    "solver": ("antimagic.solver",
               ("exact_chi_la", "feasible_with_k_colors")),
    "cli": ("antimagic.cli", ("main",)),
}

_SWEEPS = ("sweep_friendship_inequalities", "sweep_fan_inequalities")


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "count")

    def __init__(self, layer, name, start, parent):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.count = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(layer, name, time.perf_counter(), parent)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = time.perf_counter()
            if name in _SWEEPS:
                span.count = len(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for layer, (home, names) in LAYER_FUNCTIONS.items():
            home_mod = importlib.import_module(home)
            for name in names:
                original = getattr(home_mod, name)
                wrapped = self._wrap(layer, name, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapped)
        graph_cls = importlib.import_module("antimagic.graphs").Graph
        init = graph_cls.__init__
        self._patched.append((graph_cls, "__init__", init))
        graph_cls.__init__ = self._wrap("graphs", "Graph.__init__", init)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _outermost(span: Span) -> bool:
    """True when no ancestor span belongs to the same layer."""
    p = span.parent
    while p is not None:
        if p.layer == span.layer:
            return False
        p = p.parent
    return True


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers for the graphs, labeling, construction and bounds
    layers.  Solver and CLI numbers are measured by the caller."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            key = id(s.parent)
            child_time[key] = child_time.get(key, 0.0) + s.duration
    out = {
        "graphs.build_s": 0.0, "graphs.builds": 0,
        "labeling.make_certificate_s": 0.0, "labeling.verify_s": 0.0,
        "labeling.calls": 0, "construction.self_s": 0.0,
        "bounds.sweep_s": 0.0, "bounds.csv_s": 0.0, "bounds.witnesses": 0,
    }
    for s in spans:
        top = _outermost(s)
        if s.layer == "graphs":
            if s.name == "Graph.__init__":
                out["graphs.builds"] += 1
            if top:
                out["graphs.build_s"] += s.duration
        elif s.layer == "labeling" and top:
            out["labeling.calls"] += 1
            key = ("labeling.verify_s" if s.name == "verify_certificate"
                   else "labeling.make_certificate_s")
            out[key] += s.duration
        elif s.layer == "construction":
            out["construction.self_s"] += s.duration - child_time.get(id(s), 0.0)
        elif s.layer == "bounds" and top:
            if s.name in _SWEEPS:
                out["bounds.sweep_s"] += s.duration
                out["bounds.witnesses"] += s.count
            elif s.name == "witnesses_to_csv":
                out["bounds.csv_s"] += s.duration
    return out
