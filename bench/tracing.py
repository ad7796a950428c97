"""Outside-in layer tracing for the benchmark.

`Tracer.install()` rebinds each traced public function of plma in every
`plma.*` namespace that holds it (and the two `PLConvexFunction` methods)
to a wrapper that records a span: name, start, end, parent span and op id.
Spans stay in memory; `uninstall()` restores every binding.  The wrapper
records nothing while no op is open, so checks and input generation run
untraced even while the wrappers are installed.

A layer is the plma module that defines the function.  The self time of a
span is its duration minus the durations of its direct children, so the
self times of one op's spans add up to the duration of its root span;
run.py compares that with the op's wall time.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

MODULES = ("cli", "serialize", "geometry", "toric", "solver", "curves", "variational")

# Functions traced as module attributes, by layer.  serialize is traced
# at its entry points (files, documents, whole objects), not per number.
FUNCTIONS = {
    "geometry": ("breakpoints", "dual_transform", "subdifferential", "is_admissible",
                 "convex_envelope"),
    "toric": ("ma_measure", "mixed_ma"),
    "solver": ("solve_toric", "solve_curve"),
    "curves": ("solve_poisson", "green", "superpose", "laplacian", "is_subharmonic",
               "canonical_metric"),
    "variational": ("energy_toric", "envelope_toric", "envelope_subharmonic",
                    "orthogonality_defect_toric", "orthogonality_defect_curve"),
}
# PLConvexFunction methods, traced under the geometry layer.
METHODS = {"from_pieces": "from_pieces", "__add__": "add"}


def _serialize_entry_points(module):
    return tuple(
        name for name in vars(module)
        if name in ("load_path", "dumps") or name.endswith(("_from_json", "_to_json"))
    )


SOLVE = "solver.solve_toric"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "raised", "report")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.raised = False
        self.report = None  # solve_toric spans: (Newton iterations, exact)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._restore = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        span = Span(name, self.stack[-1] if self.stack else None, self.op)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = perf_counter()
            self.stack.pop()
        if name == SOLVE:
            span.report = (result.iterations, all(e == 0 for _, e in result.polished_residual))
        return result

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one op under a root span named cli.run."""
        self.op = op_id
        try:
            return self.call("cli.run", fn, args, {})
        finally:
            self.op = None

    # -- rebinding ---------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"plma.{name}") for name in MODULES}
        namespaces = [importlib.import_module("plma"), *mods.values()]
        targets = dict(FUNCTIONS, serialize=_serialize_entry_points(mods["serialize"]))
        for layer, names in targets.items():
            for fname in names:
                original = getattr(mods[layer], fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        cls = mods["geometry"].PLConvexFunction
        for attr, short in METHODS.items():
            raw = cls.__dict__[attr]
            self._restore.append((cls, attr, raw))
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self.wrap(f"geometry.{short}", fn)
            setattr(cls, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def uninstall(self):
        while self._restore:
            ns, attr, value = self._restore.pop()
            setattr(ns, attr, value)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans):
    """Per-layer and per-function totals as a flat dict of plain numbers."""
    selfs = self_times(spans)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s, st in zip(spans, selfs):
        add(f"{s.name.split('.', 1)[0]}.self_s", st)
        add(f"{s.name}.self_s", st)
        add(f"{s.name}.calls", 1)
        if s.raised:
            add(f"{s.name}.failed", 1)
        if s.report is not None:
            add("solver.newton_iterations", s.report[0])
            add("solver.exact_solves", int(s.report[1]))
    # curves.is_subharmonic calls under each envelope_subharmonic call, minus one:
    # the number of contact guesses verified beyond the first check.
    children = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    for i, s in enumerate(spans):
        if s.name == "variational.envelope_subharmonic":
            checks = 0
            todo = list(children.get(i, ()))
            while todo:
                j = todo.pop()
                checks += spans[j].name == "curves.is_subharmonic"
                todo.extend(children.get(j, ()))
            add("variational.envelope_attempts", max(checks - 1, 0))
    return out
