"""Spans around the calls between minkred's modules, recorded from outside.

The tracer wraps every function that one minkred module imports from
another, plus the public entry points the workloads call, and rebinds the
wrapper under every name in every minkred module namespace that holds the
function. Patching only the defining module would miss calls made through
an importing module's own binding (``reduction`` holds ``complete_to_basis``,
``_enumerate_core``, ``_reduced_view`` and ``lll_transform`` under its own
names).

Each call records one span: (function, start ns, end ns, parent span,
trace id of the form, outermost-of-its-name flag, value). ``value`` is an
exact count read from the call's return value, such as the swaps returned
by ``lll_transform``. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns

PACKAGE = "minkred"
MODULES = (
    "exactlin", "_lll", "tables", "enumeration", "reduction", "voronoi",
    "centering", "corpus",
)

# Public entry points and the one primitivity test, which the library
# reaches only through its defining module's own globals.
EXTRA = {
    "reduction": (
        "minkowski_reduce", "is_minkowski_reduced_table",
        "is_minkowski_reduced_definitional", "greedy_minkowski_basis",
    ),
    "voronoi": ("relevant_vectors", "check_table4_membership"),
    "enumeration": ("lattice_minimum", "is_primitive_system"),
    "centering": ("check_theorem_bound",),
}


def modules():
    """The package namespace and every module of it, imported."""
    pkg = importlib.import_module(PACKAGE)
    return [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]


def targets():
    """{function: "module.name"} for every function to wrap."""
    found = {}
    mods = modules()
    for mod in mods[1:]:
        for obj in vars(mod).values():
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith(PACKAGE + ".")
                and obj.__module__ != mod.__name__
            ):
                found[obj] = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
    for short, names in EXTRA.items():
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name in names:
            found[getattr(mod, name)] = f"{short}.{name}"
    return found


class Span:
    """Field positions of one span tuple."""

    NAME, START, END, PARENT, FORM, OUTER, VALUE = range(7)


class Tracer:
    """Installs span-recording wrappers; use as a context manager, as
    often as needed: the wrappers are made once and rebound each time.

    ``values`` maps a qualified function name to ``f(args, result)``
    returning the exact count stored in the span.
    """

    def __init__(self, values=None):
        self.values = values or {}
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.form = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict = {}

    def _wrap(self, func, qual):
        index = len(self.names)
        self.names.append(qual)
        self._depth.append(0)
        spans, stack, depth = self.spans, self._stack, self._depth
        extract = self.values.get(qual)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            outer = depth[index] == 0
            depth[index] += 1
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                depth[index] -= 1
                stack.pop()
                spans[sid] = (index, start, end, parent, self.form, outer, None)
            if extract is not None:
                spans[sid] = (index, start, end, parent, self.form, outer, extract(args, result))
            return result

        return wrapper

    def install(self):
        mods = modules()
        for func, qual in targets().items():
            if func not in self._wrappers:
                self._wrappers[func] = self._wrap(func, qual)
            wrapper = self._wrappers[func]
            for mod in mods:
                for name, obj in list(vars(mod).items()):
                    if obj is func:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, func))

    def remove(self):
        for mod, name, func in reversed(self._patches):
            setattr(mod, name, func)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def self_times(spans):
    """Self time of each span in ns: its duration minus its children's."""
    child = [0] * len(spans)
    for s in spans:
        if s[Span.PARENT] >= 0:
            child[s[Span.PARENT]] += s[Span.END] - s[Span.START]
    return [s[Span.END] - s[Span.START] - c for s, c in zip(spans, child)]
