"""In-memory span recorder and the wrappers that feed it.

``install`` rebinds the public functions and methods of the chsurf modules
to recording wrappers, in every chsurf module namespace that refers to
them, so calls between modules are traced as well as calls from the
benchmark.  No program file changes and nothing is installed unless a
traced run asks for it.

A span is ``[name, start, end, parent, case]``; the parent is the index of
the enclosing span (``-1`` at top level) and ``case`` identifies the
benchmark case that caused it.  Spans stay in memory until the run ends;
``self_times`` then subtracts the time covered by each span's children.

Hot scalar helpers are deliberately not wrapped, because a wrapper would
cost more than the call: ``curve.curve_point``, ``curve.polar_radius``,
``surface.radicand``, every ``GaussianRational`` method and every
``MultiPoly`` dunder other than ``__mul__`` and ``__pow__`` (so
``MultiPoly.__add__`` is not traced).  Their time lands in the self time of
the traced function that called them.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

LAYERS = ("cli", "verify", "curve", "poly", "surface", "congruence", "mesh")

HOT_FUNCTIONS = frozenset({"curve.curve_point", "curve.polar_radius", "surface.radicand"})
HOT_CLASSES = frozenset({"GaussianRational"})
TRACED_DUNDERS = {"__mul__": "mul", "__pow__": "pow"}

_LRU_TYPE = type(functools.lru_cache(maxsize=None)(lambda: None))

# Span record fields.
NAME, START, END, PARENT, CASE = range(5)


class Recorder:
    """Collects spans and work counts for one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.case: Optional[str] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, hook: Optional["Hook"] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            state = hook.before(args) if hook else None
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, recorder.case])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][START] = start
                spans[index][END] = end
            if hook:
                hook.after(recorder.counts, args, result, state)
            return result

        functools.update_wrapper(traced, fn)
        for attribute in ("cache_info", "cache_clear"):
            if hasattr(fn, attribute):
                setattr(traced, attribute, getattr(fn, attribute))
        return traced


class Hook:
    """Work counts taken at a span boundary: ``after`` sees the result."""

    def before(self, args):
        return None

    def after(self, counts: Counter, args, result, state) -> None:
        raise NotImplementedError


def self_times(spans: Sequence[list]) -> List[float]:
    """Per span: its duration minus the durations of its direct children.

    Children run strictly inside their parent on one thread, so their
    durations never overlap and their sum is the covered part.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def summarize(spans: Sequence[list]) -> Dict[str, dict]:
    """Calls, total time and self time per span name."""
    table: Dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
    return table


def top_level_seconds(spans: Sequence[list]) -> float:
    return sum(span[END] - span[START] for span in spans if span[PARENT] < 0)


def _traceable(module: types.ModuleType) -> Dict[str, tuple]:
    """Span name -> (owner, attribute, function) for one chsurf module."""
    layer = module.__name__.rsplit(".", 1)[-1]
    found: Dict[str, tuple] = {}

    def add(span_name, owner, attribute, fn):
        if span_name in found:
            raise RuntimeError(f"two traced callables would share the span {span_name}")
        found[span_name] = (owner, attribute, fn)

    for attribute, value in vars(module).items():
        if attribute.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        span_name = f"{layer}.{attribute}"
        if isinstance(value, (types.FunctionType, _LRU_TYPE)):
            if span_name not in HOT_FUNCTIONS:
                add(span_name, module, attribute, value)
        elif isinstance(value, type) and attribute not in HOT_CLASSES:
            for method, fn in vars(value).items():
                if not isinstance(fn, types.FunctionType):
                    continue  # properties, static methods, slots
                if method in TRACED_DUNDERS:
                    add(f"{layer}.{TRACED_DUNDERS[method]}", value, method, fn)
                elif not method.startswith("_"):
                    add(f"{layer}.{method}", value, method, fn)
    return found


def install(recorder: Recorder, modules: Sequence[types.ModuleType], hooks: Dict[str, Hook]) -> List[str]:
    """Replace every traced callable by its wrapper wherever a module names it.

    ``modules`` are the chsurf modules to trace (one per layer) plus any
    other chsurf module whose namespace re-exports their names.  Returns the
    traced span names.
    """
    originals: Dict[int, Callable] = {}
    names: List[str] = []
    for module in modules:
        if module.__name__.rsplit(".", 1)[-1] not in LAYERS:
            continue
        for span_name, (owner, attribute, fn) in _traceable(module).items():
            wrapper = recorder.wrap(span_name, fn, hooks.get(span_name))
            originals[id(fn)] = wrapper
            names.append(span_name)
    for module in modules:
        for attribute, value in list(vars(module).items()):
            if id(value) in originals:
                setattr(module, attribute, originals[id(value)])
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for method, fn in list(vars(value).items()):
                    if id(fn) in originals:
                        setattr(value, method, originals[id(fn)])
    return sorted(names)
