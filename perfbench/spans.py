"""Spans and counts around calls into the library, recorded from outside.

`Tracer.install` replaces each traced public function with a wrapper in
every `wdlab` module that binds it, so calls the library makes to itself
(`conjecture_sweep` -> `additive_coefficient` -> `expand_capped`) are
traced too. The library source is not touched; `uninstall` puts the
originals back.

A span is (name, start, end, parent, instance id), where the parent is the
index of the wrapped call the span ran inside, or -1. A name's self time
is the sum of its spans' durations minus the durations of their direct
children.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from math import prod
from time import perf_counter
from typing import Callable, Optional

import wdlab
from wdlab import coloring, eulerian, graphs, polynomials, wd
from wdlab.errors import BoundExceededError

MODULES = (wdlab, graphs, wd, eulerian, polynomials, coloring)


def _build_wd(counts, args, kwargs, result, exc):
    if result is not None:
        counts["wd.arcs"] += len(result.arcs)
        counts["wd.gamma_paths"] += sum(1 for _, head in result.arcs if isinstance(head, wd.Star))


def _classic(counts, args, kwargs, result, exc):
    if isinstance(exc, BoundExceededError):
        counts["eulerian.count_ee_eo_classic.bound"] += 1


def _expand(counts, args, kwargs, result, exc):
    counts["polynomials.factor_support"] += sum(f.support() for f in args[0])
    if result is not None:
        counts["polynomials.final_terms"] += len(result.terms)


def _lexicographic_rank(lists, ell) -> int:
    """Position of `ell` in the product of the sorted lists, from 0."""
    rank = 0
    for v in sorted(lists):
        values = sorted(set(lists[v]))
        rank = rank * len(values) + values.index(ell[v])
    return rank


def _find(counts, args, kwargs, result, exc):
    G, lists = args[0], args[1]
    if isinstance(exc, BoundExceededError):
        counts["coloring.find_additive_coloring.bound"] += 1
    elif result is None and exc is None:
        counts["coloring.none"] += 1
        counts["coloring.combinations"] += prod(len(set(lists[v])) for v in G.vertices())
    elif result is not None:
        counts["coloring.combinations"] += _lexicographic_rank(lists, result) + 1


def _sweep(counts, args, kwargs, result, exc):
    if result is not None:
        counts["coloring.orientations"] += result.examined


#: Traced functions as (module, name, count hook). A hook sees the call's
#: arguments and its result or exception after the span has ended.
TARGETS: tuple[tuple[object, str, Optional[Callable]], ...] = (
    (graphs, "parse", None),
    (graphs, "orientation_from_index", None),
    (wd, "build_wd", _build_wd),
    (eulerian, "count_ee_eo_wd", None),
    (eulerian, "count_ee_eo_classic", _classic),
    (polynomials, "additive_coefficient", None),
    (polynomials, "classical_coefficient", None),
    (polynomials, "expand_capped", _expand),
    (coloring, "find_additive_coloring", _find),
    (coloring, "conjecture_sweep", _sweep),
    (coloring, "check_simplicial_sink_hypothesis", None),
)

#: Span names, `<module>.<function>`, in TARGETS order.
NAMES = tuple(f"{mod.__name__.rsplit('.', 1)[1]}.{fn}" for mod, fn, _ in TARGETS)


class Tracer:
    """Records spans while `active`; wrappers are pass-through otherwise."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.instance: Optional[str] = None
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.instance)
                counts[name + ".calls"] += 1
                if hook is not None:
                    hook(counts, args, kwargs, result, exc)

        return wrapper

    def install(self) -> None:
        for (mod, fn_name, hook), name in zip(TARGETS, NAMES):
            original = getattr(mod, fn_name)
            wrapper = self._wrap(name, original, hook)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self, first: int = 0, last: Optional[int] = None) -> dict[str, float]:
        """Self seconds per span name over spans[first:last]."""
        spans = self.spans[first:last]
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            own[name] += end - start
            if parent >= first:
                own[spans[parent - first][0]] -= end - start
        return {name: own.get(name, 0.0) for name in NAMES}

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent index, instance."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, instance in self.spans:
                fh.write(json.dumps([name, start, end, parent, instance]) + "\n")
