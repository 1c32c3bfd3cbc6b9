"""Span tracer that wraps library functions from outside the package.

`Tracer.install` replaces each listed function in every `linkedgrass`
module namespace that binds it, so calls through module globals
(`gf.rref` calling `reduce_vec`), through attribute access
(`weyl.length`) and through names imported with `from ... import`
(`admissible.generated`) all pass through the wrapper.  Classes are traced
through their `__init__`; generator functions are traced per resume, so a
generator's span covers the time spent producing items, not the consumer's.

Spans are aggregated by (parent span, span) edge rather than kept one by
one, which keeps memory flat over millions of calls.  Self time is a span's
duration minus the duration of its traced children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

ROOT = "<root>"


class Edge:
    """Aggregate of every span of one function under one parent."""

    __slots__ = ("calls", "total_s", "self_s", "measured")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.measured = 0


class Tracer:
    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], Edge] = {}
        # one frame per open span: [name, start, children_total]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _edge(self, name: str) -> Edge:
        parent = self._stack[-1][0] if self._stack else ROOT
        key = (parent, name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = Edge()
        return edge

    def _close(self, edge: Edge, frame: list) -> None:
        self._stack.pop()
        duration = perf_counter() - frame[1]
        edge.total_s += duration
        edge.self_s += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap_function(self, name, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            edge = self._edge(name)
            edge.calls += 1
            frame = [name, perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(edge, frame)
            if measure is not None:
                edge.measured += measure(result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._edge(name).calls += 1
            inner = fn(*args, **kwargs)
            while True:
                # each resume is a span under whoever resumed the generator
                edge = self._edge(name)
                frame = [name, perf_counter(), 0.0]
                self._stack.append(frame)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(edge, frame)
                edge.measured += 1
                yield item

        return traced

    # -- installation --------------------------------------------------------

    def install(self, targets, measures=None) -> None:
        """Wrap each `(module, attribute, span_name)` target.

        `measures` maps a span name to a function of the call's result whose
        values are summed per edge; generator spans count their yields.
        """
        measures = measures or {}
        package = [m for n, m in sorted(sys.modules.items()) if n.startswith("linkedgrass")]
        for module, attr, name in targets:
            original = getattr(module, attr)
            if inspect.isclass(original):
                init = original.__init__
                self._restore.append((original, "__init__", init))
                original.__init__ = self._wrap_function(name, init, None)
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_function(name, original, measures.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and measured sum over all parents."""
        out: dict[str, dict[str, float]] = {}
        for (_, name), edge in self.edges.items():
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "measured": 0})
            row["calls"] += edge.calls
            row["self_s"] += edge.self_s
            row["measured"] += edge.measured
        return out

    def edge(self, parent: str, name: str) -> Edge:
        return self.edges.get((parent, name), Edge())
