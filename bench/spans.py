"""Layer spans recorded from outside the library.

``installed(tracer)`` replaces, for the duration of a ``with`` block, the
names through which the layers call each other with wrappers that time
each call.  Each span's parent is the span open when it started; a span's
self time is its duration minus the time of its direct children.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import cached_property, wraps
from time import perf_counter

# (module, name looked up at call time, span name)
CALL_SITES = (
    ("bisign.cli", "parse", "cli.parse"),
    ("bisign.cli", "serialize", "cli.serialize"),
    ("bisign.cli", "uniformize", "uniform.uniformize"),
    ("bisign.cli", "build_graph", "core.build_graph"),
    ("bisign.cli", "is_balanced", "balance.is_balanced"),
    ("bisign.cli", "is_antibalanced", "balance.is_antibalanced"),
    ("bisign.uniform", "associated_signed", "convert.associated_signed"),
    ("bisign.uniform", "is_antibalanced", "balance.is_antibalanced"),
    ("bisign.uniform", "reorient", "uniform.reorient"),
    ("bisign.balance", "negate_signed", "convert.negate_signed"),
    ("bisign.balance", "is_balanced", "balance.is_balanced"),
)


class Tracer:
    """Per-span-name call counts and total / child seconds; the stack of
    open spans gives each span its parent."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.child: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.child[name] += child
        if self._stack:
            self._stack[-1][2] += duration

    def self_seconds(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def wrap_iter(self, name: str, fn):
        """Wrap a generator function; each ``next`` is one span."""

        @wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                yield item

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Route the library's internal calls through ``tracer``, including the
    ``Graph.incidence`` build and ``BidirectedGraph`` construction."""
    from bisign.core import BidirectedGraph, Graph

    saved = []
    try:
        for module, attr, span in CALL_SITES:
            mod = sys.modules[module]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(span, original))
        incidence = Graph.__dict__["incidence"]
        saved.append((Graph, "incidence", incidence))
        traced_incidence = cached_property(tracer.wrap("core.incidence", incidence.func))
        traced_incidence.__set_name__(Graph, "incidence")
        Graph.incidence = traced_incidence
        init = BidirectedGraph.__dict__["__init__"]
        saved.append((BidirectedGraph, "__init__", init))
        BidirectedGraph.__init__ = tracer.wrap("core.BidirectedGraph", init)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
