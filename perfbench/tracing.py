"""Spans around finefrob's public functions, installed from outside.

``Tracer.install`` replaces every public module-level function of the layer
modules, in every ``finefrob`` module namespace that looks it up (for example
both ``finefrob.poly.factor`` and ``finefrob.jordan_chevalley.factor``), by a
wrapper that records a span.  Classes, and so ``Matrix`` and scalar
operators, are left alone: their call volume would swamp the run.  No file of
the program changes; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("poly", "matrix", "jordan_chevalley", "frobenius", "series", "jsonio")


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, rid]."""

    def __init__(self):
        self.spans: list[list] = []
        self.rid: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers: dict = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.rid])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def end_request(self, first: int):
        """Close what a timeout left open among the spans from ``first`` on."""
        now = perf_counter()
        for span in self.spans[first:]:
            if span[2] is None:
                span[2] = now
        self._stack.clear()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self):
        """Put the traced wrappers wherever a finefrob module names an original."""
        if not self._wrappers:
            self._wrappers = self._wrap_layers()
        wrappers = self._wrappers
        for name, module in list(sys.modules.items()):
            if name != "finefrob" and not name.startswith("finefrob."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def _wrap_layers(self) -> dict:
        """{id(original): wrapper} for the public functions of every layer."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"finefrob.{layer}")
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        return wrappers

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_stats(spans, keep=lambda span: True) -> dict:
    """{name: {"calls", "self_s", "p50_ms", "max_ms"}} over the kept spans."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    own = defaultdict(float)
    durations = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        if not keep(span):
            continue
        calls[span[0]] += 1
        own[span[0]] += self_s
        durations[span[0]].append(span[2] - span[1])
    return {
        name: {
            "calls": calls[name],
            "self_s": own[name],
            "p50_ms": 1000 * statistics.median(durations[name]),
            "max_ms": 1000 * max(durations[name]),
        }
        for name in calls
    }
