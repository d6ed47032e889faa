"""Span recording around nsbox's public functions, from outside the package.

A wrapper replaces a function in every loaded ``nsbox`` module namespace
that binds it, because callers look names up where they imported them:
``signalling`` calls its own ``sample_batches`` binding, not
``macro.sample_batches``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None


class Tracer:
    """Collects spans, counters and notes while ``active``; ``op_id`` tags
    everything recorded while one benchmark op runs, and ``op_pass[op_id]``
    is that op's pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int | None, Counter] = {}
        self.notes: dict[int | None, list] = {}
        self.op_id: int | None = None
        self.op_pass: list[int] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts.setdefault(self.op_id, Counter())[name] += amount

    def note(self, name: str, payload) -> None:
        self.notes.setdefault(self.op_id, []).append((name, payload))

    def wrap(self, name: str, fn, on_return=None):
        """Wrap ``fn`` in a span named ``name``; ``on_return(tracer,
        bound_arguments, result)`` records counters at the boundary."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_id, name, time.perf_counter(), 0.0, parent, self.op_id)
            self.spans.append(span)
            self._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self.count(f"{name}.calls")
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, bound.arguments, result)
            return result

        return wrapper

    def install(self, module_name: str, attr: str, name: str, on_return=None) -> None:
        """Replace ``module_name.attr`` in every nsbox namespace that binds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(name, original, on_return)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "nsbox" or mod_name.startswith("nsbox.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children clipped to the parent's interval)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(span.span_id, [])
            if min(hi, span.end) > max(lo, span.start)
        ]
        out[span.span_id] = (span.end - span.start) - covered_length(clipped)
    return out
