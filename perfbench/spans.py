"""In-memory span recording and self-time arithmetic.

A span is ``(name, start, end, parent)``: ``layer/Qualified.name`` of the
wrapped function, two ``perf_counter`` readings and the index of the
enclosing span (``-1`` for the root).  Spans are appended in call order
and kept in memory until the repetition ends; :func:`self_times` then
folds them into per-layer self time, which is a span's duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ROOT",
    "Span",
    "SpanRecorder",
    "layer_entries",
    "layer_of",
    "outermost_time",
    "self_times",
]

#: the layer name of the span around one whole workload repetition
ROOT = "workload"

Span = Tuple[str, float, float, int]


def layer_of(name: str) -> str:
    """The layer part of a span name (``broker/ContentBroker.rebuild``)."""
    return name.partition("/")[0]


class SpanRecorder:
    """Collects spans from wrapped functions on one thread."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = [-1]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span called ``name`` per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def run_root(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside the root span."""
        return self.wrap(fn, ROOT)(*args, **kwargs)

    def finished(self) -> List[Span]:
        """Every span; all must be closed (parents refer by position)."""
        if any(span is None for span in self.spans):
            raise RuntimeError("a span is still open")
        return list(self.spans)


def _covered(
    start: float, end: float, intervals: Sequence[Tuple[float, float]]
) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: duration minus the child-covered interval.

    ``spans`` refer to their parents by position in the sequence.  The
    self times of all layers add up to the root spans' total duration.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered = _covered(start, end, children.get(index, ()))
        totals[layer_of(name)] += (end - start) - covered
    return dict(totals)


def outermost_time(spans: Sequence[Span], name: str) -> float:
    """Inclusive time of the ``name`` spans not nested in another.

    A rebuild inside a rebuild is counted once, through its outermost
    span, so the time is a share of the wall clock.
    """
    inside: List[bool] = []
    total = 0.0
    for span_name, start, end, parent in spans:
        enclosed = parent >= 0 and inside[parent]
        inside.append(enclosed or span_name == name)
        if span_name == name and not enclosed:
            total += end - start
    return total


def layer_entries(spans: Sequence[Span]) -> Dict[str, int]:
    """Calls into each layer: spans whose parent is in another layer."""
    counts: Dict[str, int] = defaultdict(int)
    for name, _, _, parent in spans:
        layer = layer_of(name)
        if parent < 0 or layer_of(spans[parent][0]) != layer:
            counts[layer] += 1
    return dict(counts)
