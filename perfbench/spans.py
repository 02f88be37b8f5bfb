"""In-memory spans and counters for the traced run, plus the arithmetic on them.

A span has a name, a start, an end, a parent span and an op id; all spans of
one command-line call share the op id.  Spans are kept in a list and written
out once, when the traced run ends.  Layer functions are traced by replacing
them, where the calling module binds them, with a wrapper that opens a span
(see :meth:`Tracer.wrap`); nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self.op = None

    def begin(self, name: str) -> int:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span["id"]

    def end(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed out of order (open: {popped})")

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, module, attr: str, name, on_result=None) -> None:
        """Trace ``module.attr`` under a span called ``name``.

        ``name`` is a string or a function of the call's ``(args, kwargs)``.
        Calls are counted as ``<name>.calls`` and exceptions that escape the
        call as ``<layer>.errors``.  ``on_result(tracer, span, args, kwargs,
        result)`` may record more counters and may return a replacement
        result.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            tracer.count(f"{span_name}.calls")
            sid = tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(f"{span_name.split('.', 1)[0]}.errors")
                raise
            finally:
                tracer.end(sid)
            if on_result is not None:
                replaced = on_result(tracer, tracer.spans[sid], args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        setattr(module, attr, traced)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        clipped = [(max(c["start"], lo), min(c["end"], hi)) for c in children[s["id"]]]
        out[s["id"]] = duration(s) - covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def totals_by_name(spans) -> dict[str, float]:
    """Inclusive time per span name; nested spans of one name count once."""
    by_id = {s["id"]: s for s in spans}
    out = defaultdict(float)
    for s in spans:
        p = s["parent"]
        nested = False
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                nested = True
                break
            p = by_id[p]["parent"]
        if not nested:
            out[s["name"]] += duration(s)
    return dict(out)


def self_by_layer(spans) -> dict[str, float]:
    """Self time summed per layer (the span name up to its first dot)."""
    st = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s["name"].split(".", 1)[0]] += st[s["id"]]
    return dict(out)
