"""Phase timing: spans, tracers, and cross-process propagation.

A :class:`Span` times one phase of campaign execution (golden run,
corrupt, resume, compare, checkpoint write, a whole shard...).  Spans
nest: a :class:`Tracer` keeps the stack of open spans, and every span
records its parent, so the emitted events reconstruct into a tree.

Cross-process propagation is deliberately primitive — a
:class:`SpanContext` (trace id + parent span id) is a tiny frozen
dataclass the engine pickles into each shard worker's arguments.  The
worker builds its own tracer under that context, buffers finished
spans locally, and the engine folds the batches into one
``trace.jsonl``.  Span ids are ``pid.sequence`` pairs, the sequence
shared by every tracer in the process: unique across the process tree
without consuming randomness (telemetry must never touch the
campaign's RNG streams).

Each finished span is one JSONL dict (``kind: "span"``) readable with
:func:`repro.util.jsonlog.load_records_tolerant`, with the wall and
monotonic clocks of :mod:`repro.telemetry.clock`.
"""

from __future__ import annotations

import itertools
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.telemetry.clock import stamp

__all__ = ["NOOP_TRACER", "NoopTracer", "Span", "SpanContext", "Tracer"]

SpanSink = Callable[[dict[str, Any]], None]

#: The process-wide span sequence: tracers come and go (one per
#: campaign a process runs), span ids must not repeat.
_SPAN_SEQ = itertools.count(1)


@dataclass(frozen=True)
class SpanContext:
    """The picklable coordinates a child process continues a trace from."""

    trace_id: str
    span_id: str


class Span:
    """One timed phase; use as a context manager (``with tracer.span(...)``)."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "t_wall", "t_mono", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict[str, Any],
    ):
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self._tracer = tracer
        start = stamp()
        self.t_wall = start["t_wall"]
        self.t_mono = start["t_mono"]

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    @property
    def context(self) -> SpanContext:
        return SpanContext(self._tracer.trace_id, self.span_id)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._tracer._finish(self, exc)


class Tracer:
    """Creates spans and emits finished ones to a sink, one dict each.

    ``sink`` is any callable taking the span dict: ``JsonlLog.append``
    writes straight to ``trace.jsonl`` (serial engine), ``list.append``
    buffers for pipe shipment (shard workers).
    """

    enabled = True

    def __init__(
        self,
        sink: SpanSink,
        trace_id: str | None = None,
        parent: SpanContext | None = None,
    ):
        self._sink = sink
        if parent is not None:
            trace_id = parent.trace_id
        self.trace_id = trace_id or f"{os.getpid():x}-{time.monotonic_ns():x}"
        self._root_parent = parent.span_id if parent is not None else None
        self._stack: list[Span] = []

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; close it via the context-manager protocol."""
        parent_id = self._stack[-1].span_id if self._stack else self._root_parent
        span_id = f"{os.getpid():x}.{next(_SPAN_SEQ):x}"
        span = Span(self, name, span_id, parent_id, attrs)
        self._stack.append(span)
        return span

    def current_context(self) -> SpanContext | None:
        """Context of the innermost open span (for child-process handoff)."""
        if self._stack:
            return self._stack[-1].context
        if self._root_parent is not None:
            return SpanContext(self.trace_id, self._root_parent)
        return None

    def _finish(self, span: Span, exc: Any) -> None:
        # Exiting out of order (an outer `with` unwinding past an inner
        # span leaked by an exception) still pops the inner ones.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        record: dict[str, Any] = {
            "kind": "span",
            "trace": self.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "pid": os.getpid(),
            "t_wall": span.t_wall,
            "t_mono": span.t_mono,
            "dur_s": max(0.0, time.monotonic() - span.t_mono),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        if exc is not None:
            record["error"] = type(exc).__name__
        self._sink(record)


class _NoopSpan:
    """Shared do-nothing span for disabled tracing."""

    __slots__ = ()
    attrs: dict[str, Any] = {}

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled tracer: every span is the shared no-op singleton."""

    enabled = False
    trace_id = ""

    def span(self, name: str, **attrs: Any) -> Any:
        return _NOOP_SPAN

    def current_context(self) -> SpanContext | None:
        return None


#: Process-wide disabled tracer.
NOOP_TRACER = NoopTracer()
