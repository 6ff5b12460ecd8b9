"""Lightweight span-based tracing with a no-op fast path.

A :class:`Span` measures the wall time (``time.perf_counter``) of one
named region — a Gauss-Seidel solve, a performability evaluation, a
simulation run — as a context manager.  Spans nest: the tracer keeps one
active-span stack per thread, so each finished span records the name of
its parent on the same thread, giving a hierarchical view of where a
pipeline spent its time without any global interpreter hooks.

While the tracer is disabled, :meth:`Tracer.span` returns a shared
:data:`NO_OP_SPAN` singleton without allocating anything, which keeps
instrumented hot paths within noise of their uninstrumented versions
(guarded by ``tests/obs/test_overhead.py``).

The tracer doubles as the sink for the optional simulation *event
trace*: discrete events (server failures, instance completions) recorded
via :meth:`Tracer.event` are exported alongside the spans as JSON lines.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.exceptions import ValidationError


class _NoOpSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        """Discard the attribute."""


#: The singleton no-op span (identity-checkable in tests).
NO_OP_SPAN = _NoOpSpan()


class Span:
    """One timed, named, attributed region of execution."""

    __slots__ = ("name", "attributes", "parent", "started_at", "duration",
                 "_tracer", "_start")

    def __init__(self, tracer: "Tracer", name: str,
                 attributes: dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self.parent: str | None = None
        self.started_at: float | None = None
        self.duration: float | None = None
        self._tracer = tracer
        self._start = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach or update one attribute (iterations, residuals, ...)."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        stack = self._tracer._local.stack
        self.parent = stack[-1].name if stack else None
        stack.append(self)
        self.started_at = time.perf_counter()
        self._start = self.started_at
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.duration = time.perf_counter() - self._start
        stack = self._tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._finish(self)
        return False

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready document of the span."""
        return {
            "type": "span",
            "name": self.name,
            "parent": self.parent,
            "started_at": self.started_at,
            "duration_s": self.duration,
            "attributes": self.attributes,
        }


class _SpanStack(threading.local):
    """The open spans of the current thread, innermost last."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


class Tracer:
    """Collects finished spans and discrete events.

    ``max_records`` bounds memory: beyond it, new spans/events are
    counted as dropped instead of stored (long simulation runs can emit
    millions of events).
    """

    def __init__(self, enabled: bool = True,
                 max_records: int = 1_000_000) -> None:
        if max_records < 1:
            raise ValidationError("max_records must be >= 1")
        self._enabled = bool(enabled)
        self._max_records = max_records
        self.spans: list[Span] = []
        self.events: list[dict[str, Any]] = []
        self.dropped = 0
        self._local = _SpanStack()
        # Span aggregates folded in from other processes' tracers via
        # merge_snapshot; span_summary() combines them with local spans.
        self._merged_summary: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Enable switch
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether span recording is currently on."""
        return self._enabled

    def enable(self) -> None:
        """Turn span recording on."""
        self._enabled = True

    def disable(self) -> None:
        """Turn span recording off (recorded spans are kept)."""
        self._enabled = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span | _NoOpSpan:
        """Open a timed span; use as a context manager.

        Returns the shared :data:`NO_OP_SPAN` while disabled — the fast
        path is a single attribute check plus the kwargs packing.
        """
        if not self._enabled:
            return NO_OP_SPAN
        return Span(self, name, attributes)

    def event(self, kind: str, **fields: Any) -> None:
        """Record one discrete event (simulation trace line)."""
        if not self._enabled:
            return
        if len(self.events) >= self._max_records:
            self.dropped += 1
            return
        record = {"type": "event", "event": kind}
        record.update(fields)
        self.events.append(record)

    def _finish(self, span: Span) -> None:
        if len(self.spans) >= self._max_records:
            self.dropped += 1
            return
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_span(self) -> Span | None:
        """The innermost span currently open on the calling thread."""
        stack = self._local.stack
        return stack[-1] if stack else None

    def span_summary(self) -> dict[str, dict[str, float]]:
        """Aggregate finished spans by name: count and timing stats.

        Includes aggregates merged in from worker tracers via
        :meth:`merge_snapshot`.
        """
        summary: dict[str, dict[str, float]] = {
            name: dict(entry)
            for name, entry in self._merged_summary.items()
        }
        for span in self.spans:
            duration = span.duration or 0.0
            entry = summary.get(span.name)
            if entry is None:
                summary[span.name] = {
                    "count": 1,
                    "total_s": duration,
                    "min_s": duration,
                    "max_s": duration,
                }
            else:
                entry["count"] += 1
                entry["total_s"] += duration
                if duration < entry["min_s"]:
                    entry["min_s"] = duration
                if duration > entry["max_s"]:
                    entry["max_s"] = duration
        for entry in summary.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return dict(sorted(summary.items()))

    def reset(self) -> None:
        """Drop all recorded spans and events (open spans stay open)."""
        self.spans.clear()
        self.events.clear()
        self.dropped = 0
        self._merged_summary.clear()

    # ------------------------------------------------------------------
    # Cross-process snapshots
    # ------------------------------------------------------------------
    def export_snapshot(self) -> dict[str, Any]:
        """Picklable summary of this tracer for the parent process.

        Ships the per-name span aggregates (not individual spans — a
        worker may have finished thousands) plus the recorded discrete
        events and the drop count.
        """
        return {
            "spans": self.span_summary(),
            "events": list(self.events),
            "dropped": self.dropped,
        }

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a worker tracer's snapshot into this tracer.

        Span aggregates combine count/total/min/max per name; events
        append in the order given (the caller merges worker snapshots
        in a deterministic order), still bounded by ``max_records``.
        Merging bypasses the enable switch — the records already exist.
        """
        for name, entry in snapshot.get("spans", {}).items():
            mine = self._merged_summary.get(name)
            if mine is None:
                self._merged_summary[name] = {
                    "count": entry["count"],
                    "total_s": entry["total_s"],
                    "min_s": entry["min_s"],
                    "max_s": entry["max_s"],
                }
                continue
            mine["count"] += entry["count"]
            mine["total_s"] += entry["total_s"]
            if entry["min_s"] < mine["min_s"]:
                mine["min_s"] = entry["min_s"]
            if entry["max_s"] > mine["max_s"]:
                mine["max_s"] = entry["max_s"]
        for event in snapshot.get("events", ()):
            if len(self.events) >= self._max_records:
                self.dropped += 1
                continue
            self.events.append(event)
        self.dropped += snapshot.get("dropped", 0)
