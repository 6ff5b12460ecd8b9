"""Shared timing, tracing and reporting helpers of the benchmark.

Every workload module exposes a class with the same shape:

* ``__init__(seed)`` builds the workload's inputs from the seed (the
  timed set-up);
* ``run(seconds)`` executes a run of about ``seconds`` and returns an
  :class:`OpLog`;
* ``run_fixed(layers)`` executes a fixed list of operations, the same
  on every run with that seed, so the traced run's counts repeat; with
  a :class:`LayerTimes` it folds the spans of each operation into it;
* ``check()`` returns a list of correctness problems (empty when the
  program's outputs are right);
* ``end_to_end(log)`` maps a log onto the benchmark's end-to-end
  metrics, ``counters(log)`` onto the workload's own per-layer counts.

Layer spans are opened with :func:`repro.obs.span`, so they are free
no-ops while observability is off (the end-to-end runs) and nest with
the program's own spans in one trace when it is on.  :class:`LayerTimes`
folds the finished spans into per-layer ``calls``/``total_s``/``self_s``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro import obs

from perfbench import hostspeed


@dataclass
class OpLog:
    """Durations (seconds) and sizes of the timed operations, by kind.

    An operation is timed between :meth:`start` and :meth:`add`, which
    sample the host-speed reference around it (see
    :mod:`perfbench.hostspeed`).  ``durations`` holds the times scaled
    to the reference speed, ``measured`` the times as measured.
    ``failed`` counts operations that raised or were refused; they have
    no sample.  ``work`` holds each successful operation's size in the
    workload's unit of work (specs, records, events).  ``wall_s`` is
    the measured wall time of the whole timed phase, where a workload
    takes it; ``references`` holds every reference sample of the run.
    """

    durations: dict[str, list[float]] = field(default_factory=dict)
    measured: dict[str, list[float]] = field(default_factory=dict)
    work: dict[str, list[float]] = field(default_factory=dict)
    failed: int = 0
    wall_s: float = 0.0
    references: list[float] = field(default_factory=list)

    def start(self) -> float:
        """Sample the host speed; returns the operation's start time."""
        self.references.append(hostspeed.reference_time())
        return time.perf_counter()

    def add(self, kind: str, seconds: float, work: float = 1.0) -> None:
        """Record one successful operation of ``kind`` that took
        ``seconds`` since :meth:`start`."""
        before = self.references[-1]
        self.references.append(hostspeed.reference_time())
        scaled = seconds * hostspeed.scale([before, self.references[-1]])
        self.durations.setdefault(kind, []).append(scaled)
        self.measured.setdefault(kind, []).append(seconds)
        self.work.setdefault(kind, []).append(work)

    def wall_scaled(self) -> float:
        """``wall_s`` at the reference speed, scaled by the run's mean
        reference sample."""
        return self.wall_s * hostspeed.scale(self.references)

    def as_measured(self) -> "OpLog":
        """A copy that reports the times as measured, unscaled."""
        return OpLog(
            durations=self.measured,
            measured=self.measured,
            work=self.work,
            failed=self.failed,
            wall_s=self.wall_s,
            references=[hostspeed.REFERENCE_S],
        )

    @property
    def attempted(self) -> int:
        """Operations attempted: successful plus failed."""
        return self.failed + sum(len(v) for v in self.durations.values())

    def busy(self, *kinds: str) -> float:
        """Summed duration of the operations of ``kinds`` (all if none)."""
        chosen = kinds or tuple(self.durations)
        return sum(sum(self.durations.get(kind, ())) for kind in chosen)

    def rate(self, *kinds: str) -> float:
        """Work units per second of operation time over ``kinds``."""
        chosen = kinds or tuple(self.durations)
        work = sum(sum(self.work.get(kind, ())) for kind in chosen)
        busy = self.busy(*chosen)
        return work / busy if busy > 0.0 else math.nan

    def percentile_ms(
        self, kind: str, percent: int, per_units: float | None = None
    ) -> float:
        """The ``percent``-th percentile of ``kind`` in milliseconds.

        With ``per_units`` each duration is first scaled to that many
        units of work.  Refuses (returns NaN) unless at least ten
        samples lie beyond the percentile, so a tail figure always
        rests on a real tail.
        """
        samples = self.durations.get(kind, [])
        if per_units is not None:
            samples = [
                seconds * per_units / work
                for seconds, work in zip(samples, self.work[kind])
            ]
        beyond = len(samples) * (100 - percent) / 100.0
        if beyond < 10.0:
            return math.nan
        if percent == 50:
            return statistics.median(samples) * 1e3
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        return cuts[percent - 1] * 1e3


def settle() -> None:
    """Collect garbage between timed phases (GC itself stays enabled)."""
    gc.collect()


def timed_loop(seconds: float, operation: Callable[[], None]) -> None:
    """Call ``operation`` again until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        operation()


class LayerTimes:
    """Per-layer calls, total and self time from finished obs spans.

    Only spans whose name is one of ``layers`` count.  A layer's self
    time is its spans' duration minus the part covered by child spans
    of *other* listed layers; the program's unlisted spans (solver
    spans, search loops) are attributed to the layer that encloses
    them.  Spans must come from one thread, so they nest exactly.
    """

    def __init__(self, layers: Iterable[str]) -> None:
        self.layers = tuple(layers)
        self._wanted = frozenset(self.layers)
        self.calls = {name: 0 for name in self.layers}
        self.total_s = {name: 0.0 for name in self.layers}
        self.self_s = {name: 0.0 for name in self.layers}

    def fold(self, tracer: obs.Tracer | None = None) -> None:
        """Consume a tracer's finished spans (the default tracer's unless
        given), then drop them."""
        tracer = tracer if tracer is not None else obs.tracer()
        spans = sorted(
            (
                (span.started_at, span.duration, span.name)
                for span in tracer.spans
                if span.name in self._wanted and span.duration is not None
            ),
            key=lambda item: (item[0], -item[1]),
        )
        tracer.reset()
        stack: list[list] = []  # [end, name, child_time, duration]
        for start, duration, name in spans:
            while stack and stack[-1][0] <= start:
                self._close(stack.pop())
            if stack:
                stack[-1][2] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            stack.append([start + duration, name, 0.0, duration])
        while stack:
            self._close(stack.pop())

    def _close(self, entry: list) -> None:
        _end, name, child, duration = entry
        self.self_s[name] += max(duration - child, 0.0)

    def metrics(self) -> dict[str, float]:
        """``<layer>.calls`` / ``.total_s`` / ``.self_s`` per layer."""
        out: dict[str, float] = {}
        for name in self.layers:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out


def span_assessments(evaluator) -> None:
    """Wrap one ``GoalEvaluator``'s ``assess`` in a ``core.goals.assess``
    span (the search calls it through the instance)."""
    assess = evaluator.assess

    def traced_assess(*args, **kwargs):
        with obs.span("core.goals.assess"):
            return assess(*args, **kwargs)

    evaluator.assess = traced_assess


def counter(name: str) -> float:
    """Current value of an obs counter (0 when never incremented)."""
    return obs.registry().counter(name).value


def cache_hit_ratio() -> tuple[float, float]:
    """Hit ratio of all evaluation-cache lookups, and its base."""
    hits = misses = 0.0
    for family in ("assessments", "waiting_curve", "pool_marginals"):
        hits += counter(f"evaluation_cache.{family}.hits")
        misses += counter(f"evaluation_cache.{family}.misses")
    lookups = hits + misses
    return (hits / lookups if lookups else 0.0), lookups
