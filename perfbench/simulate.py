"""``simulate``: failure-injected replications of the simulated WFMS.

The merged five-scenario landscape runs at a fixed configuration with
replica failures injected.  One operation is one ``SimulatedWFMS``
construction plus ``run``; every replication seed derived from the
workload seed runs once in ``exact`` and once in ``fast`` mode, so a
gain in one mode that costs the other shows up.  This is the only
workload in which ``sim``, ``wfms`` and ``fastdraw`` do work.

A replication's size varies with its seed (the drain phase follows the
last long-running instance to completion), so its latency figures are
normalised per 1000 logical events: they compare the event cost, not
the luck of the draw.  The fast mode's figure is taken over all its
events (the inverse of its events/s), because its fixed per-replication
cost of pre-drawing variate blocks weighs more on small replications.
"""

from __future__ import annotations

import hashlib
import time

from repro import obs
from repro.core.performance import SystemConfiguration
from repro.scenarios import (
    bundled_scenarios,
    spec_to_project,
    spec_to_simulated_type,
)
from repro.sim.seeding import derive_seed
from repro.wfms.runtime import SimulatedWFMS

from perfbench import harness

CONFIGURATION = {
    "comm-server": 3, "wf-engine": 3, "app-server": 3,
    "wf-engine-2": 2, "app-server-2": 2,
}
#: Simulated time units per replication (no warm-up).
DURATION = 150.0
#: Replication pairs a timed run completes at least (20 keeps ten
#: samples beyond each median).
MIN_PAIRS = 20
#: Replication pairs of the fixed traced run.
TRACE_PAIRS = 6
MODES = ("exact", "fast")


class SimulateWorkload:
    """Exact/fast replication pairs over seeded replication seeds."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        specs = [entry.spec() for entry in bundled_scenarios()]
        self.server_types = spec_to_project(specs).server_types
        self.workflow_types = [spec_to_simulated_type(s) for s in specs]
        self.configuration = SystemConfiguration(dict(CONFIGURATION))
        self.fingerprints: dict[tuple[str, int], str] = {}
        self.records = 0
        self.max_pending = 0
        self._next = 0

    def _replication_seed(self, index: int) -> int:
        return derive_seed(self.seed, "perfbench-simulate", index)

    def _replicate(self, mode: str, index: int) -> tuple[int, str]:
        with obs.span("wfms.SimulatedWFMS"):
            wfms = SimulatedWFMS(
                self.server_types,
                self.configuration,
                self.workflow_types,
                seed=self._replication_seed(index),
                rng_mode=mode,
            )
        report = wfms.run(duration=DURATION)
        trail = report.trail
        records = (
            len(trail.state_visits)
            + len(trail.service_requests)
            + len(trail.instances)
        )
        self.records += records
        self.max_pending = max(
            self.max_pending, wfms.simulator.max_pending_events
        )
        fingerprint = hashlib.sha256(
            f"{report.format_text()}|{records}|{wfms.logical_events}".encode()
        ).hexdigest()
        return wfms.logical_events, fingerprint

    def _operation(self, log: harness.OpLog, mode: str, index: int) -> None:
        # A replication allocates tens of thousands of records; collecting
        # first lets each one start from the same collector state, as a
        # fresh run would, instead of paying for its predecessor's garbage.
        harness.settle()
        started = log.start()
        try:
            events, fingerprint = self._replicate(mode, index)
        except Exception:  # a failed operation is counted, not fatal
            log.failed += 1
            return
        log.add(mode, time.perf_counter() - started, work=events)
        self.fingerprints.setdefault((mode, index), fingerprint)

    def _pair(self, log: harness.OpLog, index: int) -> None:
        for mode in MODES:
            self._operation(log, mode, index)

    def warm(self) -> None:
        """One untimed replication in each mode."""
        for mode in MODES:
            self._replicate(mode, -1)

    def run(self, seconds: float) -> harness.OpLog:
        """Replication pairs for ``seconds`` and at least ``MIN_PAIRS``."""
        log = harness.OpLog()
        started = time.perf_counter()
        pairs = 0
        while pairs < MIN_PAIRS or time.perf_counter() - started < seconds:
            self._pair(log, self._next)
            self._next += 1
            pairs += 1
        return log

    def run_fixed(
        self, layers: harness.LayerTimes | None = None
    ) -> harness.OpLog:
        """The first ``TRACE_PAIRS`` replication pairs; traced with
        ``layers``."""
        self.records = 0
        self.max_pending = 0
        log = harness.OpLog()
        for index in range(TRACE_PAIRS):
            for mode in MODES:
                self._operation(log, mode, index)
                if layers is not None:
                    layers.fold()
        return log

    def check(self) -> list[str]:
        """A same-seed double run gives equal fingerprints in both modes."""
        problems = []
        for mode in MODES:
            if (mode, 0) not in self.fingerprints:
                problems.append(f"simulate: no {mode} replication completed")
                continue
            _events, again = self._replicate(mode, 0)
            if again != self.fingerprints[(mode, 0)]:
                problems.append(
                    f"simulate: {mode} replication 0 differs on a rerun"
                )
        return problems

    @staticmethod
    def end_to_end(log: harness.OpLog) -> dict[str, float]:
        """Exact events/s; exact median and fast overall ms per 1000
        logical events."""
        return {
            "throughput_per_s": log.rate("exact"),
            "p50_ms": log.percentile_ms("exact", 50, per_units=1000),
            "alt_ms": 1e6 / log.rate("fast"),
        }

    def counters(self, log: harness.OpLog) -> dict[str, float]:
        """Logical events, records per operation, calendar and memory."""
        operations = log.attempted - log.failed
        return {
            "sim.logical_events": sum(sum(w) for w in log.work.values()),
            "wfms.audit_records_per_op": (
                self.records / operations if operations else 0.0
            ),
            "simulator.max_pending_events": self.max_pending,
        }
