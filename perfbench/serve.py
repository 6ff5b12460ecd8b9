"""``serve``: the always-on recommendation service under a closed loop.

An in-process ``RecommendationService`` serves one client thread.  The
client POSTs fixed-size chunks of a time-ordered audit feed to
``/events`` and then polls ``/status`` until ``age_records == 0``, i.e.
until the published recommendation covers the chunk; only then does it
send the next chunk, like a shipper that waits for each
acknowledgement.  Because each publish is awaited, background searches
never supersede each other and every operation does the same work.

This is the only workload that runs HTTP, JSONL parsing, streaming
calibration, drift detection and the warm re-search with
``EvaluationCache.rebind``.

The feed is simulated in set-up on the merged five-scenario landscape;
from a seeded point on its arrival rates are ``LOAD_FACTOR`` times
higher, a load shift the drift monitor confirms.  Records
are merged by completion time, as a monitoring pipeline would ship
them.  Each *session* starts a fresh service and replays the whole feed
into it.  A run is a number of sessions fixed by ``--seconds`` alone
(see :func:`sessions`): the calibrator's state grows with the records
it has seen, so every run weights the feed positions alike.

A POST answered with an error is a failed operation.  It is not retried
and the feed is not shaped to avoid it.
"""

from __future__ import annotations

import http.client
import json
import os
import time

from repro import obs
from repro.core.evaluation_cache import EvaluationCache
from repro.core.performance import SystemConfiguration
from repro.monitor.drift import DriftMonitor
from repro.monitor.persistence import _record_lines, parse_record_line
from repro.monitor.stream import StreamingCalibrator
from repro.scenarios import (
    bundled_scenarios,
    spec_to_project,
    spec_to_simulated_type,
)
from repro.service import (
    DEFAULT_TENANT,
    RecommendationService,
    SearchSettings,
    parse_goals,
    recommend_from_calibration,
    render_document,
)
from repro.sim.seeding import derive_rng, derive_seed
from repro.wfms.runtime import SimulatedWFMS

from perfbench import harness
from perfbench.simulate import CONFIGURATION

GOALS = "max-waiting=0.5,max-unavailability=1e-4"
#: Simulated time of the feed, the warm-up dropped before it, and the
#: arrival-rate factor of the load shift.
FEED_DURATION = 1000.0
WARMUP = 50.0
LOAD_FACTOR = 1.5
#: Records per POST; the feed splits into some 200 chunks.
CHUNK = 250
#: Untimed chunks before an end-to-end run.
WARM_CHUNKS = 20
#: Nominal seconds of one session, which sets the sessions per run.
SESSION_SECONDS = 4.0
STATUS = f"/status?tenant={DEFAULT_TENANT}"
#: Sort rank of the record kinds that share a timestamp.
KIND_RANK = {"state_visit": 0, "service_request": 1, "instance": 2}
#: Calibrator window of the service (its default).
WINDOW = 1000.0
#: Longest wait for one publish before the operation counts as failed.
PUBLISH_TIMEOUT = 10.0
POLL_INTERVAL = 0.001


def build_feed(seed: int, specs, server_types) -> list[str]:
    """The seeded, completion-time-ordered JSONL feed, one line each.

    One simulation runs at ``LOAD_FACTOR`` times the specs' arrival
    rates.  Instances that start before the seeded shift point are
    thinned to one in ``LOAD_FACTOR`` (all their records go), which
    leaves a Poisson stream at the specs' own rates: the feed's load
    steps up at the shift point.  Only instances that complete are
    kept, so every instance in the feed is whole from the warm-up on.
    """
    rng = derive_rng(seed, "perfbench-serve")
    shift_at = WARMUP + FEED_DURATION * rng.uniform(0.35, 0.65)
    workflow_types = [
        spec_to_simulated_type(
            spec, arrival_rate=spec.arrival.rate * LOAD_FACTOR
        )
        for spec in specs
    ]
    wfms = SimulatedWFMS(
        server_types,
        SystemConfiguration(dict(CONFIGURATION)),
        workflow_types,
        seed=derive_seed(seed, "perfbench-serve-feed"),
        rng_mode="fast",
    )
    trail = wfms.run(duration=FEED_DURATION, warmup=WARMUP).trail
    kept = {
        instance.instance_id
        for instance in trail.instances
        if instance.started_at >= shift_at
        or rng.random() * LOAD_FACTOR < 1.0
    }
    records = [
        record for record in _record_lines(trail)
        if record["instance_id"] in kept
    ]
    # Python's sort is stable, so ties keep save_trail's order.
    records.sort(key=lambda record: (
        record.get("left_at", record.get("completed_at")),
        KIND_RANK[record["kind"]],
    ))
    return [json.dumps(record, sort_keys=True) for record in records]


class ServeWorkload:
    """Closed-loop client sessions, each against a fresh service."""

    # The trace overhead compares the handler replay's two timings.
    overhead_kinds = ("replay",)

    def __init__(self, seed: int) -> None:
        pin_to_one_cpu()
        self.seed = seed
        specs = [entry.spec() for entry in bundled_scenarios()]
        self.baseline = spec_to_project(specs)
        self.goals = parse_goals(GOALS)
        self.settings = SearchSettings()
        lines = build_feed(seed, specs, self.baseline.server_types)
        # The first POST reaches the first completed instance: before it
        # there is no workload to recommend against.
        first = next(
            i for i, line in enumerate(lines) if '"kind": "instance"' in line
        )
        bounds = [0, *range(max(CHUNK, first + 1), len(lines), CHUNK)]
        self.chunks = [
            (("\n".join(lines[start:end]) + "\n").encode(), end - start)
            for start, end in zip(bounds, [*bounds[1:], len(lines)])
        ]
        self.problems: list[str] = []
        self.first_error = ""
        self.live_counts: dict[str, float] = {}
        self.service: RecommendationService | None = None

    def close(self) -> None:
        """Stop the running service, if any, and join its threads."""
        if self.service is not None:
            self.service.stop(snapshot=False)
            self.service = None

    def _start(self) -> None:
        self.close()
        self.service = RecommendationService(
            self.baseline, self.goals, self.settings, window=WINDOW
        )
        self.service.start()

    # ------------------------------------------------------------------
    # HTTP client
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.service.host, self.service.port, timeout=PUBLISH_TIMEOUT
        )
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _operation(
        self, position: int, log: harness.OpLog, tracer: obs.Tracer
    ) -> None:
        chunk, records = self.chunks[position]
        started = log.start()
        with tracer.span("service.post_events"):
            status, body = self._request("POST", "/events", chunk)
        if status != 200:
            log.failed += 1
            if not self.first_error:
                self.first_error = f"{status} {body.decode()[:200]}"
            return
        deadline = started + PUBLISH_TIMEOUT
        with tracer.span("service.publish_wait"):
            while True:
                _status, body = self._request("GET", STATUS)
                meta = json.loads(body)
                if meta["published"] and meta["age_records"] == 0:
                    break
                if time.perf_counter() > deadline:
                    log.failed += 1
                    return
                time.sleep(POLL_INTERVAL)
        log.add("publish", time.perf_counter() - started, records)

    def _session(
        self,
        log: harness.OpLog,
        tracer: obs.Tracer,
        layers: harness.LayerTimes | None = None,
    ) -> None:
        """The whole feed into a fresh service, then the output check.

        A fresh service per session keeps the sessions alike: tenants
        and calibrator history do not pile up from one to the next.
        """
        self._start()
        harness.settle()
        started = time.perf_counter()
        for position in range(len(self.chunks)):
            self._operation(position, log, tracer)
            if layers is not None:
                layers.fold(tracer)
        log.wall_s += time.perf_counter() - started
        self._check_served()
        self.close()

    def _check_served(self) -> None:
        """The served bytes equal the pipeline on the tenant's own
        calibration (refreshed first when the last POST failed)."""
        _status, body = self._request("GET", STATUS)
        meta = json.loads(body)
        refresh = "" if meta["age_records"] == 0 else "?refresh=1"
        status, served = self._request("GET", f"/recommendation{refresh}")
        calibrator = self.service.state.tenant().calibrator
        expected = render_document(
            recommend_from_calibration(
                calibrator, self.baseline, self.goals, self.settings
            )
        )
        if status != 200 or served != expected:
            self.problems.append(
                f"serve: served bytes differ from the pipeline on the "
                f"tenant's own calibration (HTTP {status})"
            )

    def warm(self) -> None:
        """The first ``WARM_CHUNKS`` chunks into a throwaway service."""
        self._start()
        log = harness.OpLog()
        tracer = obs.Tracer(enabled=False)
        for position in range(WARM_CHUNKS):
            self._operation(position, log, tracer)
        self.close()

    def run(self, seconds: float) -> harness.OpLog:
        """``sessions(seconds)`` whole sessions."""
        log = harness.OpLog()
        tracer = obs.Tracer(enabled=False)
        for _ in range(sessions(seconds)):
            self._session(log, tracer)
        return log

    def run_fixed(
        self, layers: harness.LayerTimes | None = None
    ) -> harness.OpLog:
        """One session, then the handler-path replay; traced with
        ``layers``.

        Spans from the service's threads would interleave with the
        client's on the shared tracer, so while the service runs the
        default tracer is off (its counters stay on) and the client's
        spans go to a private tracer.  The replay then runs the
        handler's public functions in this thread with every span on.
        """
        log = harness.OpLog()
        if layers is None:
            self._session(log, obs.Tracer(enabled=False))
            self._replay(log)
            return log
        obs.tracer().disable()
        self._session(log, obs.Tracer(), layers)
        self.live_counts = {
            name: harness.counter(name) for name in LIVE_COUNTERS
        }
        obs.tracer().enable()
        self._replay(log, layers)
        return log

    def _replay(
        self, log: harness.OpLog, layers: harness.LayerTimes | None = None
    ) -> None:
        """The chunks through the functions ``POST /events`` and the
        background search call, in this thread; one ``replay``
        operation per chunk."""
        monitor = DriftMonitor(calibrator=StreamingCalibrator(window=WINDOW))
        cache = EvaluationCache()
        for chunk, records in self.chunks:
            started = log.start()
            for number, line in enumerate(chunk.decode().splitlines(), 1):
                with obs.span("monitor.parse_record_line"):
                    record = parse_record_line(line, number)
                with obs.span("monitor.drift.observe"):
                    monitor.observe(record)
            with obs.span("monitor.stream.export_state"):
                state = monitor.calibrator.export_state()
            with obs.span("monitor.stream.restore_state"):
                private = StreamingCalibrator.restore_state(state)
            with obs.span("service.recommend_from_calibration"):
                document = recommend_from_calibration(
                    private, self.baseline, self.goals, self.settings,
                    cache=cache,
                )
            with obs.span("service.render_document"):
                render_document(document)
            log.add("replay", time.perf_counter() - started, records)
            if layers is not None:
                layers.fold()

    def check(self) -> list[str]:
        """Problems found by the served-bytes check of every session."""
        return list(self.problems)

    @staticmethod
    def end_to_end(log: harness.OpLog) -> dict[str, float]:
        """Acknowledged records per second of session wall time, and
        publish p50 and p95 over every chunk of every session."""
        return {
            "throughput_per_s": sum(log.work["publish"]) / log.wall_scaled(),
            "p50_ms": log.percentile_ms("publish", 50),
            "alt_ms": log.percentile_ms("publish", 95),
        }

    def counters(self, log: harness.OpLog) -> dict[str, float]:
        """The live service's counts (the replay adds its own)."""
        return dict(self.live_counts)


def pin_to_one_cpu() -> None:
    """Keep the client and the service's threads on one CPU.

    They take turns on the interpreter lock, so a second CPU buys them
    little parallel work.  Spread over two vCPUs, though, every hand-off
    of the lock waits for the hypervisor to wake the other vCPU, and
    that wait follows the host's load: on a 2-vCPU VM it put the
    measured publish p95 of two of ten runs at 40-42 ms, against
    16-24 ms for the rest.  On one CPU the figures measure the
    service's own work.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def sessions(seconds: float) -> int:
    """Sessions of a run of ``seconds``: a count fixed by the argument
    alone, so every run's statistics cover the same operations however
    fast the host and the program are."""
    return max(1, round(seconds / SESSION_SECONDS))


#: Counters read from the live service, before the replay runs.
LIVE_COUNTERS = (
    "service.events.ingested",
    "service.http.errors",
    "service.searches.started",
    "service.searches.completed",
    "service.searches.superseded",
    "monitor.drift.confirmed",
    "evaluation_cache.rebinds",
)
