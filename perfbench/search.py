"""``search``: cold recommendations on the merged five-scenario landscape.

The five bundled scenarios are merged into one landscape of five server
types; the performance model is built once in set-up, so no lowering
runs while timing.  One operation is one cold recommendation (fresh
``GoalEvaluator`` and ``EvaluationCache``) for one goal of a fixed
grid; operations alternate between ``frontier_search`` (capped at
``MAX_TOTAL_SERVERS``) and ``exhaustive_configuration``.  The search
engine, the frontier's dominance checks and the five-type availability
and performability chains carry all the work.

The grid's operation times spread over 140–550 ms without splitting
into two equal clusters, so the per-kind medians do not jump between
clusters.  Every pass runs the whole grid in a seeded order with fresh
seeded frontier restart seeds, and a run ends on a pass boundary, so
each run weights every goal equally.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from repro import obs
from repro.core.configuration import exhaustive_configuration
from repro.core.evaluation_cache import EvaluationCache
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel
from repro.core.search import ReplicationConstraints, frontier_search
from repro.scenarios import bundled_scenarios, spec_to_project

from perfbench import harness

#: (max waiting time, max unavailability) goals of one pass.
GOAL_GRID = (
    (0.15, 1e-4), (0.25, 1e-4), (0.4, 1e-4), (0.7, 1e-4),
    (0.25, 3e-5), (0.4, 3e-5), (0.15, 1e-5), (0.6, 1e-5),
    (0.25, 3e-6),
)
MAX_TOTAL_SERVERS = 16


def merged_landscape_model() -> PerformanceModel:
    """The five bundled scenarios as one five-type performance model."""
    project = spec_to_project(entry.spec() for entry in bundled_scenarios())
    return PerformanceModel(project.server_types, project.workload())


class SearchWorkload:
    """Alternating frontier / exhaustive recommendations over a grid."""

    kinds = ("frontier", "exhaustive")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.model = merged_landscape_model()
        self._rng = random.Random(seed)
        self.hashes: dict[tuple[str, int, int], str] = {}
        self.unstable: list[str] = []
        self.constraints = ReplicationConstraints(
            max_total_servers=MAX_TOTAL_SERVERS
        )

    def _document(
        self, kind: str, goal: int, frontier_seed: int, traced: bool
    ) -> dict:
        waiting, unavailability = GOAL_GRID[goal]
        goals = PerformabilityGoals(
            max_waiting_time=waiting, max_unavailability=unavailability
        )
        evaluator = GoalEvaluator(self.model, cache=EvaluationCache())
        if traced:
            harness.span_assessments(evaluator)
        if kind == "frontier":
            with obs.span("core.search.frontier_search"):
                result = frontier_search(
                    evaluator, goals, self.constraints,
                    seed=frontier_seed,
                )
                return result.to_document()
        with obs.span("core.search.exhaustive"):
            result = exhaustive_configuration(
                evaluator, goals, self.constraints
            )
            return result.to_document()

    def _operation(
        self,
        log: harness.OpLog,
        kind: str,
        goal: int,
        frontier_seed: int,
        traced: bool = False,
    ) -> None:
        started = log.start()
        try:
            document = self._document(kind, goal, frontier_seed, traced)
        except Exception:  # a failed operation is counted, not fatal
            log.failed += 1
            return
        log.add(kind, time.perf_counter() - started)
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode("utf-8")
        ).hexdigest()
        key = (kind, goal, frontier_seed if kind == "frontier" else 0)
        if self.hashes.setdefault(key, digest) != digest:
            self.unstable.append(f"{kind} goal {GOAL_GRID[goal]}")

    def _pass(
        self,
        log: harness.OpLog,
        order: list[int],
        layers: harness.LayerTimes | None = None,
    ) -> None:
        for goal in order:
            frontier_seed = self._rng.randrange(2**31)
            for kind in self.kinds:
                self._operation(
                    log, kind, goal, frontier_seed, layers is not None
                )
                if layers is not None:
                    layers.fold()

    def warm(self) -> None:
        """One untimed grid pass: the first use of each goal is slower
        than the later ones, and every timed pass must be alike."""
        for goal in range(len(GOAL_GRID)):
            for kind in self.kinds:
                self._document(kind, goal, 0, traced=False)

    def run(self, seconds: float) -> harness.OpLog:
        """Whole grid passes, each in a seeded order, for ``seconds``."""
        log = harness.OpLog()

        def operation() -> None:
            order = list(range(len(GOAL_GRID)))
            self._rng.shuffle(order)
            self._pass(log, order)

        harness.timed_loop(seconds, operation)
        return log

    def run_fixed(
        self, layers: harness.LayerTimes | None = None
    ) -> harness.OpLog:
        """One grid pass in grid order; traced with ``layers``."""
        self._rng = random.Random(self.seed)
        log = harness.OpLog()
        self._pass(log, list(range(len(GOAL_GRID))), layers)
        return log

    def check(self) -> list[str]:
        """Repeating an operation with the same goal and seed gives the
        same document hash."""
        log = harness.OpLog()
        for kind, goal, frontier_seed in list(self.hashes)[:2]:
            self._operation(log, kind, goal, frontier_seed)
        problems = [
            f"search: document hash changed on a repeat of {what}"
            for what in self.unstable
        ]
        if log.failed or not self.hashes:
            problems.append("search: the check operations failed")
        return problems

    @staticmethod
    def end_to_end(log: harness.OpLog) -> dict[str, float]:
        """recommendations/s, frontier p50 and exhaustive p50."""
        return {
            "throughput_per_s": log.rate(),
            "p50_ms": log.percentile_ms("frontier", 50),
            "alt_ms": log.percentile_ms("exhaustive", 50),
        }

    def counters(self, log: harness.OpLog) -> dict[str, float]:
        """The frontier's useful ratio: inserted over evaluated."""
        evaluated = harness.counter("search.frontier.evaluated")
        inserted = harness.counter("search.frontier.inserted")
        return {
            "search.frontier.useful_ratio": (
                inserted / evaluated if evaluated else 0.0
            ),
        }
