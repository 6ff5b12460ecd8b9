"""``corpus``: cold spec → recommendation over a seeded generated corpus.

One operation lowers one generated spec (``spec_to_chart`` then
``translate_chart``), builds its ``PerformanceModel``, creates a fresh
``GoalEvaluator`` and ``EvaluationCache``, runs the branch-and-bound
search and renders the recommendation with ``to_document``.  Lowering
and the workflow-CTMC kernel carry most of the work; each search is
small.
"""

from __future__ import annotations

import json
import random
import time

from repro import obs
from repro.core.configuration import branch_and_bound_configuration
from repro.core.evaluation_cache import EvaluationCache
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel, Workload, WorkloadItem
from repro.core.search import ReplicationConstraints
from repro.scenarios import (
    generate_corpus,
    spec_to_chart,
    spec_to_project,
)
from repro.scenarios.adapters import spec_to_registry
from repro.spec.translator import translate_chart

from perfbench import harness

#: Specs generated per seed; a 20 s run covers roughly two passes.
CORPUS_SIZE = 1000
#: Untimed operations before an end-to-end run.
WARM_SPECS = 20
#: Specs of the fixed traced run (the same work on every traced run).
TRACE_SPECS = 300
#: Specs re-run through ``spec_to_project`` by the output check.
CHECK_SPECS = 60
GOALS = PerformabilityGoals(max_waiting_time=0.5, max_unavailability=1e-4)


def _render(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True).encode("utf-8")


def _recommend(model: PerformanceModel, traced: bool) -> dict:
    evaluator = GoalEvaluator(model, cache=EvaluationCache())
    if traced:
        harness.span_assessments(evaluator)
    with obs.span("core.search.branch_and_bound"):
        recommendation = branch_and_bound_configuration(
            evaluator, GOALS, ReplicationConstraints()
        )
        return recommendation.to_document()


class CorpusWorkload:
    """Seeded corpus; operations walk it in order, wrapping around."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = generate_corpus(CORPUS_SIZE, master_seed=seed)
        self.documents: dict[int, bytes] = {}
        self._next = 0

    def _operation(self, index: int, traced: bool) -> dict:
        spec = self.specs[index]
        with obs.span("scenarios.spec_to_chart"):
            chart = spec_to_chart(spec)
        with obs.span("spec.translate_chart"):
            definition = translate_chart(chart, spec_to_registry(spec))
        with obs.span("core.performance_model"):
            model = PerformanceModel(
                spec.server_types,
                Workload([WorkloadItem(definition, spec.arrival.rate)]),
            )
        return _recommend(model, traced)

    def _timed(self, log: harness.OpLog, index: int, traced: bool) -> None:
        started = log.start()
        try:
            document = self._operation(index, traced)
        except Exception:  # a failed operation is counted, not fatal
            log.failed += 1
            return
        log.add("spec", time.perf_counter() - started)
        self.documents.setdefault(index, _render(document))

    def warm(self) -> None:
        """A few untimed operations."""
        for index in range(WARM_SPECS):
            self._operation(index, traced=False)

    def run(self, seconds: float) -> harness.OpLog:
        """Walk the corpus for ``seconds``."""
        log = harness.OpLog()

        def operation() -> None:
            self._timed(log, self._next, traced=False)
            self._next = (self._next + 1) % len(self.specs)

        harness.timed_loop(seconds, operation)
        return log

    def run_fixed(
        self, layers: harness.LayerTimes | None = None
    ) -> harness.OpLog:
        """The first ``TRACE_SPECS`` specs, once; traced with ``layers``."""
        log = harness.OpLog()
        for index in range(TRACE_SPECS):
            self._timed(log, index, traced=layers is not None)
            if layers is not None:
                layers.fold()
        return log

    def check(self) -> list[str]:
        """Staged-path documents equal the ``spec_to_project`` path's."""
        problems = []
        done = sorted(self.documents)
        sample = random.Random(self.seed).sample(
            done, min(CHECK_SPECS, len(done))
        )
        for index in sample:
            project = spec_to_project([self.specs[index]])
            model = PerformanceModel(
                project.server_types, project.workload()
            )
            expected = _render(_recommend(model, traced=False))
            if expected != self.documents[index]:
                problems.append(
                    f"corpus spec {index}: staged document differs from "
                    f"the spec_to_project document"
                )
        if not done:
            problems.append("corpus: no operation completed")
        return problems

    @staticmethod
    def end_to_end(log: harness.OpLog) -> dict[str, float]:
        """specs/s, spec p50 and spec p95."""
        return {
            "throughput_per_s": log.rate("spec"),
            "p50_ms": log.percentile_ms("spec", 50),
            "alt_ms": log.percentile_ms("spec", 95),
        }

    def counters(self, log: harness.OpLog) -> dict[str, float]:
        """Workload-specific derived counts of the traced run."""
        return {}
