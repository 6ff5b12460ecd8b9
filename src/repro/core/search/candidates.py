"""Candidate enumeration for the configuration search (Section 7.2).

The exhaustive and branch-and-bound strategies consume admissible
configurations in non-decreasing cost order.  The enumeration here is
*lazy*: a best-first expansion over the replica-count lattice that
yields candidates straight from a heap, so the searches start
evaluating immediately and memory stays proportional to the frontier —
not to the full cartesian product of replica counts, which the eager
predecessor of this module materialized and sorted up front.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Iterator

from repro.core.model_types import ServerTypeIndex
from repro.core.performance import (
    SystemConfiguration,
    configuration_label,
)
from repro.core.search.types import ReplicationConstraints
from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.goals import GoalEvaluator, PerformabilityGoals


def initial_configuration(
    server_types: ServerTypeIndex, constraints: ReplicationConstraints
) -> SystemConfiguration:
    """The minimal admissible configuration (lower-bound corner)."""
    return SystemConfiguration(
        {
            name: constraints.lower_bound(name)
            for name in server_types.names
        }
    )


def configurations_by_cost(
    server_types: ServerTypeIndex, constraints: ReplicationConstraints
) -> Iterator[SystemConfiguration]:
    """All admissible configurations in non-decreasing cost order, lazily.

    Order: ``(cost, total_servers, str(configuration))`` — a total order
    over distinct configurations, identical to the eager sort this
    generator replaced, so consumers see the exact same sequence.

    The lattice is expanded best-first from the lower-bound corner.
    Each configuration is generated along exactly one path — replicas
    are only ever added at type indices at or after the last index
    incremented — so no visited-set is needed and memory stays bounded
    by the heap frontier.  Every proper ancestor of an admissible
    configuration has a strictly smaller total (and no larger cost), so
    pruning nodes over ``max_total_servers`` never cuts off a reachable
    admissible candidate.
    """
    names = server_types.names
    lower = tuple(constraints.lower_bound(name) for name in names)
    upper = tuple(constraints.upper_bound(name) for name in names)
    if any(low > high for low, high in zip(lower, upper)):
        return
    costs = [spec.cost for spec in server_types.specs]

    def entry(counts: tuple[int, ...], first_index: int):
        # The sort key of SystemConfiguration(counts) — its cost summed
        # in spec order, its total and its label — from the counts
        # alone; a configuration is only built when it is yielded.
        cost = float(sum(count * unit for count, unit in zip(counts, costs)))
        label = configuration_label(zip(names, counts))
        return (cost, sum(counts), label, counts, first_index)

    frontier = [entry(lower, 0)]
    while frontier:
        _, total, _, counts, first_index = heapq.heappop(frontier)
        if total > constraints.max_total_servers:
            # Children only grow the total; prune the whole subtree.
            continue
        yield SystemConfiguration(dict(zip(names, counts)))
        for j in range(first_index, len(names)):
            if counts[j] + 1 <= upper[j]:
                child = counts[:j] + (counts[j] + 1,) + counts[j + 1:]
                heapq.heappush(frontier, entry(child, j))


def per_type_lower_bounds(
    evaluator: "GoalEvaluator",
    goals: "PerformabilityGoals",
    constraints: ReplicationConstraints,
) -> dict[str, int]:
    """Per-type replica lower bounds implied by the goals.

    Both metrics are monotone in the replication degree, so a
    configuration can only be feasible if every type alone satisfies the
    *necessary* conditions: (i) the type's own unavailability must not
    already exceed the system goal (the system is down whenever the type
    is fully down), and (ii) the failure-free waiting time — a lower
    bound on the performability waiting time — must meet the threshold,
    which in particular requires an unsaturated replica pool.  These
    bounds let branch-and-bound skip the infeasible corner of the
    search space without evaluating it.
    """
    from repro.core.availability import (
        ServerPoolAvailability,
        minimum_replicas_for_availability,
    )
    from repro.queueing import mg1_mean_waiting_time

    totals = evaluator.performance.total_request_rates()
    bounds: dict[str, int] = {}
    for i, spec in enumerate(evaluator.server_types.specs):
        bound = constraints.lower_bound(spec.name)
        upper = constraints.upper_bound(spec.name)

        availability_target = min(
            goals.max_unavailability
            if goals.max_unavailability is not None else math.inf,
            goals.type_unavailability_threshold(spec.name),
        )
        if math.isfinite(availability_target) and spec.failure_rate > 0.0:
            single = ServerPoolAvailability(spec, 1, evaluator.repair_policy)
            if single.unavailability > availability_target:
                try:
                    bound = max(
                        bound,
                        minimum_replicas_for_availability(
                            spec, availability_target,
                            policy=evaluator.repair_policy,
                            max_replicas=upper,
                        ),
                    )
                except ValidationError:
                    bound = upper + 1  # provably infeasible within bounds

        waiting_target = goals.waiting_time_threshold(spec.name)
        if math.isfinite(waiting_target) and totals[i] > 0.0:
            count = bound
            while count <= upper:
                waiting = mg1_mean_waiting_time(
                    totals[i] / count,
                    spec.mean_service_time,
                    spec.second_moment_service_time,
                )
                if waiting <= waiting_target:
                    break
                count += 1
            bound = count
        bounds[spec.name] = bound
    return bounds
