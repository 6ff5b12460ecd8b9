"""The paper's e-commerce scenario end to end (Figures 3/4, Section 7).

Maps the EP workflow (with its parallel notify/delivery subworkflows
and the reminder loop) and the order-processing workflow onto the
Section 4 performance model, assesses the current configuration, and
asks for minimum-cost recommendations under increasingly strict
performability goals — comparing the greedy heuristic with exhaustive
search and simulated annealing.

Run:  python examples/ecommerce_configuration.py
"""

from repro.core.availability import AvailabilityModel
from repro.core.configuration import (
    ReplicationConstraints,
    exhaustive_configuration,
    greedy_configuration,
    simulated_annealing_configuration,
)
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performability import PerformabilityModel
from repro.core.performance import (
    PerformanceModel,
    SystemConfiguration,
    Workload,
    WorkloadItem,
)
from repro.workflows import (
    ecommerce_workflow,
    order_processing_workflow,
    standard_server_types,
)

ARRIVAL_RATES = {"EP": 0.4, "OrderProcessing": 0.2}  # workflows per minute


def main() -> None:
    types = standard_server_types()
    model = PerformanceModel(
        types,
        Workload([
            WorkloadItem(ecommerce_workflow(), ARRIVAL_RATES["EP"]),
            WorkloadItem(
                order_processing_workflow(),
                ARRIVAL_RATES["OrderProcessing"],
            ),
        ]),
    )

    # ------------------------------------------------------------------
    # Assess the configuration an administrator might start with.
    # ------------------------------------------------------------------
    initial = SystemConfiguration(
        {"comm-server": 1, "wf-engine": 2, "app-server": 3}
    )
    availability = AvailabilityModel(types, initial)
    print(model.assess(initial).format_text())
    print()
    print(
        f"Availability: system unavailability "
        f"{availability.unavailability():.3e} "
        f"(~{availability.downtime_per_year('hours'):.2f} hours "
        f"downtime/year)"
    )
    for name, value in availability.per_type_unavailability().items():
        print(f"    {name:18s} type unavailability {value:.3e}")
    print()
    performability = PerformabilityModel(model, availability)
    print(performability.expected_waiting_times().format_text())

    # ------------------------------------------------------------------
    # Recommendations for a ladder of goals.
    # ------------------------------------------------------------------
    ladder = [
        ("relaxed", 0.5, 1e-4),
        ("standard", 0.15, 1e-5),
        ("strict", 0.05, 1e-7),
    ]
    print("\n--- Greedy recommendations (Section 7.2) ---")
    for label, waiting_goal, unavailability_goal in ladder:
        goals = PerformabilityGoals(
            max_waiting_time=waiting_goal,
            max_unavailability=unavailability_goal,
        )
        recommendation = greedy_configuration(GoalEvaluator(model), goals)
        print(
            f"{label:10s} w<={waiting_goal:<5g} U<={unavailability_goal:<8g}"
            f" -> {recommendation.configuration} "
            f"(cost {recommendation.cost:.0f}, "
            f"{recommendation.evaluations} evaluations)"
        )

    # ------------------------------------------------------------------
    # Cross-check the 'standard' goal with the other search algorithms.
    # ------------------------------------------------------------------
    goals = PerformabilityGoals(max_waiting_time=0.15,
                                max_unavailability=1e-5)
    constraints = ReplicationConstraints(
        maximum={"comm-server": 4, "wf-engine": 5, "app-server": 6},
        max_total_servers=15,
    )
    print("\n--- Algorithm comparison for the 'standard' goal ---")
    for search in (greedy_configuration, exhaustive_configuration,
                   simulated_annealing_configuration):
        # A fresh evaluator per search, so each counts its own
        # evaluations.
        recommendation = search(GoalEvaluator(model), goals, constraints)
        print(
            f"{recommendation.algorithm:20s} -> "
            f"{recommendation.configuration} "
            f"(cost {recommendation.cost:.0f}, "
            f"{recommendation.evaluations} evaluations)"
        )

    # ------------------------------------------------------------------
    # Constraint: the communication server is licensed per node and
    # fixed at two replicas.
    # ------------------------------------------------------------------
    constrained = greedy_configuration(
        GoalEvaluator(model),
        goals,
        ReplicationConstraints(fixed={"comm-server": 2}),
    )
    print(
        f"\nWith comm-server fixed at 2: {constrained.configuration} "
        f"(cost {constrained.cost:.0f})"
    )


if __name__ == "__main__":
    main()
