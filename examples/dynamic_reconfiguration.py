"""Dynamic reconfiguration of a running WFMS (Section 7.1, last step).

The full operational loop: configure the system for the assumed load,
run it (in simulation), replay each monitoring window into a streaming
calibrator, and let the shared calibrate → recommend pipeline decide
whether the current configuration still holds — a scale-out when the
real load has outgrown the assumption, a hold once the new
configuration copes, and a downsizing when the load drops again.

Run:  python examples/dynamic_reconfiguration.py   (~30 s)
"""

from repro.core.configuration import greedy_configuration
from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import (
    PerformanceModel,
    SystemConfiguration,
    Workload,
    WorkloadItem,
)
from repro.io import Project
from repro.monitor.stream import StreamingCalibrator
from repro.service.pipeline import (
    calibrated_model,
    recommend_from_calibration,
)
from repro.wfms import RoutingPolicy, SimulatedWFMS, SimulatedWorkflowType
from repro.workflows import (
    ecommerce_activities,
    ecommerce_chart,
    ecommerce_workflow,
    standard_server_types,
)

GOALS = PerformabilityGoals(max_waiting_time=0.25, max_unavailability=1e-5)
ASSUMED_RATE = 0.3            # EP instances/minute the system was sized for
OBSERVATION = 8_000.0         # length of each monitoring window (minutes)

#: The prior landscape the calibration overlays its measurements on.
BASELINE = Project(
    server_types=standard_server_types(),
    workflows=(ecommerce_workflow(),),
    arrival_rates={"EP": ASSUMED_RATE},
)


def run_window(configuration, arrival_rate, seed):
    """One monitoring window on the simulated WFMS."""
    wfms = SimulatedWFMS(
        server_types=standard_server_types(),
        configuration=configuration,
        workflow_types=[
            SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), arrival_rate
            )
        ],
        seed=seed,
        routing_policy=RoutingPolicy.ROUND_ROBIN,
        inject_failures=False,
    )
    return wfms.run(duration=OBSERVATION, warmup=500.0)


def advise(current, trail):
    """Recalibrate from one window and decide on a reconfiguration."""
    calibrator = StreamingCalibrator()
    calibrator.replay(trail)
    print(
        f"Calibrated EP arrival rate: "
        f"{calibrator.arrival_rate('EP', OBSERVATION):.6g}/min"
    )
    model = calibrated_model(calibrator, BASELINE, OBSERVATION)
    assessment = GoalEvaluator(model).assess(current, GOALS)
    document = recommend_from_calibration(
        calibrator, BASELINE, GOALS, observation_period=OBSERVATION
    )
    recommended = SystemConfiguration(document["result"]["configuration"])
    types = BASELINE.server_types

    if not assessment.satisfied:
        print(
            "Decision: current configuration violates the goals under "
            "the observed parameters: "
            + "; ".join(str(v) for v in assessment.violations)
        )
    elif recommended.cost(types) < current.cost(types):
        print(
            "Decision: current configuration is oversized for the "
            "observed load; a cheaper feasible configuration exists"
        )
    else:
        print(
            "Decision: current configuration still meets all goals "
            "under the observed parameters"
        )
        return current

    print(f"Reconfigure {current} -> {recommended}:")
    for name in sorted(types.names):
        delta = recommended.count(name) - current.count(name)
        if delta > 0:
            print(f"  add {delta} replica(s) of {name}")
        elif delta < 0:
            print(f"  remove {-delta} replica(s) of {name}")
    return recommended


def main() -> None:
    # ------------------------------------------------------------------
    # Day 0: size the system for the assumed load.
    # ------------------------------------------------------------------
    assumed = PerformanceModel(
        BASELINE.server_types,
        Workload([WorkloadItem(ecommerce_workflow(), ASSUMED_RATE)]),
    )
    initial = greedy_configuration(
        GoalEvaluator(assumed), GOALS
    ).configuration
    print(f"Initial configuration for {ASSUMED_RATE}/min: {initial}\n")

    # ------------------------------------------------------------------
    # Weeks later: the business has grown to 3x the assumed load.
    # ------------------------------------------------------------------
    print("Monitoring window 1: actual load 3x the assumption ...")
    report = run_window(initial, 3 * ASSUMED_RATE, seed=1)
    scaled_out = advise(initial, report.trail)

    # ------------------------------------------------------------------
    # After the reconfiguration: verify the new configuration holds.
    # ------------------------------------------------------------------
    print("\nMonitoring window 2: after scale-out, same 3x load ...")
    report = run_window(scaled_out, 3 * ASSUMED_RATE, seed=2)
    advise(scaled_out, report.trail)

    # ------------------------------------------------------------------
    # Off-season: load drops far below capacity.
    # ------------------------------------------------------------------
    print("\nMonitoring window 3: load drops to 0.5x the assumption ...")
    report = run_window(scaled_out, 0.5 * ASSUMED_RATE, seed=3)
    advise(scaled_out, report.trail)


if __name__ == "__main__":
    main()
