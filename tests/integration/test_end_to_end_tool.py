"""Integration: the full configuration-tool loop of Section 7.

map (workflow definitions -> models) -> run the simulated WFMS ->
calibrate from the audit trail -> re-evaluate -> recommend.  This is the
"analysis and assessment of an operational system all the way to ...
automatically recommending a reconfiguration" spectrum the paper
describes, driven through the streaming calibrator and the shared
service pipeline.
"""

import pytest

from repro.core.goals import GoalEvaluator, PerformabilityGoals
from repro.core.performance import PerformanceModel, SystemConfiguration
from repro.core.workflow_model import build_workflow_ctmc
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
    order_processing_activities,
    order_processing_chart,
    order_processing_workflow,
    standard_server_types,
)
from repro.workflows.ecommerce import P_PAY_BY_CARD

RATES = {"EP": 0.4, "OrderProcessing": 0.2}
OBSERVATION = 20_000.0
CONFIGURATION = SystemConfiguration(
    {"comm-server": 1, "wf-engine": 2, "app-server": 3}
)
BASELINE = Project(
    server_types=standard_server_types(),
    workflows=(ecommerce_workflow(), order_processing_workflow()),
    arrival_rates=RATES,
)


@pytest.fixture(scope="module")
def operational_run():
    """A 'production' run of the simulated WFMS producing monitoring data."""
    wfms = SimulatedWFMS(
        server_types=BASELINE.server_types,
        configuration=CONFIGURATION,
        workflow_types=[
            SimulatedWorkflowType(
                ecommerce_chart(), ecommerce_activities(), 0.4
            ),
            SimulatedWorkflowType(
                order_processing_chart(), order_processing_activities(), 0.2
            ),
        ],
        seed=31,
        routing_policy=RoutingPolicy.ROUND_ROBIN,
        inject_failures=False,
    )
    return wfms.run(duration=OBSERVATION, warmup=1_000.0)


@pytest.fixture(scope="module")
def calibrator(operational_run):
    calibrator = StreamingCalibrator()
    calibrator.replay(operational_run.trail)
    return calibrator


@pytest.fixture(scope="module")
def model():
    """The design-time Section 4 model of the mapped workload."""
    return PerformanceModel(BASELINE.server_types, BASELINE.workload())


def recommend(calibrator, max_waiting_time, max_unavailability):
    document = recommend_from_calibration(
        calibrator,
        BASELINE,
        PerformabilityGoals(
            max_waiting_time=max_waiting_time,
            max_unavailability=max_unavailability,
        ),
        observation_period=OBSERVATION,
    )
    assert document["feasible"]
    return document["result"]


class TestMapEvaluateRecommend:
    def test_evaluate_operational_configuration(self, model):
        report = model.assess(CONFIGURATION)
        assert report.is_stable
        assert report.throughput.bottleneck == "app-server"

    def test_recommendation_meets_goals(self, calibrator):
        result = recommend(calibrator, 0.25, 1e-5)
        assert result["satisfied"]
        assert result["violations"] == []
        # Re-assess the recommended configuration independently.
        assessment = GoalEvaluator(
            calibrated_model(calibrator, BASELINE, OBSERVATION)
        ).assess(
            SystemConfiguration(result["configuration"]),
            PerformabilityGoals(
                max_waiting_time=0.25, max_unavailability=1e-5
            ),
        )
        assert assessment.satisfied
        assert assessment.performability.max_expected_waiting_time <= 0.25
        assert assessment.unavailability <= 1e-5

    def test_tighter_goals_cost_more(self, calibrator):
        loose = recommend(calibrator, 0.5, 1e-4)
        tight = recommend(calibrator, 0.05, 1e-7)
        assert tight["cost"] > loose["cost"]


class TestCalibrationRoundTrip:
    def test_service_moments_recovered(self, calibrator):
        estimates = calibrator.service_times()
        for spec in BASELINE.server_types.specs:
            assert estimates[spec.name].mean == pytest.approx(
                spec.mean_service_time, rel=0.05
            )

    def test_arrival_rates_recovered(self, calibrator):
        assert calibrator.arrival_rate("EP", OBSERVATION) == pytest.approx(
            0.4, rel=0.1
        )
        assert calibrator.arrival_rate(
            "OrderProcessing", OBSERVATION
        ) == pytest.approx(0.2, rel=0.15)

    def test_branching_probabilities_recovered(self, calibrator):
        probabilities = calibrator.transition_probabilities("EP")
        assert probabilities[
            ("NewOrder", "CreditCardCheck")
        ] == pytest.approx(P_PAY_BY_CARD, abs=0.05)

    def test_recalibrated_flat_workflow_matches_measured_turnaround(
        self, calibrator
    ):
        definition = calibrator.flat_workflow("EP", "NewOrder")
        ctmc = build_workflow_ctmc(definition, BASELINE.server_types)
        assert ctmc.turnaround_time() == pytest.approx(
            calibrator.turnaround_time("EP"), rel=0.05
        )

    def test_calibrated_tool_predictions_stay_consistent(
        self, calibrator, model
    ):
        recalibrated = calibrated_model(calibrator, BASELINE, OBSERVATION)
        # Measured moments and loads are close to the design-time ones,
        # so the assessments must agree closely too.
        assert recalibrated.utilizations(CONFIGURATION) == pytest.approx(
            model.utilizations(CONFIGURATION), rel=0.1
        )

    def test_analytic_turnaround_matches_reference_model(self, calibrator):
        reference = build_workflow_ctmc(
            ecommerce_workflow(), BASELINE.server_types
        )
        assert calibrator.turnaround_time("EP") == pytest.approx(
            reference.turnaround_time(), rel=0.05
        )
