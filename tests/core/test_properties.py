"""Property-based tests (hypothesis) on the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.availability import (
    AvailabilityModel,
    RepairPolicy,
    ServerPoolAvailability,
)
from repro.core import linalg
from repro.core.ctmc import AbsorbingCTMC
from repro.core.dtmc import AbsorbingDTMC
from repro.core.evaluation_cache import EvaluationCache
from repro.core.goals import (
    GoalAssessment,
    GoalEvaluator,
    GoalViolation,
    PerformabilityGoals,
)
from repro.core.model_types import ServerTypeIndex, ServerTypeSpec
from repro.core.performability import DegradedStatePolicy, PerformabilityModel
from repro.core.performance import PerformanceModel, SystemConfiguration
from repro.exceptions import ModelError, ValidationError
from repro.queueing import (
    mean_population,
    mg1_mean_waiting_time,
    pooled_service_moments,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
rates = st.floats(min_value=1e-4, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
probabilities = st.floats(min_value=0.01, max_value=0.99)


@st.composite
def absorbing_chains(draw, max_states=5):
    """Random absorbing chains: forward edges plus limited back edges."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    p = np.zeros((n + 1, n + 1))
    for i in range(n):
        # Split mass between "forward/absorb" and one optional back edge.
        back_target = draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1))
        )
        forward = i + 1
        if back_target is None or back_target == i:
            p[i, forward] = 1.0
        else:
            back_mass = draw(st.floats(min_value=0.05, max_value=0.6))
            # += : the back edge may coincide with the forward edge.
            p[i, back_target] += back_mass
            p[i, forward] += 1.0 - back_mass
    p[n, n] = 1.0
    residences = np.array(
        [draw(st.floats(min_value=0.1, max_value=20.0)) for _ in range(n)]
        + [np.inf]
    )
    return AbsorbingCTMC(p, residences)


@st.composite
def server_specs(draw):
    return ServerTypeSpec(
        name=draw(st.sampled_from(["a", "b", "c"])),
        mean_service_time=draw(st.floats(min_value=0.01, max_value=2.0)),
        failure_rate=draw(st.floats(min_value=1e-4, max_value=1.0)),
        repair_rate=draw(st.floats(min_value=0.1, max_value=10.0)),
    )


# ----------------------------------------------------------------------
# CTMC invariants
# ----------------------------------------------------------------------
class TestChainProperties:
    @given(chain=absorbing_chains())
    @settings(max_examples=40, deadline=None)
    def test_turnaround_equals_visit_weighted_residence(self, chain):
        turnaround = chain.mean_turnaround_time()
        weighted = chain.expected_time_in_states().sum()
        assert turnaround == pytest.approx(weighted, rel=1e-8)

    @given(chain=absorbing_chains())
    @settings(max_examples=40, deadline=None)
    def test_visits_at_least_reach_probability(self, chain):
        visits = chain.expected_visits()
        # The initial state is visited at least once; all visits finite
        # and non-negative.
        assert visits[chain.initial_state] >= 1.0 - 1e-12
        assert np.all(visits >= -1e-12)
        assert np.all(np.isfinite(visits))

    @given(chain=absorbing_chains())
    @settings(max_examples=30, deadline=None)
    def test_uniformization_preserves_stochasticity(self, chain):
        p_bar = chain.uniformize().transition_matrix
        assert np.all(p_bar >= -1e-12)
        np.testing.assert_allclose(
            p_bar.sum(axis=1), 1.0, atol=1e-9
        )

    @given(chain=absorbing_chains(), confidence=st.floats(0.9, 0.9999))
    @settings(max_examples=25, deadline=None)
    def test_series_never_exceeds_exact_visits(self, chain, confidence):
        exact = chain.expected_visits(method="fundamental")
        series = chain.expected_visits(
            method="series", confidence=confidence
        )
        assert np.all(series <= exact + 1e-9)

    @given(chain=absorbing_chains())
    @settings(max_examples=30, deadline=None)
    def test_gauss_seidel_first_passage_matches_direct(self, chain):
        direct = chain.first_passage_times("direct")
        iterative = chain.first_passage_times("gauss_seidel")
        np.testing.assert_allclose(direct, iterative, rtol=1e-6)


class TestEmbeddedChainProperties:
    @given(chain=absorbing_chains())
    @settings(max_examples=30, deadline=None)
    def test_absorption_probabilities_sum_to_one(self, chain):
        embedded = chain.embedded_chain
        probabilities_ = embedded.absorption_probabilities(
            chain.initial_state
        )
        assert sum(probabilities_.values()) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Workflow-CTMC kernel: array form vs a per-state reference loop
# ----------------------------------------------------------------------
@st.composite
def raw_absorbing_chains(draw, max_states=6):
    """``(P, H, initial)`` of a chain with one absorbing state (the last).

    Each transient row jumps to a random non-empty set of other states,
    so some states are unreachable from ``initial`` and some cycle
    without an exit (absorption is then not certain).
    """
    n = draw(st.integers(min_value=1, max_value=max_states))
    p = np.zeros((n + 1, n + 1))
    for i in range(n):
        others = [j for j in range(n + 1) if j != i]
        targets = draw(st.lists(st.sampled_from(others), min_size=1,
                                max_size=3, unique=True))
        weights = [draw(st.floats(0.05, 1.0)) for _ in targets]
        total = sum(weights)
        for j, weight in zip(targets, weights):
            p[i, j] = weight / total
    p[n, n] = 1.0
    residences = np.array(
        [draw(st.floats(min_value=0.1, max_value=20.0)) for _ in range(n)]
        + [np.inf]
    )
    return p, residences, draw(st.integers(min_value=0, max_value=n - 1))


def _reference_trapped(p):
    """State indices that cannot reach absorption: backward search."""
    n = p.shape[0]
    absorbing = [i for i in range(n) if p[i, i] >= 1.0 - 1e-12]
    transient = [i for i in range(n) if i not in absorbing]
    reachable = set(absorbing)
    changed = True
    while changed:
        changed = False
        for i in transient:
            if i not in reachable and any(p[i, j] > 0.0 for j in reachable):
                reachable.add(i)
                changed = True
    return [i for i in transient if i not in reachable]


def _reference_kernel(chain, method):
    """The kernel's outputs computed one state at a time."""
    p = chain.jump_probabilities
    transient = [i for i in range(chain.num_states)
                 if p[i, i] < 1.0 - 1e-12]
    h = chain.residence_times
    v = np.zeros(chain.num_states)
    for i in transient:
        v[i] = 1.0 / h[i]
    q = chain.transition_rates()
    k = len(transient)
    a = np.zeros((k, k))
    for row, i in enumerate(transient):
        a[row, row] = -v[i]
        for column, j in enumerate(transient):
            if j != i:
                a[row, column] += q[i, j]
    m = linalg.solve_linear(a, np.full(k, -1.0), method=method)
    passage = np.zeros(chain.num_states)
    for row, i in enumerate(transient):
        passage[i] = m[row]
    n_matrix = chain.embedded_chain.fundamental_matrix()
    visits = np.zeros(chain.num_states)
    start = transient.index(chain.initial_state)
    for column, state in enumerate(transient):
        visits[state] = n_matrix[start, column]
    times = np.zeros(chain.num_states)
    for i in transient:
        times[i] = visits[i] * h[i]
    return {"departure_rates": v, "first_passage_times": passage,
            "expected_visits": visits, "expected_time_in_states": times}


def _assert_same_bits(actual, expected):
    assert np.array_equal(actual, expected)
    assert repr(actual.tolist()) == repr(expected.tolist())


TRAPPED_EXAMPLE = (
    # s1 and s2 cycle forever; s0 escapes to the absorbing s3.
    np.array([[0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0],
              [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
    np.array([1.0, 2.0, 3.0, np.inf]),
    0,
)
UNREACHABLE_EXAMPLE = (
    # Nothing jumps into s2, which is transient but never visited.
    np.array([[0.0, 0.7, 0.0, 0.3], [0.4, 0.0, 0.0, 0.6],
              [0.5, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 1.0]]),
    np.array([1.0, 2.0, 3.0, np.inf]),
    1,
)


class TestKernelMatchesReferenceLoops:
    @given(raw=raw_absorbing_chains(),
           method=st.sampled_from(["direct", "gauss_seidel"]))
    @example(raw=TRAPPED_EXAMPLE, method="direct")
    @example(raw=UNREACHABLE_EXAMPLE, method="direct")
    @example(raw=UNREACHABLE_EXAMPLE, method="gauss_seidel")
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_reference(self, raw, method):
        p, residences, initial = raw
        names = tuple(f"s{i}" for i in range(p.shape[0]))
        trapped = _reference_trapped(p)
        if trapped:
            with pytest.raises(ModelError) as raised:
                AbsorbingCTMC(p, residences, initial_state=initial)
            assert str(raised.value) == (
                "absorption is not certain: states cannot reach an "
                f"absorbing state: {[names[i] for i in trapped]}"
            )
            return
        chain = AbsorbingCTMC(p, residences, initial_state=initial)
        expected = _reference_kernel(chain, method)
        _assert_same_bits(chain.departure_rates(),
                          expected["departure_rates"])
        _assert_same_bits(chain.first_passage_times(method),
                          expected["first_passage_times"])
        _assert_same_bits(chain.expected_visits(),
                          expected["expected_visits"])
        _assert_same_bits(chain.expected_time_in_states(),
                          expected["expected_time_in_states"])


# ----------------------------------------------------------------------
# Availability invariants
# ----------------------------------------------------------------------
class TestAvailabilityProperties:
    @given(spec=server_specs(), count=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_pool_distribution_normalizes(self, spec, count):
        pool = ServerPoolAvailability(spec, count)
        distribution = pool.state_probabilities
        assert distribution.sum() == pytest.approx(1.0)
        assert np.all(distribution >= 0.0)

    @given(spec=server_specs(), count=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_unavailability_strictly_decreases_with_replication(
        self, spec, count
    ):
        smaller = ServerPoolAvailability(spec, count).unavailability
        larger = ServerPoolAvailability(spec, count + 1).unavailability
        assert larger < smaller

    @given(
        spec=server_specs(),
        count=st.integers(2, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_crew_never_better_than_independent(self, spec, count):
        independent = ServerPoolAvailability(
            spec, count, RepairPolicy.INDEPENDENT
        ).unavailability
        single = ServerPoolAvailability(
            spec, count, RepairPolicy.SINGLE_CREW
        ).unavailability
        assert single >= independent - 1e-15

    @given(
        counts=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        failure=st.floats(1e-3, 0.5),
        repair=st.floats(0.5, 5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_joint_equals_product(self, counts, failure, repair):
        types = ServerTypeIndex(
            [
                ServerTypeSpec("x", 1.0, failure_rate=failure,
                               repair_rate=repair),
                ServerTypeSpec("y", 1.0, failure_rate=failure * 2,
                               repair_rate=repair),
            ]
        )
        configuration = SystemConfiguration(
            {"x": counts[0], "y": counts[1]}
        )
        model = AvailabilityModel(types, configuration)
        assert model.unavailability("joint") == pytest.approx(
            model.unavailability("product"), rel=1e-6
        )

    @given(
        counts=st.tuples(
            st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_encode_decode_round_trip(self, counts):
        types = ServerTypeIndex(
            [
                ServerTypeSpec(name, 1.0, failure_rate=0.1, repair_rate=1.0)
                for name in ("a", "b", "c")
            ]
        )
        model = AvailabilityModel(
            types, SystemConfiguration(dict(zip("abc", counts)))
        )
        for code in range(model.num_states):
            assert model.encode(model.decode(code)) == code


# ----------------------------------------------------------------------
# Queueing invariants
# ----------------------------------------------------------------------
class TestTransientProperties:
    @given(
        chain=absorbing_chains(max_states=4),
        fraction=st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_turnaround_cdf_is_a_cdf(self, chain, fraction):
        mean = chain.mean_turnaround_time()
        times = np.array([0.0, fraction * mean, 2 * fraction * mean])
        cdf = chain.turnaround_cdf(times)
        assert np.all(cdf >= -1e-12)
        assert np.all(cdf <= 1.0 + 1e-12)
        assert np.all(np.diff(cdf) >= -1e-9)
        assert cdf[0] == pytest.approx(0.0, abs=1e-12)

    @given(chain=absorbing_chains(max_states=4))
    @settings(max_examples=15, deadline=None)
    def test_quantiles_ordered(self, chain):
        median = chain.turnaround_quantile(0.5)
        p90 = chain.turnaround_quantile(0.9)
        assert 0.0 < median <= p90

    @given(
        rates_seed=st.integers(0, 10_000),
        time=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_transient_distribution_is_a_distribution(
        self, rates_seed, time
    ):
        from repro.core.transient import transient_distribution

        rng = np.random.default_rng(rates_seed)
        n = int(rng.integers(2, 5))
        rates = rng.uniform(0.05, 2.0, size=(n, n))
        np.fill_diagonal(rates, 0.0)
        q = rates - np.diag(rates.sum(axis=1))
        pi0 = np.zeros(n)
        pi0[0] = 1.0
        pi_t = transient_distribution(q, pi0, time)
        assert pi_t.sum() == pytest.approx(1.0)
        assert np.all(pi_t >= 0.0)


class TestQueueingProperties:
    @given(
        arrival=rates,
        mean=st.floats(min_value=0.01, max_value=1.0),
        scv=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_waiting_nonnegative_and_monotone_in_rate(
        self, arrival, mean, scv
    ):
        second = mean**2 * (1.0 + scv)
        wait = mg1_mean_waiting_time(arrival, mean, second)
        assert wait >= 0.0
        heavier = mg1_mean_waiting_time(arrival * 1.1, mean, second)
        assert heavier >= wait

    @given(
        rates_=st.lists(rates, min_size=1, max_size=5),
        means=st.lists(
            st.floats(min_value=0.01, max_value=2.0), min_size=5, max_size=5
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_pooled_mean_within_component_range(self, rates_, means):
        k = len(rates_)
        component_means = means[:k]
        seconds = [2.0 * m**2 for m in component_means]
        mean, second = pooled_service_moments(
            rates_, component_means, seconds
        )
        assert min(component_means) - 1e-12 <= mean
        assert mean <= max(component_means) + 1e-12
        assert second >= mean**2 - 1e-12

    @given(arrival=rates, time_in_system=rates)
    @settings(max_examples=40, deadline=None)
    def test_littles_law_round_trip(self, arrival, time_in_system):
        population = mean_population(arrival, time_in_system)
        assert population == pytest.approx(arrival * time_in_system)


# ----------------------------------------------------------------------
# Goal assessment: per-type rows vs the Section 5/6 models
# ----------------------------------------------------------------------
#: Index order deliberately differs from the names' sorted order.
LANDSCAPE_NAMES = ("wf", "app", "comm")


@st.composite
def landscapes(draw, min_types=1, max_types=3):
    """Random server landscapes with fixed request totals.

    Loads reach 3.5 times one replica's capacity, so small pools are
    often saturated (waiting time ``inf``); some types carry no load
    and some never fail.
    """
    count = draw(st.integers(min_types, max_types))
    specs = []
    totals = []
    for name in LANDSCAPE_NAMES[:count]:
        mean = draw(st.floats(0.01, 2.0))
        specs.append(
            ServerTypeSpec(
                name=name,
                mean_service_time=mean,
                second_moment_service_time=(
                    mean * mean * draw(st.floats(1.1, 5.0))
                ),
                failure_rate=draw(
                    st.one_of(st.just(0.0), st.floats(1e-4, 1.0))
                ),
                repair_rate=draw(st.floats(0.1, 10.0)),
            )
        )
        load = draw(st.one_of(st.just(0.0), st.floats(0.01, 3.5)))
        totals.append(load / mean)
    return PerformanceModel.from_request_totals(
        ServerTypeIndex(specs), totals
    )


@st.composite
def goal_sets(draw, names):
    """Goals with any mix of global and per-type thresholds."""
    waiting = draw(st.one_of(st.none(), st.floats(1e-3, 10.0)))
    unavailability = draw(st.one_of(st.none(), st.floats(1e-9, 0.5)))
    per_type_waiting = draw(
        st.dictionaries(st.sampled_from(names), st.floats(1e-3, 10.0),
                        max_size=2)
    )
    per_type_unavailability = draw(
        st.dictionaries(st.sampled_from(names), st.floats(1e-9, 0.5),
                        max_size=2)
    )
    if waiting is None and unavailability is None and not (
        per_type_waiting or per_type_unavailability
    ):
        unavailability = 1e-3
    return PerformabilityGoals(
        max_waiting_time=waiting,
        max_waiting_times_per_type=per_type_waiting,
        max_unavailability=unavailability,
        max_unavailability_per_type=per_type_unavailability,
    )


degraded_policies = st.sampled_from(list(DegradedStatePolicy))
repair_policies = st.sampled_from(list(RepairPolicy))
penalties = st.floats(1e-3, 100.0)


def _policy_kwargs(repair, degraded, penalty):
    return {
        "repair_policy": repair,
        "degraded_policy": degraded,
        "penalty_waiting_time": (
            penalty if degraded is DegradedStatePolicy.PENALTY else None
        ),
    }


def model_assessment(
    performance: PerformanceModel,
    configuration: SystemConfiguration,
    goals: PerformabilityGoals,
    repair_policy: RepairPolicy,
    degraded_policy: DegradedStatePolicy,
    penalty_waiting_time: float | None,
) -> GoalAssessment:
    """The assessment built literally from the Section 5 and 6 models."""
    availability = AvailabilityModel(
        performance.server_types, configuration, policy=repair_policy
    )
    unavailability = availability.unavailability()
    per_type = availability.per_type_unavailability()
    violations = []
    if (goals.max_unavailability is not None
            and unavailability > goals.max_unavailability):
        violations.append(GoalViolation(
            "unavailability", None, unavailability, goals.max_unavailability
        ))
    for name, value in per_type.items():
        threshold = goals.type_unavailability_threshold(name)
        if value > threshold:
            violations.append(
                GoalViolation("type_unavailability", name, value, threshold)
            )
    report = None
    if goals.has_performance_goal:
        report = PerformabilityModel(
            performance, availability, policy=degraded_policy,
            penalty_waiting_time=penalty_waiting_time,
        ).expected_waiting_times()
        for name, value in report.expected_waiting_times.items():
            threshold = goals.waiting_time_threshold(name)
            if value > threshold:
                violations.append(
                    GoalViolation("waiting_time", name, value, threshold)
                )
    utilizations = performance.utilizations(configuration)
    return GoalAssessment(
        configuration=configuration,
        goals=goals,
        violations=tuple(violations),
        performability=report,
        unavailability=unavailability,
        per_type_unavailability=per_type,
        utilizations={
            name: float(utilizations[i])
            for i, name in enumerate(performance.server_types.names)
        },
    )


@st.composite
def assessment_cases(draw):
    """A landscape, goals on it, and a run of candidate configurations.

    Three types, so that a fold in any order other than the index order
    (a product of three floats) would show up as a rounding difference.
    """
    performance = draw(landscapes(min_types=3))
    names = performance.server_types.names
    configurations = draw(
        st.lists(
            st.tuples(*(st.integers(1, 4) for _ in names)),
            min_size=1, max_size=6,
        )
    )
    return (
        performance,
        draw(goal_sets(names)),
        [SystemConfiguration(dict(zip(names, counts)))
         for counts in configurations],
    )


@st.composite
def replica_additions(draw):
    """A landscape, a configuration, and the type that gains a replica."""
    performance = draw(landscapes())
    count = len(performance.server_types)
    counts = draw(st.tuples(*(st.integers(1, 4) for _ in range(count))))
    return performance, counts, draw(st.integers(0, count - 1))


def _single_type(mean, load, failure, repair):
    spec = ServerTypeSpec("app", mean, failure_rate=failure,
                          repair_rate=repair)
    return PerformanceModel.from_request_totals(
        ServerTypeIndex([spec]), [load / mean]
    )


class TestAssessmentRowProperties:
    """Every assessment folded from per-type rows equals, bit for bit,
    the one built from AvailabilityModel and PerformabilityModel."""

    @given(
        case=assessment_cases(),
        repair=repair_policies,
        degraded=degraded_policies,
        penalty=penalties,
        enabled=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_rows_equal_models(
        self, case, repair, degraded, penalty, enabled
    ):
        performance, goals, configurations = case
        policies = _policy_kwargs(repair, degraded, penalty)
        evaluator = GoalEvaluator(
            performance, cache=EvaluationCache(enabled=enabled), **policies
        )
        for configuration in configurations:
            assessed = evaluator.assess(configuration, goals)
            expected = model_assessment(
                performance, configuration, goals, **policies
            )
            assert assessed == expected
            assert repr(assessed) == repr(expected)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("degraded", list(DegradedStatePolicy))
    @pytest.mark.parametrize("repair", list(RepairPolicy))
    def test_saturated_types_equal_models(self, repair, degraded, enabled):
        # 2.5 replicas' worth of load: one and two replicas saturate.
        performance = _single_type(0.5, 2.5, 0.05, 1.0)
        goals = PerformabilityGoals(max_waiting_time=1.0)
        policies = _policy_kwargs(repair, degraded, 20.0)
        evaluator = GoalEvaluator(
            performance, cache=EvaluationCache(enabled=enabled), **policies
        )
        for count in (3, 1, 2, 4, 1):
            configuration = SystemConfiguration({"app": count})
            assessed = evaluator.assess(configuration, goals)
            assert repr(assessed) == repr(model_assessment(
                performance, configuration, goals, **policies
            ))
            if count <= 2:
                assert assessed.saturated_types == ("app",)
                assert math.isinf(
                    assessed.performability.failure_free_waiting_times["app"]
                )

    def test_count_below_one_raises_like_the_model(self):
        performance = _single_type(0.5, 0.5, 0.05, 1.0)
        configuration = SystemConfiguration({"app": 0})
        with pytest.raises(ValidationError) as model_error:
            AvailabilityModel(performance.server_types, configuration)
        with pytest.raises(ValidationError) as row_error:
            GoalEvaluator(performance).assess(
                configuration, PerformabilityGoals(max_unavailability=0.1)
            )
        assert str(row_error.value) == str(model_error.value)


class TestReplicationMonotonicity:
    """Adding one replica never increases the system unavailability or
    any type's performability waiting time — the assumption behind
    branch-and-bound's pruning.

    PENALTY breaks it: when the penalty is below a finite waiting time,
    a replica that turns an all-saturated pool into a stable one
    *raises* the expected waiting time (the pinned example: one replica
    is saturated and scores the penalty 1.0, two replicas wait 1.25).
    """

    @pytest.mark.parametrize("degraded", [
        DegradedStatePolicy.CONDITIONAL,
        DegradedStatePolicy.INFINITE,
        pytest.param(
            DegradedStatePolicy.PENALTY,
            marks=pytest.mark.xfail(
                raises=AssertionError, strict=True,
                reason="PENALTY waiting time is not monotone when the "
                       "penalty is below a finite waiting time",
            ),
        ),
    ])
    @given(case=replica_additions(), repair=repair_policies,
           penalty=penalties)
    @example(
        case=(_single_type(2.0, 1.0, 1.0, 1.0), (1,), 0),
        repair=RepairPolicy.INDEPENDENT,
        penalty=1.0,
    )
    @settings(max_examples=150, deadline=None)
    def test_adding_a_replica_never_hurts(
        self, degraded, case, repair, penalty
    ):
        performance, counts, grown = case
        names = performance.server_types.names
        evaluator = GoalEvaluator(
            performance, **_policy_kwargs(repair, degraded, penalty)
        )
        goals = PerformabilityGoals(max_waiting_time=1.0)
        larger = list(counts)
        larger[grown] += 1
        before = evaluator.assess(
            SystemConfiguration(dict(zip(names, counts))), goals
        )
        after = evaluator.assess(
            SystemConfiguration(dict(zip(names, larger))), goals
        )
        assert after.unavailability <= before.unavailability
        for name in names:
            assert (
                after.performability.expected_waiting_times[name]
                <= before.performability.expected_waiting_times[name]
            ), name
