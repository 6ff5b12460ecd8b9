"""Tests for state-chart validation."""

import pytest

from repro.exceptions import ValidationError
from repro.spec.builder import StateChartBuilder
from repro.spec.events import SetCondition, Var
from repro.spec.statechart import ChartState, ChartTransition, StateChart
from repro.spec.validation import (
    IssueLevel,
    ensure_valid,
    validate_chart,
)


def errors_of(chart):
    return [
        issue for issue in validate_chart(chart)
        if issue.level is IssueLevel.ERROR
    ]


def warnings_of(chart):
    return [
        issue for issue in validate_chart(chart)
        if issue.level is IssueLevel.WARNING
    ]


def chart_without_validation(states, transitions, initial):
    return StateChart(
        name="test",
        states=tuple(states),
        transitions=tuple(transitions),
        initial_state=initial,
    )


class TestFinalStateChecks:
    def test_no_final_state_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b"), ChartTransition("b", "a")],
            "a",
        )
        assert any("no final state" in issue.message
                   for issue in errors_of(chart))

    def test_multiple_final_states_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b", probability=0.5),
             ChartTransition("a", "c", probability=0.5)],
            "a",
        )
        assert any("multiple final states" in issue.message
                   for issue in errors_of(chart))


class TestReachabilityChecks:
    def test_unreachable_state_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("island", mean_duration=1.0)],
            [ChartTransition("a", "b"), ChartTransition("island", "b")],
            "a",
        )
        assert any("unreachable" in issue.message
                   for issue in errors_of(chart))

    def test_trap_cycle_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("x", mean_duration=1.0),
             ChartState("y", mean_duration=1.0),
             ChartState("end", mean_duration=1.0)],
            [ChartTransition("a", "x", probability=0.5),
             ChartTransition("a", "end", probability=0.5),
             ChartTransition("x", "y"),
             ChartTransition("y", "x")],
            "a",
        )
        assert any("never terminate" in issue.message
                   for issue in errors_of(chart))


class TestProbabilityChecks:
    def test_partial_annotation_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b", probability=0.5),
             ChartTransition("a", "c"),
             ChartTransition("b", "c")],
            "a",
        )
        assert any("only some outgoing" in issue.message
                   for issue in errors_of(chart))

    def test_probabilities_not_summing_is_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b", probability=0.3),
             ChartTransition("a", "c", probability=0.3),
             ChartTransition("b", "c")],
            "a",
        )
        assert any("sum to" in issue.message for issue in errors_of(chart))

    def test_unannotated_branch_is_warning(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b"),
             ChartTransition("a", "c"),
             ChartTransition("b", "c")],
            "a",
        )
        assert any("without probability annotations" in issue.message
                   for issue in warnings_of(chart))


class TestConditionUsage:
    def test_unset_guard_variable_is_warning(self):
        # A chart reading a variable no action ever sets.
        from repro.spec.events import ECARule
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b", rule=ECARule(guard=Var("External")))],
            "a",
        )
        assert any("never set" in issue.message
                   for issue in warnings_of(chart))

    def test_done_conditions_are_exempt(self):
        from repro.spec.events import ECARule
        chart = chart_without_validation(
            [ChartState("a", activity="x"),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b", rule=ECARule(guard=Var("x_DONE")))],
            "a",
        )
        assert not warnings_of(chart)

    def test_set_variable_not_warned(self):
        from repro.spec.events import ECARule
        chart = chart_without_validation(
            [ChartState(
                "a", mean_duration=1.0,
                entry_actions=(SetCondition("Flag", True),),
            ),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b", rule=ECARule(guard=Var("Flag")))],
            "a",
        )
        assert not warnings_of(chart)


class TestEnsureValid:
    def test_raises_on_error(self):
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b"), ChartTransition("b", "a")],
            "a",
        )
        with pytest.raises(ValidationError, match="invalid state chart"):
            ensure_valid(chart)

    def test_passes_warnings(self):
        # Warnings alone must not block.
        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0),
             ChartState("c", mean_duration=1.0)],
            [ChartTransition("a", "b"),
             ChartTransition("a", "c"),
             ChartTransition("b", "c")],
            "a",
        )
        ensure_valid(chart)

    def test_validates_nested_regions(self):
        bad_inner = chart_without_validation(
            [ChartState("x", mean_duration=1.0),
             ChartState("y", mean_duration=1.0)],
            [ChartTransition("x", "y"), ChartTransition("y", "x")],
            "x",
        )
        outer = (
            StateChartBuilder("outer")
            .nested_state("host", bad_inner)
            .routing_state("end", mean_duration=1.0)
            .initial("host")
            .transition("host", "end")
        )
        with pytest.raises(ValidationError):
            outer.build()


def _cycle_chart(name):
    """A two-state cycle: no final state, so the chart is invalid."""
    return StateChart(
        name=name,
        states=(ChartState("x", mean_duration=1.0),
                ChartState("y", mean_duration=1.0)),
        transitions=(ChartTransition("x", "y"), ChartTransition("y", "x")),
        initial_state="x",
    )


def _line_chart(name):
    """A valid two-state chart."""
    return StateChart(
        name=name,
        states=(ChartState("x", mean_duration=1.0),
                ChartState("y", mean_duration=1.0)),
        transitions=(ChartTransition("x", "y"),),
        initial_state="x",
    )


def _host_chart(*regions):
    """A valid outer chart whose first state nests ``regions``."""
    return StateChart(
        name="outer",
        states=(ChartState("host", regions=tuple(regions)),
                ChartState("end", mean_duration=1.0)),
        transitions=(ChartTransition("host", "end"),),
        initial_state="host",
    )


@pytest.fixture
def single_chart_checks(monkeypatch):
    """Names of the charts ``_validate_single_chart`` checks, in order."""
    from repro.spec import validation

    checked = []
    original = validation._validate_single_chart

    def counting(chart):
        checked.append(chart.name)
        return original(chart)

    monkeypatch.setattr(validation, "_validate_single_chart", counting)
    return checked


class TestValidateOnce:
    def test_invalid_nested_region_message_unchanged(self):
        # A valid region that already passed is skipped, but the invalid
        # sibling is still reported with the full message.
        good = _line_chart("good")
        ensure_valid(good)
        outer = _host_chart(good, _cycle_chart("bad"))
        with pytest.raises(ValidationError) as raised:
            ensure_valid(outer)
        assert str(raised.value) == (
            "invalid state chart:\n"
            "  [error] bad: no final state (every state has outgoing "
            "transitions)"
        )

    def test_failed_chart_is_checked_again(self, single_chart_checks):
        outer = _host_chart(_cycle_chart("bad"))
        for _ in range(2):
            with pytest.raises(ValidationError, match="bad: no final"):
                ensure_valid(outer)
        assert single_chart_checks == ["outer", "bad"] * 2

    def test_passed_chart_is_not_checked_again(self, single_chart_checks):
        region = _line_chart("region")
        ensure_valid(region)
        outer = _host_chart(region)
        ensure_valid(outer)
        ensure_valid(outer)
        assert single_chart_checks == ["region", "outer"]

    def test_validate_chart_still_warns_after_ensure_valid(self):
        from repro.spec.events import ECARule

        chart = chart_without_validation(
            [ChartState("a", mean_duration=1.0),
             ChartState("b", mean_duration=1.0)],
            [ChartTransition("a", "b", rule=ECARule(guard=Var("External")))],
            "a",
        )
        ensure_valid(chart)
        assert any("never set" in issue.message
                   for issue in warnings_of(chart))

    def test_mark_is_invisible_to_equality_repr_and_serialization(self):
        from repro.io.chart_serialization import chart_to_dict

        checked = _host_chart(_line_chart("region"))
        fresh = _host_chart(_line_chart("region"))
        ensure_valid(checked)
        assert checked == fresh
        assert hash(checked) == hash(fresh)
        assert repr(checked) == repr(fresh)
        assert chart_to_dict(checked) == chart_to_dict(fresh)

    def test_lowering_and_translation_check_each_chart_once(
        self, single_chart_checks
    ):
        from repro.scenarios import generate_corpus, spec_to_chart
        from repro.scenarios.adapters import spec_to_registry
        from repro.spec.translator import translate_chart

        nested = [
            spec for spec in generate_corpus(12, master_seed=7)
            if len(list(spec_to_chart(spec, validate=False).walk_charts()))
            > 2
        ]
        assert nested
        for spec in nested:
            single_chart_checks.clear()
            chart = spec_to_chart(spec)
            translate_chart(chart, spec_to_registry(spec))
            assert sorted(single_chart_checks) == sorted(
                sub_chart.name for sub_chart in chart.walk_charts()
            )
