"""Structural validation of state-chart workflow specifications.

Checks the properties the stochastic translation (Section 3.2) relies on:

* a single initial state and a single final state per chart (recursively
  for all regions);
* every state reachable from the initial state, and the final state
  reachable from every state (absorption is certain);
* probability annotations that form proper distributions: if any outgoing
  transition of a state is annotated, all must be, and they must sum to 1
  (a single un-annotated transition is implicitly probability 1);
* guard variables that are set somewhere before they are read (heuristic
  — reported as warnings, since variables may be set by the environment).

:func:`validate_chart` returns the list of issues; :func:`ensure_valid`
raises :class:`~repro.exceptions.ValidationError` on the first error.

Charts are validated once: a chart that passes :func:`ensure_valid` is
marked (charts are immutable), so a later check of it or of any chart
that nests it skips the region trees already known to be valid.  A
lowering that validates each region when it is built and the whole tree
again at every enclosing level therefore checks every chart once.  A
chart that failed is never marked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ValidationError
from repro.spec.events import SetCondition
from repro.spec.statechart import StateChart


#: Instance attribute set on a chart whose whole tree passed ensure_valid.
_VALID_MARK = "_ensured_valid"


class IssueLevel(enum.Enum):
    """Severity of a validation finding."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ChartIssue:
    """One validation finding."""

    level: IssueLevel
    chart_name: str
    message: str

    def __str__(self) -> str:
        return f"[{self.level.value}] {self.chart_name}: {self.message}"


def validate_chart(chart: StateChart) -> list[ChartIssue]:
    """Validate a chart and all nested regions; returns all findings."""
    issues: list[ChartIssue] = []
    for sub_chart in chart.walk_charts():
        issues.extend(_validate_single_chart(sub_chart))
    issues.extend(_validate_condition_usage(chart))
    return issues


def ensure_valid(chart: StateChart) -> None:
    """Raise :class:`ValidationError` if the chart has any error.

    Only errors are checked (the guard-variable heuristic yields warnings
    alone; :func:`validate_chart` still reports them).  On success the
    chart and its regions are marked valid, and later calls skip them.
    """
    unchecked = list(_unchecked_charts(chart))
    errors = [
        issue
        for sub_chart in unchecked
        for issue in _validate_single_chart(sub_chart)
        if issue.level is IssueLevel.ERROR
    ]
    if errors:
        raise ValidationError(
            "invalid state chart:\n"
            + "\n".join(f"  {issue}" for issue in errors)
        )
    for sub_chart in unchecked:
        # The mark is an instance attribute, not a dataclass field, so it
        # takes no part in ``==``, ``repr`` or serialization.
        object.__setattr__(sub_chart, _VALID_MARK, True)


def _unchecked_charts(chart: StateChart) -> Iterator[StateChart]:
    """:meth:`StateChart.walk_charts`, minus subtrees already marked valid."""
    if getattr(chart, _VALID_MARK, False):
        return
    yield chart
    for state in chart.states:
        for region in state.regions:
            yield from _unchecked_charts(region)


def _validate_single_chart(chart: StateChart) -> list[ChartIssue]:
    issues: list[ChartIssue] = []

    finals = chart.final_states
    if len(finals) == 0:
        issues.append(
            ChartIssue(
                IssueLevel.ERROR,
                chart.name,
                "no final state (every state has outgoing transitions)",
            )
        )
    elif len(finals) > 1:
        issues.append(
            ChartIssue(
                IssueLevel.ERROR,
                chart.name,
                f"multiple final states {list(finals)}; connect them to a "
                "single termination state",
            )
        )

    issues.extend(_validate_reachability(chart, finals))
    issues.extend(_validate_probabilities(chart))
    return issues


def _validate_reachability(
    chart: StateChart, finals: tuple[str, ...]
) -> list[ChartIssue]:
    issues: list[ChartIssue] = []
    forward = _reachable_from(chart, chart.initial_state, reverse=False)
    unreachable = set(chart.state_names) - forward
    if unreachable:
        issues.append(
            ChartIssue(
                IssueLevel.ERROR,
                chart.name,
                f"states unreachable from the initial state: "
                f"{sorted(unreachable)}",
            )
        )
    if len(finals) == 1:
        backward = _reachable_from(chart, finals[0], reverse=True)
        trapped = forward - backward
        if trapped:
            issues.append(
                ChartIssue(
                    IssueLevel.ERROR,
                    chart.name,
                    f"states from which the final state is unreachable "
                    f"(workflow may never terminate): {sorted(trapped)}",
                )
            )
    return issues


def _reachable_from(
    chart: StateChart, start: str, reverse: bool
) -> set[str]:
    adjacency: dict[str, set[str]] = {name: set() for name in chart.state_names}
    for transition in chart.transitions:
        if reverse:
            adjacency[transition.target].add(transition.source)
        else:
            adjacency[transition.source].add(transition.target)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


def _validate_probabilities(chart: StateChart) -> list[ChartIssue]:
    issues: list[ChartIssue] = []
    for state_name in chart.state_names:
        outgoing = chart.outgoing(state_name)
        if not outgoing:
            continue
        annotated = [
            transition
            for transition in outgoing
            if transition.probability is not None
        ]
        if not annotated:
            if len(outgoing) > 1:
                issues.append(
                    ChartIssue(
                        IssueLevel.WARNING,
                        chart.name,
                        f"state {state_name} branches without probability "
                        "annotations; the stochastic translation needs them",
                    )
                )
            continue
        if len(annotated) != len(outgoing):
            issues.append(
                ChartIssue(
                    IssueLevel.ERROR,
                    chart.name,
                    f"state {state_name}: only some outgoing transitions "
                    "carry probability annotations",
                )
            )
            continue
        total = sum(
            transition.probability
            for transition in annotated
            if transition.probability is not None
        )
        if abs(total - 1.0) > 1e-9:
            issues.append(
                ChartIssue(
                    IssueLevel.ERROR,
                    chart.name,
                    f"state {state_name}: outgoing probabilities sum to "
                    f"{total}, expected 1",
                )
            )
    return issues


def _validate_condition_usage(chart: StateChart) -> list[ChartIssue]:
    """Warn about guard variables that no action ever sets.

    Activity-completion conditions (``*_DONE``) are set implicitly by the
    runtime and are therefore exempt.
    """
    set_variables: set[str] = set()
    read_variables: set[str] = set()
    for sub_chart in chart.walk_charts():
        for state in sub_chart.states:
            for action in state.all_entry_actions:
                if isinstance(action, SetCondition):
                    set_variables.add(action.name)
        for transition in sub_chart.transitions:
            read_variables |= transition.rule.guard.variables()
            for action in transition.rule.actions:
                if isinstance(action, SetCondition):
                    set_variables.add(action.name)
    undefined = {
        name
        for name in read_variables - set_variables
        if not name.endswith("_DONE")
    }
    if undefined:
        return [
            ChartIssue(
                IssueLevel.WARNING,
                chart.name,
                f"guard variables never set by any action (set by the "
                f"environment?): {sorted(undefined)}",
            )
        ]
    return []
