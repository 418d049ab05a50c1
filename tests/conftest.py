"""Shared test plumbing.

Acceptance tests register a one-line verdict per criterion through
`record_criterion`; the terminal summary prints them after the run so
the pass/fail lines are visible even when pytest captures stdout.

The two long training criteria, and the check that all twelve criteria
ran, are marked `slow` here (the acceptance file stays untouched), so
`python -m pytest -m "not slow"` is the fast subset.
"""

from __future__ import annotations

import pytest

_CRITERIA: dict[int, tuple[str, bool]] = {}
_SLOW = {
    "test_criterion_07_loss_grows_with_learner_count",
    "test_criterion_08_strategy_ordering_at_32",
    "test_criteria_cover_all_twelve",
}


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.name in _SLOW:
            item.add_marker(pytest.mark.slow)


def record_criterion(number: int, description: str, passed: bool) -> None:
    _CRITERIA[number] = (description, passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_CRITERIA):
        description, passed = _CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[criterion {number:02d}] {description}: {verdict}")
