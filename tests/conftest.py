"""Shared test plumbing.

Acceptance tests register a one-line verdict per criterion through
`record_criterion`; the terminal summary prints them after the run so
the pass/fail lines are visible even when pytest captures stdout.

The two long training criteria, and the check that all twelve criteria
ran, are marked `slow` here (the acceptance file stays untouched), so
`python -m pytest -m "not slow"` is the fast subset.

The `reference` fixture is `tests/reference.py`, the slow references the
optimized paths are checked against, and `failed_guard` forces the stream
reseat onto its public-setter fallback.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from ringmix import seeding, simulation

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


@pytest.fixture(scope="session")
def reference():
    """tests/reference.py, loaded by path: imported as `reference` it would
    shadow perfbench's module of that name when both suites run in one
    session."""
    spec = importlib.util.spec_from_file_location(
        "reference_simulator", Path(__file__).with_name("reference.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def failed_guard(monkeypatch):
    """Force the reseat's guard to fail; returns the state rows that
    `seeding._set_state` then reseats the shared Generator at.  The cached
    stream block (`simulation._last_draws`) is dropped, so a run reseats for
    all of its streams."""
    seeding._shared_rng.cache_clear()
    simulation._last_draws = None
    monkeypatch.setattr(seeding, "_reseat_guard", lambda rng, state, half_word: False)
    reseats, set_state = [], seeding._set_state

    def recorded_set_state(rng, row):
        reseats.append(row)
        set_state(rng, row)

    monkeypatch.setattr(seeding, "_set_state", recorded_set_state)
    yield reseats
    seeding._shared_rng.cache_clear()
    simulation._last_draws = None
