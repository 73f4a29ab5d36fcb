"""Shared fixtures.

Simulated sessions are comparatively expensive (hundreds of milliseconds
each), so anything reusable is session-scoped and derived from fixed seeds —
the library is fully deterministic, so sharing fixtures does not couple tests.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.client.profiles import OperationalCondition, figure2_conditions
from repro.client.viewer import ViewerBehavior
from repro.core.pipeline import WhiteMirrorAttack
from repro.narrative.bandersnatch import (
    build_bandersnatch_script,
    build_minimal_interactive_script,
)
from repro.streaming.session import SessionConfig, simulate_session

#: ``--hypothesis-profile=ci``: a fixed example sequence (a CI failure
#: replays locally with the same flag), no deadline, and more examples than
#: the default profile's 100.
settings.register_profile("ci", derandomize=True, deadline=None, max_examples=400)


def pytest_addoption(parser):
    parser.addoption(
        "--reverse-order",
        action="store_true",
        help="run the collected tests in reverse order",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reverse-order"):
        items.reverse()


@pytest.fixture(scope="session")
def minimal_graph():
    """The two-question script of the Figure 1 walkthrough."""
    return build_minimal_interactive_script()


@pytest.fixture(scope="session")
def study_graph():
    """The short-segment Bandersnatch-like script used for fast simulations."""
    return build_bandersnatch_script(
        trunk_segment_minutes=1.5, branch_segment_minutes=1.0, ending_minutes=2.0
    )


@pytest.fixture(scope="session")
def ubuntu_condition() -> OperationalCondition:
    """The (Desktop, Firefox, Ethernet, Ubuntu) condition of Figure 2."""
    return figure2_conditions()[0]


@pytest.fixture(scope="session")
def windows_condition() -> OperationalCondition:
    """The (Desktop, Firefox, Ethernet, Windows) condition of Figure 2."""
    return figure2_conditions()[1]


@pytest.fixture(scope="session")
def noisy_condition() -> OperationalCondition:
    """The adversarial corner: wireless connection during the evening peak."""
    return OperationalCondition("linux", "desktop", "firefox", "wireless", "night")


@pytest.fixture(scope="session")
def default_behavior() -> ViewerBehavior:
    """A neutral viewer used when the behaviour itself is not under test."""
    return ViewerBehavior("20-25", "undisclosed", "undisclosed", "happy")


@pytest.fixture(scope="session")
def ubuntu_session(study_graph, ubuntu_condition, default_behavior):
    """One full simulated session under the Ubuntu/Firefox condition."""
    return simulate_session(
        study_graph, ubuntu_condition, default_behavior, seed=1001, session_id="fixture-ubuntu"
    )


@pytest.fixture(scope="session")
def windows_session(study_graph, windows_condition, default_behavior):
    """One full simulated session under the Windows/Firefox condition."""
    return simulate_session(
        study_graph, windows_condition, default_behavior, seed=1002, session_id="fixture-windows"
    )


@pytest.fixture(scope="session")
def minimal_session(minimal_graph, ubuntu_condition, default_behavior):
    """A quick two-question session with forced (default, non-default) choices."""
    return simulate_session(
        minimal_graph,
        ubuntu_condition,
        default_behavior,
        seed=1003,
        config=SessionConfig(cross_traffic_enabled=False),
        forced_choices=[True, False],
        session_id="fixture-minimal",
    )


@pytest.fixture(scope="session")
def training_sessions(study_graph, ubuntu_condition, windows_condition, default_behavior):
    """Labelled sessions under both Figure 2 conditions, for attacker training."""
    sessions = []
    for index, condition in enumerate((ubuntu_condition, windows_condition)):
        for offset in range(2):
            sessions.append(
                simulate_session(
                    study_graph,
                    condition,
                    default_behavior,
                    seed=2000 + 10 * index + offset,
                    session_id=f"fixture-train-{index}-{offset}",
                )
            )
    return sessions


@pytest.fixture(scope="session")
def trained_attack(study_graph, training_sessions) -> WhiteMirrorAttack:
    """A White Mirror attack trained on the shared training sessions."""
    attack = WhiteMirrorAttack(graph=study_graph)
    attack.train(training_sessions)
    return attack
