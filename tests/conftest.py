"""Shared fixtures: the reference scenario rebuilt through the public API.

Every property test runs under one Hypothesis profile: derandomized, so
each run draws the same examples and gives the same verdict, and without
a per-example deadline, so a slow machine cannot fail a correct example.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from netmansim import (
    ManagerTree,
    Network,
    Scenario,
    SimulationState,
    apply_event,
    load_bundled_scenario,
)

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def build_state(scenario: Scenario) -> SimulationState:
    """Replay a scenario's events and return the live engine state."""
    state = SimulationState(
        network=Network(scenario.nodes, scenario.links, scenario.k_override),
        tree=ManagerTree.initial_partition(
            scenario.nodes, scenario.m_max, scenario.central
        ),
    )
    for event in scenario.events:
        apply_event(state, event)
    return state


@pytest.fixture(scope="session")
def reference18_scenario() -> Scenario:
    return load_bundled_scenario("reference18")


@pytest.fixture()
def reference18_state(reference18_scenario) -> SimulationState:
    return build_state(reference18_scenario)
