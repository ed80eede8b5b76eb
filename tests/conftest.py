"""Shared fixtures: the reference scenario rebuilt through the public API."""

from __future__ import annotations

import pytest

from netmansim import (
    ManagerTree,
    Network,
    Scenario,
    SimulationState,
    apply_event,
    load_bundled_scenario,
)


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
