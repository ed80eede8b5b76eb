"""Shared fixtures: the reference scenario rebuilt through the public API.

Every property test runs under one Hypothesis profile: derandomized, so
each run draws the same examples and gives the same verdict, and without
a per-example deadline, so a slow machine cannot fail a correct example.

The test files also import helpers from here: ``build_state``,
``parent_links``, ``replace`` (a record rebuilt with some fields changed)
and ``assert_frozen_record``.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest
from hypothesis import settings

from netmansim import (
    Domain,
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


def parent_links(tree: ManagerTree) -> list[tuple[Domain, Domain]]:
    """Every (mother, child) ``Domain`` pair, in child id order.

    Read through ``domains()`` and ``parent_of`` alone, so references
    built on it stay independent of ``states()`` and of cost pricing.
    """
    domains = {domain.id: domain for domain in tree.domains()}
    return [
        (domains[mother], domain)
        for domain in domains.values()
        if (mother := tree.parent_of(domain.id)) is not None
    ]


def replace(obj, **changes):
    """``obj`` rebuilt through its public constructor, with ``changes``.

    The parameter names come from ``inspect.signature(type(obj))``, as
    ``dataclasses.replace`` took them from the fields its ``__init__``
    sets, so a change the constructor does not take raises TypeError.
    """
    kept = {
        name: getattr(obj, name)
        for name in inspect.signature(type(obj)).parameters
        if name not in changes
    }
    return type(obj)(**kept, **changes)


def assert_frozen_record(record, text: str, values: tuple) -> None:
    """``record`` is the frozen record of ``values`` and prints as ``text``.

    Its ``__match_args__`` are its constructor's parameters. Rebuilt from
    ``values`` by position or by keyword, copied or pickled, it is equal.
    It is unequal to the plain tuple, hashes as that tuple does (or,
    holding a dict, not at all), and refuses to have a field set or
    deleted.
    """
    cls = type(record)
    names = list(inspect.signature(cls).parameters)
    assert repr(record) == text
    assert cls.__match_args__ == tuple(names)
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    assert record != values
    assert record.__eq__(values) is NotImplemented
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    for name, value in zip(names, values):
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
        assert getattr(record, name) == value


@pytest.fixture(scope="session")
def reference18_scenario() -> Scenario:
    return load_bundled_scenario("reference18")


@pytest.fixture()
def reference18_state(reference18_scenario) -> SimulationState:
    return build_state(reference18_scenario)
