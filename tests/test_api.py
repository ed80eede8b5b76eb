"""The package's public surface: removing or adding a name is a test edit."""

from __future__ import annotations

import netmansim

# Includes every name tests/test_acceptance.py and perfbench/ import from
# the package top level.
PUBLIC_NAMES = [
    "AddNode",
    "CostBreakdown",
    "CostParams",
    "CostReport",
    "Domain",
    "DomainId",
    "DomainState",
    "DuplicateLink",
    "DuplicateNode",
    "EmptyNetwork",
    "EmptyResult",
    "Event",
    "HierarchyError",
    "ItineraryTooShort",
    "MODEL_NAMES",
    "ManagerTree",
    "NegativeCoeff",
    "NetmanError",
    "Network",
    "NodeId",
    "ParseError",
    "ROOT_DOMAIN",
    "ReportRow",
    "Scenario",
    "ScenarioError",
    "SelfLink",
    "SimulationResult",
    "SimulationState",
    "Snapshot",
    "SnapshotRecord",
    "TopologyError",
    "UnassignedNode",
    "UnknownDomain",
    "UnknownNode",
    "Unreachable",
    "ValidationError",
    "__version__",
    "apply_event",
    "bundled_scenario_names",
    "compare",
    "cost_centralized",
    "cost_centralized_polled",
    "cost_domain_flatbed",
    "cost_flatbed",
    "cost_flatbed_polled",
    "cost_imasnm_deploy",
    "cost_imasnm_poll",
    "cost_imasnm_total",
    "emit_csv",
    "format_table",
    "kilobytes",
    "load_bundled_scenario",
    "load_scenario",
    "load_scenario_file",
    "run",
]


def test_all_is_pinned():
    assert sorted(netmansim.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in netmansim.__all__:
        assert getattr(netmansim, name) is not None, name
