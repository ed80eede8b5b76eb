"""The package's public surface: removing or adding a name is a test edit.

The same holds for the members of ``Network`` and ``ManagerTree``, the
two classes a library caller grows and reads.
"""

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


# Dunder methods that make a member part of the surface, as len(), hash(),
# ``in`` and iteration would reach them.
PROTOCOL = ("__len__", "__hash__", "__contains__", "__iter__")

PUBLIC_MEMBERS = {
    "Network": ["add_link", "add_node", "k_override", "links", "nodes", "path_cost"],
    "ManagerTree": [
        "add_node_to_domain",
        "children_of",
        "domain_ids",
        "domain_of",
        "domains",
        "initial_partition",
        "m_max",
        "parent_of",
        "states",
    ],
}


def public_members(cls: type) -> list[str]:
    """The names ``cls`` defines without a leading ``_``, and its protocol dunders."""
    return sorted(
        name
        for name, value in vars(cls).items()
        if value is not None and (not name.startswith("_") or name in PROTOCOL)
    )


def test_class_members_are_pinned():
    members = {name: public_members(getattr(netmansim, name)) for name in PUBLIC_MEMBERS}
    assert members == PUBLIC_MEMBERS
