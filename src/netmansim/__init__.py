"""Deterministic simulator for hierarchical mobile-agent network management.

The package models a managed network as a weighted graph, grows a
hierarchy of domain managers through discovery events, and prices the
management traffic of three approaches: centralized request/response
polling, a single flat-bed agent sweeping every node, and the
hierarchical model where each domain manager polls locally and reports
upward. Costs are computed in exact rational arithmetic and reported in
bytes or rendered kilobytes.
"""

from .costs import (
    CostBreakdown,
    CostParams,
    cost_centralized,
    cost_centralized_polled,
    cost_flatbed,
    cost_flatbed_polled,
    cost_imasnm_deploy,
    cost_imasnm_poll,
    cost_imasnm_total,
)
from .errors import (
    DuplicateLink,
    DuplicateNode,
    EmptyNetwork,
    EmptyResult,
    HierarchyError,
    ItineraryTooShort,
    NegativeCoeff,
    NetmanError,
    ParseError,
    ScenarioError,
    SelfLink,
    TopologyError,
    UnassignedNode,
    UnknownDomain,
    UnknownNode,
    Unreachable,
    ValidationError,
)
from .hierarchy import (
    ROOT_DOMAIN,
    Domain,
    DomainId,
    ManagerTree,
)
from .report import CostReport, ReportRow, compare, emit_csv, format_table, kilobytes
from .simulation import (
    MODEL_NAMES,
    AddNode,
    DomainState,
    Event,
    Scenario,
    SimulationResult,
    SimulationState,
    Snapshot,
    SnapshotRecord,
    apply_event,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    load_scenario_file,
    run,
)
from .topology import Network, NodeId

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "NodeId",
    "Network",
    "DomainId",
    "ROOT_DOMAIN",
    "Domain",
    "ManagerTree",
    "CostParams",
    "CostBreakdown",
    "cost_centralized",
    "cost_centralized_polled",
    "cost_flatbed",
    "cost_flatbed_polled",
    "cost_imasnm_deploy",
    "cost_imasnm_poll",
    "cost_imasnm_total",
    "MODEL_NAMES",
    "AddNode",
    "Snapshot",
    "Event",
    "Scenario",
    "DomainState",
    "SnapshotRecord",
    "SimulationState",
    "SimulationResult",
    "load_scenario",
    "load_scenario_file",
    "load_bundled_scenario",
    "bundled_scenario_names",
    "apply_event",
    "run",
    "kilobytes",
    "ReportRow",
    "CostReport",
    "compare",
    "emit_csv",
    "format_table",
    "NetmanError",
    "TopologyError",
    "DuplicateNode",
    "UnknownNode",
    "SelfLink",
    "DuplicateLink",
    "NegativeCoeff",
    "Unreachable",
    "HierarchyError",
    "EmptyNetwork",
    "UnknownDomain",
    "UnassignedNode",
    "ItineraryTooShort",
    "ScenarioError",
    "ParseError",
    "ValidationError",
    "EmptyResult",
]
