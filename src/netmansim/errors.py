"""Exception types raised by this package."""

from __future__ import annotations

__all__ = [
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


class NetmanError(Exception):
    """Base class for every error this package raises deliberately."""


class TopologyError(NetmanError):
    """Problem with the managed network graph.

    ``entry`` names the rejected entry of ``Network``'s arguments as an
    expression on them, ``"links[3][1]"`` or ``"k_override[(1, 2)]"``, or
    of a join's node and links (``"node"``, ``"links[0][1]"``), or is None.
    """

    def __init__(self, message: str, entry: str | None = None) -> None:
        super().__init__(message)
        self.entry = entry


class DuplicateNode(TopologyError):
    """A node id was added twice."""


class UnknownNode(TopologyError):
    """A node id is not part of the network or hierarchy."""


# Also ValueErrors, so callers that caught Network's old bad-pin ValueError still do.
class SelfLink(TopologyError, ValueError):
    """A link may not join a node to itself, nor a pinned cost be non-zero."""


class DuplicateLink(TopologyError, ValueError):
    """The same unordered node pair was linked, or its cost pinned, twice."""


class NegativeCoeff(TopologyError):
    """Link coefficients and pair-cost overrides must be non-negative."""


class Unreachable(TopologyError):
    """No path exists between the queried nodes.

    ``model`` names the cost model whose pricing asked for the pair, or
    is None.
    """

    model: str | None = None


class HierarchyError(NetmanError):
    """Problem with the manager hierarchy."""


class EmptyNetwork(HierarchyError):
    """Cannot partition an empty set of nodes."""


class UnknownDomain(HierarchyError):
    """A domain id does not name an existing domain."""


class UnassignedNode(HierarchyError):
    """A node is not assigned to any domain."""


class ItineraryTooShort(NetmanError):
    """A flat-bed itinerary needs at least two nodes."""


class ScenarioError(NetmanError):
    """Problem with a scenario description."""


class ParseError(ScenarioError):
    """The scenario source is not well-formed JSON."""


class ValidationError(ScenarioError):
    """The scenario JSON is well-formed but violates the schema.

    Carries the JSON path of the offending field so callers can point at
    the exact spot in the file.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class EmptyResult(NetmanError):
    """A report was requested for a result that contains no cost data."""
