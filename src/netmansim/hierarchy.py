"""Manager hierarchy: domain partitioning and grow-and-split cloning.

A ``ManagerTree`` assigns every managed node to exactly one domain. Each
domain is run by a manager hosted on one of its member nodes. When a
domain outgrows ``m_max`` the manager keeps its first ``m_max`` members
and spawns a child manager for the overflow, recursively, so the tree
deepens as the network grows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import (
    DuplicateNode,
    EmptyNetwork,
    UnassignedNode,
    UnknownDomain,
    UnknownNode,
)
from .topology import NodeId

__all__ = [
    "DomainId",
    "ROOT_DOMAIN",
    "Domain",
    "ManagerTree",
]


# Canonical ASCII decimals only, so parse and str round-trip.
_CANONICAL_ID = re.compile(r"[1-9][0-9]*(?:\.[1-9][0-9]*)*")


@dataclass(frozen=True, order=True)
class DomainId:
    """Hierarchical domain name, rendered dotted ("1.3.1")."""

    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("domain id path must be non-empty")
        for part in self.path:
            if isinstance(part, bool) or not isinstance(part, int):
                raise ValueError(f"domain id parts must be ints: {self.path!r}")
            if part < 1:
                raise ValueError(f"domain id parts must be positive: {self.path!r}")

    @classmethod
    def _unchecked(cls, path: tuple[int, ...]) -> "DomainId":
        """An id made without checks: ``path`` must already be valid."""
        domain = object.__new__(cls)
        object.__setattr__(domain, "path", path)
        return domain

    @classmethod
    def parse(cls, text: str) -> "DomainId":
        """Parse a dotted id like ``"1.3.1"``."""
        if not isinstance(text, str):
            raise ValueError(f"domain id must be a string, got {text!r}")
        if _CANONICAL_ID.fullmatch(text) is None:
            raise ValueError(f"malformed domain id {text!r}")
        return cls._unchecked(tuple(map(int, text.split("."))))

    def __str__(self) -> str:
        return ".".join(map(str, self.path))

    @property
    def parent(self) -> "DomainId | None":
        if len(self.path) == 1:
            return None
        return DomainId._unchecked(self.path[:-1])

    def child(self, index: int) -> "DomainId":
        if isinstance(index, bool) or not isinstance(index, int) or index < 1:
            return DomainId(self.path + (index,))  # raises the usual error
        return DomainId._unchecked(self.path + (index,))

    @property
    def depth(self) -> int:
        return len(self.path) - 1


ROOT_DOMAIN = DomainId((1,))


@dataclass
class Domain:
    """One managed domain: an ordered member list and its manager's host."""

    id: DomainId
    members: list[NodeId]
    manager_host: NodeId

    @property
    def managed_count(self) -> int:
        """Number of members the manager polls besides its own host."""
        return len(self.members) - 1


@dataclass
class _ManagerRecord:
    domain: Domain
    parent: DomainId | None
    children: list[DomainId] = field(default_factory=list)


class ManagerTree:
    """Mutable hierarchy of domain managers.

    Build one with ``initial_partition``; grow it with
    ``add_node_to_domain``. Mutating operations return the tree itself so
    calls can be chained. The tree is single-writer: share it between
    threads only once quiescent.
    """

    def __init__(self, m_max: int) -> None:
        if isinstance(m_max, bool) or not isinstance(m_max, int):
            raise ValueError(f"m_max must be an int, got {m_max!r}")
        if m_max < 1:
            raise ValueError(f"m_max must be at least 1, got {m_max}")
        self._m_max = m_max
        self._managers: dict[DomainId, _ManagerRecord] = {}
        self._node_domain: dict[NodeId, DomainId] = {}

    @property
    def m_max(self) -> int:
        return self._m_max

    @property
    def root(self) -> DomainId:
        return ROOT_DOMAIN

    @classmethod
    def initial_partition(
        cls, nodes: Iterable[NodeId], m_max: int, central: NodeId
    ) -> "ManagerTree":
        """Partition freshly discovered nodes into the starting hierarchy.

        Non-central nodes are chunked in ascending id order into full
        groups of ``m_max``; each full chunk becomes a child domain
        (ids 1.1, 1.2, ... in chunk order, manager on the lowest node).
        The central node plus any leftover nodes form the root domain,
        managed from the central node.
        """
        node_list = list(nodes)
        if not node_list:
            raise EmptyNetwork("cannot partition zero nodes")
        seen: set[NodeId] = set()
        for node in node_list:
            if isinstance(node, bool) or not isinstance(node, int):
                raise ValueError(f"node id must be an int, got {node!r}")
            if node < 1:
                raise ValueError(f"node id must be positive, got {node}")
            if node in seen:
                raise DuplicateNode(f"node {node} listed twice")
            seen.add(node)
        if central not in seen:
            raise UnknownNode(f"central node {central} is not in the node list")

        tree = cls(m_max)
        others = sorted(seen - {central})
        full_chunks = len(others) // m_max
        root_members = [central] + others[full_chunks * m_max :]
        tree._install(ROOT_DOMAIN, root_members, central, parent=None)
        for index in range(full_chunks):
            chunk = others[index * m_max : (index + 1) * m_max]
            child_id = ROOT_DOMAIN.child(index + 1)
            tree._install(child_id, chunk, chunk[0], parent=ROOT_DOMAIN)
        return tree

    def _install(
        self,
        domain_id: DomainId,
        members: list[NodeId],
        host: NodeId,
        parent: DomainId | None,
    ) -> None:
        record = _ManagerRecord(Domain(domain_id, members, host), parent)
        self._managers[domain_id] = record
        if parent is not None:
            self._managers[parent].children.append(domain_id)
        for node in members:
            self._node_domain[node] = domain_id

    def add_node_to_domain(self, node: NodeId, domain: DomainId) -> "ManagerTree":
        """Append a newly discovered node to a domain, splitting as needed."""
        if isinstance(node, bool) or not isinstance(node, int):
            raise ValueError(f"node id must be an int, got {node!r}")
        if node < 1:
            raise ValueError(f"node id must be positive, got {node}")
        record = self._managers.get(domain)
        if record is None:
            raise UnknownDomain(f"no such domain: {domain}")
        if node in self._node_domain:
            raise DuplicateNode(
                f"node {node} already belongs to {self._node_domain[node]}"
            )
        record.domain.members.append(node)
        self._node_domain[node] = domain
        return self.handle_growth(domain)

    def handle_growth(self, domain: DomainId) -> "ManagerTree":
        """Split ``domain`` if it exceeds ``m_max``, recursing into the child.

        The manager keeps the first ``m_max`` members in join order and
        hands the rest to one newly spawned child. If the manager's own
        host would leave the retained set it swaps places with the last
        retained member, so a manager never migrates. The child's manager
        is placed on the lowest-id moved node.
        """
        record = self._managers.get(domain)
        if record is None:
            raise UnknownDomain(f"no such domain: {domain}")
        members = record.domain.members
        for member in members:
            owner = self._node_domain.get(member)
            if owner is not None and owner != domain:
                raise DuplicateNode(f"node {member} already belongs to {owner}")
            self._node_domain[member] = domain
        if len(members) <= self._m_max:
            return self
        host_index = members.index(record.domain.manager_host)
        if host_index >= self._m_max:
            last_kept = self._m_max - 1
            members[host_index], members[last_kept] = (
                members[last_kept],
                members[host_index],
            )
        moved = members[self._m_max :]
        del members[self._m_max :]
        child_id = domain.child(len(record.children) + 1)
        self._install(child_id, moved, min(moved), parent=domain)
        return self.handle_growth(child_id)

    def domain_of(self, node: NodeId) -> DomainId:
        """Return the unique domain owning ``node``."""
        domain = self._node_domain.get(node)
        if domain is None:
            raise UnassignedNode(f"node {node} is not assigned to any domain")
        return domain

    # -- read-only views ------------------------------------------------

    def __contains__(self, domain: DomainId) -> bool:
        return domain in self._managers

    def __len__(self) -> int:
        return len(self._managers)

    def domain(self, domain: DomainId) -> Domain:
        record = self._managers.get(domain)
        if record is None:
            raise UnknownDomain(f"no such domain: {domain}")
        return record.domain

    def parent_of(self, domain: DomainId) -> DomainId | None:
        record = self._managers.get(domain)
        if record is None:
            raise UnknownDomain(f"no such domain: {domain}")
        return record.parent

    def children_of(self, domain: DomainId) -> tuple[DomainId, ...]:
        record = self._managers.get(domain)
        if record is None:
            raise UnknownDomain(f"no such domain: {domain}")
        return tuple(record.children)

    def domain_ids(self) -> list[DomainId]:
        # Sorting on the path tuples compares in C; the order is the one
        # DomainId's generated comparisons give.
        return sorted(self._managers, key=attrgetter("path"))

    def domains(self) -> list[Domain]:
        """All domains, sorted by id (depth-first order)."""
        return [self._managers[did].domain for did in self.domain_ids()]

    def parent_child_edges(self) -> list[tuple[Domain, Domain]]:
        """Every (mother, child) domain pair, sorted by child id."""
        edges = []
        for did in self.domain_ids():
            record = self._managers[did]
            if record.parent is not None:
                edges.append((self._managers[record.parent].domain, record.domain))
        return edges

    def assigned_nodes(self) -> frozenset[NodeId]:
        return frozenset(self._node_domain)

    def __iter__(self) -> Iterator[Domain]:
        return iter(self.domains())
