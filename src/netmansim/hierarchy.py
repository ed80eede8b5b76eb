"""Manager hierarchy: domain partitioning and clone-on-join growth.

A ``ManagerTree`` assigns every managed node to exactly one domain. Each
domain is run by a manager hosted on one of its member nodes. Nodes join
one at a time: a domain below ``m_max`` members takes the node, and a
full one clones a child manager hosted on the node, so the tree deepens
as the network grows. Only the tree changes membership; it keeps one
frozen ``DomainState`` per domain and builds each ``Domain`` from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    DuplicateNode,
    EmptyNetwork,
    UnassignedNode,
    UnknownDomain,
    UnknownNode,
)
from .topology import NodeId, _check_node_id, _node_order

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


@dataclass(frozen=True)
class Domain:
    """One managed domain as it stood when read: members and manager host.

    Only the ``ManagerTree`` changes membership. A ``Domain`` read before
    a join keeps its old members; a fresh read shows the new one.
    """

    id: DomainId
    members: tuple[NodeId, ...]
    manager_host: NodeId

    @property
    def managed_count(self) -> int:
        """Number of members the manager polls besides its own host."""
        return len(self.members) - 1


@dataclass(frozen=True)
class DomainState:
    """Immutable view of one domain at some instant."""

    id: str
    manager_host: NodeId
    members: tuple[NodeId, ...]
    parent: str | None
    children: tuple[str, ...]


@dataclass(eq=False, slots=True)
class _ManagerRecord:
    """One domain, linked directly to its parent's and children's records.

    ``members`` is the tree's own list. ``name`` is the dotted id,
    rendered once. ``state`` is the frozen view last handed out, built on
    read; a join into the domain or a new child drops it. ``view()``
    builds a ``Domain`` from it on each read, sharing its members tuple.
    """

    id: DomainId
    name: str
    host: NodeId
    members: list[NodeId]
    parent: _ManagerRecord | None
    children: list[_ManagerRecord] = field(default_factory=list)
    state: DomainState | None = None

    def view(self) -> Domain:
        return Domain(self.id, self.snapshot().members, self.host)

    def snapshot(self) -> DomainState:
        if self.state is None:
            parent = None if self.parent is None else self.parent.name
            children = tuple(child.name for child in self.children)
            members = tuple(self.members)
            self.state = DomainState(self.name, self.host, members, parent, children)
        return self.state


class ManagerTree:
    """Mutable hierarchy of domain managers.

    Build one with ``initial_partition``; grow it one node at a time
    with ``add_node_to_domain``, which returns the tree itself so calls
    can be chained. The tree is single-writer: share it between
    threads only once quiescent.
    """

    def __init__(self, m_max: int) -> None:
        if isinstance(m_max, bool) or not isinstance(m_max, int):
            raise ValueError(f"m_max must be an int, got {m_max!r}")
        if m_max < 1:
            raise ValueError(f"m_max must be at least 1, got {m_max}")
        self._m_max = m_max
        # Only public lookups go through _managers; records link directly.
        self._managers: dict[DomainId, _ManagerRecord] = {}
        self._root: _ManagerRecord | None = None
        self._node_domain: dict[NodeId, _ManagerRecord] = {}

    @property
    def m_max(self) -> int:
        return self._m_max

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
        order = _node_order(nodes)
        if not order:
            raise EmptyNetwork("cannot partition zero nodes")
        if central not in order:
            raise UnknownNode(f"central node {central} is not in the node list")

        tree = cls(m_max)
        others = sorted(order.keys() - {central})
        full_chunks = len(others) // m_max
        root_members = [central] + others[full_chunks * m_max :]
        root = tree._install(None, root_members, central)
        for index in range(full_chunks):
            chunk = others[index * m_max : (index + 1) * m_max]
            tree._install(root, chunk, chunk[0])
        return tree

    def _install(
        self, parent: _ManagerRecord | None, members: list[NodeId], host: NodeId
    ) -> _ManagerRecord:
        """Add the root, or ``parent``'s next child, and register its members."""
        if parent is None:
            domain_id, name = ROOT_DOMAIN, str(ROOT_DOMAIN)
        else:
            index = len(parent.children) + 1
            domain_id = parent.id.child(index)
            name = f"{parent.name}.{index}"
        record = _ManagerRecord(domain_id, name, host, members, parent)
        self._managers[domain_id] = record
        self._node_domain.update(dict.fromkeys(members, record))
        if parent is None:
            self._root = record
        else:
            parent.children.append(record)
            parent.state = None  # its children changed
        return record

    def _record(self, domain: DomainId) -> _ManagerRecord:
        record = self._managers.get(domain)
        if record is None:
            raise UnknownDomain(f"no such domain: {domain}")
        return record

    def add_node_to_domain(self, node: NodeId, domain: DomainId) -> "ManagerTree":
        """Add a newly discovered node to a domain.

        A domain with fewer than ``m_max`` members appends the node. A
        full domain clones its next child domain instead, whose only
        member and manager host is the node, so a join costs O(1).
        """
        _check_node_id(node)
        record = self._record(domain)
        owner = self._node_domain.get(node)
        if owner is not None:
            raise DuplicateNode(f"node {node} already belongs to {owner.name}")
        if len(record.members) < self._m_max:
            record.members.append(node)
            record.state = None
            self._node_domain[node] = record
        else:
            self._install(record, [node], node)
        return self

    def domain_of(self, node: NodeId) -> DomainId:
        """Return the unique domain owning ``node``."""
        record = self._node_domain.get(node)
        if record is None:
            raise UnassignedNode(f"node {node} is not assigned to any domain")
        return record.id

    # -- read-only views ------------------------------------------------

    def __contains__(self, domain: DomainId) -> bool:
        return domain in self._managers

    def __len__(self) -> int:
        return len(self._managers)

    def domain(self, domain: DomainId) -> Domain:
        return self._record(domain).view()

    def parent_of(self, domain: DomainId) -> DomainId | None:
        parent = self._record(domain).parent
        return None if parent is None else parent.id

    def children_of(self, domain: DomainId) -> tuple[DomainId, ...]:
        return tuple(child.id for child in self._record(domain).children)

    def _preorder(self) -> Iterator[_ManagerRecord]:
        """Every record, parents first and children in join order.

        Child indices count up in join order, so this is id order.
        """
        stack = [] if self._root is None else [self._root]
        while stack:
            record = stack.pop()
            yield record
            stack.extend(reversed(record.children))

    def domain_ids(self) -> list[DomainId]:
        """All domain ids, in id order (depth-first)."""
        return [record.id for record in self._preorder()]

    def domains(self) -> list[Domain]:
        """All domains, in id order (depth-first), from one walk of the tree."""
        return [record.view() for record in self._preorder()]

    def parent_child_edges(self) -> list[tuple[Domain, Domain]]:
        """Every (mother, child) domain pair, in child id order, from one walk."""
        return [
            (record.parent.view(), record.view())
            for record in self._preorder()
            if record.parent is not None
        ]

    def states(self) -> tuple[DomainState, ...]:
        """An immutable ``DomainState`` of every domain, in id order.

        A domain with no join and no new child since the last call gets
        the same state object back, so successive calls share the states
        of unchanged domains.
        """
        return tuple(record.snapshot() for record in self._preorder())
