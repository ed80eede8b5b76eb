"""Manager hierarchy: domain partitioning and clone-on-join growth.

A ``ManagerTree`` assigns every managed node to exactly one domain. Each
domain is run by a manager hosted on one of its member nodes. Nodes join
one at a time: a domain below ``m_max`` members takes the node, and a
full one clones a child manager hosted on the node, so the tree deepens
as the network grows. Only the tree changes membership; it keeps one
frozen ``DomainState`` per domain and builds each ``Domain`` from it.

The tree keys its records by dotted name. Each ``DomainId`` carries
its name from where it was made, and a ``str`` keeps its hash, so a
join is one dict lookup, not a hash of its whole path. Making a child
still builds its name and path in O(depth).
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterable, Sequence

from ._record import Record
from .errors import (
    DuplicateNode,
    EmptyNetwork,
    UnassignedNode,
    UnknownDomain,
    UnknownNode,
)
from .topology import NodeId, _check_node_id, _count, _node_order

__all__ = [
    "DomainId",
    "ROOT_DOMAIN",
    "Domain",
    "ManagerTree",
]


# Canonical ASCII decimals only, so parse and str round-trip.
_CANONICAL_ID = re.compile(r"[1-9][0-9]*(?:\.[1-9][0-9]*)*")


@total_ordering
class DomainId(Record):
    """Hierarchical domain name, rendered dotted ("1.3.1").

    An id equals, orders, hashes, prints and pickles by ``path`` alone,
    and only against ids of its own class, so sorting is depth-first.
    Its dotted name is rendered once, when it is made: ``parse`` and the
    loader keep the text they read, and the tree the name it builds.
    ``str`` returns that name, which keys the tree's records. So a part
    too long for ``str(int)`` (past ``sys.get_int_max_str_digits()``)
    raises ``ValueError`` when the id is made, as ``parse`` does.
    """

    __slots__ = ("path", "_name")
    _fields = ("path",)

    def __init__(self, path: tuple[int, ...]) -> None:
        if not path:
            raise ValueError("domain id path must be non-empty")
        for part in path:
            if isinstance(part, bool) or not isinstance(part, int):
                raise ValueError(f"domain id parts must be ints: {path!r}")
            if part < 1:
                raise ValueError(f"domain id parts must be positive: {path!r}")
        _set_path(self, path)
        _set_name(self, ".".join(map(str, path)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.path == other.path
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.path,))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.path < other.path
        return NotImplemented

    def __reduce__(self) -> tuple:
        return self.__class__, (self.path,)

    @classmethod
    def _unchecked(cls, path: tuple[int, ...], name: str) -> "DomainId":
        """An id made without checks: ``path`` must be valid, ``name`` its text."""
        domain = object.__new__(cls)
        _set_path(domain, path)
        _set_name(domain, name)
        return domain

    @classmethod
    def parse(cls, text: str) -> "DomainId":
        """Parse a dotted id like ``"1.3.1"``."""
        if not isinstance(text, str):
            raise ValueError(f"domain id must be a string, got {text!r}")
        if _CANONICAL_ID.fullmatch(text) is None:
            raise ValueError(f"malformed domain id {text!r}")
        return cls._unchecked(tuple(map(int, text.split("."))), text)

    def __str__(self) -> str:
        return self._name


# A record made on every join or snapshot sets its fields through its
# slot descriptors, past Record.__setattr__, at about half the cost of
# object.__setattr__.
_set_path = DomainId.path.__set__
_set_name = DomainId._name.__set__

ROOT_DOMAIN = DomainId((1,))


class Domain(Record):
    """One managed domain as it stood when read: members and manager host.

    Only the ``ManagerTree`` changes membership. A ``Domain`` read before
    a join keeps its old members; a fresh read shows the new one.
    """

    __slots__ = ("id", "members", "manager_host")

    def __init__(
        self, id: DomainId, members: tuple[NodeId, ...], manager_host: NodeId
    ) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "manager_host", manager_host)


class DomainState(Record):
    """Immutable view of one domain at some instant."""

    __slots__ = ("id", "manager_host", "members", "parent", "children")

    def __init__(
        self, id: str, manager_host: NodeId, members: tuple[NodeId, ...],
        parent: str | None, children: tuple[str, ...],
    ) -> None:
        set_id, set_host, set_members, set_parent, set_children = _STATE_SETTERS
        set_id(self, id)
        set_host(self, manager_host)
        set_members(self, members)
        set_parent(self, parent)
        set_children(self, children)


_STATE_SETTERS = tuple(
    [vars(DomainState)[name].__set__ for name in DomainState.__slots__]
)


class _ManagerRecord:
    """One domain, linked directly to its children's records.

    ``members`` is the tree's own list. ``name`` is the dotted id,
    rendered once. ``parent`` and ``parent_name`` are the parent's id and
    name, not its record, so records link one way and a finished tree
    holds no reference cycle: reference counting frees it. ``state`` is
    the frozen view last handed out, built on read; a join into the
    domain or a new child drops it. ``ManagerTree.domains()`` builds each
    ``Domain`` from it, sharing its members tuple.
    """

    __slots__ = (
        "id", "name", "host", "members", "parent", "parent_name", "children", "state"
    )

    def __init__(
        self, id: DomainId, name: str, host: NodeId, members: list[NodeId],
        parent: DomainId | None, parent_name: str | None,
    ) -> None:
        self.id = id
        self.name = name
        self.host = host
        self.members = members
        self.parent = parent
        self.parent_name = parent_name
        self.children: list[_ManagerRecord] = []
        self.state: DomainState | None = None

    def snapshot(self) -> DomainState:
        if self.state is None:
            children = self.children
            self.state = DomainState(
                self.name, self.host, tuple(self.members), self.parent_name,
                tuple([child.name for child in children]) if children else (),
            )
        return self.state


class ManagerTree:
    """Mutable hierarchy of domain managers.

    Build one with ``initial_partition``; grow it one node at a time
    with ``add_node_to_domain``, which returns the tree itself so calls
    can be chained. The tree is single-writer: share it between
    threads only once quiescent.

    A join costs one lookup by the id's dotted name and, into a full
    domain, one new child record, whose name and path take O(depth). A
    ``states()`` call costs one walk of the tree plus a new state for
    each domain changed since the last.
    """

    def __init__(self, m_max: int) -> None:
        self._m_max = _count(m_max, "m_max", 1)
        # Only public lookups go through _managers; records link directly.
        self._managers: dict[str, _ManagerRecord] = {}
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
        root = _ManagerRecord(ROOT_DOMAIN, "1", central, root_members, None, None)
        tree._root = root
        managers = tree._managers
        managers["1"] = root
        node_domain = tree._node_domain
        node_domain.update(dict.fromkeys(root_members, root))
        children = root.children
        for index in range(1, full_chunks + 1):
            chunk = others[(index - 1) * m_max : index * m_max]
            name = f"1.{index}"
            record = _ManagerRecord(
                DomainId._unchecked((1, index), name), name, chunk[0], chunk,
                ROOT_DOMAIN, "1",
            )
            children.append(record)
            managers[name] = record
            for node in chunk:
                node_domain[node] = record
        return tree

    def _record(self, domain: DomainId) -> _ManagerRecord:
        record = None
        if domain.__class__ is DomainId:
            record = self._managers.get(domain._name)
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
        record.state = None  # its members or its children change
        if len(record.members) < self._m_max:
            record.members.append(node)
        else:
            parent, index = record, len(record.children) + 1
            name = f"{parent.name}.{index}"
            record = _ManagerRecord(
                DomainId._unchecked(parent.id.path + (index,), name), name, node,
                [node], parent.id, parent.name,
            )
            parent.children.append(record)
            self._managers[name] = record
        self._node_domain[node] = record
        return self

    @staticmethod
    def _replay_shape(
        node_count: int, m_max: int, domains: Sequence[DomainId]
    ) -> tuple[dict[str, list[int]], int]:
        """The tree's shape after joins into ``domains``, counted, not built.

        The count-only twin of ``initial_partition`` on ``node_count``
        nodes followed by ``add_node_to_domain`` into each of ``domains``
        in turn: each domain's dotted name, as the tree keys it, maps to
        its ``[members, children]`` counts, and a full domain starts child
        n+1. A join into a domain that does not exist yet stops the
        replay. Returns the counts and the number of joins replayed.
        """
        _count(m_max, "m_max", 1)
        chunks, rest = divmod(node_count - 1, m_max)
        shape = {"1": [1 + rest, chunks]}
        for index in range(1, chunks + 1):
            shape[f"1.{index}"] = [m_max, 0]
        for done, domain in enumerate(domains):
            counts = shape.get(domain._name)
            if counts is None:
                return shape, done
            if counts[0] < m_max:
                counts[0] += 1
            else:
                counts[1] += 1
                shape[f"{domain._name}.{counts[1]}"] = [1, 0]
        return shape, len(domains)

    def domain_of(self, node: NodeId) -> DomainId:
        """Return the unique domain owning ``node``."""
        record = self._node_domain.get(node)
        if record is None:
            raise UnassignedNode(f"node {node} is not assigned to any domain")
        return record.id

    # -- read-only views ------------------------------------------------

    def parent_of(self, domain: DomainId) -> DomainId | None:
        return self._record(domain).parent

    def children_of(self, domain: DomainId) -> tuple[DomainId, ...]:
        return tuple(child.id for child in self._record(domain).children)

    def _preorder(self) -> list[_ManagerRecord]:
        """Every record, parents first and children in join order.

        Child indices count up in join order, so this is id order.
        """
        records: list[_ManagerRecord] = []
        stack = [] if self._root is None else [self._root]
        while stack:
            record = stack.pop()
            records.append(record)
            if record.children:  # most records are leaves
                stack += record.children[::-1]
        return records

    def domain_ids(self) -> list[DomainId]:
        """All domain ids, in id order (depth-first)."""
        return [record.id for record in self._preorder()]

    def domains(self) -> list[Domain]:
        """All domains, in id order (depth-first), from one walk of the tree."""
        return [
            Domain(record.id, record.snapshot().members, record.host)
            for record in self._preorder()
        ]

    def states(self) -> tuple[DomainState, ...]:
        """An immutable ``DomainState`` of every domain, in id order.

        A domain with no join and no new child since the last call gets
        the same state object back, so successive calls share the states
        of unchanged domains.
        """
        return tuple(
            [
                record.snapshot() if record.state is None else record.state
                for record in self._preorder()
            ]
        )
