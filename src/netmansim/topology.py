"""Weighted management network and minimum-cost path queries.

The network is an undirected graph of managed nodes. Each link carries a
dimensionless cost coefficient; the cost of moving management traffic
between two nodes is the smallest sum of coefficients over any connecting
path. Measured pair costs can be pinned directly with an override table,
which takes precedence over path search.

Path search runs on integers, not on ``Fraction``s. The first search in a
network version multiplies every link coefficient by the least common
multiple of their denominators, which makes every scaled coefficient, and
so every sum of them, a whole number. Dijkstra then compares and adds plain
``int``s, and a result ``d`` is returned as ``Fraction(d, scale)``: the same
exact value a search on the original coefficients would find. The scaled
graph, and every answer and tree computed over it, belong to one network
version. A query is answered by a bidirectional search between its two
ends (Pohl, "Bi-directional search", Machine Intelligence 6, 1971) until
the pair searches from its source have put as many labels as the version
has nodes; the source's next new target then gets its whole tree computed
and kept. That is the rent-or-buy break-even: a source asked for many
targets, as a polling manager is, pays for one tree, while the hops of a
flat-bed round trip each label a small patch around their two ends.

The pair search grows the side whose heap holds fewer entries, Pohl's
cardinality rule, so a side that is about to run dry (a target in a small
component) is expanded first. Once the two sides have met, a neighbour
whose label plus the other side's nearest frontier reaches the best
meeting sum is skipped: no path through it can be cheaper.

Versions made from one another by ``add_node`` and ``add_link`` share two
insertion-ordered tables, node -> join position and link -> (position,
coefficient), and each keeps only its own node and link counts: a version
holds exactly the entries whose position is below its count. Growing the
newest version appends to the shared tables, so a join costs O(1) however
large the network; growing an older one first copies its own prefix.
"""

from __future__ import annotations

import heapq
import math
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping, Union

from .errors import (
    DuplicateLink,
    DuplicateNode,
    NegativeCoeff,
    SelfLink,
    Unreachable,
    UnknownNode,
)

__all__ = ["NodeId", "NumberLike", "Network"]

NodeId = int

# Anything fractions.Fraction accepts. Strings and Decimals keep decimal
# literals exact; floats are taken at their binary value.
NumberLike = Union[int, float, str, Decimal, Fraction]

Pair = tuple[NodeId, NodeId]
LinkSpec = tuple[NodeId, NodeId, NumberLike]
OverrideSpec = Union[
    Mapping[tuple[NodeId, NodeId], NumberLike],
    Iterable[tuple[NodeId, NodeId, NumberLike]],
]


def _coeff(value: NumberLike, kind: str, a: NodeId, b: NodeId) -> Fraction:
    """``value`` as a non-negative Fraction; a Fraction is kept as it is."""
    if type(value) is Fraction:
        coeff = value
    else:
        try:
            coeff = Fraction(value)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise TypeError(f"{kind} {a}-{b}: not a number: {value!r}") from exc
    if coeff.numerator < 0:
        raise NegativeCoeff(f"{kind} {a}-{b}: {value!r} is negative")
    return coeff


def _check_node_id(node: object) -> NodeId:
    if isinstance(node, bool) or not isinstance(node, int):
        raise TypeError(f"node id must be an int, got {node!r}")
    if node < 1:
        raise ValueError(f"node id must be positive, got {node}")
    return node


def _node_order(nodes: Iterable[NodeId]) -> dict[NodeId, int]:
    """Each node -> its index; a repeat raises ``DuplicateNode`` at ``nodes[i]``."""
    order: dict[NodeId, int] = {}
    for index, node in enumerate(nodes):
        if not (type(node) is int and node > 0):
            _check_node_id(node)
        if node in order:
            raise DuplicateNode(f"duplicate node {node}", f"nodes[{index}]")
        order[node] = index
    return order


class _PathEngine:
    """Integer Dijkstra over one network version, with memoised answers.

    A query that no kept tree answers runs a bidirectional search between
    its two ends, growing the side with fewer heap entries and skipping
    labels that cannot beat the best meeting, and the answer is kept for
    that pair, in either order. Each source adds up the labels its pair
    searches set. Once the total reaches the version's node count, what
    one full search costs, the source's next new target builds its
    single-source tree instead, kept for the rest of this version's life;
    it answers every query that starts or ends at the source. Sources that
    each ask for one target, as the hops of a flat-bed round trip do, so
    never fill an all-pairs table, even when the same version is priced
    twice.
    """

    __slots__ = ("scale", "_adjacency", "_trees", "_pairs", "_labelled")

    def __init__(
        self, nodes: Iterable[NodeId], links: list[tuple[Pair, Fraction]]
    ) -> None:
        scale = math.lcm(*(cost.denominator for _, cost in links))
        adjacency: dict[NodeId, list[tuple[NodeId, int]]] = {n: [] for n in nodes}
        for (a, b), cost in links:
            weight = cost.numerator * (scale // cost.denominator)
            adjacency[a].append((b, weight))
            adjacency[b].append((a, weight))
        self.scale = scale
        self._adjacency = adjacency
        self._trees: dict[NodeId, dict[NodeId, int]] = {}
        self._pairs: dict[Pair, int | None] = {}
        self._labelled: dict[NodeId, int] = {}

    def distance(self, i: NodeId, j: NodeId) -> int | None:
        """Scaled cost of the cheapest ``i``-``j`` path, None if there is none."""
        trees = self._trees
        if i in trees:
            return trees[i].get(j)
        if j in trees:
            return trees[j].get(i)
        key = (i, j) if i <= j else (j, i)
        pairs = self._pairs
        if key in pairs:
            return pairs[key]
        labelled = self._labelled.get(i, 0)
        if labelled >= len(self._adjacency):
            tree = trees[i] = self._search(i)
            return tree.get(j)
        scaled, labels = self._meet(i, j)
        self._labelled[i] = labelled + labels
        pairs[key] = scaled
        return scaled

    def _search(self, source: NodeId) -> dict[NodeId, int]:
        """Dijkstra from ``source`` to every node it reaches."""
        adjacency = self._adjacency
        best = {source: 0}
        frontier = [(0, source)]
        while frontier:
            dist, node = heapq.heappop(frontier)
            if dist > best[node]:
                continue
            for neighbor, weight in adjacency[node]:
                candidate = dist + weight
                known = best.get(neighbor)
                if known is None or candidate < known:
                    best[neighbor] = candidate
                    heapq.heappush(frontier, (candidate, neighbor))
        return best

    def _meet(self, source: NodeId, target: NodeId) -> tuple[int | None, int]:
        """Bidirectional Dijkstra: (scaled cost or None, labels set).

        Each step expands the side whose heap holds fewer entries, ties
        going forward (Pohl's cardinality rule). ``meeting`` is the
        cheapest sum of a forward and a backward label on one node,
        checked whenever either label is set, so it never exceeds that sum
        on a node labelled by both sides. Once the two frontiers add up to
        at least ``meeting``, no path through an unlabelled node can beat
        it, so it is the answer.

        Before a pop, ``bound`` is ``meeting`` less the other side's
        nearest frontier; a neighbour whose candidate reaches it is neither
        labelled nor pushed, because a path through it at that cost cannot
        beat ``meeting``. While the sides have not met, ``bound`` is
        infinite and nothing is skipped, so a target out of reach still
        ends with an empty heap and ``None``.
        """
        adjacency = self._adjacency
        heappush, heappop = heapq.heappush, heapq.heappop
        forward = {source: 0}
        backward = {target: 0}
        forward_heap = [(0, source)]
        backward_heap = [(0, target)]
        meeting = math.inf
        while forward_heap and backward_heap:
            forward_top = forward_heap[0][0]
            backward_top = backward_heap[0][0]
            if forward_top + backward_top >= meeting:
                break
            if len(forward_heap) <= len(backward_heap):
                frontier, labels, other = forward_heap, forward, backward
                bound = meeting - backward_top
            else:
                frontier, labels, other = backward_heap, backward, forward
                bound = meeting - forward_top
            dist, node = heappop(frontier)
            if dist > labels[node]:
                continue
            for neighbor, weight in adjacency[node]:
                candidate = dist + weight
                if candidate >= bound:
                    continue
                known = labels.get(neighbor)
                if known is None or candidate < known:
                    labels[neighbor] = candidate
                    heappush(frontier, (candidate, neighbor))
                    opposite = other.get(neighbor)
                    if opposite is not None and candidate + opposite < meeting:
                        meeting = candidate + opposite
        labels_set = len(forward) + len(backward)
        return (None if meeting == math.inf else meeting), labels_set


class Network:
    """Immutable managed network.

    ``add_node`` and ``add_link`` return a new ``Network`` and leave this
    one as it was, so the path answers cached for a version never go
    stale, and a caller may keep an earlier version and still query it.
    Pair-cost overrides may mention nodes that have not joined yet; they
    only take effect once both endpoints exist. A pair is pinned at most
    once, in either order.

    Each version also owns a path engine, built on its first path search
    and never shared with the versions derived from it. It is a cache:
    it takes no part in equality or hashing.

    Versions derived from one another share their node and link tables
    (see the module docstring), so make and read them from one thread at
    a time.
    """

    __slots__ = (
        "_order",
        "_node_count",
        "_links",
        "_link_count",
        "_override",
        "_engine",
    )

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        links: Iterable[LinkSpec] = (),
        k_override: OverrideSpec | None = None,
    ) -> None:
        order = _node_order(nodes)
        link_map: dict[Pair, tuple[int, Fraction]] = {}
        for index, (a, b, value) in enumerate(links):
            # Plain ints already in ``order`` have passed every id check.
            if not (type(a) is type(b) is int and a in order and b in order):
                _check_node_id(a)
                _check_node_id(b)
                for end, node in enumerate((a, b)):
                    if node not in order:
                        entry = f"links[{index}][{end}]"
                        raise UnknownNode(f"unknown node {node}", entry)
            if a == b:
                raise SelfLink(f"link joins node {a} to itself", f"links[{index}]")
            key = (a, b) if a <= b else (b, a)
            if key in link_map:
                message = f"duplicate link {key[0]}-{key[1]}"
                raise DuplicateLink(message, f"links[{index}]")
            link_map[key] = (index, _coeff(value, "link", a, b))

        override_map: dict[Pair, Fraction] = {}
        if k_override is not None:
            items: Iterable[tuple[NodeId, NodeId, NumberLike]]
            keyed = isinstance(k_override, Mapping)
            if keyed:
                items = ((a, b, v) for (a, b), v in k_override.items())
            else:
                items = k_override
            for index, (a, b, value) in enumerate(items):
                # Ids of nodes still to join pass here too.
                if not (type(a) is type(b) is int and a > 0 and b > 0):
                    _check_node_id(a)
                    _check_node_id(b)
                key = (a, b) if a <= b else (b, a)
                cost = _coeff(value, "k_override", a, b)
                if a == b and cost != 0:
                    entry = f"k_override[{(a, b) if keyed else index}]"
                    raise SelfLink("a node's cost to itself must be 0", entry)
                if key in override_map:
                    entry = f"k_override[{(a, b) if keyed else index}]"
                    raise DuplicateLink(f"duplicate pair {key[0]}-{key[1]}", entry)
                override_map[key] = cost

        self._order = order
        self._node_count = len(order)
        self._links = link_map
        self._link_count = len(link_map)
        self._override = override_map
        self._engine: _PathEngine | None = None

    def _has_node(self, node: NodeId) -> bool:
        return self._order.get(node, self._node_count) < self._node_count

    def _link_items(self) -> list[tuple[Pair, Fraction]]:
        """This version's links, in the order they were added."""
        return [
            (key, cost)
            for key, (_, cost) in islice(self._links.items(), self._link_count)
        ]

    def _version(
        self,
        order: dict[NodeId, int],
        node_count: int,
        links: dict[Pair, tuple[int, Fraction]],
        link_count: int,
    ) -> "Network":
        clone = Network.__new__(Network)
        clone._order = order
        clone._node_count = node_count
        clone._links = links
        clone._link_count = link_count
        clone._override = self._override
        clone._engine = None
        return clone

    def _detached(self) -> "Network":
        """An equal version whose growth leaves this one's tables alone."""
        order, links = self._order.copy(), self._links.copy()
        return self._version(order, self._node_count, links, self._link_count)

    @property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(islice(self._order, self._node_count))

    @property
    def links(self) -> tuple[tuple[NodeId, NodeId, Fraction], ...]:
        return tuple((a, b, cost) for (a, b), cost in sorted(self._link_items()))

    @property
    def k_override(self) -> dict[Pair, Fraction]:
        return dict(self._override)

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self._node_count}, links={self._link_count}, "
            f"overrides={len(self._override)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and dict(self._link_items()) == dict(other._link_items())
            and self._override == other._override
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.nodes,
                tuple(sorted(self._link_items())),
                tuple(sorted(self._override.items())),
            )
        )

    def add_node(self, node: NodeId) -> "Network":
        """Return a copy of this network with ``node`` added."""
        _check_node_id(node)
        if self._has_node(node):
            raise DuplicateNode(f"node {node} already present")
        count = self._node_count
        order = self._order
        if len(order) != count:
            # An older version: later versions own the entries past its
            # prefix, so it grows a copy of the prefix.
            order = dict(islice(order.items(), count))
        order[node] = count
        return self._version(order, count + 1, self._links, self._link_count)

    def add_link(self, a: NodeId, b: NodeId, coeff: NumberLike) -> "Network":
        """Return a copy of this network with an ``a``-``b`` link added."""
        _check_node_id(a)
        _check_node_id(b)
        if not self._has_node(a):
            raise UnknownNode(f"link endpoint {a} is not a node")
        if not self._has_node(b):
            raise UnknownNode(f"link endpoint {b} is not a node")
        if a == b:
            raise SelfLink(f"link {a}-{b} joins a node to itself")
        key = (a, b) if a <= b else (b, a)
        count = self._link_count
        links = self._links
        entry = links.get(key)
        if entry is not None and entry[0] < count:
            raise DuplicateLink(f"link {key[0]}-{key[1]} already present")
        cost = _coeff(coeff, "link", a, b)
        if len(links) != count:
            links = dict(islice(links.items(), count))
        links[key] = (count, cost)
        return self._version(self._order, self._node_count, links, count + 1)

    def path_cost(self, i: NodeId, j: NodeId) -> Fraction:
        """Cost of the cheapest path between ``i`` and ``j``.

        An override entry for the pair wins over path search. The cost of
        a node to itself is zero. Raises ``UnknownNode`` for ids outside
        the network and ``Unreachable`` when no path exists.

        The search runs on this version's integer-scaled links (see the
        module docstring), so the result is exact. A pair is searched
        once per version, from both ends at once, and its answer kept for
        both orders. Once the searches from ``i`` have labelled as many
        nodes as the version has, ``i``'s next new target computes and
        keeps its whole tree, which then answers every query that starts
        or ends at ``i``.
        """
        if not self._has_node(i):
            raise UnknownNode(f"node {i} is not part of the network")
        if not self._has_node(j):
            raise UnknownNode(f"node {j} is not part of the network")
        override = self._override.get((i, j) if i <= j else (j, i))
        if override is not None:
            return override
        if i == j:
            return Fraction(0)
        engine = self._engine
        if engine is None:
            engine = self._engine = _PathEngine(
                islice(self._order, self._node_count), self._link_items()
            )
        scaled = engine.distance(i, j)
        if scaled is None:
            raise Unreachable(f"no path between {i} and {j}")
        return Fraction(scaled, engine.scale)
