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
exact value a search on the original coefficients would find. That
``Fraction`` is made once per distinct ``d`` in a version, and every later
answer of that cost returns the same object. The scaled graph, and every
answer and tree computed over it, belong to one network version. A query
is answered by a bidirectional search between its two ends (Pohl,
"Bi-directional search", Machine Intelligence 6, 1971) until the pair
searches from its source have put as many labels as the version has
nodes; the source's next new target then gets its whole tree computed and
kept. That is the rent-or-buy break-even: a source asked for many
targets, as a polling manager is, pays for one tree, while the hops of a
flat-bed round trip each label a small patch around their two ends.

The pair search grows the side whose heap holds fewer entries, Pohl's
cardinality rule, so a side that is about to run dry (a target in a small
component) is expanded first. Once the two sides have met, a neighbour
whose label plus the other side's nearest frontier reaches the best
meeting sum is skipped: no path through it can be cheaper.

The search numbers nodes by their join positions in the version's node
table, which are 0 to its node count - 1. Its adjacency is a list of
``(position, scaled weight)`` lists, and a tree is a list of costs by
position. A pair search labels into two lists of one slot per position
that the engine keeps for its version's life, and sets back to ``None``
exactly the slots it set, whether it returns or raises. The memo of pair
answers, the trees and the label counts stay keyed by node id.

Each version owns two insertion-ordered tables, node -> join position
and link -> coefficient, that nothing changes after the version is
made. ``add_node``, ``add_link`` and ``Network._joined``, which adds a
batch of checked joins in one version, copy the table they change and
may share the other with the version they were made from.

The constructor checks each link with ``_link_key`` and ``_coeff``, as
``add_link`` does, and each pin with ``_check_node_id`` and ``_coeff``.
A loaded scenario does not call it: the loader checks each link and pin
of the file as it reads it, and hands the tables it filled to
``Network._of``.
"""

from __future__ import annotations

import heapq
import math
from decimal import Decimal
from fractions import Fraction
from typing import Container, Iterable, Mapping, Union

from .errors import (
    DuplicateLink,
    DuplicateNode,
    NegativeCoeff,
    SelfLink,
    Unreachable,
    UnknownNode,
)

__all__ = ["NodeId", "Network"]

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


def _count(value: object, name: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


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


def _link_key(
    a: NodeId, b: NodeId, known: Container, taken: Container, index: int | None = None
) -> Pair:
    """The ``(low, high)`` key of an ``a``-``b`` link, if it may be added.

    The one link rule: both ids valid, both ends in ``known``, no
    self-link, and a key not in ``taken``. With ``index``, an error's
    ``entry`` names ``links[index]`` or the end at fault, formatted only
    when raised.
    """
    # Plain ints already in ``known`` have passed every id check.
    if not (type(a) is type(b) is int and a in known and b in known):
        _check_node_id(a)
        _check_node_id(b)
        for end, node in enumerate((a, b)):
            if node not in known:
                entry = None if index is None else f"links[{index}][{end}]"
                raise UnknownNode(f"unknown node {node}", entry)
    if a == b:
        entry = None if index is None else f"links[{index}]"
        raise SelfLink(f"link joins node {a} to itself", entry)
    key = (a, b) if a <= b else (b, a)
    if key in taken:
        entry = None if index is None else f"links[{index}]"
        raise DuplicateLink(f"duplicate link {key[0]}-{key[1]}", entry)
    return key


class _PathEngine:
    """Integer Dijkstra over one network version, with memoised answers.

    Nodes are numbered by join position in the version's node table
    ``_order`` (see the module docstring). ``_adjacency[p]`` lists the
    ``(position, scaled weight)`` neighbours of the node at position
    ``p``. A query that no kept tree answers runs a bidirectional search
    between its two ends, growing the side with fewer heap entries and
    skipping labels that cannot beat the best meeting, and the answer is
    kept for that pair, in either order. The search labels into
    ``_forward`` and ``_backward``, one slot per position, which are all
    ``None`` between searches. Each source adds up the labels its pair
    searches set. Once the total reaches the version's node count, what
    one full search costs, the source's next new target builds its
    single-source tree instead, a list of costs by position kept for the
    rest of this version's life; it answers every query that starts or
    ends at the source. Sources that each ask for one target, as the
    hops of a flat-bed round trip do, so never fill an all-pairs table,
    even when the same version is priced twice.

    ``_trees``, ``_pairs`` and ``_labelled`` are keyed by node id.
    ``_answers`` holds the one ``Fraction`` that ``Network.path_cost``
    hands out for each scaled answer.
    """

    __slots__ = (
        "scale",
        "_order",
        "_adjacency",
        "_forward",
        "_backward",
        "_trees",
        "_pairs",
        "_labelled",
        "_answers",
    )

    def __init__(
        self, order: Mapping[NodeId, int], links: Mapping[Pair, Fraction]
    ) -> None:
        scale = math.lcm(*(cost.denominator for cost in links.values()))
        count = len(order)
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        for (a, b), cost in links.items():
            weight = cost.numerator * (scale // cost.denominator)
            a, b = order[a], order[b]
            adjacency[a].append((b, weight))
            adjacency[b].append((a, weight))
        self.scale = scale
        self._order = order
        self._adjacency = adjacency
        self._forward: list[int | None] = [None] * count
        self._backward: list[int | None] = [None] * count
        self._trees: dict[NodeId, list[int | None]] = {}
        self._pairs: dict[Pair, int | None] = {}
        self._labelled: dict[NodeId, int] = {}
        self._answers: dict[int, Fraction] = {}

    def distance(self, i: NodeId, j: NodeId) -> int | None:
        """Scaled cost of the cheapest ``i``-``j`` path, None if there is none."""
        trees = self._trees
        if i in trees:
            return trees[i][self._order[j]]
        if j in trees:
            return trees[j][self._order[i]]
        key = (i, j) if i <= j else (j, i)
        pairs = self._pairs
        if key in pairs:
            return pairs[key]
        order = self._order
        labelled = self._labelled.get(i, 0)
        if labelled >= len(self._adjacency):
            tree = trees[i] = self._search(order[i])
            return tree[order[j]]
        scaled, labels = self._meet(order[i], order[j])
        self._labelled[i] = labelled + labels
        pairs[key] = scaled
        return scaled

    def _search(self, source: int) -> list[int | None]:
        """Dijkstra from ``source``: each position's cost, None if out of reach."""
        adjacency = self._adjacency
        heappush, heappop = heapq.heappush, heapq.heappop
        best: list[int | None] = [None] * len(adjacency)
        best[source] = 0
        frontier = [(0, source)]
        while frontier:
            dist, node = heappop(frontier)
            if dist > best[node]:
                continue
            for neighbor, weight in adjacency[node]:
                candidate = dist + weight
                known = best[neighbor]
                if known is None or candidate < known:
                    best[neighbor] = candidate
                    heappush(frontier, (candidate, neighbor))
        return best

    def _meet(self, source: int, target: int) -> tuple[int | None, int]:
        """Bidirectional Dijkstra: (scaled cost or None, labels set).

        Each step expands the side whose heap holds fewer entries, ties
        going forward (Pohl's cardinality rule). ``meeting`` is the
        cheapest sum of a forward and a backward label on one node,
        checked whenever either label is set, so it never exceeds that sum
        on a node labelled by both sides. Once the two frontiers add up to
        at least ``meeting``, no path through an unlabelled node can beat
        it, so it is the answer.

        ``bound`` is ``meeting`` less the other side's nearest frontier,
        set before a pop and lowered with ``meeting`` whenever a neighbour
        of the popped node lowers it; a neighbour whose candidate reaches
        it is neither labelled nor pushed, because a path through it at
        that cost cannot beat ``meeting``. While the sides have not met,
        ``bound`` is infinite and nothing is skipped, so a target out of
        reach still ends with an empty heap and ``None``.

        Labels go into the engine's ``_forward`` and ``_backward`` lists.
        Each side lists the positions it labels as it first labels them,
        and the ``finally`` clause sets exactly those back to ``None``,
        whether the search returns or raises; their count is the labels
        set.
        """
        adjacency = self._adjacency
        heappush, heappop = heapq.heappush, heapq.heappop
        forward, backward = self._forward, self._backward
        forward_seen = [source]
        backward_seen = [target]
        forward[source] = 0
        backward[target] = 0
        forward_heap = [(0, source)]
        backward_heap = [(0, target)]
        meeting = math.inf
        try:
            while forward_heap and backward_heap:
                forward_top = forward_heap[0][0]
                backward_top = backward_heap[0][0]
                if forward_top + backward_top >= meeting:
                    break
                if len(forward_heap) <= len(backward_heap):
                    frontier, labels, seen = forward_heap, forward, forward_seen
                    other = backward
                    other_top = backward_top
                else:
                    frontier, labels, seen = backward_heap, backward, backward_seen
                    other = forward
                    other_top = forward_top
                bound = meeting - other_top
                dist, node = heappop(frontier)
                if dist > labels[node]:
                    continue
                for neighbor, weight in adjacency[node]:
                    candidate = dist + weight
                    if candidate >= bound:
                        continue
                    known = labels[neighbor]
                    if known is None:
                        seen.append(neighbor)
                    elif candidate >= known:
                        continue
                    labels[neighbor] = candidate
                    heappush(frontier, (candidate, neighbor))
                    opposite = other[neighbor]
                    if opposite is not None and candidate + opposite < meeting:
                        meeting = candidate + opposite
                        bound = meeting - other_top
        finally:
            for position in forward_seen:
                forward[position] = None
            for position in backward_seen:
                backward[position] = None
        labels_set = len(forward_seen) + len(backward_seen)
        return (None if meeting == math.inf else meeting), labels_set


class Network:
    """Immutable managed network.

    ``add_node`` and ``add_link`` return a new ``Network`` and leave this
    one as it was, so the path answers cached for a version never go
    stale, and a caller may keep an earlier version and still query it,
    or grow it again. Pair-cost overrides may mention nodes that have not
    joined yet; they only take effect once both endpoints exist. A pair
    is pinned at most once, in either order.

    The constructor, ``add_node``, ``add_link`` and ``path_cost`` word
    each node or link fault alike, as ``unknown node N`` for one. The
    constructor checks each link with the checks ``add_link`` uses (see
    the module docstring), so both raise the same error for the same
    entry.

    Networks compare by nodes, links and pins, and have no hash. Each
    version also owns a path engine, built on its first path search and
    never shared with the versions derived from it. It is a cache: it
    takes no part in equality.
    """

    __slots__ = ("_order", "_links", "_override", "_engine")

    def __init__(
        self,
        nodes: Iterable[NodeId] = (),
        links: Iterable[LinkSpec] = (),
        k_override: OverrideSpec | None = None,
    ) -> None:
        order = _node_order(nodes)
        link_map: dict[Pair, Fraction] = {}
        for index, (a, b, value) in enumerate(links):
            key = _link_key(a, b, order, link_map, index)
            link_map[key] = _coeff(value, "link", a, b)

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
        self._links = link_map
        self._override = override_map
        self._engine: _PathEngine | None = None

    @classmethod
    def _of(
        cls,
        order: dict[NodeId, int],
        links: dict[Pair, Fraction],
        override: dict[Pair, Fraction],
    ) -> "Network":
        """A version over checked tables, keyed as ``__init__`` keys them.

        The tables are kept as given, so no one may change them after.
        """
        network = cls.__new__(cls)
        network._order = order
        network._links = links
        network._override = override
        network._engine = None
        return network

    @property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self._order)

    @property
    def links(self) -> tuple[tuple[NodeId, NodeId, Fraction], ...]:
        return tuple((a, b, cost) for (a, b), cost in sorted(self._links.items()))

    @property
    def k_override(self) -> dict[Pair, Fraction]:
        return dict(self._override)

    def __repr__(self) -> str:
        return (
            f"Network(nodes={len(self._order)}, links={len(self._links)}, "
            f"overrides={len(self._override)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self._order.keys() == other._order.keys()
            and self._links == other._links
            and self._override == other._override
        )

    def _joined(
        self, joins: Iterable[tuple[NodeId, Iterable[tuple[NodeId, NumberLike]]]]
    ) -> "Network":
        """One new version with each ``(node, links)`` join added, in order.

        The joins must be checked already, as ``Scenario`` and
        ``apply_event`` check them: each node new, each ``(peer, coeff)``
        link to a node known by then, each peer once and never the node
        itself, at a non-negative coefficient. Only a coefficient that is
        not already a non-negative ``Fraction`` goes through ``_coeff``, so
        it is stored exactly as ``add_link`` stores it.
        """
        order, links = self._order.copy(), self._links.copy()
        for node, pairs in joins:
            order[node] = len(order)
            for peer, coeff in pairs:
                if not (type(coeff) is Fraction and coeff.numerator >= 0):
                    coeff = _coeff(coeff, "link", node, peer)
                links[(node, peer) if node < peer else (peer, node)] = coeff
        return Network._of(order, links, self._override)

    def add_node(self, node: NodeId) -> "Network":
        """Return a copy of this network with ``node`` added.

        The copy owns a new node table, so a chain of ``add_node`` and
        ``add_link`` calls is quadratic: 5,000 steps take about 0.2 s.
        To grow a network step by step, step a ``SimulationState`` with
        ``apply_event``, which adds its waiting joins in one version.
        """
        _check_node_id(node)
        if node in self._order:
            raise DuplicateNode(f"duplicate node {node}")
        order = self._order.copy()
        order[node] = len(order)
        return Network._of(order, self._links, self._override)

    def add_link(self, a: NodeId, b: NodeId, coeff: NumberLike) -> "Network":
        """Return a copy of this network with an ``a``-``b`` link added.

        The copy owns a new link table, so a chain of calls is quadratic,
        as for ``add_node``.
        """
        key = _link_key(a, b, self._order, self._links)
        links = self._links.copy()
        links[key] = _coeff(coeff, "link", a, b)
        return Network._of(self._order, links, self._override)

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
        or ends at ``i``. Searched answers of one cost are one shared
        ``Fraction`` per version, made at the first of them; a pinned
        cost is returned as stored.
        """
        order = self._order
        if i not in order:
            raise UnknownNode(f"unknown node {i}")
        if j not in order:
            raise UnknownNode(f"unknown node {j}")
        override = self._override.get((i, j) if i <= j else (j, i))
        if override is not None:
            return override
        if i == j:
            return Fraction(0)
        engine = self._engine
        if engine is None:
            engine = self._engine = _PathEngine(order, self._links)
        scaled = engine.distance(i, j)
        if scaled is None:
            raise Unreachable(f"no path between {i} and {j}")
        answers = engine._answers
        answer = answers.get(scaled)
        if answer is None:
            answer = answers[scaled] = Fraction(scaled, engine.scale)
        return answer
