"""Network graph construction and minimum-cost path queries."""

from __future__ import annotations

import heapq
import random
import statistics
import types
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from netmansim import (
    DuplicateLink,
    DuplicateNode,
    ManagerTree,
    NegativeCoeff,
    Network,
    SelfLink,
    UnknownNode,
    Unreachable,
)
from netmansim import topology
from conftest import parent_links


def test_empty_network():
    net = Network()
    assert net.nodes == frozenset()
    assert net.links == ()


def test_construction_collects_nodes_links_and_overrides():
    net = Network(
        nodes=[1, 2, 3],
        links=[(1, 2, 1), (2, 3, "2.5")],
        k_override={(1, 3): 7},
    )
    assert net.nodes == {1, 2, 3}
    assert net.links == ((1, 2, Fraction(1)), (2, 3, Fraction(5, 2)))
    assert net.k_override == {(1, 3): Fraction(7)}


def test_duplicate_node_rejected():
    with pytest.raises(DuplicateNode):
        Network(nodes=[1, 2, 1])


def test_link_endpoints_must_exist():
    with pytest.raises(UnknownNode):
        Network(nodes=[1], links=[(1, 2, 1)])


def test_self_link_rejected():
    with pytest.raises(SelfLink):
        Network(nodes=[1, 2], links=[(1, 1, 1)])


def test_duplicate_link_rejected_in_either_direction():
    with pytest.raises(DuplicateLink):
        Network(nodes=[1, 2], links=[(1, 2, 1), (2, 1, 3)])


def test_negative_coefficient_rejected():
    with pytest.raises(NegativeCoeff):
        Network(nodes=[1, 2], links=[(1, 2, -1)])
    with pytest.raises(NegativeCoeff):
        Network(nodes=[1, 2], k_override={(1, 2): -1})


def test_override_self_pair_must_cost_zero():
    Network(nodes=[1], k_override={(1, 1): 0})
    with pytest.raises(ValueError):
        Network(nodes=[1], k_override={(1, 1): 2})


@pytest.mark.parametrize(
    "overrides, error, entry",
    [
        ([(1, 2, 1), (1, 1, 2)], SelfLink, "k_override[1]"),
        ({(1, 2): 1, (1, 1): 2}, SelfLink, "k_override[(1, 1)]"),
        ([(1, 2, 1), (2, 1, 1)], DuplicateLink, "k_override[1]"),
        ({(1, 2): 1, (2, 1): 1}, DuplicateLink, "k_override[(2, 1)]"),
    ],
)
def test_override_errors_name_the_rejected_entry(overrides, error, entry):
    # A list entry is named by its index, a mapping entry by its key; a
    # pair pinned twice is refused even when both costs agree.
    with pytest.raises(error) as info:
        Network(nodes=[1, 2], k_override=overrides)
    assert info.value.entry == entry


def test_override_may_mention_absent_nodes():
    # overrides can be declared before discovery events add the nodes
    net = Network(nodes=[1], k_override={(1, 9): 4})
    grown = net.add_node(9)
    assert grown.path_cost(1, 9) == 4
    with pytest.raises(UnknownNode):
        net.path_cost(1, 9)


def test_add_node_returns_new_network():
    net = Network(nodes=[1])
    grown = net.add_node(2)
    assert grown.nodes == {1, 2}
    assert net.nodes == {1}
    with pytest.raises(DuplicateNode):
        grown.add_node(2)


def test_add_link_returns_new_network():
    net = Network(nodes=[1, 2])
    linked = net.add_link(1, 2, 3)
    assert linked.path_cost(1, 2) == 3
    assert net.links == ()
    with pytest.raises(DuplicateLink):
        linked.add_link(2, 1, 1)
    with pytest.raises(SelfLink):
        net.add_link(1, 1, 1)
    with pytest.raises(UnknownNode):
        net.add_link(1, 5, 1)
    with pytest.raises(NegativeCoeff):
        net.add_link(1, 2, -2)


def test_node_ids_must_be_positive_ints():
    with pytest.raises(ValueError):
        Network(nodes=[0])
    with pytest.raises(TypeError):
        Network(nodes=[True])
    with pytest.raises(TypeError):
        Network(nodes=["3"])



@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Network([1, 2], [(1, 2, Fraction(-1, 2))]), NegativeCoeff,
         "link 1-2: Fraction(-1, 2) is negative"),
        (lambda: Network([1, 2], k_override=[(1, 2, Fraction(-1, 2))]), NegativeCoeff,
         "k_override 1-2: Fraction(-1, 2) is negative"),
        (lambda: Network([1, 2]).add_link(1, 2, Fraction(-3)), NegativeCoeff,
         "link 1-2: Fraction(-3, 1) is negative"),
        (lambda: Network([1, 2], [(1, 2, "x")]), TypeError,
         "link 1-2: not a number: 'x'"),
        (lambda: Network([1, 2], [(True, 2, 1)]), TypeError,
         "node id must be an int, got True"),
        (lambda: Network([1, 2], [(1, 0, 1)]), ValueError,
         "node id must be positive, got 0"),
        (lambda: Network([1, 2], [("1", 2, 1)]), TypeError,
         "node id must be an int, got '1'"),
        (lambda: Network([1, 2], [(9, "x", 1)]), TypeError,
         "node id must be an int, got 'x'"),
        (lambda: Network([1, 2], k_override=[(True, 2, 1)]), TypeError,
         "node id must be an int, got True"),
        (lambda: Network([1, 2], k_override=[(0, 2, 1)]), ValueError,
         "node id must be positive, got 0"),
        (lambda: Network([1, 2], k_override=[(1, "2", 1)]), TypeError,
         "node id must be an int, got '2'"),
        (lambda: Network([1, 2]).add_link(True, 2, 1), TypeError,
         "node id must be an int, got True"),
        (lambda: Network([1, 2]).add_link(1, 0, 1), ValueError,
         "node id must be positive, got 0"),
        (lambda: Network([1, 2]).add_link("1", 2, 1), TypeError,
         "node id must be an int, got '1'"),
        # One wording per fault, from the constructor and from growth alike.
        (lambda: Network([1, 2, 1]), DuplicateNode, "duplicate node 1"),
        (lambda: Network([1, 2]).add_node(1), DuplicateNode, "duplicate node 1"),
        (lambda: Network([1, 2], [(9, 1, 1)]), UnknownNode, "unknown node 9"),
        (lambda: Network([1, 2]).add_link(9, 1, 1), UnknownNode, "unknown node 9"),
        (lambda: Network([1, 2], [(1, 9, 1)]), UnknownNode, "unknown node 9"),
        (lambda: Network([1, 2]).add_link(1, 9, 1), UnknownNode, "unknown node 9"),
        (lambda: Network([1, 2], [(2, 2, 1)]), SelfLink,
         "link joins node 2 to itself"),
        (lambda: Network([1, 2]).add_link(2, 2, 1), SelfLink,
         "link joins node 2 to itself"),
        (lambda: Network([1, 2], [(1, 2, 1), (2, 1, 1)]), DuplicateLink,
         "duplicate link 1-2"),
        (lambda: Network([1, 2], [(1, 2, 1)]).add_link(2, 1, 1), DuplicateLink,
         "duplicate link 1-2"),
        (lambda: Network([1, 2]).path_cost(1, 9), UnknownNode, "unknown node 9"),
        # Entries after a well-formed one, and faults the constructor's
        # inline test passes on to the shared checks.
        (lambda: Network([1, 2, 3], [(1, 2, 1), (True, 3, 1)]), TypeError,
         "node id must be an int, got True"),
        (lambda: Network([1, 2, 3], [(1, 2, 1), (3, "1", 1)]), TypeError,
         "node id must be an int, got '1'"),
        (lambda: Network([1, 2, 3], [(1, 2, 1), (2, 3, True), (3, 1, "x")]), TypeError,
         "link 3-1: not a number: 'x'"),
        (lambda: Network([1, 2, 3], [(1, 2, Fraction(1, 2)), (2, 3, Fraction(-1, 2))]),
         NegativeCoeff, "link 2-3: Fraction(-1, 2) is negative"),
        (lambda: Network(
            [1, 2], k_override=[(1, 2, Fraction(1, 2)), (2, 3, Fraction(-1, 2))]
        ), NegativeCoeff, "k_override 2-3: Fraction(-1, 2) is negative"),
        (lambda: Network([1, 2], k_override=[(1, 2, 1), (3, True, 1)]), TypeError,
         "node id must be an int, got True"),
        (lambda: Network([1, 2, 3], [(1, 2, 1), (2, 3, 1), (2, 1, 1)]), DuplicateLink,
         "duplicate link 1-2"),
        # An unknown end is found before a negative coefficient.
        (lambda: Network(links=[(1, 2, Fraction(-1, 2))]), UnknownNode,
         "unknown node 1"),
    ],
)
def test_construction_errors_are_exact(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_int_enum_node_ids_are_accepted():
    class Host(IntEnum):
        A = 1
        B = 2
        C = 3

    net = Network(list(Host), [(Host.A, Host.B, 2)], [(Host.A, Host.C, 5)])
    net = net.add_link(Host.B, Host.C, Fraction(1))
    assert net.path_cost(1, 2) == 2
    assert net.path_cost(Host.A, Host.C) == 5
    assert net.path_cost(2, 3) == 1


def test_path_cost_identity_is_zero():
    net = Network(nodes=[3])
    assert net.path_cost(3, 3) == 0


def test_path_cost_single_link():
    net = Network(nodes=[1, 2], links=[(1, 2, 1)])
    assert net.path_cost(1, 2) == 1
    assert net.path_cost(2, 1) == 1


def test_path_cost_sums_links_along_cheapest_path():
    # chain 3 -5- 4 -1- 5: cost(3,5) = 6
    net = Network(nodes=[3, 4, 5], links=[(3, 4, 5), (4, 5, 1)])
    assert net.path_cost(3, 5) == 6


def test_path_cost_picks_minimum_of_competing_paths():
    net = Network(
        nodes=[1, 2, 3],
        links=[(1, 3, 10), (1, 2, 2), (2, 3, 3)],
    )
    assert net.path_cost(1, 3) == 5


def test_override_beats_path_search():
    net = Network(nodes=[1, 2], links=[(1, 2, 1)], k_override={(2, 1): 7})
    assert net.path_cost(1, 2) == 7
    assert net.path_cost(2, 1) == 7


def test_unreachable_pair_raises():
    net = Network(nodes=[1, 2])
    with pytest.raises(Unreachable):
        net.path_cost(1, 2)


def test_path_cost_unknown_node_raises():
    net = Network(nodes=[1])
    with pytest.raises(UnknownNode):
        net.path_cost(1, 99)
    with pytest.raises(UnknownNode):
        net.path_cost(99, 1)


def test_adding_a_link_never_increases_costs():
    before = Network(nodes=[1, 2, 3], links=[(1, 2, 4), (2, 3, 4)])
    after = before.add_link(1, 3, 1)
    assert after.path_cost(1, 3) == 1 < before.path_cost(1, 3)
    assert after.path_cost(1, 2) <= before.path_cost(1, 2)


def test_add_link_leaves_the_original_unchanged():
    net = Network(nodes=[1, 2, 3], links=[(1, 2, 4), (2, 3, 4)])
    assert net.path_cost(1, 3) == 8
    assert net.path_cost(1, 2) == 4
    linked = net.add_link(1, 3, 1)
    assert linked.path_cost(1, 3) == 1
    assert linked.path_cost(3, 1) == 1
    assert net.path_cost(1, 3) == 8
    assert net.path_cost(3, 1) == 8
    assert net.links == ((1, 2, Fraction(4)), (2, 3, Fraction(4)))


def test_sources_pay_for_a_tree_only_at_the_break_even():
    chain = [(n, n + 1, 1) for n in range(1, 6)]
    net = Network(nodes=range(1, 7), links=chain)
    # One target per source, as a flat-bed round trip asks, priced twice:
    # each pair is searched once and no tree is kept.
    for _ in range(2):
        for n in range(1, 7):
            assert net.path_cost(n, n % 6 + 1) == (5 if n == 6 else 1)
    engine = net._engine
    assert engine._trees == {}
    # Both heaps start with one entry and ties go forward. A search between
    # neighbours expands only the source, so it labels the target and the
    # source with its neighbours. Expanding 6, 5, 4, 3 or 2 pushes one new
    # entry, so the heaps stay level and the 6-1 search walks forward
    # alone: 6 nodes forward and 1 backward.
    assert engine._labelled == {1: 3, 2: 4, 3: 4, 4: 4, 5: 4, 6: 7}
    # 1 has labelled 3 of the version's 6 nodes: one more pair search. It
    # too walks forward alone, 1 then 2: 1, 2 and 3 forward and only 3
    # backward, 4 more.
    assert net.path_cost(1, 3) == 2
    assert engine._trees == {}
    assert engine._labelled[1] == 7
    # 1 and 6 have now labelled at least 6 nodes, so their next new
    # targets build their trees.
    assert net.path_cost(6, 3) == 3
    assert net.path_cost(1, 4) == 3
    assert set(engine._trees) == {1, 6}
    # The tree of 1 answers queries that end at 1 as well.
    pairs = dict(engine._pairs)
    assert net.path_cost(5, 1) == 4
    assert engine._pairs == pairs
    assert 5 not in engine._trees and engine._labelled[5] == 4
    # A derived version starts from nothing: no tree, no labels counted.
    # In the ring, expanding 6 labels 5 and 1 and leaves two forward
    # entries, so 2 expands next; it labels 1, meeting at 2, which lowers
    # the bound to 2 - 1 = 1, so 3's candidate 1 is skipped. The tops now
    # add up to 2: 3 nodes forward and 2 backward.
    linked = net.add_link(1, 6, 1)
    assert linked._engine is None
    assert linked.path_cost(6, 2) == 2
    assert linked._engine._trees == {}
    assert linked._engine._labelled == {6: 5}
    # 6 has labelled 5 of the version's 6 nodes: one more pair search,
    # which labels 6, 5, 1 and 2 forward and 3, 2 and 4 backward.
    assert linked.path_cost(6, 3) == 3
    assert linked._engine._trees == {}
    assert linked._engine._labelled == {6: 5 + 7}
    # Now its next new target builds its tree.
    assert linked.path_cost(6, 4) == 2
    assert set(linked._engine._trees) == {6}


def test_pair_search_stops_once_the_meeting_is_proven():
    # 1 and 2 share a link and each has 20 leaves. Expanding 1 labels 2
    # first, which meets the backward side at cost 1; the backward frontier
    # is at 0, so the bound drops to 1 and 1's leaves, at 1, are skipped.
    # The sum is then proven and 2's leaves are never labelled either:
    # 1 and 2 forward, 2 backward.
    links = [(1, 2, 1)]
    links += [(1, n, 1) for n in range(3, 23)]
    links += [(2, n, 1) for n in range(23, 43)]
    net = Network(nodes=range(1, 43), links=links)
    assert net.path_cost(1, 2) == 1
    assert net._engine._labelled == {1: 2 + 1}


def test_networks_compare_by_value():
    a = Network(nodes=[1, 2], links=[(1, 2, 1)])
    b = Network(nodes=[2, 1], links=[(2, 1, 1)])
    assert a == b
    assert a != Network(nodes=[1, 2], links=[(1, 2, 2)])
    with pytest.raises(TypeError):
        hash(a)
    assert repr(a) == "Network(nodes=2, links=1, overrides=0)"
    assert (Network([1]) == 5) is False


# -- randomized checks against an exhaustive oracle -------------------------


def _all_simple_path_costs(net: Network, start: int, goal: int):
    """Enumerate every simple path cost by depth-first search."""
    adjacency: dict[int, list[tuple[int, Fraction]]] = {n: [] for n in net.nodes}
    for a, b, cost in net.links:
        adjacency[a].append((b, cost))
        adjacency[b].append((a, cost))
    costs = []

    def walk(node: int, seen: frozenset, acc: Fraction) -> None:
        if node == goal:
            costs.append(acc)
            return
        for peer, cost in adjacency[node]:
            if peer not in seen:
                walk(peer, seen | {peer}, acc + cost)

    walk(start, frozenset([start]), Fraction(0))
    return costs


@st.composite
def small_graphs(draw):
    size = draw(st.integers(min_value=2, max_value=8))
    nodes = list(range(1, size + 1))
    pairs = [(a, b) for a in nodes for b in nodes if a < b]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    )
    links = [
        (
            a,
            b,
            draw(
                st.fractions(
                    min_value=0, max_value=10, max_denominator=8
                )
            ),
        )
        for a, b in chosen
    ]
    return Network(nodes=nodes, links=links)


@given(small_graphs(), st.data())
def test_path_cost_matches_exhaustive_enumeration(net, data):
    nodes = sorted(net.nodes)
    i = data.draw(st.sampled_from(nodes))
    j = data.draw(st.sampled_from(nodes))
    oracle = _all_simple_path_costs(net, i, j)
    if not oracle:
        with pytest.raises(Unreachable):
            net.path_cost(i, j)
    else:
        assert net.path_cost(i, j) == min(oracle)


@given(small_graphs(), st.data())
def test_path_cost_symmetry(net, data):
    nodes = sorted(net.nodes)
    i = data.draw(st.sampled_from(nodes))
    j = data.draw(st.sampled_from(nodes))
    try:
        forward = net.path_cost(i, j)
    except Unreachable:
        with pytest.raises(Unreachable):
            net.path_cost(j, i)
        return
    assert forward == net.path_cost(j, i)


@given(small_graphs(), st.data())
def test_path_cost_triangle_inequality(net, data):
    nodes = sorted(net.nodes)
    i = data.draw(st.sampled_from(nodes))
    j = data.draw(st.sampled_from(nodes))
    k = data.draw(st.sampled_from(nodes))
    try:
        via = net.path_cost(i, j) + net.path_cost(j, k)
        direct = net.path_cost(i, k)
    except Unreachable:
        return
    assert direct <= via


# -- the engine against the Fraction Dijkstra it replaced --------------------


def _fraction_adjacency(net: Network) -> dict[int, list[tuple[int, Fraction]]]:
    adjacency: dict[int, list[tuple[int, Fraction]]] = {n: [] for n in net.nodes}
    for a, b, cost in net.links:
        adjacency[a].append((b, cost))
        adjacency[b].append((a, cost))
    return adjacency


def _reference_path_cost(net: Network, adjacency, i: int, j: int) -> Fraction:
    """Early-exit Dijkstra on ``Fraction`` coefficients, the reference.

    This is the search ``Network.path_cost`` ran before it moved to
    integer-scaled coefficients and cached answers. ``adjacency`` is
    ``_fraction_adjacency(net)``.
    """
    override = net.k_override.get((min(i, j), max(i, j)))
    if override is not None:
        return override
    if i == j:
        return Fraction(0)
    best = {i: Fraction(0)}
    frontier = [(Fraction(0), i)]
    visited: set[int] = set()
    while frontier:
        dist, node = heapq.heappop(frontier)
        if node in visited:
            continue
        if node == j:
            return dist
        visited.add(node)
        for neighbor, cost in adjacency[node]:
            if neighbor in visited:
                continue
            candidate = dist + cost
            known = best.get(neighbor)
            if known is None or candidate < known:
                best[neighbor] = candidate
                heapq.heappush(frontier, (candidate, neighbor))
    raise Unreachable(f"no path between {i} and {j}")


# Denominators 1, 3, 5, 10 and 12 mixed in one graph, plus zero-cost links.
_MIXED_COEFFS = st.one_of(
    st.sampled_from([Fraction(1, 3), "3.2", "0.1", Fraction(7, 12), 0, 2]),
    st.fractions(min_value=0, max_value=10, max_denominator=12),
)


@st.composite
def mixed_networks(
    draw, max_nodes: int = 40, links_per_node: int = 2, min_nodes: int = 2
):
    size = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    nodes = list(range(1, size + 1))
    pair = (
        st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        .filter(lambda p: p[0] != p[1])
        .map(lambda p: (min(p), max(p)))
    )
    # At most two links per node on average by default: many pairs stay
    # disconnected.
    chosen = draw(st.lists(pair, unique=True, max_size=links_per_node * size))
    links = [(a, b, draw(_MIXED_COEFFS)) for a, b in chosen]
    overrides = draw(st.dictionaries(pair, _MIXED_COEFFS, max_size=3))
    return Network(nodes=nodes, links=links, k_override=overrides)


def _queries(nodes: list[int]):
    # Up to six sources, each asked for 1 to 6 distinct targets, in a
    # shuffled order: a source's early targets are pair searches, its later
    # ones may come from its tree once it has labelled a version's worth of
    # nodes. Each query is also asked the other way round.
    per_source = st.lists(
        st.tuples(
            st.sampled_from(nodes),
            st.lists(st.sampled_from(nodes), min_size=1, max_size=6, unique=True),
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda asked: asked[0],
    )
    return per_source.map(
        lambda asked: [(i, j) for i, targets in asked for j in targets]
    ).flatmap(st.permutations)


def _answers_match_reference(net: Network, queries) -> dict:
    """Check every query both ways; the reference runs once per pair."""
    adjacency = _fraction_adjacency(net)
    answers = {}
    for i, j in queries:
        if (i, j) not in answers:
            try:
                expected = _reference_path_cost(net, adjacency, i, j)
            except Unreachable:
                expected = None
            answers[i, j] = answers[j, i] = expected
        for a, b in ((i, j), (j, i)):
            expected = answers[a, b]
            if expected is None:
                with pytest.raises(Unreachable):
                    net.path_cost(a, b)
            else:
                got = net.path_cost(a, b)
                assert type(got) is Fraction
                assert got == expected
    return answers


@given(mixed_networks(), st.data())
def test_path_cost_matches_fraction_reference(net, data):
    queries = data.draw(_queries(sorted(net.nodes)))
    first = _answers_match_reference(net, queries)
    # Asked again, every answer now comes from a kept pair or tree.
    assert _answers_match_reference(net, queries) == first


@given(mixed_networks(links_per_node=4), st.data())
def test_path_cost_on_denser_networks_matches_fraction_reference(net, data):
    queries = data.draw(_queries(sorted(net.nodes)))
    first = _answers_match_reference(net, queries)
    assert _answers_match_reference(net, queries) == first


def _seeded_mesh(seed: str, size: int = 300) -> tuple[Network, int]:
    """A connected mesh plus a 5-node island, with mixed coefficients."""
    rng = random.Random(seed)
    coeffs = [0, Fraction(1, 3), Fraction(7, 12), "0.1", "3.2", 1, 2, "1.25"]
    mesh = size - 5
    links = {}
    for node in range(2, mesh + 1):
        links[rng.randrange(1, node), node] = rng.choice(coeffs)
    while len(links) < 2 * mesh:
        a, b = sorted(rng.sample(range(1, mesh + 1), 2))
        links.setdefault((a, b), rng.choice(coeffs))
    for node in range(mesh + 2, size + 1):
        links[mesh + 1, node] = rng.choice(coeffs)
    overrides = {
        tuple(sorted(rng.sample(range(1, size + 1), 2))): rng.choice(coeffs)
        for _ in range(10)
    }
    net = Network(
        nodes=range(1, size + 1),
        links=[(a, b, c) for (a, b), c in links.items()],
        k_override=overrides,
    )
    return net, rng.randrange(1, mesh + 1)


def test_model_query_patterns_on_a_seeded_mesh_match_fraction_reference():
    # The pairs the three cost models ask, in their order: the central
    # node to every node (cs), each itinerary hop and the return hop
    # (flatbed), and every mother-to-child manager link (imasnm), asked
    # twice as poll and deploy pricing do. The island's nodes are
    # unreachable from the mesh.
    net, central = _seeded_mesh("path-engine-mesh")
    stops = [central, *sorted(net.nodes - {central})]
    # Partition two thirds of the nodes, then let the rest join random
    # domains, so splits give the tree mothers below the root as well.
    rng = random.Random("path-engine-joins")
    tree = ManagerTree.initial_partition(stops[:200], 4, central)
    for node in stops[200:]:
        tree.add_node_to_domain(node, rng.choice(tree.domain_ids()))
    manager_links = [
        (mother.manager_host, child.manager_host)
        for mother, child in parent_links(tree)
    ]
    queries = (
        [(central, node) for node in stops]
        + list(zip(stops, stops[1:] + stops[:1]))
        + 2 * manager_links
    )
    answers = _answers_match_reference(net, queries)
    assert None in answers.values()
    # Only sources asked for several targets buy trees: the central node
    # and mother hosts. A hop source that hosts no manager asks once.
    mothers = {central} | {mother for mother, _ in manager_links}
    assert central in net._engine._trees
    assert set(net._engine._trees) <= mothers


def test_flat_bed_hops_on_a_seeded_mesh_label_a_small_patch():
    # Each hop n -> n+1 is its source's only query, so the source's label
    # count is that one search. Growing the side with fewer heap entries
    # and skipping labels that cannot beat the meeting keep the median
    # hop to about a quarter of the 300 nodes; growing the side with the
    # nearer top labelled 165.
    net, _ = _seeded_mesh("path-engine-mesh")
    for n in range(1, 300):
        try:
            net.path_cost(n, n + 1)
        except Unreachable:
            pass
    engine = net._engine
    assert engine._trees == {} and len(engine._labelled) == 299
    assert statistics.median(engine._labelled.values()) <= 100


def test_a_hop_into_an_island_stops_when_the_island_runs_dry():
    # 296 is the hub of the 5-node island. Its side holds at most 4 heap
    # entries, so it keeps being expanded while the mesh side's heap grows
    # past it, and it runs dry long before the mesh side is labelled.
    net, _ = _seeded_mesh("path-engine-mesh")
    with pytest.raises(Unreachable):
        net.path_cost(295, 296)
    assert net._engine._labelled[295] <= 20


def _each_pair_matches_reference(nodes, links) -> None:
    """Ask every ordered pair on a fresh version: each is one pair search."""
    for i in nodes:
        for j in nodes:
            if i != j:
                _answers_match_reference(Network(nodes=nodes, links=links), [(i, j)])


def test_pair_search_with_tied_shortest_paths_matches_reference():
    # A 4 x 4 grid of unit links: every pair not on one row or column has
    # several shortest paths of the same cost.
    links = [(n, n + 1, 1) for n in range(1, 17) if n % 4]
    links += [(n, n + 4, 1) for n in range(1, 13)]
    _each_pair_matches_reference(range(1, 17), links)


def test_pair_search_over_zero_cost_links_matches_reference():
    # The only cheapest 1-5 path, 1-2-3-4-5, costs 1 and three of its four
    # links cost 0; the detour through 6 costs 4. A zero-cost neighbour of
    # the popped node is never skipped: its candidate equals the popped
    # label, which is below the bound while the loop runs.
    links = [(1, 2, 0), (2, 3, 0), (3, 4, 1), (4, 5, 0), (1, 6, 2), (6, 5, 2)]
    _each_pair_matches_reference(range(1, 7), links)


def test_pair_search_skips_a_candidate_equal_to_the_bound():
    # 1-2 costs 2 directly and 2 through 3. Expanding 1 labels 2, meeting
    # at 2, and 3 at 1. The forward heap now holds two entries, so 2
    # expands next, with bound 2 - 1 = 1: 3's candidate 1 equals it and 1's
    # is 2, so both are skipped; a path through either cannot beat 2. The
    # backward heap is then empty: 3 labels forward and 1 backward.
    links = [(1, 2, 2), (1, 3, 1), (2, 3, 1)]
    net = Network(nodes=range(1, 4), links=links)
    assert net.path_cost(1, 2) == 2
    assert net._engine._labelled == {1: 4}
    _each_pair_matches_reference(range(1, 4), links)


def test_pair_search_into_another_component_prunes_nothing():
    # 1 is the hub of leaves 2 to 5; 10-11 is a separate component. With no
    # meeting the bound is infinite: expanding 1 labels its 4 leaves, then
    # the backward side, now the smaller heap, labels 11 and runs dry.
    links = [(1, n, 1) for n in range(2, 6)] + [(10, 11, 1)]
    nodes = [1, 2, 3, 4, 5, 10, 11]
    net = Network(nodes=nodes, links=links)
    with pytest.raises(Unreachable):
        net.path_cost(1, 10)
    assert net._engine._labelled == {1: 5 + 2}
    _each_pair_matches_reference(nodes, links)


def _label_slots_are_empty(net: Network) -> bool:
    engine = net._engine
    return all(label is None for label in engine._forward + engine._backward)


def test_every_label_slot_is_empty_after_each_pair_search(monkeypatch):
    # 1-3 meets over 1-2-3; 2-4 ties at 1 over 2-1-4 and 2-3-4, each with
    # one zero-cost link; 10-11 is another component. Each query comes
    # from a new source, so each is one pair search.
    links = [(1, 2, 0), (2, 3, 1), (1, 4, 1), (4, 3, 0), (3, 5, 2), (10, 11, 1)]
    net = Network(nodes=[1, 2, 3, 4, 5, 10, 11], links=links)
    assert net.path_cost(1, 3) == 1
    assert _label_slots_are_empty(net)
    with pytest.raises(Unreachable):
        net.path_cost(5, 10)
    assert _label_slots_are_empty(net)
    assert net.path_cost(2, 4) == 1
    assert _label_slots_are_empty(net)
    assert set(net._engine._labelled) == {1, 5, 2}
    assert net._engine._trees == {}

    # A search stopped by an exception from its second pop, after the
    # first labelled 4, 1 and 3 forward, still clears what it set and
    # leaves no answer or label count behind.
    pops = []

    def failing_heappop(heap):
        pops.append(heap)
        if len(pops) == 2:
            raise KeyboardInterrupt
        return heapq.heappop(heap)

    patched = types.SimpleNamespace(heappush=heapq.heappush, heappop=failing_heappop)
    monkeypatch.setattr(topology, "heapq", patched)
    engine = net._engine
    pairs, labelled = dict(engine._pairs), dict(engine._labelled)
    with pytest.raises(KeyboardInterrupt):
        net.path_cost(4, 5)
    assert len(pops) == 2
    assert _label_slots_are_empty(net)
    assert (engine._pairs, engine._labelled) == (pairs, labelled)
    monkeypatch.undo()
    assert net.path_cost(4, 5) == 2
    assert _label_slots_are_empty(net)
    _each_pair_matches_reference([1, 2, 3, 4, 5, 10, 11], links)


@given(mixed_networks(max_nodes=12), st.data())
def test_add_link_chain_keeps_each_version_answers(net, data):
    nodes = sorted(net.nodes)
    queries = data.draw(_queries(nodes))
    versions = [net]
    answers = [_answers_match_reference(net, queries)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        linked = {(a, b) for a, b, _ in net.links}
        free = [(a, b) for a in nodes for b in nodes if a < b and (a, b) not in linked]
        if not free:
            break
        a, b = data.draw(st.sampled_from(free))
        net = net.add_link(a, b, data.draw(_MIXED_COEFFS))
        versions.append(net)
        answers.append(_answers_match_reference(net, queries))
    for version, expected in zip(versions, answers):
        assert _answers_match_reference(version, queries) == expected


# -- versions grown from one another ------------------------------------------


def _grow(version: Network, contents, data):
    """One add_node or add_link step on ``version`` and on its contents.

    A new node takes one of the next two ids after the version's largest,
    so sibling versions add the same ids at different positions, or
    different ids at the same position, and often the same links with
    different costs.
    """
    nodes, links = contents
    linked = {(a, b) for a, b, _ in links}
    free = [(a, b) for a in nodes for b in nodes if a < b and (a, b) not in linked]
    if free and data.draw(st.booleans()):
        a, b = data.draw(st.sampled_from(free))
        coeff = data.draw(_MIXED_COEFFS)
        return version.add_link(b, a, coeff), (nodes, links + [(a, b, coeff)])
    node = max(nodes) + data.draw(st.sampled_from([1, 2]))
    return version.add_node(node), (nodes + [node], links)


def _answer(net: Network, i: int, j: int):
    try:
        return net.path_cost(i, j)
    except (UnknownNode, Unreachable) as exc:
        return type(exc)


@given(mixed_networks(max_nodes=8), st.data())
def test_versions_branched_off_an_older_one_match_fresh_builds(net, data):
    overrides = net.k_override
    contents = (sorted(net.nodes), list(net.links))
    trunk = [(net, contents)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        trunk.append(_grow(*trunk[-1], data))
    # Two children of one version that already has a descendant, grown in
    # turns, so each adds where the other has added before.
    base = trunk[data.draw(st.integers(min_value=0, max_value=len(trunk) - 2))]
    branches = [[base], [base]]
    for side in data.draw(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=10)):
        branches[side].append(_grow(*branches[side][-1], data))
    for side in (0, 1):
        branches[side].append(_grow(*branches[side][-1], data))
    versions = trunk + branches[0][1:] + branches[1][1:]

    fresh = [
        Network(nodes=nodes, links=links, k_override=overrides)
        for _, (nodes, links) in versions
    ]
    ids = range(1, max(max(nodes) for _, (nodes, _) in versions) + 3)
    for (version, _), built in zip(versions, fresh):
        assert version.nodes == built.nodes
        assert version.links == built.links
        assert version.k_override == built.k_override
        assert version == built
        for i in ids:
            for j in ids:
                assert _answer(version, i, j) == _answer(built, i, j)
    for (one, _), one_built in zip(versions, fresh):
        for (other, _), other_built in zip(versions, fresh):
            assert (one == other) == (one_built == other_built)


def _matches_fresh_build(version: Network, contents, pins, queries) -> None:
    """Each query equals the Fraction reference and a fresh build's answer.

    The version's engine, if built, has one slot per node of the version:
    its break-even is that count.
    """
    nodes, links = contents
    fresh = Network(nodes=nodes, links=links, k_override=pins)
    _answers_match_reference(version, queries)
    for i, j in queries:
        assert _answer(version, i, j) == _answer(fresh, i, j)
    engine = version._engine
    if engine is not None:
        assert len(engine._adjacency) == len(engine._forward) == len(nodes)


@given(mixed_networks(max_nodes=10, min_nodes=4), st.data())
def test_an_older_version_answers_new_pairs_after_a_newer_one_grew_its_tables(
    net, data
):
    nodes = sorted(net.nodes)
    source = data.draw(st.sampled_from(nodes))
    others = [n for n in nodes if n != source]
    first = tuple(data.draw(st.permutations(others))[:2])
    # Leave the source and the first pair unpinned: the first pair then
    # builds the oldest version's engine with one pair search, and the
    # source's pair searches reach the break-even below.
    pins = {
        pair: cost
        for pair, cost in net.k_override.items()
        if source not in pair and pair != tuple(sorted(first))
    }
    oldest = Network(nodes=nodes, links=net.links, k_override=pins)
    versions = [(oldest, (nodes, list(oldest.links)))]
    _matches_fresh_build(oldest, versions[0][1], pins, [first])
    engine = oldest._engine
    assert engine is not None
    # Grow the newest version, and between the steps query any version
    # made since, the newest or one a later step has outgrown.
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        versions.append(_grow(*versions[-1], data))
        version, contents = data.draw(st.sampled_from(versions[1:]))
        _matches_fresh_build(version, contents, pins, data.draw(_queries(contents[0])))
    # The newer versions' nodes and links went into tables of their own.
    assert (len(oldest._order), len(oldest._links)) == (len(nodes), len(net.links))
    # The oldest version again, on pairs it was never asked. It has no
    # tree yet, and every pair search labels at least the source and its
    # target, so with 4 nodes or more the source reaches its version's
    # node count and builds its tree before its last target.
    asked = [(source, j) for j in data.draw(st.permutations(nodes))]
    _matches_fresh_build(oldest, versions[0][1], pins, asked)
    assert oldest._engine is engine and source in engine._trees
    assert len(engine._trees[source]) == len(nodes)


def test_equal_answers_in_one_version_are_one_fraction():
    # On a chain of half-cost links, 1-3, 2-4 and 3-5 each cost 1.
    halves = [(n, n + 1, "1/2") for n in range(1, 5)]
    net = Network(nodes=range(1, 6), links=halves, k_override={(1, 5): 7})
    one = net.path_cost(1, 3)
    assert one == 1
    assert net.path_cost(4, 2) is one and net.path_cost(3, 1) is one
    assert net.path_cost(3, 5) is one
    assert net.path_cost(1, 4) == Fraction(3, 2)
    # A pin is returned as stored and takes no entry.
    assert net.path_cost(5, 1) is net._override[1, 5]
    assert net._engine._answers == {2: 1, 3: Fraction(3, 2)}
    assert net._engine._answers[2] is one
    # A new version starts with no answers, and hands out its own Fraction.
    grown = net.add_node(6)
    assert grown._engine is None
    again = grown.path_cost(2, 4)
    assert again == 1 and again is not one
    assert grown._engine._answers == {2: 1}
    assert net._engine._answers == {2: 1, 3: Fraction(3, 2)}
