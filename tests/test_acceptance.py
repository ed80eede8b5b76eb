"""End-to-end acceptance checks for the frozen reference behavior.

Each criterion is one test. A passing test prints a single PASS line
(visible under ``pytest -s``); a failing criterion fails its test. The
checks rebuild their own state from the bundled scenarios so they do
not depend on the unit-test helpers staying in sync.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from netmansim import (
    CostParams,
    DomainId,
    ManagerTree,
    Network,
    apply_event,
    compare,
    cost_centralized_polled,
    cost_flatbed,
    cost_flatbed_polled,
    cost_imasnm_deploy,
    cost_imasnm_poll,
    cost_imasnm_total,
    load_bundled_scenario,
    run,
)
from netmansim.simulation import AddNode, SimulationState


def rebuild(name: str) -> SimulationState:
    scenario = load_bundled_scenario(name)
    state = SimulationState(
        network=Network(scenario.nodes, scenario.links, scenario.k_override),
        tree=ManagerTree.initial_partition(
            scenario.nodes, scenario.m_max, scenario.central
        ),
    )
    for event in scenario.events:
        apply_event(state, event)
    return state


def test_criterion_01_centralized_polling_totals():
    scenario = load_bundled_scenario("reference18")
    result = run(scenario, models=["cs"])
    assert result.total_of("cs", 1) == 110220
    assert result.total_of("cs", 20) == 2204400
    # independent arithmetic: 17 targets at coefficient sum 132, one
    # request/response pair of 167 bytes over 5 variables
    assert (83 + 84) * 5 * 132 == 110220
    print("PASS 1: centralized polling totals are exact (110220 / 2204400)")


def test_criterion_02_deployment_total():
    state = rebuild("reference18")
    params = load_bundled_scenario("reference18").params
    deploy = cost_imasnm_deploy(state.network, state.tree, params)
    assert deploy == 100352
    # independent arithmetic: five parent links of coefficient 5 each
    assert deploy == 25 * Fraction("4014.08")
    print("PASS 2: hierarchy deployment total is exact (100352)")


def test_criterion_03_hierarchical_poll_total():
    state = rebuild("reference18")
    params = load_bundled_scenario("reference18").params
    poll = cost_imasnm_poll(state.network, state.tree, params)
    assert poll == Fraction("73557.4")
    assert abs(poll - 73555) <= 3
    print("PASS 3: hierarchical poll total is exact (73557.4, near 73555)")


def test_criterion_04_kilobyte_table():
    result = run(load_bundled_scenario("reference18"))
    report = compare(result)
    cells = {
        row.polls: (row.kb_of("cs"), row.kb_of("imasnm"))
        for row in report.rows
    }
    tolerance = Decimal("0.05")
    for polls, cs_ref, hier_ref in (
        (1, Decimal("110.22"), Decimal("73.55")),
        (10, Decimal("1102.21"), Decimal("735.55")),
        (20, Decimal("2204.41"), Decimal("1471.11")),
    ):
        cs_kb, hier_kb = cells[polls]
        assert abs(cs_kb - cs_ref) <= tolerance
        assert abs(hier_kb - hier_ref) <= tolerance
    assert cells[50] == (Decimal("5511.00"), Decimal("3677.87"))
    assert cells[100] == (Decimal("11022.00"), Decimal("7355.74"))
    print("PASS 4: kilobyte table matches the reference cells")


def test_criterion_05_growth_storyline():
    result = run(load_bundled_scenario("growth19"))
    by_label = {s.label: s for s in result.snapshots}
    assert set(by_label["initial"].managers) == {"1", "1.1", "1.2", "1.3"}
    assert set(by_label["after-first-split"].managers) == {
        "1", "1.1", "1.2", "1.3", "1.3.1"
    }
    assert set(by_label["fully-grown"].managers) == {
        "1", "1.1", "1.2", "1.2.1", "1.3", "1.3.1", "1.3.1.1"
    }
    final = by_label["fully-grown"].domains
    assert sum(len(d.members) for d in final) == 19
    assert all(len(d.members) <= 3 for d in final)
    print("PASS 5: domain growth storyline reproduces all three snapshots")


@st.composite
def growth_runs(draw):
    m_max = draw(st.integers(min_value=1, max_value=6))
    initial = draw(st.integers(min_value=1, max_value=10))
    extra = draw(
        st.lists(st.integers(min_value=0, max_value=999), max_size=50)
    )
    return m_max, initial, extra


def grow(m_max: int, initial: int, extra: list[int]) -> ManagerTree:
    nodes = list(range(1, initial + 1))
    tree = ManagerTree.initial_partition(nodes, m_max, nodes[0])
    next_node = initial + 1
    for pick in extra:
        targets = tree.domain_ids()
        tree.add_node_to_domain(next_node, targets[pick % len(targets)])
        next_node += 1
    return tree


def assert_tree_invariants(tree: ManagerTree, expected_nodes: int) -> None:
    seen: list[int] = []
    for domain in tree.domains():
        assert 1 <= len(domain.members) <= tree.m_max
        assert domain.manager_host in domain.members
        seen.extend(domain.members)
        parent = tree.parent_of(domain.id)
        if parent is None:
            assert domain.id == DomainId((1,))
        else:
            assert domain.id.path[:-1] == parent.path
        children = tree.children_of(domain.id)
        assert [c.path[-1] for c in children] == list(
            range(1, len(children) + 1)
        )
        for node in domain.members:
            assert tree.domain_of(node) == domain.id
    assert sorted(seen) == list(range(1, expected_nodes + 1))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=growth_runs())
def check_random_growth(case):
    m_max, initial, extra = case
    tree = grow(m_max, initial, extra)
    assert_tree_invariants(tree, initial + len(extra))
    again = grow(m_max, initial, extra)
    table = lambda t: [
        (str(d.id), d.manager_host, list(d.members)) for d in t.domains()
    ]
    assert table(tree) == table(again)


def test_criterion_06_random_growth_invariants():
    check_random_growth()
    print(
        "PASS 6: 500 random growth runs keep conservation, size, and"
        " id-structure invariants with deterministic replay"
    )


@st.composite
def ring_cases(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    nodes = list(range(1, n + 1))
    coeffs = {}
    for i in nodes:
        for j in nodes:
            if i < j:
                coeffs[(i, j)] = draw(
                    st.fractions(
                        min_value=0, max_value=20, max_denominator=16
                    )
                )
    order = draw(st.permutations(nodes))
    s_ma = draw(st.fractions(min_value=0, max_value=5000, max_denominator=32))
    d = draw(st.fractions(min_value=0, max_value=100, max_denominator=32))
    p = draw(st.integers(min_value=0, max_value=7))
    return nodes, coeffs, list(order), s_ma, d, p


def agent_walk(net, stops, params) -> Fraction:
    size = params.s_ma
    total = Fraction(0)
    current = stops[0]
    for nxt in stops[1:]:
        total += net.path_cost(current, nxt) * size
        size += params.d
        current = nxt
    return total + net.path_cost(current, stops[0]) * size


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=ring_cases())
def check_itineraries(case):
    nodes, coeffs, order, s_ma, d, p = case
    links = [(i, j, c) for (i, j), c in coeffs.items()]
    net = Network(nodes, links)
    params = CostParams(
        s_req=7, s_res=9, num_vars=2, s_ma=s_ma, d=d,
        ma_size=11, mda_size=13, ma_res=17,
    )
    one = cost_flatbed(net, order, params)
    assert one == agent_walk(net, order, params)
    assert cost_flatbed_polled(net, order, params, p) == p * one
    central = cost_centralized_polled(net, order[0], nodes, params, 1)
    assert cost_centralized_polled(
        net, order[0], nodes, params, p
    ) == p * central
    tree = ManagerTree.initial_partition(nodes, 3, order[0])
    hier = cost_imasnm_total(net, tree, params, 1, False).total
    assert cost_imasnm_total(net, tree, params, p, False).total == p * hier


def test_criterion_07_itinerary_closed_form_and_linearity():
    check_itineraries()
    print(
        "PASS 7: 200 random itineraries match the hop-by-hop walk exactly"
        " and every model scales linearly in poll count"
    )


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    nodes = list(range(1, n + 1))
    pairs = [(i, j) for i in nodes for j in nodes if i < j]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)
        )
    )
    links = [
        (
            i,
            j,
            draw(st.fractions(min_value=0, max_value=10, max_denominator=8)),
        )
        for i, j in chosen
    ]
    return nodes, links


def all_simple_path_costs(links, start, goal):
    adjacency: dict[int, list[tuple[int, Fraction]]] = {}
    for i, j, c in links:
        adjacency.setdefault(i, []).append((j, Fraction(c)))
        adjacency.setdefault(j, []).append((i, Fraction(c)))

    best: list[Fraction] = []

    def visit(node, cost, seen):
        if node == goal:
            best.append(cost)
            return
        for nxt, coeff in adjacency.get(node, ()):
            if nxt not in seen:
                visit(nxt, cost + coeff, seen | {nxt})

    visit(start, Fraction(0), {start})
    return min(best) if best else None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=small_graphs())
def check_path_costs(case):
    nodes, links = case
    net = Network(nodes, links)
    # The enumeration is exponential, so each pair is enumerated once.
    oracle = {
        (i, j): all_simple_path_costs(links, i, j)
        for i, j in permutations(nodes, 2)
    }
    for i in nodes:
        for j in nodes:
            expected = Fraction(0) if i == j else oracle[i, j]
            if expected is None:
                continue
            assert net.path_cost(i, j) == expected
            assert net.path_cost(j, i) == expected
    for i, j, k in permutations(nodes, 3):
        direct = oracle[i, k]
        via_a = oracle[i, j]
        via_b = oracle[j, k]
        if direct is None or via_a is None or via_b is None:
            continue
        assert net.path_cost(i, k) <= via_a + via_b


def test_criterion_08_path_cost_search_matches_enumeration():
    check_path_costs()
    print(
        "PASS 8: 100 random graphs agree with exhaustive path enumeration,"
        " with symmetry and the triangle inequality"
    )


def test_criterion_09_hierarchy_beats_centralized():
    result = run(load_bundled_scenario("reference18"))
    hier = result.per_poll_of("imasnm")
    central = result.per_poll_of("cs")
    assert hier < central
    ratio = hier / central
    assert Fraction("0.66") <= ratio <= Fraction("0.68")
    print(
        "PASS 9: hierarchical polling undercuts centralized polling"
        f" (ratio {float(ratio):.4f})"
    )
