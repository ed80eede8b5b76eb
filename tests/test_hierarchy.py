"""Domain ids, partitioning and growth one join at a time."""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from netmansim import (
    AddNode,
    CostParams,
    DomainId,
    DuplicateNode,
    EmptyNetwork,
    ManagerTree,
    Network,
    ROOT_DOMAIN,
    Scenario,
    Snapshot,
    UnassignedNode,
    UnknownDomain,
    UnknownNode,
    run,
)


def did(text: str) -> DomainId:
    return DomainId.parse(text)


class TestDomainId:
    def test_parse_and_render_round_trip(self):
        for text in ("1", "1.3", "1.3.1", "2.10.4"):
            assert str(DomainId.parse(text)) == text

    def test_parse_rejects_malformed_ids(self):
        for text in ("", "1.", ".1", "a", "1.a", "1..2", "01", "1.03", "-1", "1.0"):
            with pytest.raises(ValueError):
                DomainId.parse(text)
        with pytest.raises(ValueError, match="^domain id must be a string, got 5$"):
            DomainId.parse(5)

    def test_parse_rejects_non_ascii_digits(self):
        # str.isdigit accepts these, but int() either misreads them ("١"
        # is Arabic-Indic one) or fails on them ("²"); neither round-trips
        for text in ("١.٢", "1.١", "²", "1.²", "１"):
            with pytest.raises(ValueError, match="^malformed domain id"):
                DomainId.parse(text)

    def test_path_must_be_positive_ints(self):
        with pytest.raises(ValueError, match="must be non-empty"):
            DomainId(())
        with pytest.raises(ValueError, match=r"must be positive: \(0,\)"):
            DomainId((0,))
        with pytest.raises(ValueError):
            DomainId((1, 0))
        with pytest.raises(ValueError):
            DomainId((1, "2"))

    def test_child_checks_its_index(self):
        with pytest.raises(ValueError, match=r"must be positive: \(1, 2, 0\)"):
            did("1.2").child(0)
        with pytest.raises(ValueError, match=r"must be ints: \(1, True\)"):
            did("1").child(True)
        with pytest.raises(ValueError, match="must be ints"):
            did("1").child("3")
        assert did("1.2").child(3).path == (1, 2, 3)
        assert did("1.2.3").parent.path == (1, 2)

    def test_parent_and_child(self):
        node = did("1.3.1")
        assert node.parent == did("1.3")
        assert did("1").parent is None
        assert did("1.3").child(2) == did("1.3.2")
        assert node.depth == 2
        assert ROOT_DOMAIN == did("1")

    def test_ordering_is_depth_first(self):
        ids = [did(t) for t in ("1.2", "1", "1.1.1", "1.1", "1.10", "1.2.1")]
        assert [str(d) for d in sorted(ids)] == [
            "1",
            "1.1",
            "1.1.1",
            "1.2",
            "1.2.1",
            "1.10",
        ]


class TestInitialPartition:
    def test_ten_nodes_make_three_chunks_plus_root(self):
        tree = ManagerTree.initial_partition(range(1, 11), 3, 10)
        table = {str(d.id): (d.manager_host, d.members) for d in tree.domains()}
        assert table == {
            "1": (10, (10,)),
            "1.1": (1, (1, 2, 3)),
            "1.2": (4, (4, 5, 6)),
            "1.3": (7, (7, 8, 9)),
        }

    def test_leftover_nodes_stay_with_the_central_manager(self):
        tree = ManagerTree.initial_partition([1, 2, 3, 4, 5, 6, 7], 3, 7)
        table = {str(d.id): d.members for d in tree.domains()}
        assert table == {"1": (7,), "1.1": (1, 2, 3), "1.2": (4, 5, 6)}
        partial = ManagerTree.initial_partition([1, 2, 3], 3, 3)
        assert {str(d.id): d.members for d in partial.domains()} == {"1": (3, 1, 2)}

    def test_single_node_network(self):
        tree = ManagerTree.initial_partition([5], 1, 5)
        assert [d.members for d in tree.domains()] == [(5,)]

    def test_input_order_does_not_matter(self):
        a = ManagerTree.initial_partition([4, 1, 3, 2, 5], 2, 5)
        b = ManagerTree.initial_partition([1, 2, 3, 4, 5], 2, 5)
        assert {str(d.id): d.members for d in a.domains()} == {
            str(d.id): d.members for d in b.domains()
        }

    def test_errors(self):
        with pytest.raises(EmptyNetwork):
            ManagerTree.initial_partition([], 3, 1)
        with pytest.raises(UnknownNode):
            ManagerTree.initial_partition([1, 2], 3, 9)
        with pytest.raises(ValueError):
            ManagerTree.initial_partition([1], 0, 1)
        with pytest.raises(DuplicateNode):
            ManagerTree.initial_partition([1, 1, 2], 3, 2)


class TestDomainOf:
    def test_lookup_after_partition(self):
        tree = ManagerTree.initial_partition(range(1, 11), 3, 10)
        assert tree.domain_of(5) == did("1.2")
        assert tree.domain_of(10) == did("1")

    def test_unassigned_node(self):
        tree = ManagerTree.initial_partition(range(1, 11), 3, 10)
        with pytest.raises(UnassignedNode):
            tree.domain_of(99)


@pytest.mark.parametrize(
    "node, error",
    [(True, TypeError), ("3", TypeError), (0, ValueError)],
)
def test_node_ids_are_checked_as_the_network_checks_them(node, error):
    with pytest.raises(error) as expected:
        Network([node])
    with pytest.raises(error) as partition:
        ManagerTree.initial_partition([node], 3, node)
    tree = ManagerTree.initial_partition([1], 3, 1)
    with pytest.raises(error) as join:
        tree.add_node_to_domain(node, ROOT_DOMAIN)
    message = str(expected.value)
    assert str(partition.value) == str(join.value) == message
    assert message.startswith("node id must be")
    assert len(tree) == 1 and tree.domain(ROOT_DOMAIN).members == (1,)


def test_a_repeated_node_is_named_as_the_network_names_it():
    with pytest.raises(DuplicateNode) as expected:
        Network([1, 2, 2])
    with pytest.raises(DuplicateNode) as partition:
        ManagerTree.initial_partition([1, 2, 2], 3, 1)
    for info in (expected, partition):
        assert (str(info.value), info.value.entry) == ("duplicate node 2", "nodes[2]")


class TestGrowth:
    def test_add_without_overflow_keeps_domain(self):
        tree = ManagerTree.initial_partition(range(1, 11), 3, 10)
        tree.add_node_to_domain(13, did("1"))
        assert tree.domain(did("1")).members == (10, 13)
        assert len(tree) == 4

    def test_overflow_spawns_one_child_with_lowest_id_host(self):
        tree = ManagerTree.initial_partition(range(1, 11), 3, 10)
        tree.add_node_to_domain(11, did("1.3"))
        assert tree.domain(did("1.3")).members == (7, 8, 9)
        clone = tree.domain(did("1.3.1"))
        assert clone.members == (11,)
        assert clone.manager_host == 11
        assert tree.children_of(did("1.3")) == (did("1.3.1"),)
        assert tree.parent_of(did("1.3.1")) == did("1.3")
        assert tree.domain_of(11) == did("1.3.1")

    def test_sibling_indices_count_up_in_spawn_order(self):
        tree = ManagerTree.initial_partition([1, 2, 3], 3, 3)
        for node in (4, 5, 6):
            tree.add_node_to_domain(node, did("1"))
        assert tree.children_of(did("1")) == (did("1.1"), did("1.2"), did("1.3"))
        assert tree.domain(did("1.1")).members == (4,)
        assert tree.domain(did("1.3")).members == (6,)

    def test_members_change_only_through_joins(self):
        # Appending to a read Domain's members once left 13 unassigned and
        # let it join the root twice.
        tree = ManagerTree.initial_partition(range(1, 11), 3, 10)
        before = tree.domain(ROOT_DOMAIN)
        with pytest.raises(AttributeError):
            before.members.append(13)
        with pytest.raises(AttributeError):
            before.members = (10, 13)
        with pytest.raises(UnassignedNode):
            tree.domain_of(13)
        tree.add_node_to_domain(13, ROOT_DOMAIN)
        with pytest.raises(DuplicateNode):
            tree.add_node_to_domain(13, ROOT_DOMAIN)
        assert before.members == (10,)
        assert tree.domain(ROOT_DOMAIN).members == (10, 13)
        # A Domain shares the members tuple of its domain's current state.
        assert tree.domain(ROOT_DOMAIN).members is tree.states()[0].members
        assert tree.domain_of(13) == ROOT_DOMAIN

    def test_errors(self):
        tree = ManagerTree.initial_partition(range(1, 11), 3, 10)
        with pytest.raises(UnknownDomain):
            tree.add_node_to_domain(42, did("1.9"))
        with pytest.raises(DuplicateNode):
            tree.add_node_to_domain(5, did("1.1"))
        with pytest.raises(ValueError):
            ManagerTree(0)
        with pytest.raises(ValueError, match="^m_max must be an int, got '3'$"):
            ManagerTree("3")

    def test_domain_ids_are_in_numeric_depth_first_order(self):
        # One central node plus ten one-node chunks make 1.1 to 1.10;
        # node 12 joining 1.1 splits it into 1.1.1.
        tree = ManagerTree.initial_partition(range(1, 12), 1, 11)
        tree.add_node_to_domain(12, did("1.1"))
        ids = tree.domain_ids()
        assert ids == sorted(tree._managers)
        rendered = [str(d) for d in ids]
        assert rendered[:4] == ["1", "1.1", "1.1.1", "1.2"]
        assert rendered[-2:] == ["1.9", "1.10"]
        check_tree_invariants(tree, set(range(1, 13)))

# -- randomized growth sequences --------------------------------------------


def check_tree_invariants(tree: ManagerTree, expected_nodes: set[int]) -> None:
    # The tree lists domains by walking it; the order must be id order.
    ids = tree.domain_ids()
    assert ids == sorted(ids, key=lambda d: d.path)
    assert [d.id for d in tree.domains()] == ids
    assert [
        (mother.id, child.id) for mother, child in tree.parent_child_edges()
    ] == [(d.parent, d) for d in ids if d.parent is not None]
    members_seen: list[int] = []
    for domain in tree.domains():
        members_seen.extend(domain.members)
        assert all(tree.domain_of(node) == domain.id for node in domain.members)
        assert len(domain.members) <= tree.m_max
        assert domain.manager_host in domain.members
        parent = tree.parent_of(domain.id)
        if parent is None:
            assert domain.id == ROOT_DOMAIN
        else:
            assert domain.id.parent == parent
        children = tree.children_of(domain.id)
        assert [c.path[-1] for c in children] == list(range(1, len(children) + 1))
    assert len(members_seen) == len(set(members_seen))
    assert set(members_seen) == expected_nodes
    # Each domain's Domain and DomainState agree, whichever was read first.
    for domain, state in zip(tree.domains(), tree.states(), strict=True):
        parent = tree.parent_of(domain.id)
        assert state.id == str(domain.id)
        assert state.members == domain.members
        assert state.manager_host == domain.manager_host
        assert state.parent == (None if parent is None else str(parent))
        assert state.children == tuple(map(str, tree.children_of(domain.id)))


@st.composite
def growth_runs(draw):
    m_max = draw(st.integers(min_value=1, max_value=6))
    initial = draw(st.integers(min_value=1, max_value=10))
    additions = draw(st.integers(min_value=0, max_value=49))
    choices = draw(st.lists(st.integers(min_value=0), min_size=additions, max_size=additions))
    central = draw(st.integers(min_value=1, max_value=initial))
    return m_max, initial, central, choices


def replay(m_max: int, initial: int, central: int, choices: list[int]) -> ManagerTree:
    tree = ManagerTree.initial_partition(range(1, initial + 1), m_max, central)
    next_node = initial + 1
    for choice in choices:
        targets = tree.domain_ids()
        tree.add_node_to_domain(next_node, targets[choice % len(targets)])
        next_node += 1
    return tree


@given(growth_runs())
def test_random_growth_preserves_invariants(case):
    m_max, initial, central, choices = case
    tree = replay(m_max, initial, central, choices)
    expected = set(range(1, initial + 1 + len(choices)))
    check_tree_invariants(tree, expected)


@given(growth_runs())
def test_views_read_between_joins_stay_current(case):
    # Reads keep their views on the tree; a join must drop what it changes.
    m_max, initial, central, choices = case
    tree = ManagerTree.initial_partition(range(1, initial + 1), m_max, central)
    for node, choice in enumerate(choices, start=initial + 1):
        check_tree_invariants(tree, set(range(1, node)))
        targets = tree.domain_ids()
        tree.add_node_to_domain(node, targets[choice % len(targets)])
    check_tree_invariants(tree, set(range(1, initial + 1 + len(choices))))


@given(growth_runs())
def test_growth_replay_is_deterministic(case):
    first = replay(*case)
    second = replay(*case)
    assert [
        (str(d.id), d.members, d.manager_host) for d in first.domains()
    ] == [(str(d.id), d.members, d.manager_host) for d in second.domains()]


@given(growth_runs())
def test_each_join_moves_no_node_and_adds_at_most_one_domain(case):
    m_max, initial, central, choices = case
    tree = ManagerTree.initial_partition(range(1, initial + 1), m_max, central)
    owners = {node: tree.domain_of(node) for node in range(1, initial + 1)}
    for node, choice in enumerate(choices, start=initial + 1):
        before = tree.domain_ids()
        target = before[choice % len(before)]
        tree.add_node_to_domain(node, target)
        added = set(tree.domain_ids()) - set(before)
        assert len(tree) - len(before) == len(added) <= 1
        if added:
            (clone,) = added
            assert tree.parent_of(clone) == target
            assert tree.domain(clone).manager_host == node
            assert tree.domain(clone).members == (node,)
        else:
            assert tree.domain(target).members[-1] == node
        owners[node] = tree.domain_of(node)
        assert all(tree.domain_of(n) == domain for n, domain in owners.items())


def test_joins_run_in_linear_time():
    # A join that re-scans its domain's members makes this quadratic:
    # about 5 s for 5000 joins into one domain of 5000 nodes.
    nodes = range(1, 5001)
    started = time.perf_counter()
    ManagerTree.initial_partition(nodes, 10_000, 1)
    partition = time.perf_counter() - started
    tree = ManagerTree.initial_partition(nodes, 10_000, 1)
    started = time.perf_counter()
    for node in range(5001, 10_001):
        tree.add_node_to_domain(node, ROOT_DOMAIN)
    elapsed = time.perf_counter() - started
    assert len(tree) == 1 and len(tree.domain(ROOT_DOMAIN).members) == 10_000
    assert elapsed < max(1.0, 20 * partition)


def test_chain_deeper_than_the_recursion_limit():
    # m_max=1 and every node joining the deepest domain: each join splits
    # it, so 2000 joins make a chain 1, 1.1, 1.1.1, ... of 2002 domains.
    assert sys.getrecursionlimit() < 2002
    tree = ManagerTree.initial_partition([1, 2], 1, 1)
    deepest = did("1.1")
    names = ["1", "1.1"]
    events = []
    for node in range(3, 2003):
        tree.add_node_to_domain(node, deepest)
        events.append(AddNode(node, deepest))
        deepest = deepest.child(1)
        names.append(names[-1] + ".1")
    assert len(tree.domains()) == len(tree.parent_child_edges()) + 1 == 2002
    check_tree_invariants(tree, set(range(1, 2003)))

    unit = dict.fromkeys(("s_req", "s_res", "s_ma", "d", "ma_size", "mda_size"), 1)
    scenario = Scenario(
        name="chain",
        nodes=(1, 2),
        links=((1, 2, Fraction(1)),),
        k_override=(),
        central=1,
        m_max=1,
        params=CostParams(num_vars=1, ma_res=1, **unit),
        domain_k={},
        events=(*events, Snapshot("deep")),
        polling_counts=(),
        models=(),
    )
    result = run(scenario)
    assert result.final_domains == result.snapshots[0].domains
    assert [state.id for state in result.final_domains] == names
