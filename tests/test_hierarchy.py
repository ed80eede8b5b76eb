"""Domain ids, partitioning and growth one join at a time."""

from __future__ import annotations

import copy
import pickle
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from netmansim import (
    AddNode,
    CostParams,
    Domain,
    DomainId,
    DomainState,
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
    load_bundled_scenario,
    run,
)
from netmansim.simulation import _parse_domain_id
from conftest import assert_frozen_record, parent_links


def did(text: str) -> DomainId:
    return DomainId.parse(text)


def read_domain(tree: ManagerTree, domain: DomainId) -> Domain:
    """The ``Domain`` of id ``domain``, read through ``tree.domains()``."""
    (found,) = [view for view in tree.domains() if view.id == domain]
    return found


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

    def test_a_part_too_long_to_render_is_refused_when_the_id_is_made(self):
        # An id renders its name when made, so a part past the int digit
        # limit fails there, as parse fails on its text. A Python with no
        # limit renders the part in full.
        part = 10**5000
        try:
            text = str(part)
        except ValueError:
            with pytest.raises(ValueError, match="integer string conversion"):
                DomainId((part,))
            with pytest.raises(ValueError, match="integer string conversion"):
                DomainId.parse("1" + "0" * 5000)
        else:
            assert str(DomainId((part,))) == text

    def test_root_domain(self):
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

    def test_order_methods_compare_paths(self):
        low, high = did("1.2"), did("1.10")
        assert low < high and low <= high and high > low and high >= low
        assert low <= did("1.2") and low >= did("1.2")
        assert not (low < did("1.2") or low > did("1.2"))

    def test_only_ids_of_one_class_compare(self):
        class Named(DomainId):
            pass

        assert Named((1, 3)) != did("1.3") and did("1.3") != Named((1, 3))
        for compare in (
            lambda: did("1") < Named((2,)),
            lambda: did("1") <= Named((2,)),
            lambda: did("1") > (0,),
            lambda: did("1") >= (0,),
        ):
            with pytest.raises(TypeError):
                compare()


@pytest.mark.parametrize(
    "record, text, values",
    [
        (DomainId((1, 3)), "DomainId(path=(1, 3))", ((1, 3),)),
        (
            Domain(ROOT_DOMAIN, (1, 2), 1),
            "Domain(id=DomainId(path=(1,)), members=(1, 2), manager_host=1)",
            (ROOT_DOMAIN, (1, 2), 1),
        ),
        (
            DomainState("1", 1, (1, 2), None, ("1.1",)),
            "DomainState(id='1', manager_host=1, members=(1, 2), parent=None, "
            "children=('1.1',))",
            ("1", 1, (1, 2), None, ("1.1",)),
        ),
    ],
)
def test_domain_records_are_frozen(record, text, values):
    assert_frozen_record(record, text, values)


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
    assert [domain.members for domain in tree.domains()] == [(1,)]


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
        assert read_domain(tree, did("1")).members == (10, 13)
        assert len(tree.domain_ids()) == 4

    def test_overflow_spawns_one_child_with_lowest_id_host(self):
        tree = ManagerTree.initial_partition(range(1, 11), 3, 10)
        tree.add_node_to_domain(11, did("1.3"))
        assert read_domain(tree, did("1.3")).members == (7, 8, 9)
        clone = read_domain(tree, did("1.3.1"))
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
        assert read_domain(tree, did("1.1")).members == (4,)
        assert read_domain(tree, did("1.3")).members == (6,)

    def test_members_change_only_through_joins(self):
        # Appending to a read Domain's members once left 13 unassigned and
        # let it join the root twice.
        tree = ManagerTree.initial_partition(range(1, 11), 3, 10)
        before = read_domain(tree, ROOT_DOMAIN)
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
        assert read_domain(tree, ROOT_DOMAIN).members == (10, 13)
        # A Domain shares the members tuple of its domain's current state.
        assert read_domain(tree, ROOT_DOMAIN).members is tree.states()[0].members
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

    def test_a_domain_that_is_not_a_domain_id_is_unknown(self):
        # The tree keys its records by a DomainId's name; a str finds none.
        tree = ManagerTree.initial_partition(range(1, 9), 3, 1)
        with pytest.raises(UnknownDomain, match="^no such domain: 1$"):
            tree.add_node_to_domain(9, "1")
        with pytest.raises(UnknownDomain, match="^no such domain: 1.1$"):
            tree.parent_of("1.1")
        with pytest.raises(UnknownDomain, match="^no such domain: None$"):
            tree.children_of(None)

    def test_domain_ids_are_in_numeric_depth_first_order(self):
        # One central node plus ten one-node chunks make 1.1 to 1.10;
        # node 12 joining 1.1 splits it into 1.1.1.
        tree = ManagerTree.initial_partition(range(1, 12), 1, 11)
        tree.add_node_to_domain(12, did("1.1"))
        ids = tree.domain_ids()
        # The tree's keys are the names of its ids, in numeric order.
        keys = sorted(DomainId.parse(name).path for name in tree._managers)
        assert [d.path for d in ids] == keys
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
        (mother.id, child.id) for mother, child in parent_links(tree)
    ] == [(DomainId(d.path[:-1]), d) for d in ids if len(d.path) > 1]
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
            assert domain.id.path[:-1] == parent.path
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


def check_made_id(domain: DomainId, path: tuple[int, ...]) -> None:
    """``domain``, however it was made, is the id of ``path`` in every way."""
    text = ".".join(map(str, path))
    made = DomainId(path)
    assert domain.path == path
    assert str(domain) == text == str(made)
    assert domain == made and not (domain < made or made < domain)
    assert hash(domain) == hash(made) == hash((path,))
    assert repr(domain) == f"DomainId(path={path!r})"
    assert DomainId.__match_args__ == DomainId._fields == ("path",)
    assert domain.__reduce__() == (DomainId, (path,))  # pickled by path alone
    for twin in (
        copy.copy(domain), copy.deepcopy(domain), pickle.loads(pickle.dumps(domain))
    ):
        assert (twin.__class__, twin, str(twin)) == (DomainId, domain, text)
    with pytest.raises(AttributeError):
        domain._name = "1"


@given(st.lists(st.integers(min_value=1, max_value=10**12), min_size=1, max_size=6))
def test_an_id_parsed_or_made_from_its_path_renders_its_path(parts):
    path = tuple(parts)
    text = ".".join(map(str, parts))
    # The loader's memo: a child of a text it has read takes one step.
    memo: dict[str, DomainId] = {}
    if len(path) > 1:
        _parse_domain_id(text.rpartition(".")[0], memo)
    for domain in (
        DomainId(path), DomainId.parse(text), _parse_domain_id(text, {}),
        _parse_domain_id(text, memo),
    ):
        check_made_id(domain, path)


@given(growth_runs())
def test_an_id_the_tree_makes_renders_its_path(case):
    tree = replay(*case)
    ids = tree.domain_ids()
    for domain in ids:
        check_made_id(domain, domain.path)
    # A state's names are its records' names, which its ids render.
    assert [state.id for state in tree.states()] == list(map(str, ids))


def test_an_id_a_file_names_renders_its_path():
    domains = [
        event.domain for event in load_bundled_scenario("growth19").events
        if isinstance(event, AddNode)
    ]
    assert domains
    for domain in domains:
        check_made_id(domain, domain.path)


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
def test_a_join_rebuilds_only_the_states_it_changes(case):
    # An append changes its domain's state; a split, its domain's and the
    # new child's. Every other domain keeps its state object.
    m_max, initial, central, choices = case
    tree = ManagerTree.initial_partition(range(1, initial + 1), m_max, central)
    for node, choice in enumerate(choices, start=initial + 1):
        before = {state.id: state for state in tree.states()}
        targets = tree.domain_ids()
        target = targets[choice % len(targets)]
        tree.add_node_to_domain(node, target)
        changed = {str(target), str(tree.domain_of(node))}
        for state in tree.states():
            if state.id in changed:
                assert before.get(state.id) is not state
            else:
                assert before[state.id] is state


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
        assert len(tree.domain_ids()) - len(before) == len(added) <= 1
        if added:
            (clone,) = added
            assert tree.parent_of(clone) == target
            assert read_domain(tree, clone).manager_host == node
            assert read_domain(tree, clone).members == (node,)
        else:
            assert read_domain(tree, target).members[-1] == node
        owners[node] = tree.domain_of(node)
        assert all(tree.domain_of(n) == domain for n, domain in owners.items())


@given(growth_runs(), st.integers(min_value=0, max_value=99))
def test_the_count_only_replay_matches_the_tree(case, stray):
    # Join number ``stray``, if there is one, names the next child its
    # target has yet to make: a domain that does not exist at that join.
    m_max, initial, central, choices = case
    tree = ManagerTree.initial_partition(range(1, initial + 1), m_max, central)
    joins, rejected = [], None
    for node, choice in enumerate(choices, start=initial + 1):
        targets = tree.domain_ids()
        target = targets[choice % len(targets)]
        if len(joins) == stray:
            target = DomainId(target.path + (len(tree.children_of(target)) + 1,))
        joins.append(target)
        try:
            tree.add_node_to_domain(node, target)
        except UnknownDomain:
            rejected = len(joins) - 1
            break
    shape, replayed = ManagerTree._replay_shape(initial, m_max, joins)
    assert replayed == (len(joins) if rejected is None else rejected)
    assert shape == {
        state.id: [len(state.members), len(state.children)] for state in tree.states()
    }


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
    assert [len(domain.members) for domain in tree.domains()] == [10_000]
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
        deepest = DomainId(deepest.path + (1,))
        names.append(names[-1] + ".1")
    assert len(tree.domains()) == 2002
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
