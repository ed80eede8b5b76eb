"""Cost formulas: worked values, oracles, and scaling properties."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from netmansim import (
    CostBreakdown,
    CostParams,
    ItineraryTooShort,
    ManagerTree,
    NetmanError,
    Network,
    ROOT_DOMAIN,
    cost_centralized,
    cost_centralized_polled,
    cost_flatbed,
    cost_flatbed_polled,
    cost_imasnm_deploy,
    cost_imasnm_poll,
    cost_imasnm_total,
)
from conftest import assert_frozen_record, parent_links, replace
from netmansim.hierarchy import DomainId


def params(**overrides) -> CostParams:
    base = dict(
        s_req=0, s_res=0, num_vars=1, s_ma=0, d=0, ma_size=0, mda_size=0, ma_res=0
    )
    base.update(overrides)
    return CostParams(**base)


class TestCostParams:
    def test_decimal_strings_stay_exact(self):
        p = params(mda_size="3276.8", ma_size="4014.08")
        assert p.mda_size == Fraction(32768, 10)
        assert p.ma_size == Fraction(401408, 100)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            params(s_req=-1)

    def test_num_vars_must_be_a_positive_int(self):
        with pytest.raises(ValueError):
            params(num_vars=0)
        with pytest.raises(ValueError):
            params(num_vars=2.5)

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError):
            params(d=object())

    def test_is_a_frozen_record(self):
        sizes = [Fraction(n) for n in (1, 2, 4, 5, 6, 7, 8)]
        values = (*sizes[:2], 3, *sizes[2:])
        text = (
            "CostParams(s_req=Fraction(1, 1), s_res=Fraction(2, 1), num_vars=3, "
            "s_ma=Fraction(4, 1), d=Fraction(5, 1), ma_size=Fraction(6, 1), "
            "mda_size=Fraction(7, 1), ma_res=Fraction(8, 1))"
        )
        assert_frozen_record(CostParams(1, 2, 3, 4, 5, 6, 7, 8), text, values)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                dict(s_res=-1, ma_res="x", num_vars=0),
                "s_res must be non-negative, got -1",
            ),
            (dict(d=-2, s_ma="?"), "s_ma must be a number, got '?'"),
            (dict(ma_res="x", num_vars=0), "ma_res must be a number, got 'x'"),
            (dict(num_vars=0), "num_vars must be at least 1, got 0"),
        ],
    )
    def test_the_first_bad_field_is_reported(self, overrides, message):
        # Sizes in field order, skipping num_vars, which is checked last.
        with pytest.raises(ValueError) as info:
            params(**overrides)
        assert str(info.value) == message


def test_cost_breakdown_is_a_frozen_record():
    breakdown = CostBreakdown(Fraction(5), Fraction(2), 3, True)
    text = (
        "CostBreakdown(deploy=Fraction(5, 1), per_poll=Fraction(2, 1), polls=3, "
        "include_deploy=True)"
    )
    assert_frozen_record(breakdown, text, (Fraction(5), Fraction(2), 3, True))
    assert breakdown.total == 11


class TestCentralized:
    def test_single_target_single_variable(self):
        net = Network(nodes=[1, 2], links=[(1, 2, 1)])
        assert cost_centralized(net, 1, [2], params(s_req=83, s_res=84)) == 167

    def test_empty_target_list_costs_nothing(self):
        net = Network(nodes=[1])
        assert cost_centralized(net, 1, [], params(s_req=83, s_res=84)) == 0

    def test_manager_among_targets_contributes_zero(self):
        net = Network(nodes=[1, 2], links=[(1, 2, 1)])
        p = params(s_req=83, s_res=84)
        assert cost_centralized(net, 1, [1, 2], p) == cost_centralized(net, 1, [2], p)

    def test_scales_linearly_with_num_vars(self):
        net = Network(nodes=[1, 2, 3], links=[(1, 2, 1), (1, 3, 4)])
        single = cost_centralized(net, 1, [2, 3], params(s_req=83, s_res=84))
        fived = cost_centralized(
            net, 1, [2, 3], params(s_req=83, s_res=84, num_vars=5)
        )
        assert fived == 5 * single

    def test_polled_multiplies_and_validates(self):
        net = Network(nodes=[1, 2], links=[(1, 2, 1)])
        p = params(s_req=83, s_res=84)
        assert cost_centralized_polled(net, 1, [2], p, 0) == 0
        assert cost_centralized_polled(net, 1, [2], p, 20) == 20 * 167
        with pytest.raises(ValueError):
            cost_centralized_polled(net, 1, [2], p, -1)


class TestFlatbed:
    def test_two_stop_round_trip(self):
        net = Network(nodes=[1, 2], links=[(1, 2, 1)])
        assert cost_flatbed(net, [1, 2], params(s_ma=100, d=10)) == 210

    def test_zero_payload_costs_code_size_per_hop(self):
        net = Network(nodes=[1, 2, 3], links=[(1, 2, 1), (2, 3, 1), (3, 1, 1)])
        assert cost_flatbed(net, [1, 2, 3], params(s_ma=100)) == 300

    def test_growing_payload_weights_later_hops(self):
        net = Network(nodes=[1, 2, 3], links=[(1, 2, 1), (2, 3, 2), (3, 1, 1)])
        assert cost_flatbed(net, [1, 2, 3], params(s_ma=10, d=5)) == 60

    def test_itinerary_must_have_two_stops(self):
        net = Network(nodes=[1])
        with pytest.raises(ItineraryTooShort):
            cost_flatbed(net, [1], params())
        with pytest.raises(ItineraryTooShort):
            cost_flatbed(net, [], params())

    def test_polled(self):
        net = Network(nodes=[1, 2], links=[(1, 2, 1)])
        p = params(s_ma=100, d=10)
        assert cost_flatbed_polled(net, [1, 2], p, 3) == 630
        assert cost_flatbed_polled(net, [1, 2], p, 1) == cost_flatbed(net, [1, 2], p)
        assert cost_flatbed_polled(net, [1, 2], p, 0) == 0


def small_hierarchy() -> tuple[Network, ManagerTree]:
    # root {1,2} hosting 1, one child {3,4} hosting 3, joined 1 -5- 3
    net = Network(nodes=[1, 2, 3, 4], links=[(1, 2, 1), (1, 3, 5), (3, 4, 1)])
    tree = ManagerTree.initial_partition([1, 2], 2, 1)
    tree.add_node_to_domain(3, ROOT_DOMAIN)
    tree.add_node_to_domain(4, ROOT_DOMAIN.child(1))
    assert [d.members for d in tree.domains()] == [(1, 2), (3, 4)]
    return net, tree


class TestImasnmDeploy:
    def test_childless_tree_deploys_nothing(self):
        net = Network(nodes=[1, 2])
        tree = ManagerTree.initial_partition([1, 2], 3, 1)
        assert cost_imasnm_deploy(net, tree, params(ma_size=10)) == 0

    def test_two_edges_hand_sum(self):
        # edges 1->2 (F=2) and 1->4 (F=1) with ma_size=10 cost 30
        net = Network(
            nodes=[1, 2, 3, 4, 5, 6],
            links=[(1, 2, 2), (1, 4, 1)],
        )
        tree = ManagerTree.initial_partition([1, 2, 3, 4, 5, 6], 2, 1)
        table = {str(d.id): d.manager_host for d in tree.domains()}
        assert table == {"1": 1, "1.1": 2, "1.2": 4}
        assert cost_imasnm_deploy(net, tree, params(ma_size=10)) == 30

    def test_reference_scenario_deployment(self, reference18_state, reference18_scenario):
        value = cost_imasnm_deploy(
            reference18_state.network, reference18_state.tree, reference18_scenario.params
        )
        assert value == 100352


class TestImasnmPoll:
    def test_single_root_domain_reduces_to_one_sweep(self):
        net = Network(nodes=[1, 2, 3])
        tree = ManagerTree.initial_partition([1, 2, 3], 3, 1)
        assert cost_imasnm_poll(net, tree, params(mda_size=100)) == 300

    def test_root_plus_child_hand_sum(self):
        net, tree = small_hierarchy()
        value = cost_imasnm_poll(net, tree, params(ma_res=10, mda_size=50))
        assert value == 50 + 100 + 100

    def test_domain_k_scales_one_domain_only(self):
        net, tree = small_hierarchy()
        p = params(mda_size=50)
        doubled = cost_imasnm_poll(net, tree, p, domain_k={"1.1": 2})
        assert doubled == 100 + 200
        unknown = cost_imasnm_poll(net, tree, p, domain_k={"1.9": 3})
        assert unknown == cost_imasnm_poll(net, tree, p)

    def test_decimal_sweep_stays_exact(self):
        # one domain of 3 members at mda_size 3.2 KiB: 3 * 3276.8 bytes
        net = Network(nodes=[1, 2, 3])
        tree = ManagerTree.initial_partition([1, 2, 3], 3, 1)
        value = cost_imasnm_poll(net, tree, params(mda_size="3276.8"))
        assert value == Fraction("9830.4")

    @pytest.mark.parametrize("bad", [-1, "x"])
    def test_bad_domain_k_is_rejected_by_name(self, bad):
        net, tree = small_hierarchy()
        with pytest.raises(ValueError, match=r"domain_k\['1\.1'\]"):
            cost_imasnm_poll(net, tree, params(), domain_k={"1.1": bad})

    def test_reference_scenario_poll(self, reference18_state, reference18_scenario):
        value = cost_imasnm_poll(
            reference18_state.network,
            reference18_state.tree,
            reference18_scenario.params,
            reference18_scenario.domain_k,
        )
        assert value == Fraction("73557.4")


class TestImasnmTotal:
    def test_reference_twenty_polls_excluding_deploy(
        self, reference18_state, reference18_scenario
    ):
        breakdown = cost_imasnm_total(
            reference18_state.network,
            reference18_state.tree,
            reference18_scenario.params,
            20,
            include_deploy=False,
        )
        assert breakdown.total == 1471148
        assert breakdown.per_poll == Fraction("73557.4")
        assert breakdown.deploy == 100352

    def test_zero_polls_including_deploy_is_deploy_only(
        self, reference18_state, reference18_scenario
    ):
        breakdown = cost_imasnm_total(
            reference18_state.network,
            reference18_state.tree,
            reference18_scenario.params,
            0,
            include_deploy=True,
        )
        assert breakdown.total == 100352

    def test_one_poll_including_deploy(self, reference18_state, reference18_scenario):
        breakdown = cost_imasnm_total(
            reference18_state.network,
            reference18_state.tree,
            reference18_scenario.params,
            1,
            include_deploy=True,
        )
        assert breakdown.total == Fraction("173909.4")

    def test_negative_polls_rejected(self, reference18_state, reference18_scenario):
        with pytest.raises(ValueError):
            cost_imasnm_total(
                reference18_state.network,
                reference18_state.tree,
                reference18_scenario.params,
                -1,
                include_deploy=False,
            )


# -- property checks ---------------------------------------------------------


def walk_itinerary(net: Network, stops, p: CostParams) -> Fraction:
    """Brute-force accumulator: carry the agent hop by hop."""
    total = Fraction(0)
    carried = p.s_ma
    visited = 0
    for here, there in zip(stops, stops[1:]):
        total += net.path_cost(here, there) * carried
        visited += 1
        carried = p.s_ma + visited * p.d
    total += net.path_cost(stops[-1], stops[0]) * carried
    return total


coeffs = st.fractions(min_value=0, max_value=20, max_denominator=16)
sizes = st.fractions(min_value=0, max_value=5000, max_denominator=32)


@st.composite
def ring_itineraries(draw):
    length = draw(st.integers(min_value=2, max_value=10))
    nodes = list(range(1, length + 1))
    links = []
    for a in nodes:
        for b in nodes:
            if a < b:
                links.append((a, b, draw(coeffs)))
    net = Network(nodes=nodes, links=links)
    stops = draw(st.permutations(nodes))
    p = params(s_ma=draw(sizes), d=draw(sizes))
    return net, stops, p


@given(ring_itineraries())
def test_flatbed_closed_form_equals_accumulator(case):
    net, stops, p = case
    assert cost_flatbed(net, stops, p) == walk_itinerary(net, stops, p)


@given(ring_itineraries(), st.integers(min_value=0, max_value=1000))
def test_flatbed_polling_is_linear(case, p_count):
    net, stops, p = case
    assert cost_flatbed_polled(net, stops, p, p_count) == p_count * cost_flatbed(
        net, stops, p
    )


@given(st.integers(min_value=0, max_value=1000))
def test_imasnm_polling_is_linear(p_count):
    net, tree = small_hierarchy()
    breakdown = cost_imasnm_total(
        net,
        tree,
        params(ma_res=5, mda_size="3276.8", ma_size=7),
        p_count,
        include_deploy=False,
    )
    assert breakdown.total == p_count * breakdown.per_poll


@given(
    st.sampled_from(
        ["s_req", "s_res", "num_vars", "s_ma", "d", "ma_size", "mda_size", "ma_res"]
    ),
    st.integers(min_value=1, max_value=1000),
)
def test_increasing_any_parameter_never_lowers_any_cost(field, bump):
    net, tree = small_hierarchy()
    base = CostParams(
        s_req=83, s_res=84, num_vars=2, s_ma=7, d=3, ma_size=11, mda_size=13, ma_res=5
    )
    raised = replace(base, **{field: getattr(base, field) + bump})
    targets = sorted(net.nodes)
    stops = [1, 2, 3, 4]
    assert cost_centralized(net, 1, targets, raised) >= cost_centralized(
        net, 1, targets, base
    )
    assert cost_flatbed(net, stops, raised) >= cost_flatbed(net, stops, base)
    assert cost_imasnm_deploy(net, tree, raised) >= cost_imasnm_deploy(
        net, tree, base
    )
    assert cost_imasnm_poll(net, tree, raised) >= cost_imasnm_poll(net, tree, base)


def test_singleton_domains_cost_only_their_sweeps():
    # hierarchy of one-member domains: poll cost is mda * k per domain,
    # plus the report edges
    net = Network(nodes=[1, 2], links=[(1, 2, 1)])
    tree = ManagerTree.initial_partition([1, 2], 1, 1)
    assert [d.members for d in tree.domains()] == [(1,), (2,)]
    p = params(mda_size=100)
    assert cost_imasnm_poll(net, tree, p) == 200
    with_reports = params(mda_size=100, ma_res=7)
    assert cost_imasnm_poll(net, tree, with_reports) == 207


# -- the integer-sum kernel against the per-term formulas it replaced ---------


def _reference_centralized(net, mgr, targets, p: CostParams) -> Fraction:
    """``cost_centralized`` as a ``Fraction`` sum, one add per target."""
    pair = (p.s_req + p.s_res) * p.num_vars
    return pair * sum((net.path_cost(mgr, target) for target in targets), Fraction(0))


def _reference_flatbed(net, stops, p: CostParams) -> Fraction:
    """``cost_flatbed`` as one ``Fraction`` multiply-and-add per hop."""
    total = Fraction(0)
    for hop, (here, there) in enumerate(zip(stops, stops[1:])):
        total += net.path_cost(here, there) * (p.s_ma + hop * p.d)
    visited = len(stops) - 1
    total += net.path_cost(stops[-1], stops[0]) * (p.s_ma + visited * p.d)
    return total


def _reference_imasnm_deploy(net, tree, p: CostParams) -> Fraction:
    """``cost_imasnm_deploy`` as one ``Fraction`` product per parent link."""
    return sum(
        (
            net.path_cost(mother.manager_host, child.manager_host) * p.ma_size
            for mother, child in parent_links(tree)
        ),
        Fraction(0),
    )


def _reference_imasnm_poll(net, tree, p: CostParams, domain_k=None) -> Fraction:
    """``cost_imasnm_poll`` as per-link reports plus per-domain sweeps."""
    reports = sum(
        (
            net.path_cost(mother.manager_host, child.manager_host) * p.ma_res
            for mother, child in parent_links(tree)
        ),
        Fraction(0),
    )
    sweeps = sum(
        (
            p.mda_size
            * len(domain.members)
            * Fraction((domain_k or {}).get(str(domain.id), 1))
            for domain in tree.domains()
        ),
        Fraction(0),
    )
    return reports + sweeps


# Denominators 1, 3, 7, 8 and 10 mixed in one network, zero costs included.
_MIXED = st.one_of(
    st.sampled_from([0, 1, 2, Fraction(1, 3), Fraction(5, 7), Fraction(3, 8), "0.1"]),
    st.fractions(min_value=0, max_value=10, max_denominator=10),
)


@st.composite
def priced_states(draw):
    size = draw(st.integers(min_value=2, max_value=14))
    nodes = list(range(1, size + 1))
    links = {}
    if draw(st.booleans()):
        # A chain through every node: most cases then price to the end.
        links.update({(n, n + 1): draw(_MIXED) for n in nodes[:-1]})
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
        lambda ab: ab[0] < ab[1]
    )
    for key in draw(st.lists(pair, unique=True, max_size=size)):
        links.setdefault(key, draw(_MIXED))
    overrides = draw(st.dictionaries(pair, _MIXED, max_size=4))
    net = Network(
        nodes=nodes,
        links=[(a, b, cost) for (a, b), cost in links.items()],
        k_override=overrides,
    )
    initial = draw(st.integers(min_value=1, max_value=size))
    tree = ManagerTree.initial_partition(
        nodes[:initial],
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.sampled_from(nodes[:initial])),
    )
    for node in nodes[initial:]:
        tree.add_node_to_domain(node, draw(st.sampled_from(tree.domain_ids())))
    names = [str(d) for d in tree.domain_ids()]
    domain_k = draw(
        st.none() | st.dictionaries(st.sampled_from(names + ["1.99"]), _MIXED)
    )
    stops = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=12))
    p = CostParams(
        s_req=draw(sizes),
        s_res=draw(sizes),
        num_vars=draw(st.integers(min_value=1, max_value=5)),
        s_ma=draw(sizes),
        d=draw(sizes),
        ma_size=draw(sizes),
        mda_size=draw(sizes),
        ma_res=draw(sizes),
    )
    return net, tree, domain_k, stops, p


def _outcome(compute):
    try:
        value = compute()
    except NetmanError as exc:
        return type(exc), str(exc)
    assert type(value) is Fraction
    return value


@given(priced_states())
def test_cost_kernel_equals_the_per_term_reference(case):
    net, tree, domain_k, stops, p = case
    mgr, targets = stops[0], sorted(net.nodes)
    pairs = [
        (
            lambda: cost_centralized(net, mgr, targets, p),
            lambda: _reference_centralized(net, mgr, targets, p),
        ),
        (
            lambda: cost_flatbed(net, stops, p),
            lambda: _reference_flatbed(net, stops, p),
        ),
        (
            lambda: cost_imasnm_deploy(net, tree, p),
            lambda: _reference_imasnm_deploy(net, tree, p),
        ),
        (
            lambda: cost_imasnm_poll(net, tree, p, domain_k),
            lambda: _reference_imasnm_poll(net, tree, p, domain_k),
        ),
    ]
    for kernel, reference in pairs:
        assert _outcome(kernel) == _outcome(reference)
