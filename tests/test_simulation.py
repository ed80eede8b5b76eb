"""Scenario loading, event application, and the run engine."""

from __future__ import annotations

import io
import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from netmansim import (
    AddNode,
    DomainId,
    ManagerTree,
    Network,
    ParseError,
    SelfLink,
    SimulationState,
    Snapshot,
    UnknownDomain,
    ValidationError,
    apply_event,
    bundled_scenario_names,
    load_bundled_scenario,
    load_scenario,
    load_scenario_file,
    run,
)
import netmansim.simulation as simulation
from conftest import build_state

MINIMAL = {
    "name": "tiny",
    "nodes": [1],
    "links": [],
    "central": 1,
    "m_max": 3,
    "params": {
        "s_req": 0,
        "s_res": 0,
        "num_vars": 1,
        "s_ma": 0,
        "d": 0,
        "ma_size": 0,
        "mda_size": 0,
        "ma_res": 0,
    },
    "events": [],
    "polling_counts": [],
    "models": [],
}


def scenario_text(**overrides) -> str:
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


def rejects(text: str, path: str) -> None:
    with pytest.raises(ValidationError) as info:
        load_scenario(text)
    assert info.value.path == path


class TestLoadScenario:
    def test_accepts_text_bytes_and_streams(self):
        text = scenario_text()
        for source in (
            text,
            text.encode("utf-8"),
            io.StringIO(text),
            io.BytesIO(text.encode("utf-8")),
        ):
            assert load_scenario(source).name == "tiny"

    def test_malformed_json_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario("{not json")
        with pytest.raises(ParseError):
            load_scenario(b"\xff\xfe\x00")

    def test_json_nested_past_the_recursion_limit_is_a_parse_error(self):
        deep = "[" * 100_000 + "]" * 100_000
        with pytest.raises(ParseError, match="nested too deeply"):
            load_scenario(deep)
        notes = '{"notes": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(ParseError, match="nested too deeply"):
            load_scenario(notes.encode())

    def test_non_finite_numbers_are_a_parse_error(self):
        with pytest.raises(ParseError):
            load_scenario(scenario_text().replace("3", "NaN", 1))

    def test_top_level_must_be_an_object(self):
        rejects("[1, 2]", "")

    def test_unknown_and_missing_keys(self):
        rejects(scenario_text(bogus=1), "bogus")
        doc = json.loads(scenario_text())
        del doc["central"]
        rejects(json.dumps(doc), "central")

    def test_decimal_literals_load_exactly(self):
        doc = json.loads(scenario_text())
        doc["params"]["mda_size"] = 3276.8
        scenario = load_scenario(json.dumps(doc))
        assert scenario.params.mda_size == Fraction(32768, 10)

    def test_node_list_validation(self):
        rejects(scenario_text(nodes=[]), "nodes")
        rejects(scenario_text(nodes=[1, 1]), "nodes[1]")
        rejects(scenario_text(nodes=[0]), "nodes[0]")
        rejects(scenario_text(nodes=[True]), "nodes[0]")
        rejects(scenario_text(nodes="1"), "nodes")

    def test_link_validation(self):
        base = dict(nodes=[1, 2])
        rejects(scenario_text(**base, links=[[1, 2]]), "links[0]")
        rejects(scenario_text(**base, links=[[1, 9, 1]]), "links[0][1]")
        rejects(scenario_text(**base, links=[[1, 1, 1]]), "links[0]")
        rejects(scenario_text(**base, links=[[1, 2, -1]]), "links[0][2]")
        rejects(
            scenario_text(**base, links=[[1, 2, 1], [2, 1, 2]]), "links[1]"
        )

    def test_central_and_m_max(self):
        rejects(scenario_text(central=9), "central")
        rejects(scenario_text(m_max=0), "m_max")
        rejects(scenario_text(m_max="3"), "m_max")

    def test_params_validation(self):
        doc = json.loads(scenario_text())
        doc["params"]["extra"] = 1
        rejects(json.dumps(doc), "params.extra")
        doc = json.loads(scenario_text())
        del doc["params"]["d"]
        rejects(json.dumps(doc), "params.d")
        doc = json.loads(scenario_text())
        doc["params"]["num_vars"] = 0
        rejects(json.dumps(doc), "params.num_vars")
        doc["params"]["num_vars"] = 2.0
        rejects(json.dumps(doc), "params.num_vars")

    def test_event_validation(self):
        rejects(scenario_text(events=[{}]), "events[0]")
        rejects(
            scenario_text(events=[{"add_node": {"node": 2, "domain": "1"}, "snapshot": "x"}]),
            "events[0]",
        )
        rejects(scenario_text(events=[{"poll": 1}]), "events[0].poll")
        rejects(
            scenario_text(events=[{"add_node": {"node": 1, "domain": "1"}}]),
            "events[0].add_node.node",
        )
        rejects(
            scenario_text(events=[{"add_node": {"node": 2, "domain": "1..2"}}]),
            "events[0].add_node.domain",
        )
        rejects(
            scenario_text(events=[{"add_node": {"node": 2, "domain": "1", "links": [[9, 1]]}}]),
            "events[0].add_node.links[0][0]",
        )
        rejects(
            scenario_text(events=[{"add_node": {"node": 2, "domain": "1", "links": [[2, 1]]}}]),
            "events[0].add_node.links[0][0]",
        )
        rejects(
            scenario_text(
                events=[{"add_node": {"node": 2, "domain": "1", "links": [[1, 1], [1, 2]]}}]
            ),
            "events[0].add_node.links[1][0]",
        )
        rejects(
            scenario_text(events=[{"snapshot": "a"}, {"snapshot": "a"}]),
            "events[1].snapshot",
        )
        # a later event may link to an earlier event's node
        text = scenario_text(
            events=[
                {"add_node": {"node": 2, "domain": "1"}},
                {"add_node": {"node": 3, "domain": "1", "links": [[2, 1]]}},
            ]
        )
        scenario = load_scenario(text)
        assert scenario.events[1].links == ((2, Fraction(1)),)

    def test_k_override_validation(self):
        rejects(scenario_text(k_override=[[1, 9, 1]]), "k_override[0][1]")
        rejects(scenario_text(k_override=[[1, 1, 2]]), "k_override[0]")
        rejects(
            scenario_text(nodes=[1, 2], k_override=[[1, 2, 1], [2, 1, 1]]),
            "k_override[1]",
        )
        text = scenario_text(
            events=[{"add_node": {"node": 5, "domain": "1"}}],
            k_override=[[1, 5, 3]],
        )
        assert load_scenario(text).k_override == ((1, 5, Fraction(3)),)

    def test_domain_k_validation(self):
        rejects(scenario_text(domain_k={"x": 1}), "domain_k.x")
        rejects(scenario_text(domain_k={"1.1": -1}), "domain_k.1.1")
        assert load_scenario(scenario_text(domain_k={"1.1": 2})).domain_k == {
            "1.1": Fraction(2)
        }

    def test_polling_and_model_validation(self):
        rejects(scenario_text(polling_counts=[-1]), "polling_counts[0]")
        rejects(scenario_text(polling_counts=[1.5]), "polling_counts[0]")
        rejects(scenario_text(models=["snmp"]), "models[0]")
        rejects(scenario_text(models=["cs", "cs"]), "models[1]")

    def test_flatbed_itinerary_validation(self):
        base = dict(nodes=[1, 2, 3], central=2)
        rejects(scenario_text(**base, flatbed_itinerary=[]), "flatbed_itinerary")
        rejects(
            scenario_text(**base, flatbed_itinerary=[1, 2]),
            "flatbed_itinerary[0]",
        )
        rejects(
            scenario_text(**base, flatbed_itinerary=[2, 9]),
            "flatbed_itinerary[1]",
        )
        rejects(
            scenario_text(**base, flatbed_itinerary=[2, 1, 1]),
            "flatbed_itinerary[2]",
        )
        ok = load_scenario(scenario_text(**base, flatbed_itinerary=[2, 3, 1]))
        assert ok.flatbed_itinerary == (2, 3, 1)

    def test_notes_accept_string_or_list(self):
        assert load_scenario(scenario_text(notes="hand-built")).notes == "hand-built"
        assert load_scenario(scenario_text(notes=["a", "b"])).notes == "a\nb"
        rejects(scenario_text(notes=7), "notes")

    def test_load_scenario_file(self, tmp_path):
        target = tmp_path / "t.scenario.json"
        target.write_text(scenario_text())
        assert load_scenario_file(target).name == "tiny"



def entry_doc(array: str, entries: list) -> dict:
    """A scenario over nodes 1 and 2 whose ``array`` holds ``entries``."""
    if array == "add_node.links":
        join = {"node": 3, "domain": "1", "links": entries}
        return {"nodes": [1, 2], "events": [{"add_node": join}]}
    return {"nodes": [1, 2], array: entries}


EVENT = "events[0].add_node.links"

# Exact (path, message) of the error each malformed entry raises.
ENTRY_ERRORS = [
    ("links", [5], "links[0]", "expected an array, got int"),
    ("links", [[1, 2]], "links[0]", "expected [a, b, coeff], got 2 items"),
    ("links", [[1, 2, 1, 1]], "links[0]", "expected [a, b, coeff], got 4 items"),
    ("links", [[True, 2, 1]], "links[0][0]", "expected an integer, got True"),
    ("links", [[1, 0, 1]], "links[0][1]", "must be at least 1, got 0"),
    ("links", [["1", 2, 1]], "links[0][0]", "expected an integer, got '1'"),
    ("links", [[1, 2, True]], "links[0][2]", "expected a number, got True"),
    ("links", [[1, 2, "1"]], "links[0][2]", "expected a number, got '1'"),
    ("links", [[1, 2, -1]], "links[0][2]", "must be non-negative, got -1"),
    ("links", [[1, 2, -0.5]], "links[0][2]", "must be non-negative, got -0.5"),
    ("links", [[1, 9, 1]], "links[0][1]", "unknown node 9"),
    ("links", [[9, 1, 1]], "links[0][0]", "unknown node 9"),
    ("links", [[1, 1, 1]], "links[0]", "link joins node 1 to itself"),
    ("links", [[1, 2, 1], [2, 1, 1]], "links[1]", "duplicate link 1-2"),
    ("links", [[1, 2, 1], [2, 2, 1]], "links[1]", "link joins node 2 to itself"),
    ("links", [[1, 2, 1], [2, 9, 1]], "links[1][1]", "unknown node 9"),
    ("links", [[9, 1, -1]], "links[0][2]", "must be non-negative, got -1"),
    ("links", [[1, "x", "y"]], "links[0][1]", "expected an integer, got 'x'"),
    ("k_override", [5], "k_override[0]", "expected an array, got int"),
    ("k_override", [[1, 2]], "k_override[0]", "expected [i, j, cost], got 2 items"),
    ("k_override", [[True, 2, 1]], "k_override[0][0]", "expected an integer, got True"),
    ("k_override", [[1, 0, 1]], "k_override[0][1]", "must be at least 1, got 0"),
    ("k_override", [["1", 2, 1]], "k_override[0][0]", "expected an integer, got '1'"),
    ("k_override", [[1, 2, True]], "k_override[0][2]", "expected a number, got True"),
    ("k_override", [[1, 2, "1"]], "k_override[0][2]", "expected a number, got '1'"),
    ("k_override", [[1, 2, -1]], "k_override[0][2]", "must be non-negative, got -1"),
    ("k_override", [[1, 2, -0.5]], "k_override[0][2]",
     "must be non-negative, got -0.5"),
    ("k_override", [[1, 9, 1]], "k_override[0][1]", "unknown node 9"),
    ("k_override", [[9, 1, 1]], "k_override[0][0]", "unknown node 9"),
    ("k_override", [[1, 1, 1]], "k_override[0]", "a node's cost to itself must be 0"),
    ("k_override", [[1, 2, 1], [2, 1, 1]], "k_override[1]", "duplicate pair 1-2"),
    ("k_override", [[1, 2, 1], [2, 2, 1]], "k_override[1]",
     "a node's cost to itself must be 0"),
    ("k_override", [[9, 1, -1]], "k_override[0][2]", "must be non-negative, got -1"),
    ("add_node.links", [5], f"{EVENT}[0]", "expected an array, got int"),
    ("add_node.links", [[1, 1, 1]], f"{EVENT}[0]",
     "expected [peer, coeff], got 3 items"),
    ("add_node.links", [[True, 1]], f"{EVENT}[0][0]", "expected an integer, got True"),
    ("add_node.links", [[0, 1]], f"{EVENT}[0][0]", "must be at least 1, got 0"),
    ("add_node.links", [["1", 1]], f"{EVENT}[0][0]", "expected an integer, got '1'"),
    ("add_node.links", [[1, True]], f"{EVENT}[0][1]", "expected a number, got True"),
    ("add_node.links", [[1, "1"]], f"{EVENT}[0][1]", "expected a number, got '1'"),
    ("add_node.links", [[1, -1]], f"{EVENT}[0][1]", "must be non-negative, got -1"),
    ("add_node.links", [[1, -0.5]], f"{EVENT}[0][1]", "must be non-negative, got -0.5"),
    ("add_node.links", [[9, 1]], f"{EVENT}[0][0]", "unknown node 9"),
    ("add_node.links", [[3, 1]], f"{EVENT}[0][0]", "peer is the node itself"),
    ("add_node.links", [[1, 1], [1, 2]], f"{EVENT}[1][0]", "duplicate peer 1"),
    ("add_node.links", [[9, -1]], f"{EVENT}[0][1]", "must be non-negative, got -1"),
]


@pytest.mark.parametrize("array, entries, path, message", ENTRY_ERRORS)
def test_entry_errors_are_exact(array, entries, path, message):
    with pytest.raises(ValidationError) as info:
        load_scenario(scenario_text(**entry_doc(array, entries)))
    assert (info.value.path, info.value.message) == (path, message)


def params(**changes) -> dict:
    """MINIMAL's params with ``changes`` applied; a None value deletes the key."""
    merged = dict(MINIMAL["params"], **changes)
    return {key: value for key, value in merged.items() if value is not None}


# A number literal in each place the loader reads one, and its JSON path.
LITERAL_PLACES = [
    (dict(params=params(s_req="@")), "params.s_req"),
    (entry_doc("links", [[1, 2, "@"]]), "links[0][2]"),
    (entry_doc("k_override", [[1, 2, "@"]]), "k_override[0][2]"),
]
PLACE_IDS = [path for _, path in LITERAL_PLACES]


@pytest.mark.parametrize(
    "literal", ["1e5000", "1e-5000", "1." + "0" * 5000], ids=["big", "small", "long"]
)
@pytest.mark.parametrize("doc, path", LITERAL_PLACES, ids=PLACE_IDS)
def test_literals_past_the_digit_limit_are_rejected(doc, path, literal):
    # 1e5000 would be a 5001-digit integer, and 1e-5000 its reciprocal.
    text = scenario_text(**doc).replace('"@"', literal)
    with pytest.raises(ValidationError, match="counting its exponent") as info:
        load_scenario(text)
    assert info.value.path == path


@pytest.mark.parametrize("doc", [doc for doc, _ in LITERAL_PLACES], ids=PLACE_IDS)
def test_literals_within_the_digit_limit_load_exactly(doc):
    text = scenario_text(**doc)
    spelt_out = {"1e3000": "1" + "0" * 3000, "1e-3000": "0." + "0" * 2999 + "1"}
    for short, long in spelt_out.items():
        assert load_scenario(text.replace('"@"', short)) == load_scenario(
            text.replace('"@"', long)
        )


def test_a_digit_limit_of_zero_means_no_limit(monkeypatch):
    monkeypatch.setattr(simulation.sys, "get_int_max_str_digits", lambda: 0)
    doc, _ = LITERAL_PLACES[0]
    scenario = load_scenario(scenario_text(**doc).replace('"@"', "1e5000"))
    assert scenario.params.s_req == 10**5000


ITINERARY = dict(nodes=[1, 2, 3], central=2)

# Exact (path, message) of the error each malformed top-level field raises.
FIELD_ERRORS = [
    (dict(name=""), "name", "must not be empty"),
    (dict(nodes="1"), "nodes", "expected an array, got str"),
    (dict(nodes=[]), "nodes", "must not be empty"),
    (dict(nodes=[1, 1]), "nodes[1]", "duplicate node 1"),
    (dict(nodes=[1, 2, 2]), "nodes[2]", "duplicate node 2"),
    (dict(nodes=[0]), "nodes[0]", "must be at least 1, got 0"),
    (dict(nodes=[True]), "nodes[0]", "expected an integer, got True"),
    (dict(nodes=[1.0]), "nodes[0]", "expected an integer, got Decimal('1.0')"),
    (dict(central=9), "central", "central node 9 is not in nodes"),
    (dict(central="1"), "central", "expected an integer, got '1'"),
    (dict(central=0), "central", "must be at least 1, got 0"),
    (dict(m_max=0), "m_max", "must be at least 1, got 0"),
    (dict(m_max="3"), "m_max", "expected an integer, got '3'"),
    (dict(m_max=2.5), "m_max", "expected an integer, got Decimal('2.5')"),
    (dict(params=[]), "params", "expected an object, got list"),
    (dict(params=params(extra=1)), "params.extra", "unknown key"),
    (dict(params=params(d=None)), "params.d", "missing required key"),
    (dict(params=params(ma_res=None)), "params.ma_res", "missing required key"),
    (dict(params=params(num_vars=0)), "params.num_vars", "must be at least 1, got 0"),
    (dict(params=params(num_vars=2.0)), "params.num_vars",
     "expected an integer, got Decimal('2.0')"),
    (dict(params=params(s_req=-1)), "params.s_req", "must be non-negative, got -1"),
    (dict(params=params(s_res=-0.5)), "params.s_res",
     "must be non-negative, got -0.5"),
    (dict(params=params(d="1")), "params.d", "expected a number, got '1'"),
    (dict(params=params(ma_size=True)), "params.ma_size", "expected a number, got True"),
    (dict(domain_k=[]), "domain_k", "expected an object, got list"),
    (dict(domain_k={"x": 1}), "domain_k.x", "malformed domain id 'x'"),
    (dict(domain_k={"1.01": 1}), "domain_k.1.01", "malformed domain id '1.01'"),
    (dict(domain_k={"1.1": -1}), "domain_k.1.1", "must be non-negative, got -1"),
    (dict(domain_k={"1.1": "2"}), "domain_k.1.1", "expected a number, got '2'"),
    (dict(domain_k={"1": True}), "domain_k.1", "expected a number, got True"),
    (dict(polling_counts="1"), "polling_counts", "expected an array, got str"),
    (dict(polling_counts=[-1]), "polling_counts[0]", "must be at least 0, got -1"),
    (dict(polling_counts=[1.5]), "polling_counts[0]",
     "expected an integer, got Decimal('1.5')"),
    (dict(polling_counts=[True]), "polling_counts[0]", "expected an integer, got True"),
    (dict(models="cs"), "models", "expected an array, got str"),
    (dict(models=["snmp"]), "models[0]",
     "unknown model 'snmp' (choose from ('cs', 'flatbed', 'imasnm'))"),
    (dict(models=["cs", "cs"]), "models[1]", "duplicate model 'cs'"),
    (dict(models=[1]), "models[0]", "expected a string, got int"),
    (dict(ITINERARY, flatbed_itinerary="2"), "flatbed_itinerary",
     "expected an array, got str"),
    (dict(ITINERARY, flatbed_itinerary=[]), "flatbed_itinerary", "must not be empty"),
    (dict(ITINERARY, flatbed_itinerary=[1, 2]), "flatbed_itinerary[0]",
     "itinerary must start at the central node 2"),
    (dict(ITINERARY, flatbed_itinerary=[2, 9]), "flatbed_itinerary[1]",
     "unknown node 9"),
    (dict(ITINERARY, flatbed_itinerary=[2, 1, 1]), "flatbed_itinerary[2]",
     "node 1 repeated"),
    (dict(ITINERARY, flatbed_itinerary=[2, True]), "flatbed_itinerary[1]",
     "expected an integer, got True"),
    (dict(ITINERARY, flatbed_itinerary=[2, 0]), "flatbed_itinerary[1]",
     "must be at least 1, got 0"),
]


@pytest.mark.parametrize("overrides, path, message", FIELD_ERRORS)
def test_field_errors_are_exact(overrides, path, message):
    with pytest.raises(ValidationError) as info:
        load_scenario(scenario_text(**overrides))
    assert (info.value.path, info.value.message) == (path, message)


def test_a_long_itinerary_loads_in_linear_time():
    # A repeat check that scans a list takes seconds on 3·10⁴ stops.
    nodes = list(range(1, 30_001))
    plain = scenario_text(nodes=nodes)
    started = time.perf_counter()
    load_scenario(plain)
    fixed = time.perf_counter() - started
    started = time.perf_counter()
    scenario = load_scenario(scenario_text(nodes=nodes, flatbed_itinerary=nodes))
    elapsed = time.perf_counter() - started
    assert scenario.flatbed_itinerary == tuple(nodes)
    assert elapsed < max(1.0, 20 * fixed)


class TestCoefficientObjects:
    """Each distinct coefficient literal becomes one Fraction, kept as is."""

    def test_equal_literals_share_one_fraction(self):
        nodes = list(range(1, 47))
        pairs = [(a, b) for a in nodes for b in nodes if a < b][:1000]
        spellings = [1, 1.0, 0.5]
        links = [[a, b, spellings[n % 3]] for n, (a, b) in enumerate(pairs)]
        scenario = load_scenario(scenario_text(nodes=nodes, links=links))
        assert len(scenario.links) == 1000
        assert len({id(coeff) for _, _, coeff in scenario.links}) <= 2
        assert {coeff for _, _, coeff in scenario.links} == {1, Fraction(1, 2)}

    def test_links_and_overrides_and_joins_share_fractions(self):
        scenario = load_scenario(
            scenario_text(
                nodes=[1, 2],
                links=[[1, 2, 2.5]],
                k_override=[[1, 3, 2.50]],
                events=[{"add_node": {"node": 3, "domain": "1", "links": [[1, 2.5]]}}],
            )
        )
        (_, _, link), (_, _, pinned) = scenario.links[0], scenario.k_override[0]
        assert link == Fraction(5, 2)
        assert pinned is link
        assert scenario.events[0].links[0][1] is link

    def test_network_keeps_the_scenarios_objects(self):
        scenario = load_scenario(
            scenario_text(
                nodes=[1, 2, 3],
                links=[[2, 1, 0.25], [2, 3, 7]],
                k_override=[[3, 1, 1.5]],
            )
        )
        network = Network(scenario.nodes, scenario.links, scenario.k_override)
        given = {(min(a, b), max(a, b)): c for a, b, c in scenario.links}
        for a, b, cost in network.links:
            assert cost is given[(a, b)]
        assert network.k_override[(1, 3)] is scenario.k_override[0][2]

    def test_negative_zero_loads_as_zero(self):
        scenario = load_scenario(
            scenario_text(
                nodes=[1, 2],
                links=[[1, 2, -0.0]],
                k_override=[[1, 1, -0.0]],
                events=[{"add_node": {"node": 3, "domain": "1", "links": [[1, -0.0]]}}],
            )
        )
        assert scenario.links[0][2] == 0
        assert scenario.k_override[0][2] == 0
        assert scenario.events[0].links[0][1] == 0
        assert run(scenario).final_domains[0].members == (1, 2, 3)

    def test_non_ascii_digit_domain_ids_are_rejected(self):
        join = {"add_node": {"node": 2, "domain": "1.١"}}
        for events, domain_k, path in (
            ([join], {}, "events[0].add_node.domain"),
            ([], {"١": 2}, "domain_k.١"),
            ([], {"²": 2}, "domain_k.²"),
        ):
            text = scenario_text(events=events, domain_k=domain_k)
            with pytest.raises(ValidationError) as info:
                load_scenario(text)
            assert info.value.path == path
            assert info.value.message.startswith("malformed domain id")


class TestBundledScenarios:
    def test_names(self):
        assert bundled_scenario_names() == ("growth19", "reference18")

    def test_missing_name_raises_file_not_found(self):
        with pytest.raises(FileNotFoundError):
            load_bundled_scenario("nonesuch")

    def test_reference18_parameters(self):
        scenario = load_bundled_scenario("reference18")
        assert scenario.central == 3
        assert scenario.m_max == 3
        assert scenario.models == ("cs", "imasnm")
        assert scenario.params.s_req == 83
        assert scenario.params.s_res == 84
        assert scenario.params.num_vars == 5
        assert scenario.params.ma_size == Fraction("4014.08")
        assert scenario.params.mda_size == Fraction("3276.8")
        assert scenario.params.ma_res == 583
        assert len(scenario.k_override) == 21
        assert scenario.notes is not None

    def test_file_name_suffix_accepted(self):
        scenario = load_bundled_scenario("growth19.scenario.json")
        assert scenario.name == "growth19"
        assert scenario.central == 10


class TestRunErrorsOfMeaning:
    """What only a replay or a pricing finds is bad input with a JSON path."""

    def test_join_into_a_missing_domain(self, reference18_scenario):
        join = AddNode(99, DomainId.parse("1.7"))
        events = (*reference18_scenario.events, join)
        with pytest.raises(ValidationError) as caught:
            run(replace(reference18_scenario, events=events), models=())
        assert (caught.value.path, caught.value.message) == (
            f"events[{len(events) - 1}].add_node.domain",
            "no such domain: 1.7",
        )

    def test_domain_k_key_that_names_no_domain(self, reference18_scenario):
        domain_k = {**reference18_scenario.domain_k, "1.9.9": Fraction(2)}
        with pytest.raises(ValidationError) as caught:
            run(replace(reference18_scenario, domain_k=domain_k), models=())
        assert (caught.value.path, caught.value.message) == (
            "domain_k.1.9.9",
            "no such domain: 1.9.9",
        )

    @pytest.mark.parametrize(
        "name, models, message",
        [
            (
                "reference18",
                ("cs", "flatbed", "imasnm"),
                "flatbed cannot be priced: no path between 1 and 2",
            ),
            ("growth19", ("cs",), "cs cannot be priced: no path between 10 and 1"),
        ],
    )
    def test_model_that_cannot_be_priced(self, name, models, message):
        for at_snapshots in (False, True):
            with pytest.raises(ValidationError) as caught:
                run(
                    load_bundled_scenario(name),
                    models=models,
                    costs_at_snapshots=at_snapshots,
                )
            assert (caught.value.path, caught.value.message) == ("models", message)


class TestApplyEvent:
    def fresh_state(self) -> SimulationState:
        return SimulationState(
            network=Network([1, 2, 3, 4], [(1, 2, 1)]),
            tree=ManagerTree.initial_partition([1, 2, 3, 4], 3, 1),
        )

    def test_add_node_extends_network_and_tree(self):
        state = self.fresh_state()
        apply_event(
            state, AddNode(5, DomainId.parse("1"), ((1, Fraction(2)),))
        )
        assert 5 in state.network.nodes
        assert state.network.path_cost(5, 1) == 2
        assert state.tree.domain_of(5) == DomainId.parse("1")

    def test_add_node_to_missing_domain_propagates(self):
        state = self.fresh_state()
        with pytest.raises(UnknownDomain):
            apply_event(state, AddNode(5, DomainId.parse("1.9"), ()))

    def test_unknown_event_type_is_a_type_error(self):
        state = self.fresh_state()
        with pytest.raises(TypeError, match="unknown event type"):
            apply_event(state, object())
        assert state.snapshots == [] and len(state.tree) == 2

    def test_snapshot_records_without_mutating(self):
        state = self.fresh_state()
        before = {str(d.id): list(d.members) for d in state.tree.domains()}
        apply_event(state, Snapshot("now"))
        assert [s.label for s in state.snapshots] == ["now"]
        record = state.snapshots[0]
        assert record.managers == ("1", "1.1")
        assert {d.id: list(d.members) for d in record.domains} == {
            "1": [1], "1.1": [2, 3, 4]
        }
        after = {str(d.id): list(d.members) for d in state.tree.domains()}
        assert before == after

    def test_snapshots_keep_their_states_and_share_unchanged_ones(self):
        state = SimulationState(
            network=Network(range(1, 11)),
            tree=ManagerTree.initial_partition(range(1, 11), 3, 10),
        )
        apply_event(state, Snapshot("a"))
        a = state.snapshots[0]
        as_taken = [
            (d.id, d.manager_host, d.members, d.parent, d.children) for d in a.domains
        ]
        # 11 joins the root; 12 overflows 1.3, which spawns 1.3.1
        apply_event(state, AddNode(11, DomainId.parse("1")))
        apply_event(state, AddNode(12, DomainId.parse("1.3")))
        apply_event(state, Snapshot("b"))
        b = state.snapshots[1]
        assert [
            (d.id, d.manager_host, d.members, d.parent, d.children) for d in a.domains
        ] == as_taken
        old, new = ({d.id: d for d in record.domains} for record in (a, b))
        assert list(new) == ["1", "1.1", "1.2", "1.3", "1.3.1"]
        assert old["1.1"] is new["1.1"] and old["1.2"] is new["1.2"]
        assert old["1"] is not new["1"] and new["1"].members == (10, 11)
        assert old["1.3"] is not new["1.3"] and new["1.3"].children == ("1.3.1",)
        assert old["1.3"].members == new["1.3"].members == (7, 8, 9)

        # A Domain's members cannot be edited, so snapshot c shares 1.2 with b.
        with pytest.raises(AttributeError):
            state.tree.domain(DomainId.parse("1.2")).members.append(13)
        apply_event(state, Snapshot("c"))
        c = {d.id: d for d in state.snapshots[2].domains}
        assert c["1.2"] is new["1.2"] and new["1.2"].members == (4, 5, 6)
        assert c["1.1"] is new["1.1"]


def single_node_scenario_text() -> str:
    return scenario_text(
        nodes=[7],
        central=7,
        params={
            "s_req": 83,
            "s_res": 84,
            "num_vars": 5,
            "s_ma": 10,
            "d": 2,
            "ma_size": 50,
            "mda_size": 100,
            "ma_res": 9,
        },
        domain_k={"1": 2},
        polling_counts=[0, 1, 3],
        models=["cs", "flatbed", "imasnm"],
    )


class TestRun:
    def test_single_node_zero_event_scenario(self):
        result = run(load_scenario(single_node_scenario_text()))
        # nothing to poll centrally, no round trip to make, no children to
        # deploy; only the manager's own domain sweep costs anything
        assert result.per_poll_of("cs") == 0
        assert result.per_poll_of("flatbed") == 0
        assert result.per_poll_of("imasnm") == 200
        assert result.deploy_of("imasnm") == 0
        assert result.total_of("imasnm", 3) == 600
        assert result.total_of("imasnm", 0) == 0

    def test_requested_pairs_all_present_sorted_and_unique(self):
        scenario = load_scenario(single_node_scenario_text())
        result = run(scenario, polling_counts=[3, 1, 3])
        assert result.polling_counts == (1, 3)
        assert list(result.per_poll) == list(result.deploy) == list(result.models)

    def test_model_and_polling_overrides(self):
        scenario = load_scenario(single_node_scenario_text())
        result = run(scenario, models=["imasnm"], polling_counts=[2])
        assert result.models == ("imasnm",)
        assert result.total_of("imasnm", 2) == 400
        with pytest.raises(ValueError):
            run(scenario, models=["telnet"])
        with pytest.raises(ValueError):
            run(scenario, polling_counts=[-1])
        with pytest.raises(ValueError):
            run(scenario, polling_counts=[True])

    def test_model_order_is_canonical(self):
        scenario = load_scenario(single_node_scenario_text())
        result = run(scenario, models=["imasnm", "cs"])
        assert result.models == ("cs", "imasnm")

    def test_run_is_deterministic(self):
        scenario = load_bundled_scenario("reference18")
        assert run(scenario) == run(scenario)

    def test_snapshots_are_observers_only(self):
        scenario = load_bundled_scenario("reference18")
        stripped = replace(
            scenario,
            events=tuple(e for e in scenario.events if isinstance(e, AddNode)),
        )
        full = run(scenario)
        bare = run(stripped)
        assert bare.snapshots == ()
        assert full.per_poll == bare.per_poll
        assert full.deploy == bare.deploy

    def test_costs_at_snapshots(self):
        scenario = load_bundled_scenario("reference18")
        result = run(scenario, costs_at_snapshots=True)
        final = result.snapshots[-1]
        assert final.per_poll == result.per_poll
        assert final.deploy == result.deploy
        assert final.per_poll["imasnm"] == result.per_poll_of("imasnm")
        plain = run(scenario)
        assert plain.snapshots[-1].per_poll is None
        assert plain.snapshots[-1].deploy is None
        assert plain.per_poll == result.per_poll
        assert plain.deploy == result.deploy

    def test_final_state_after_a_snapshot_is_priced_once(self, monkeypatch):
        calls = []
        original = simulation.cost_centralized

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(simulation, "cost_centralized", counting)
        run(load_bundled_scenario("reference18"), costs_at_snapshots=True)
        assert len(calls) == 1

    def test_a_join_after_the_last_snapshot_is_priced_again(self, monkeypatch):
        text = scenario_text(
            nodes=[1, 2],
            links=[[1, 2, 1]],
            params={**MINIMAL["params"], "s_req": 1},
            events=[
                {"snapshot": "before"},
                {"add_node": {"node": 3, "domain": "1", "links": [[2, 2]]}},
            ],
            models=["cs"],
        )
        scenario = load_scenario(text)
        result = run(scenario, costs_at_snapshots=True)
        assert result.snapshots[0].per_poll == {"cs": 1}
        assert result.per_poll == {"cs": 4} == run(scenario).per_poll

    @staticmethod
    def growing_scenario_text(**overrides) -> str:
        # A snapshot prices the loaded network itself, then joins with links
        # grow it, one into a full domain, and 1-4 is pinned before 4 joins.
        doc = dict(
            nodes=[1, 2, 3],
            links=[[1, 2, 1], [2, 3, 2.5]],
            k_override=[[1, 4, 3]],
            m_max=2,
            params={**MINIMAL["params"], "s_req": 1},
            events=[
                {"snapshot": "before"},
                {"add_node": {"node": 4, "domain": "1", "links": [[3, 1]]}},
                {"add_node": {"node": 5, "domain": "1.1", "links": [[4, 1]]}},
                {"snapshot": "after"},
            ],
            models=["cs", "flatbed", "imasnm"],
        )
        return scenario_text(**{**doc, **overrides})

    def test_runs_reuse_the_loaded_network_and_leave_it_unchanged(self, monkeypatch):
        scenario = load_scenario(self.growing_scenario_text())
        builds = []
        build = Network.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            build(self, *args, **kwargs)

        monkeypatch.setattr(Network, "__init__", counting)
        plain = run(scenario)
        priced = run(scenario, costs_at_snapshots=True)
        assert run(scenario) == plain
        assert run(scenario, costs_at_snapshots=True) == priced
        assert (priced.per_poll, priced.deploy) == (plain.per_poll, plain.deploy)
        assert priced.snapshots[0].per_poll != priced.per_poll
        assert builds == []
        monkeypatch.undo()
        fresh = Network(scenario.nodes, scenario.links, scenario.k_override)
        assert scenario.network == fresh
        # The joins grew copies: the loaded tables keep their size.
        assert len(scenario.network._order) == len(scenario.nodes)
        assert len(scenario.network._links) == len(scenario.links)

    def test_imasnm_is_priced_from_the_domain_states_alone(self, monkeypatch):
        params = {**MINIMAL["params"], "ma_size": 7, "mda_size": 3, "ma_res": 2}
        text = self.growing_scenario_text(domain_k={"1.1": 5}, params=params)
        scenario = load_scenario(text)
        expected = run(scenario, costs_at_snapshots=True)

        def refuse(self):
            raise AssertionError("pricing read a Domain view")

        monkeypatch.setattr(ManagerTree, "domains", refuse)
        monkeypatch.setattr(ManagerTree, "parent_child_edges", refuse)
        result = run(scenario, costs_at_snapshots=True)
        assert result == expected
        assert result.snapshots[1].per_poll == expected.per_poll
        assert result.deploy["imasnm"] > 0
        assert result.per_poll["imasnm"] != result.snapshots[0].per_poll["imasnm"]

    def test_a_scenario_built_in_code_is_checked_when_built(self):
        scenario = load_scenario(scenario_text(nodes=[1, 2], links=[[1, 2, 1]]))
        with pytest.raises(SelfLink) as info:
            replace(scenario, links=((2, 2, Fraction(1)),))
        assert info.value.entry == "links[0]"

    def test_whole_network_in_one_domain_has_no_deploy_cost(self):
        text = scenario_text(
            nodes=[1, 2, 3],
            central=2,
            m_max=3,
            params={
                "s_req": 0,
                "s_res": 0,
                "num_vars": 1,
                "s_ma": 0,
                "d": 0,
                "ma_size": 40,
                "mda_size": 7,
                "ma_res": 3,
            },
            polling_counts=[1],
            models=["imasnm"],
        )
        result = run(load_scenario(text))
        assert result.deploy_of("imasnm") == 0
        # single domain of three members: one sweep at r_q = 2
        assert result.per_poll_of("imasnm") == 7 * 3

    def test_flatbed_default_itinerary_starts_at_central(self):
        text = scenario_text(
            nodes=[1, 2, 3],
            central=2,
            links=[[1, 2, 1], [2, 3, 1], [1, 3, 1]],
            params={
                "s_req": 0,
                "s_res": 0,
                "num_vars": 1,
                "s_ma": 10,
                "d": 1,
                "ma_size": 0,
                "mda_size": 0,
                "ma_res": 0,
            },
            polling_counts=[1],
            models=["flatbed"],
        )
        result = run(load_scenario(text))
        # default order 2, 1, 3: hops cost 10, 11, then return hop 12
        assert result.per_poll_of("flatbed") == 33

    def test_explicit_itinerary_wins(self):
        text = scenario_text(
            nodes=[1, 2, 3],
            central=2,
            links=[[1, 2, 1], [2, 3, 5], [1, 3, 1]],
            flatbed_itinerary=[2, 1, 3],
            params={
                "s_req": 0,
                "s_res": 0,
                "num_vars": 1,
                "s_ma": 10,
                "d": 0,
                "ma_size": 0,
                "mda_size": 0,
                "ma_res": 0,
            },
            polling_counts=[1],
            models=["flatbed"],
        )
        result = run(load_scenario(text))
        # 2-1 costs 1, 1-3 costs 1, return 3-2 costs min(5, 1+1) = 2
        assert result.per_poll_of("flatbed") == 40

    @staticmethod
    def late_join_text(itinerary) -> str:
        # Node 4 joins between the two snapshots, linked to 1; the
        # triangle 1-2-3 and the link 4-1 all cost 1.
        return scenario_text(
            nodes=[1, 2, 3],
            central=2,
            links=[[1, 2, 1], [2, 3, 1], [1, 3, 1]],
            events=[
                {"snapshot": "before"},
                {"add_node": {"node": 4, "domain": "1", "links": [[1, 1]]}},
                {"snapshot": "after"},
            ],
            flatbed_itinerary=itinerary,
            params=dict(MINIMAL["params"], s_ma=10),
            polling_counts=[1],
            models=["flatbed"],
        )

    @pytest.mark.parametrize(
        "itinerary, missing", [([2, 1], 3), ([2, 1, 3], 4), ([2, 3, 1], 4)]
    )
    def test_itinerary_must_visit_every_node_that_ever_joins(
        self, itinerary, missing
    ):
        # The first node left out, in nodes-then-events order, is named.
        with pytest.raises(ValidationError) as info:
            load_scenario(self.late_join_text(itinerary))
        assert (info.value.path, info.value.message) == (
            "flatbed_itinerary",
            f"node {missing} is never visited",
        )

    def test_itinerary_visits_only_the_stops_present_at_each_snapshot(self):
        text = self.late_join_text([2, 4, 1, 3])
        result = run(load_scenario(text), costs_at_snapshots=True)
        before, after = (snap.per_poll["flatbed"] for snap in result.snapshots)
        # before 4 joins: hops 2-1, 1-3, 3-2 cost 1 each, 10 bytes a unit
        assert before == 30
        # after: 2-4 costs 2 (through 1), then 4-1, 1-3 and 3-2 cost 1
        assert after == result.per_poll_of("flatbed") == 50


class TestGrowth19Storyline:
    def test_snapshot_manager_sets(self):
        result = run(load_bundled_scenario("growth19"))
        assert [s.label for s in result.snapshots] == [
            "initial",
            "after-first-split",
            "fully-grown",
        ]
        first, second, third = result.snapshots
        assert set(first.managers) == {"1", "1.1", "1.2", "1.3"}
        assert set(second.managers) == {"1", "1.1", "1.2", "1.3", "1.3.1"}
        assert set(third.managers) == {
            "1", "1.1", "1.2", "1.2.1", "1.3", "1.3.1", "1.3.1.1"
        }

    def test_final_membership_table(self):
        result = run(load_bundled_scenario("growth19"))
        table = {d.id: d.members for d in result.final_domains}
        assert table == {
            "1": (10, 13),
            "1.1": (1, 2, 3),
            "1.2": (4, 5, 6),
            "1.2.1": (14, 15, 16),
            "1.3": (7, 8, 9),
            "1.3.1": (11, 12, 17),
            "1.3.1.1": (18, 19),
        }

    def test_every_snapshot_satisfies_tree_invariants(self):
        result = run(load_bundled_scenario("growth19"))
        for snapshot in result.snapshots:
            seen: list[int] = []
            for domain in snapshot.domains:
                assert len(domain.members) <= 3
                assert domain.manager_host in domain.members
                if domain.parent is None:
                    assert domain.id == "1"
                else:
                    assert domain.id.startswith(domain.parent + ".")
                seen.extend(domain.members)
            assert len(seen) == len(set(seen))


class TestReference18State:
    def test_domain_layout(self, reference18_state):
        table = {
            str(d.id): (d.manager_host, list(d.members))
            for d in reference18_state.tree.domains()
        }
        assert table == {
            "1": (3, [3, 1, 2]),
            "1.1": (4, [4, 5, 6]),
            "1.1.1": (10, [10, 11, 12]),
            "1.1.2": (16, [16, 17, 18]),
            "1.2": (9, [9, 7, 8]),
            "1.2.1": (15, [15, 13, 14]),
        }

    def test_every_parent_edge_costs_five(self, reference18_state):
        edges = reference18_state.tree.parent_child_edges()
        assert len(edges) == 5
        for mother, child in edges:
            cost = reference18_state.network.path_cost(
                mother.manager_host, child.manager_host
            )
            assert cost == 5

    def test_build_state_helper_matches_run(self, reference18_scenario):
        state = build_state(reference18_scenario)
        result = run(reference18_scenario)
        assert tuple(str(d.id) for d in state.tree.domains()) == tuple(
            d.id for d in result.final_domains
        )
