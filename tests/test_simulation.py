"""Scenario loading, event application, and the run engine."""

from __future__ import annotations

import gc
import inspect
import io
import json
import re
import time
from decimal import Decimal
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from netmansim import (
    AddNode,
    CostParams,
    DomainId,
    DomainState,
    DuplicateLink,
    DuplicateNode,
    ManagerTree,
    NegativeCoeff,
    Network,
    ParseError,
    ROOT_DOMAIN,
    Scenario,
    SelfLink,
    SimulationResult,
    SimulationState,
    Snapshot,
    SnapshotRecord,
    TopologyError,
    UnknownDomain,
    UnknownNode,
    ValidationError,
    apply_event,
    bundled_scenario_names,
    cost_centralized,
    cost_flatbed,
    cost_imasnm_deploy,
    cost_imasnm_poll,
    load_bundled_scenario,
    load_scenario,
    load_scenario_file,
    run,
)
import netmansim.simulation as simulation
from conftest import assert_frozen_record, build_state, parent_links, replace
from netmansim.hierarchy import _ManagerRecord

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


# Each key a sound file must hold, by its path: every Scenario field a
# file may not omit, then every CostParams field.
REQUIRED_KEYS = [
    *(field for field in Scenario._fields if field not in simulation._OPTIONAL),
    *(f"params.{field}" for field in CostParams._fields),
]


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

    @pytest.mark.parametrize("path", REQUIRED_KEYS)
    def test_each_required_key_is_required(self, path):
        doc = json.loads(scenario_text())
        *outer, key = path.split(".")
        del (doc[outer[0]] if outer else doc)[key]
        with pytest.raises(ValidationError) as info:
            load_scenario(json.dumps(doc))
        assert (info.value.path, info.value.message) == (path, "missing required key")

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
        # A pin may name a node that joins later, on its first number and
        # on one already seen alike.
        text = scenario_text(
            nodes=[1, 2],
            events=[{"add_node": {"node": 5, "domain": "1"}}],
            k_override=[[1, 5, 3], [5, 2, 3]],
        )
        assert load_scenario(text).k_override == (
            (1, 5, Fraction(3)),
            (5, 2, Fraction(3)),
        )

    def test_domain_k_validation(self):
        rejects(scenario_text(domain_k={"x": 1}), "domain_k.x")
        rejects(scenario_text(domain_k={"1.1": -1}), "domain_k.1.1")
        text = scenario_text(nodes=[1, 2, 3, 4], domain_k={"1.1": 2})
        assert load_scenario(text).domain_k == {"1.1": Fraction(2)}

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
    # After a well-formed entry, whose number 1 is then known: each fault
    # below is met by an item test that an entry of known numbers skips.
    ("links", [[1, 2, 1], [1, True, 1]], "links[1][1]",
     "expected an integer, got True"),
    ("links", [[1, 2, 1], [1, 2, True]], "links[1][2]", "expected a number, got True"),
    ("links", [[1, 2, 1], ["1", 2, 1]], "links[1][0]", "expected an integer, got '1'"),
    ("links", [[1, 2, 1], [1, 2]], "links[1]", "expected [a, b, coeff], got 2 items"),
    ("links", [[1, 2, 0.5], [2, 1, -0.5]], "links[1][2]",
     "must be non-negative, got -0.5"),
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
    ("k_override", [[1, 2, 1], [1, True, 1]], "k_override[1][1]",
     "expected an integer, got True"),
    ("k_override", [[1, 2, 1], [1, 2, True]], "k_override[1][2]",
     "expected a number, got True"),
    ("k_override", [[1, 2, 1], ["1", 2, 1]], "k_override[1][0]",
     "expected an integer, got '1'"),
    ("k_override", [[1, 2, 1], [1, 2]], "k_override[1]",
     "expected [i, j, cost], got 2 items"),
    ("k_override", [[1, 2, 0.5], [2, 1, -0.5]], "k_override[1][2]",
     "must be non-negative, got -0.5"),
    ("k_override", [[1, 2, 1], [2, 9, 1]], "k_override[1][1]", "unknown node 9"),
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
    # A join's link faults read as the same faults do in ``links``.
    ("add_node.links", [[3, 1]], f"{EVENT}[0][0]", "link joins node 3 to itself"),
    ("add_node.links", [[1, 1], [1, 2]], f"{EVENT}[1][0]", "duplicate link 1-3"),
    ("add_node.links", [[1, 1], [3, 1]], f"{EVENT}[1][0]",
     "link joins node 3 to itself"),
    ("add_node.links", [[1, 1], [9, 1]], f"{EVENT}[1][0]", "unknown node 9"),
    ("add_node.links", [[9, -1]], f"{EVENT}[0][1]", "must be non-negative, got -1"),
    ("add_node.links", [[1, 2.5], [1, "y"]], f"{EVENT}[1][1]",
     "expected a number, got 'y'"),
]


@pytest.mark.parametrize("array, entries, path, message", ENTRY_ERRORS)
def test_entry_errors_are_exact(array, entries, path, message):
    with pytest.raises(ValidationError) as info:
        load_scenario(scenario_text(**entry_doc(array, entries)))
    assert (info.value.path, info.value.message) == (path, message)


JOIN = "events[0].add_node"

# Each join follows a link whose number 1 is then known, so a fault in a
# join's links is met by an item test, not by a number's first check.
JOIN_ERRORS = [
    ({"add_node": {"node": 3, "domain": "1"}, "snapshot": "a"}, "events[0]",
     "event must have exactly one key"),
    ({"snapshot": 5}, "events[0].snapshot", "expected a string, got int"),
    ({"add_node": 5}, JOIN, "expected an object, got int"),
    ({"add_node": []}, JOIN, "expected an object, got list"),
    ({"add_node": {"node": 3, "domain": "1", "x": 1}}, f"{JOIN}.x", "unknown key"),
    ({"add_node": {"node": 3, "x": 1}}, f"{JOIN}.x", "unknown key"),
    ({"add_node": {"node": 3, "links": [[1, 1]]}}, f"{JOIN}.domain",
     "missing required key"),
    ({"add_node": {"node": 0, "domain": "1"}}, f"{JOIN}.node",
     "must be at least 1, got 0"),
    ({"add_node": {"node": True, "domain": "1"}}, f"{JOIN}.node",
     "expected an integer, got True"),
    ({"add_node": {"node": None, "domain": "1"}}, f"{JOIN}.node",
     "expected an integer, got None"),
    ({"add_node": {"node": 3, "domain": None}}, f"{JOIN}.domain",
     "expected a string, got NoneType"),
    ({"add_node": {"node": 3, "domain": 1}}, f"{JOIN}.domain",
     "expected a string, got int"),
    ({"add_node": {"node": 3, "domain": "1.0"}}, f"{JOIN}.domain",
     "malformed domain id '1.0'"),
    ({"add_node": {"node": 3, "domain": "1", "links": {"1": 1}}}, f"{JOIN}.links",
     "expected an array, got dict"),
    ({"add_node": {"node": 3, "domain": "1", "links": None}}, f"{JOIN}.links",
     "expected an array, got NoneType"),
    ({"add_node": {"node": 3, "domain": "1", "links": [5]}}, f"{JOIN}.links[0]",
     "expected an array, got int"),
    ({"add_node": {"node": 3, "domain": "1", "links": [[1, 1, 1]]}},
     f"{JOIN}.links[0]", "expected [peer, coeff], got 3 items"),
    ({"add_node": {"node": 3, "domain": "1", "links": [[1, 1], [0, 1]]}},
     f"{JOIN}.links[1][0]", "must be at least 1, got 0"),
    ({"add_node": {"node": 3, "domain": "1", "links": [[True, 1]]}},
     f"{JOIN}.links[0][0]", "expected an integer, got True"),
    ({"add_node": {"node": 3, "domain": "1", "links": [[1, True]]}},
     f"{JOIN}.links[0][1]", "expected a number, got True"),
    ({"add_node": {"node": 3, "domain": "1", "links": [[1, 1], [2, -1]]}},
     f"{JOIN}.links[1][1]", "must be non-negative, got -1"),
    ({"add_node": {"node": 2, "domain": "1", "links": [[1, 1]]}}, f"{JOIN}.node",
     "duplicate node 2"),
    ({"add_node": {"node": 3, "domain": "1.1", "links": [[1, 1]]}},
     f"{JOIN}.domain", "no such domain: 1.1"),
]


@pytest.mark.parametrize("event, path, message", JOIN_ERRORS)
def test_join_errors_are_exact_after_a_known_number(event, path, message):
    text = scenario_text(nodes=[1, 2], links=[[1, 2, 1]], events=[event])
    with pytest.raises(ValidationError) as info:
        load_scenario(text)
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
    (dict(events=[{"add_node": {"node": 1, "domain": "1"}}]),
     "events[0].add_node.node", "duplicate node 1"),
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
    # The fault after good entries, which pass the loader's inline test.
    (dict(polling_counts=[1, 2, True]), "polling_counts[2]",
     "expected an integer, got True"),
    (dict(polling_counts=[0, 3, -1]), "polling_counts[2]",
     "must be at least 0, got -1"),
    (dict(polling_counts=[0, 2.0]), "polling_counts[1]",
     "expected an integer, got Decimal('2.0')"),
    (dict(polling_counts=[4, "5"]), "polling_counts[1]",
     "expected an integer, got '5'"),
    (dict(ITINERARY, flatbed_itinerary=[2, 1, True]), "flatbed_itinerary[2]",
     "expected an integer, got True"),
    (dict(ITINERARY, flatbed_itinerary=[2, 1, 0]), "flatbed_itinerary[2]",
     "must be at least 1, got 0"),
    (dict(ITINERARY, flatbed_itinerary=[2, 3, -1]), "flatbed_itinerary[2]",
     "must be at least 1, got -1"),
    (dict(ITINERARY, flatbed_itinerary=[2, 3, 1.0]), "flatbed_itinerary[2]",
     "expected an integer, got Decimal('1.0')"),
]


@pytest.mark.parametrize("overrides, path, message", FIELD_ERRORS)
def test_field_errors_are_exact(overrides, path, message):
    with pytest.raises(ValidationError) as info:
        load_scenario(scenario_text(**overrides))
    assert (info.value.path, info.value.message) == (path, message)


PAIR = dict(nodes=[1, 2])
JOIN_2 = {"add_node": {"node": 2, "domain": "1"}}  # 2 is initial already
JOIN_3 = {"add_node": {"node": 3, "domain": "1.9"}}  # no such domain

# Two faults each: a fault of meaning in the nodes, links or pins, then a
# fault of shape, or of meaning elsewhere, in a later field. Every fault
# of shape is reported before any fault of meaning, and the network's
# faults (repeated nodes, links, self-pins, repeated pins) before every
# other fault of meaning.
TWO_FAULT_ERRORS = [
    # A Scenario made in code checks polling_counts first (see CODE_ERRORS).
    (dict(events=[{"add_node": {"node": 0, "domain": "1", "links": []}}],
          polling_counts=[-1]),
     "events[0].add_node.node", "must be at least 1, got 0"),
    (dict(PAIR, links=[[1, 9, 1]], params=params(s_req=-1)), "params.s_req",
     "must be non-negative, got -1"),
    (dict(PAIR, links=[[1, 1, 1]], events=[{"add_node": 5}]), "events[0].add_node",
     "expected an object, got int"),
    (dict(PAIR, links=[[1, 2, 1], [2, 1, 1]], polling_counts=[1, -1]),
     "polling_counts[1]", "must be at least 0, got -1"),
    (dict(PAIR, links=[[9, 1, 1]], k_override=[[1, 2]]), "k_override[0]",
     "expected [i, j, cost], got 2 items"),
    (dict(PAIR, k_override=[[1, 1, 1]], models=["snmp"]), "models[0]",
     "unknown model 'snmp' (choose from ('cs', 'flatbed', 'imasnm'))"),
    (dict(PAIR, k_override=[[1, 2, 1], [2, 1, 1]], flatbed_itinerary=[1, True]),
     "flatbed_itinerary[1]", "expected an integer, got True"),
    (dict(PAIR, k_override=[[1, 9, 1]], notes=5), "notes",
     "expected a string or array of strings"),
    (dict(PAIR, k_override=[[2, 9, 0.5]], domain_k={"1": "2"}), "domain_k.1",
     "expected a number, got '2'"),
    (dict(nodes=[1, 2, 2], links=[[1, 9, 1]], m_max=0), "m_max",
     "must be at least 1, got 0"),
    # The later fault is one of meaning: the network's comes first.
    (dict(PAIR, links=[[1, 9, 1]], events=[JOIN_2]), "links[0][1]", "unknown node 9"),
    (dict(PAIR, links=[[2, 2, 1]], events=[JOIN_3]), "links[0]",
     "link joins node 2 to itself"),
    (dict(PAIR, links=[[1, 2, 1], [1, 2, 1]], central=9), "links[1]",
     "duplicate link 1-2"),
    (dict(PAIR, links=[[1, 1, 0]], central=9), "links[0]",
     "link joins node 1 to itself"),
    (dict(PAIR, k_override=[[2, 2, 1]], events=[JOIN_2]), "k_override[0]",
     "a node's cost to itself must be 0"),
    (dict(nodes=[1, 2, 1], links=[[1, 9, 1]]), "nodes[2]", "duplicate node 1"),
    (dict(PAIR, links=[[1, 2, 1]], k_override=[[1, 2, 1], [1, 2, 2]],
          events=[JOIN_3]), "k_override[1]", "duplicate pair 1-2"),
    # A pin of a node that never joins is checked after the joins' nodes
    # and links, and before their domains.
    (dict(PAIR, k_override=[[1, 9, 1]], events=[JOIN_2]), "events[0].add_node.node",
     "duplicate node 2"),
    (dict(PAIR, k_override=[[1, 9, 1]], events=[JOIN_3]), "k_override[0][1]",
     "unknown node 9"),
    (dict(PAIR, k_override=[[1, 9, 1]], central=9), "central",
     "central node 9 is not in nodes"),
    (dict(PAIR, k_override=[[1, 9, 1], [3, 3, 1]], events=[JOIN_3]),
     "k_override[1]", "a node's cost to itself must be 0"),
    # A join's fault of meaning comes after every fault of shape.
    (dict(PAIR, events=[JOIN_2, *({"snapshot": f"s{i}"} for i in range(4)),
                        {"add_node": {"node": "x", "domain": "1"}}]),
     "events[5].add_node.node", "expected an integer, got 'x'"),
    (dict(PAIR, events=[JOIN_2], models=["snmp"]), "models[0]",
     "unknown model 'snmp' (choose from ('cs', 'flatbed', 'imasnm'))"),
]


@pytest.mark.parametrize("overrides, path, message", TWO_FAULT_ERRORS)
def test_two_faults_report_the_first_in_check_order(overrides, path, message):
    with pytest.raises(ValidationError) as info:
        load_scenario(scenario_text(**overrides))
    assert (info.value.path, info.value.message) == (path, message)


# A 5-node chain 1-2-3-4-5 priced by the flat-bed model; with m_max 2
# its domains are 1, 1.1 and 1.2.
CHAIN = dict(
    nodes=[1, 2, 3, 4, 5],
    links=[[1, 2, 1], [2, 3, 1], [3, 4, 1], [4, 5, 1]],
    m_max=2,
    models=["flatbed"],
)


def chain_in_code() -> Scenario:
    """The CHAIN scenario made in code, not loaded."""
    zero = Fraction(0)
    sizes = dict.fromkeys(("s_req", "s_res", "s_ma", "d", "ma_size", "mda_size"), zero)
    return Scenario(
        name="tiny",
        nodes=(1, 2, 3, 4, 5),
        links=tuple((a, a + 1, Fraction(1)) for a in range(1, 5)),
        k_override=(),
        central=1,
        m_max=2,
        params=CostParams(num_vars=1, ma_res=zero, **sizes),
        domain_k={},
        events=(),
        polling_counts=(),
        models=("flatbed",),
    )


def join(node: int, domain: str, links: list) -> dict:
    return {"add_node": {"node": node, "domain": domain, "links": links}}


# One fault each, as a JSON edit of CHAIN and as fields of chain_in_code(),
# with the exact (path, message) both must raise.
PARITY = [
    (dict(flatbed_itinerary=[1, 2]), dict(flatbed_itinerary=(1, 2)),
     "flatbed_itinerary", "node 3 is never visited"),
    (dict(flatbed_itinerary=[3, 1]), dict(flatbed_itinerary=(3, 1)),
     "flatbed_itinerary[0]", "itinerary must start at the central node 1"),
    (dict(flatbed_itinerary=[1, 2, 1, 2]), dict(flatbed_itinerary=(1, 2, 1, 2)),
     "flatbed_itinerary[2]", "node 1 repeated"),
    (dict(central=9), dict(central=9), "central", "central node 9 is not in nodes"),
    (dict(events=[{"snapshot": "a"}, {"snapshot": "a"}]),
     dict(events=(Snapshot("a"), Snapshot("a"))),
     "events[1].snapshot", "duplicate label 'a'"),
    (dict(events=[join(6, "1.7", [])]),
     dict(events=(AddNode(6, DomainId.parse("1.7")),)),
     "events[0].add_node.domain", "no such domain: 1.7"),
    (dict(domain_k={"1.9": 2}), dict(domain_k={"1.9": Fraction(2)}),
     "domain_k.1.9", "no such domain: 1.9"),
    (dict(domain_k={"x": 1}), dict(domain_k={"x": Fraction(1)}),
     "domain_k.x", "malformed domain id 'x'"),
    (dict(domain_k={"1": -1}), dict(domain_k={"1": Fraction(-1)}),
     "domain_k.1", "must be non-negative, got -1"),
    (dict(events=[join(3, "1", [])]),
     dict(events=(AddNode(3, DomainId.parse("1")),)),
     "events[0].add_node.node", "duplicate node 3"),
    (dict(events=[join(6, "1", [[9, 1]])]),
     dict(events=(AddNode(6, DomainId.parse("1"), ((9, Fraction(1)),)),)),
     "events[0].add_node.links[0][0]", "unknown node 9"),
    (dict(events=[join(6, "1", [[6, 1]])]),
     dict(events=(AddNode(6, DomainId.parse("1"), ((6, Fraction(1)),)),)),
     "events[0].add_node.links[0][0]", "link joins node 6 to itself"),
    (dict(k_override=[[1, 9, 1]]), dict(k_override=((1, 9, Fraction(1)),)),
     "k_override[0][1]", "unknown node 9"),
    (dict(nodes=[], links=[]), dict(nodes=(), links=()), "nodes", "must not be empty"),
]


def bundled_doc(name: str) -> dict:
    scenarios = resources.files("netmansim").joinpath("scenarios")
    return json.loads(scenarios.joinpath(f"{name}.scenario.json").read_text())


def code_event(event: dict) -> AddNode | Snapshot:
    """A file's event as the ``AddNode`` or ``Snapshot`` code would make."""
    if "snapshot" in event:
        return Snapshot(event["snapshot"])
    body = event["add_node"]
    links = tuple((peer, Fraction(coeff)) for peer, coeff in body.get("links", []))
    return AddNode(body["node"], DomainId.parse(body["domain"]), links)


# reference18's 16 events; events[1] joins node 5 into domain 1.1.
REFERENCE18_EVENTS = bundled_doc("reference18")["events"]


def reference18_join_5(domain: str, links: list) -> dict:
    """reference18's events with events[1] joining node 5 as given."""
    return dict(events=[REFERENCE18_EVENTS[0], join(5, domain, links),
                        *REFERENCE18_EVENTS[2:]])


# One fault each of a join or a label, as a JSON edit of reference18's
# events; made in code, the same events as AddNode and Snapshot records.
REFERENCE18_PARITY = [
    (reference18_join_5("1.1", [[99, 1]]),
     "events[1].add_node.links[0][0]", "unknown node 99"),
    (reference18_join_5("1.1", [[1, 1], [1, 2]]),
     "events[1].add_node.links[1][0]", "duplicate link 1-5"),
    (reference18_join_5("1.1", [[1, 1], [4, 1], [1, 2]]),
     "events[1].add_node.links[2][0]", "duplicate link 1-5"),
    (reference18_join_5("1.1", [[5, 1]]),
     "events[1].add_node.links[0][0]", "link joins node 5 to itself"),
    (dict(events=[*REFERENCE18_EVENTS, {"snapshot": "a"}, {"snapshot": "a"}]),
     "events[17].snapshot", "duplicate label 'a'"),
    (reference18_join_5("1.7", []), "events[1].add_node.domain", "no such domain: 1.7"),
]

FAULT_CASES = [("chain", *row) for row in PARITY] + [
    ("reference18", in_json, dict(events=tuple(map(code_event, in_json["events"]))),
     path, message)
    for in_json, path, message in REFERENCE18_PARITY
]


@pytest.mark.parametrize(
    "base, in_json, in_code, path, message", FAULT_CASES,
    ids=[row[3] if row[0] == "chain" else f"{row[0]}-{row[3]}" for row in FAULT_CASES],
)
def test_a_fault_reads_the_same_loaded_or_made_in_code(
    base, in_json, in_code, path, message
):
    if base == "chain":
        doc, scenario = {**MINIMAL, **CHAIN}, chain_in_code()
    else:
        doc, scenario = bundled_doc(base), load_bundled_scenario(base)
    assert scenario == load_scenario(json.dumps(doc))
    with pytest.raises(ValidationError) as loaded:
        load_scenario(json.dumps({**doc, **in_json}))
    with pytest.raises(ValidationError) as made:
        replace(scenario, **in_code)
    assert (loaded.value.path, loaded.value.message) == (path, message)
    assert (made.value.path, made.value.message) == (path, message)


def test_a_pin_in_a_mapping_is_named_by_its_pair():
    with pytest.raises(ValidationError) as info:
        replace(chain_in_code(), k_override={(1, 2): Fraction(1), (9, 1): Fraction(1)})
    assert (info.value.path, info.value.message) == (
        "k_override[(9, 1)]",
        "unknown node 9",
    )


def test_an_event_of_another_type_is_named_by_its_index():
    with pytest.raises(ValidationError) as info:
        replace(chain_in_code(), events=(Snapshot("a"), "x"))
    assert (info.value.path, info.value.message) == (
        "events[1]",
        "expected an AddNode or a Snapshot, got 'x'",
    )


# Fields only code can get wrong, with the exact (path, message) raised.
CODE_ERRORS = [
    (dict(domain_k={"1": "x"}), "domain_k.1", "expected a number, got 'x'"),
    (dict(events=(AddNode(6, "1"),)), "events[0].add_node.domain",
     "expected a DomainId, got '1'"),
    (dict(events=(AddNode(6, DomainId.parse("1"), ((1, 1), (2,))),)),
     "events[0].add_node.links[1]", "expected [peer, coeff], got 1 items"),
    (dict(events=(AddNode(6, DomainId.parse("1"), (5,)),)),
     "events[0].add_node.links[0]", "expected an array, got int"),
    # A file cannot hold a negative Fraction: its loader words -1 itself.
    (dict(events=(AddNode(6, DomainId.parse("1"), ((1, Fraction(-1)),)),)),
     "events[0].add_node.links[0][1]", "link 6-1: Fraction(-1, 1) is negative"),
    (dict(events=(AddNode(6, DomainId.parse("1"), None),)),
     "events[0].add_node.links", "expected an array, got NoneType"),
    # The scenario keeps a join's links: ones the check would use up are
    # refused, after the node's own faults.
    (dict(events=(AddNode(6, DomainId.parse("1"), iter([(1, 1)])),)),
     "events[0].add_node.links", "expected an array, got list_iterator"),
    (dict(events=(AddNode(6, DomainId.parse("1"), {(1, 1)}),)),
     "events[0].add_node.links", "expected an array, got set"),
    (dict(events=(AddNode(3, DomainId.parse("1"), iter([(1, 1)])),)),
     "events[0].add_node.node", "duplicate node 3"),
    (dict(central=True), "central", "expected an integer, got True"),
    (dict(central=10.0), "central", "expected an integer, got 10.0"),
    (dict(m_max=0), "m_max", "must be at least 1, got 0"),
    (dict(params={"s_req": 1}), "params", "expected a CostParams, got dict"),
    (dict(name=5), "name", "expected a string, got int"),
    (dict(name=""), "name", "must not be empty"),
    (dict(polling_counts=(True,)), "polling_counts[0]",
     "expected an integer, got True"),
    (dict(polling_counts=(1, -1)), "polling_counts[1]", "must be at least 0, got -1"),
    (dict(models=("snmp",)), "models[0]",
     "unknown model 'snmp' (choose from ('cs', 'flatbed', 'imasnm'))"),
    (dict(models=("cs", "imasnm", "cs")), "models[2]", "duplicate model 'cs'"),
    (dict(notes=5), "notes", "expected a string, got int"),
    (dict(events=(Snapshot(5),)), "events[0].snapshot", "expected a string, got int"),
    (dict(flatbed_itinerary=(1, 2.0, 3, 4, 5)), "flatbed_itinerary[1]",
     "expected an integer, got 2.0"),
    (dict(flatbed_itinerary=(1, True, 3, 4, 5)), "flatbed_itinerary[1]",
     "expected an integer, got True"),
    (dict(flatbed_itinerary=(1, 0, 3, 4, 5)), "flatbed_itinerary[1]",
     "must be at least 1, got 0"),
    (dict(events=None), "events", "expected an array, got NoneType"),
    (dict(polling_counts=None), "polling_counts", "expected an array, got NoneType"),
    (dict(models=None), "models", "expected an array, got NoneType"),
    (dict(flatbed_itinerary=5), "flatbed_itinerary", "expected an array, got int"),
    (dict(flatbed_itinerary={1, 2, 3, 4, 5}), "flatbed_itinerary",
     "expected an array, got set"),
    (dict(domain_k=None), "domain_k", "expected an object, got NoneType"),
    (dict(domain_k=[("1", 1)]), "domain_k", "expected an object, got list"),
    (dict(nodes=None), "nodes", "expected an array, got NoneType"),
    (dict(links=None), "links", "expected an array, got NoneType"),
    (dict(nodes={1, 2, 3, 4, 5}), "nodes", "expected an array, got set"),
    (dict(nodes=iter((1, 2, 3, 4, 5))), "nodes",
     "expected an array, got tuple_iterator"),
    (dict(k_override=5), "k_override", "expected an array, got int"),
    # A field of the wrong kind comes before a fault in another's entries.
    (dict(nodes=(1, "2"), links=None), "links", "expected an array, got NoneType"),
    (dict(links=((1, 2),), k_override=iter(())), "k_override",
     "expected an array, got tuple_iterator"),
    # Two faults: a file reports the join first (see TWO_FAULT_ERRORS).
    (dict(events=(AddNode(0, DomainId.parse("1")),), polling_counts=(-1,)),
     "polling_counts[0]", "must be at least 0, got -1"),
]


@pytest.mark.parametrize("fields, path, message", CODE_ERRORS)
def test_a_field_of_the_wrong_type_made_in_code_is_named_by_its_path(
    fields, path, message
):
    with pytest.raises(ValidationError) as info:
        replace(chain_in_code(), **fields)
    assert (info.value.path, info.value.message) == (path, message)


# One join fault each, after the joins before it, on the chain's nodes 1
# to 5, with the class, entry and message of the join step's error. A
# value of the wrong type raises a TypeError or ValueError, with no entry.
STEP_FAULTS = {
    "repeated node": ((), AddNode(3, ROOT_DOMAIN), DuplicateNode, "node",
                      "duplicate node 3"),
    "node of an earlier join": ((AddNode(6, ROOT_DOMAIN),), AddNode(6, ROOT_DOMAIN),
                                DuplicateNode, "node", "duplicate node 6"),
    "unknown peer": ((), AddNode(6, ROOT_DOMAIN, ((1, 1), (9, 1))), UnknownNode,
                     "links[1][0]", "unknown node 9"),
    "self-link": ((), AddNode(6, ROOT_DOMAIN, ((1, 1), (6, 1))), SelfLink,
                  "links[1][0]", "link joins node 6 to itself"),
    "repeated peer": ((), AddNode(6, ROOT_DOMAIN, ((1, 1), (1, 2))), DuplicateLink,
                      "links[1][0]", "duplicate link 1-6"),
    "peer of an earlier join, twice": (
        (AddNode(6, ROOT_DOMAIN),), AddNode(7, ROOT_DOMAIN, ((6, 1), (6, 1))),
        DuplicateLink, "links[1][0]", "duplicate link 6-7",
    ),
    "not a pair": ((), AddNode(6, ROOT_DOMAIN, ((1, 1), (2,))), TopologyError,
                   "links[1]", "expected [peer, coeff], got 1 items"),
    "not an array": ((), AddNode(6, ROOT_DOMAIN, (5,)), TopologyError, "links[0]",
                     "expected an array, got int"),
    "links not an array": ((), AddNode(6, ROOT_DOMAIN, None), TopologyError,
                           "links", "expected an array, got NoneType"),
    "negative coefficient": ((), AddNode(6, ROOT_DOMAIN, ((1, 1), (2, "-1/2"))),
                             NegativeCoeff, "links[1][1]",
                             "link 6-2: '-1/2' is negative"),
    "node of the wrong type": ((), AddNode("6", ROOT_DOMAIN), TypeError, None,
                               "node id must be an int, got '6'"),
    "node 0": ((), AddNode(0, ROOT_DOMAIN), ValueError, None,
               "node id must be positive, got 0"),
    "peer of the wrong type": ((), AddNode(6, ROOT_DOMAIN, (("5", 1),)), TypeError,
                               None, "node id must be an int, got '5'"),
    "coefficient of the wrong type": (
        (), AddNode(6, ROOT_DOMAIN, ((5, 1), (1, "x"))), TypeError, None,
        "link 6-1: not a number: 'x'",
    ),
    "no coefficient": ((), AddNode(6, ROOT_DOMAIN, ((1, None),)), TypeError, None,
                       "link 6-1: not a number: None"),
}


@pytest.mark.parametrize(
    "before, event, error, entry, message", STEP_FAULTS.values(), ids=list(STEP_FAULTS)
)
def test_apply_event_and_a_scenario_made_in_code_check_a_join_alike(
    before, event, error, entry, message
):
    scenario = chain_in_code()
    state = build_state(replace(scenario, events=before))
    with pytest.raises(error) as stepped:
        apply_event(state, event)
    assert (type(stepped.value), str(stepped.value)) == (error, message)
    assert getattr(stepped.value, "entry", None) == entry
    with pytest.raises(Exception) as made:
        replace(scenario, events=(*before, event))
    if entry is None:
        assert (type(made.value), str(made.value)) == (error, message)
    else:
        assert (type(made.value), made.value.path, made.value.message) == (
            ValidationError, f"events[{len(before)}].add_node.{entry}", message
        )


def test_join_links_a_scenario_would_use_up_are_refused_unread():
    links = iter([(1, 1)])
    with pytest.raises(ValidationError):
        replace(chain_in_code(), events=(AddNode(6, ROOT_DOMAIN, links),))
    assert list(links) == [(1, 1)]
    with pytest.raises(TypeError, match="^node id must be an int, got '6'$"):
        replace(chain_in_code(), events=(AddNode("6", ROOT_DOMAIN, iter(())),))
    # apply_event keeps the links it checks, so it takes them as they come.
    state = apply_event(
        build_state(chain_in_code()), AddNode(6, ROOT_DOMAIN, iter([(1, 1)]))
    )
    assert state.network.path_cost(5, 6) == 5


# Network entries of the wrong form, made in code, with the exact
# (entry, message) of the TopologyError the Network constructor raises;
# the loader raises a ValidationError at the same path for a file's.
CODE_FORM_ERRORS = [
    (dict(links=((1, 2),)), "links[0]", "expected [a, b, coeff], got 2 items"),
    (dict(links=((1, 2, 1), (2, 3, 1, 0))), "links[1]",
     "expected [a, b, coeff], got 4 items"),
    (dict(links=(5,)), "links[0]", "expected an array, got int"),
    (dict(links=((1, 2), (2, 3, "x"))), "links[0]",
     "expected [a, b, coeff], got 2 items"),
    (dict(links=((1, 2, 1), (2, 3, 1)), k_override=((1, 2), (0, 2, 1))),
     "k_override[0]", "expected [i, j, cost], got 2 items"),
    (dict(k_override=((1, 2),)), "k_override[0]", "expected [i, j, cost], got 2 items"),
    (dict(k_override=((1, 2, 1), None)), "k_override[1]",
     "expected an array, got NoneType"),
    (dict(k_override={(1,): 1}), "k_override[(1,)]", "expected (i, j), got 1 items"),
    (dict(k_override={(1, 2): 1, 5: 1}), "k_override[5]",
     "expected an array, got int"),
]


@pytest.mark.parametrize("fields, entry, message", CODE_FORM_ERRORS)
def test_an_entry_of_the_wrong_form_made_in_code_raises_the_network_error(
    fields, entry, message
):
    with pytest.raises(TopologyError) as info:
        replace(chain_in_code(), **fields)
    assert (type(info.value), info.value.entry, str(info.value)) == (
        TopologyError, entry, message
    )


def test_a_scenario_made_in_code_reads_no_pins_as_none():
    scenario = replace(chain_in_code(), k_override=None)
    assert scenario.k_override is None
    assert scenario.network.k_override == {}
    assert run(scenario).per_poll == run(chain_in_code()).per_poll


# The Network constructor's own errors, which Scenario lets through.
@pytest.mark.parametrize("nodes, error, message", [
    ((1, 2, 3, 4, "5"), TypeError, "node id must be an int, got '5'"),
    ((1, 2, 3, 4, 0), ValueError, "node id must be positive, got 0"),
])
def test_a_node_of_the_wrong_type_made_in_code_raises_the_network_error(
    nodes, error, message
):
    with pytest.raises(error) as info:
        replace(chain_in_code(), nodes=nodes)
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("fields, error, message", [
    (dict(nodes=(1, "2"), links=((1, 2),)), TypeError,
     "node id must be an int, got '2'"),
    (dict(links=((1, 2, "x"), (2, 3))), TypeError, "link 1-2: not a number: 'x'"),
    (dict(links=((1, "x", 1), (2, 3))), TypeError, "node id must be an int, got 'x'"),
    (dict(k_override=((1, 2, "x"), (1, 2))), TypeError,
     "k_override 1-2: not a number: 'x'"),
    (dict(links=((1, 2, 1), (2, 3, 1)), k_override=((0, 2, 1), (1, 2))), ValueError,
     "node id must be positive, got 0"),
    # A link iterator would be used up by the build, so it is refused first.
    (dict(links=iter(((1, "x", 1),)), k_override=((1, 2),)), ValidationError,
     "links: expected an array, got tuple_iterator"),
    (dict(links=iter(((1, 2),))), ValidationError,
     "links: expected an array, got tuple_iterator"),
])
def test_an_entry_of_the_wrong_form_made_in_code_does_not_hide_an_earlier_fault(
    fields, error, message
):
    with pytest.raises(error) as info:
        replace(chain_in_code(), **fields)
    assert (type(info.value), str(info.value)) == (error, message)


def test_a_join_link_made_in_code_takes_any_number_add_link_takes():
    join = AddNode(6, DomainId.parse("1"), ((5, 2), (4, "1/2")))
    scenario = replace(chain_in_code(), events=(join,))
    assert build_state(scenario).network.path_cost(6, 3) == Fraction(3, 2)


def test_a_run_stores_a_join_link_made_in_code_as_add_link_does():
    # The round trip 1-2-3-4-5-6 returns from 6 over 6-4-3: hops 1, 1, 1,
    # 1, then 3/2 and 7/2, so s_ma * 9 + d * (1 + 2 + 3 + 4*3/2 + 5*7/2).
    join = AddNode(6, DomainId.parse("1"), ((5, 2), (4, "1/2")))
    params = CostParams(1, 1, 1, s_ma=10, d=1, ma_size=1, mda_size=1, ma_res=1)
    scenario = replace(chain_in_code(), events=(join, Snapshot("end")), params=params)
    expected = 10 * 9 + Fraction(59, 2)
    stepped = build_state(scenario).network
    assert cost_flatbed(stepped, (1, 2, 3, 4, 5, 6), params) == expected
    assert run(scenario).per_poll == {"flatbed": expected}
    priced = run(scenario, costs_at_snapshots=True)
    assert priced.per_poll == priced.snapshots[0].per_poll == {"flatbed": expected}


STATE = DomainState("1", 1, (1,), None, ())
TABLE = {"cs": Fraction(1, 2)}


@pytest.mark.parametrize(
    "record, text, values",
    [
        (
            AddNode(6, ROOT_DOMAIN, ((1, Fraction(2)),)),
            "AddNode(node=6, domain=DomainId(path=(1,)), links=((1, Fraction(2, 1)),))",
            (6, ROOT_DOMAIN, ((1, Fraction(2)),)),
        ),
        (Snapshot("a"), "Snapshot(label='a')", ("a",)),
        (
            SnapshotRecord("a", (STATE,), TABLE, TABLE),
            f"SnapshotRecord(label='a', domains=({STATE!r},), "
            "per_poll={'cs': Fraction(1, 2)}, deploy={'cs': Fraction(1, 2)})",
            ("a", (STATE,), TABLE, TABLE),
        ),
        (
            SimulationResult("s", ("cs",), (0, 2), TABLE, TABLE, (), (STATE,)),
            "SimulationResult(scenario='s', models=('cs',), polling_counts=(0, 2), "
            "per_poll={'cs': Fraction(1, 2)}, deploy={'cs': Fraction(1, 2)}, "
            f"snapshots=(), final_domains=({STATE!r},))",
            ("s", ("cs",), (0, 2), TABLE, TABLE, (), (STATE,)),
        ),
    ],
)
def test_event_and_result_records_are_frozen(record, text, values):
    assert_frozen_record(record, text, values)


def test_records_fill_their_defaults():
    assert AddNode(node=6, domain=ROOT_DOMAIN) == AddNode(6, ROOT_DOMAIN, ())
    record = SnapshotRecord(label="a", domains=(STATE,))
    assert (record.per_poll, record.deploy) == (None, None)
    assert hash(record) == hash(("a", (STATE,), None, None))
    scenario = chain_in_code()
    assert (scenario.flatbed_itinerary, scenario.notes) == (None, None)


def test_a_scenario_is_a_frozen_record_without_its_network():
    scenario = chain_in_code()
    names = list(inspect.signature(Scenario).parameters)
    values = tuple(getattr(scenario, name) for name in names)
    text = (
        f"Scenario(name='tiny', nodes=(1, 2, 3, 4, 5), links={scenario.links!r}, "
        f"k_override=(), central=1, m_max=2, params={scenario.params!r}, "
        "domain_k={}, events=(), polling_counts=(), models=('flatbed',), "
        "flatbed_itinerary=None, notes=None)"
    )
    assert_frozen_record(scenario, text, values)
    other = chain_in_code()
    assert other.network is not scenario.network and other == scenario
    with pytest.raises(AttributeError, match="cannot assign to field 'network'"):
        scenario.network = other.network
    with pytest.raises(AttributeError, match="cannot delete field 'network'"):
        del scenario.network


def test_scenarios_over_networks_built_in_another_order_are_equal():
    scenario = chain_in_code()
    fields = [getattr(scenario, name) for name in Scenario._fields]
    network = Network(scenario.nodes[::-1], scenario.links[::-1])
    other = Scenario._loaded((network, dict.fromkeys(scenario.nodes), {}), *fields)
    assert list(other.network.links) == list(scenario.network.links)
    assert list(other.network._order) != list(scenario.network._order)
    assert other == scenario
    # A scenario has no hash: its domain_k is a dict.
    for each in (scenario, other):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(each)


def test_a_simulation_state_is_a_mutable_record():
    network, tree = Network([1]), ManagerTree.initial_partition([1], 2, 1)
    state = SimulationState(network, tree)
    assert state == SimulationState(network=network, tree=tree, snapshots=[])
    assert state.snapshots is not SimulationState(network, tree).snapshots
    assert state != (network, tree, [])
    assert repr(state) == (
        f"SimulationState(network={network!r}, tree={tree!r}, snapshots=[])"
    )
    with pytest.raises(TypeError):
        hash(state)
    state.snapshots = [SnapshotRecord("a", ())]
    assert state != SimulationState(network, tree)
    del state.snapshots
    assert not hasattr(state, "snapshots")
    # Setting the network drops the joins waiting for it.
    apply_event(state, AddNode(2, ROOT_DOMAIN))
    state.network = network
    assert state.network is network and state._waiting == {}


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


# Join domains a loader that parsed only the last part with int() would
# take: "+2", " 2", "2_0" and "٢" all read as 2.
BAD_CHILD_DOMAINS = [
    "1.0",
    "1.01",
    "1.",
    "1..2",
    "1.+2",
    "1. 2",
    "1.2_0",
    "1.٢",
    "1.²",  # isdigit() is true, but int() fails
    "1.x",
    "1." + "1" * 5000,  # past the int digit limit
]


@pytest.mark.parametrize(
    "domain", BAD_CHILD_DOMAINS, ids=[text[:8] for text in BAD_CHILD_DOMAINS]
)
def test_a_bad_join_domain_fails_alike_after_a_join_into_its_parent(domain):
    # The same join, at the same index, as the file's first join and after
    # a good join into "1".
    errors = []
    for first in ({"snapshot": "a"}, join(2, "1", [])):
        with pytest.raises(ValidationError) as info:
            load_scenario(scenario_text(events=[first, join(3, domain, [])]))
        errors.append((info.value.path, info.value.message))
    assert errors[0] == errors[1]
    assert errors[0][0] == "events[1].add_node.domain"
    with pytest.raises(ValueError) as parsed:
        DomainId.parse(domain)
    assert errors[0][1] == str(parsed.value)


@st.composite
def grown_join_domains(draw):
    """Initial size, m_max and the domain texts of joins into existing domains.

    Each join picks any domain of the tree grown so far, so texts are first
    seen in any order the growth allows: a chunk domain of the initial
    partition before its parent, a cloned child after it.
    """
    size = draw(st.integers(min_value=1, max_value=13))
    m_max = draw(st.integers(min_value=1, max_value=2))
    tree = ManagerTree.initial_partition(range(1, size + 1), m_max, 1)
    texts = []
    for node, pick in enumerate(draw(st.lists(st.integers(0), max_size=40))):
        ids = tree.domain_ids()
        domain = ids[pick % len(ids)]
        texts.append(str(domain))
        tree.add_node_to_domain(size + 1 + node, domain)
    return size, m_max, texts


@given(grown_join_domains())
def test_loaded_join_domains_equal_their_full_parse(case):
    size, m_max, texts = case
    events = [join(size + 1 + n, text, []) for n, text in enumerate(texts)]
    scenario = load_scenario(
        scenario_text(nodes=list(range(1, size + 1)), m_max=m_max, events=events)
    )
    assert [event.domain for event in scenario.events] == [
        DomainId.parse(text) for text in texts
    ]


def grown_doc(size: int) -> dict:
    """A sound scenario of ``size`` nodes, links, pins, joins and snapshots.

    Its numbers reuse three literals, so only a few are new to the loader.
    """
    literals = [1, 2.5, 0.5]
    nodes = list(range(1, size + 1))
    pairs = [[a, a + 1, literals[a % 3]] for a in range(1, size)]
    events = []
    for n in range(size):
        node = size + 1 + n
        events.append(join(node, "1", [[node - 1, literals[n % 3]]]))
        events.append({"snapshot": f"s{n}"})
    return dict(nodes=nodes, links=pairs, k_override=pairs, events=events)


def test_json_paths_are_formatted_per_fault_or_new_number_not_per_entry(monkeypatch):
    calls = []
    for name in dir(simulation):
        if name.startswith("_expect_"):
            def counting(*args, _checked=getattr(simulation, name), **kwargs):
                calls.append(args[1])
                return _checked(*args, **kwargs)

            monkeypatch.setattr(simulation, name, counting)
    counts = []
    for size in (4, 400):
        calls.clear()
        scenario = load_scenario(scenario_text(**grown_doc(size)))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    # each entry was still read in full
    assert scenario.events[798:] == (
        AddNode(800, DomainId.parse("1"), ((799, Fraction(1)),)),
        Snapshot("s399"),
    )
    assert scenario.k_override[-2:] == ((398, 399, Fraction(1, 2)), (399, 400, 1))


def test_deep_join_domains_load_in_parts_linear_in_the_joins(monkeypatch):
    # With m_max=1 each join into the newest domain clones a child one
    # level deeper, so the n-th join's domain has n + 1 parts.
    joins = 400
    domain, events = "1.1", []
    for node in range(3, 3 + joins):
        events.append(join(node, domain, []))
        domain += ".1"
    text = scenario_text(nodes=[1, 2], m_max=1, events=events)
    parts = []
    parse = DomainId.parse

    def counting_parse(cls, text):
        parts.append(text.count(".") + 1)
        return parse(text)

    monkeypatch.setattr(DomainId, "parse", classmethod(counting_parse))
    scenario = load_scenario(text)
    assert scenario.events[-1].domain.path == (1,) * (joins + 1)
    assert sum(parts) <= 3 * joins


def test_a_run_makes_one_network_version_per_pricing_point(monkeypatch):
    # A 400-join chain, each join linked to the node before it, with a
    # snapshot after every 100th join but the last: stepped one write at
    # a time, it would make a version per node and per link.
    joins, snapshots = 400, 3
    events = []
    for node in range(3, 3 + joins):
        events.append(join(node, "1", [[node - 1, 1]]))
        if node - 2 in (100, 200, 300):
            events.append({"snapshot": f"after {node - 2}"})
    text = scenario_text(
        nodes=[1, 2], links=[[1, 2, 1]], m_max=1, events=events, models=["cs"]
    )
    scenario = load_scenario(text)
    versions = []
    version = Network._of.__func__

    def counting(cls, *tables):
        versions.append(tables)
        return version(cls, *tables)

    monkeypatch.setattr(Network, "_of", classmethod(counting))
    plain = run(scenario)
    assert len(versions) <= 2
    versions.clear()
    priced = run(scenario, costs_at_snapshots=True)
    assert len(priced.snapshots) == snapshots
    assert len(versions) <= snapshots + 2
    assert priced.per_poll == plain.per_poll


def test_stepwise_joins_make_no_version_until_the_network_is_read(monkeypatch):
    # A checked join waits in the state, so this 2,000-join chain, each
    # join linked to the node before it, makes no Network version until
    # state.network is read, and then makes one, however many joins wait.
    versions = []
    joined = Network._joined

    def counting(self, joins):
        versions.append(self)
        return joined(self, joins)

    start = Network([1])
    state = SimulationState(start, ManagerTree.initial_partition([1], 1, 1))
    monkeypatch.setattr(Network, "_joined", counting)
    for node in range(2, 2002):
        apply_event(state, AddNode(node, ROOT_DOMAIN, ((node - 1, Fraction(1)),)))
    assert versions == []
    network = state.network
    assert versions == [start]
    assert state.network is network and len(versions) == 1
    monkeypatch.undo()
    chain = [(node - 1, node, 1) for node in range(2, 2002)]
    assert network == Network(range(1, 2002), chain)
    assert network.path_cost(1, 2001) == 2000
    assert start.nodes == {1}


NUMBERS = st.sampled_from(
    [0, 1, 3, Fraction(1, 3), Fraction(5, 2), "1/2", "2.5", Decimal("0.75")]
)


def _stepped(network: Network, join: AddNode) -> Network:
    """``join`` added to ``network`` one write at a time, checked by each."""
    network = network.add_node(join.node)
    for peer, coeff in join.links:
        network = network.add_link(join.node, peer, coeff)
    return network


@given(st.data())
def test_waiting_joins_read_as_fresh_builds_and_a_failed_join_keeps_them(data):
    nodes, links = [1, 2, 3], [(1, 2, 1)]
    state = SimulationState(
        Network(nodes, links), ManagerTree.initial_partition(nodes, 2, 1)
    )
    for node in range(4, 4 + data.draw(st.integers(min_value=0, max_value=8))):
        peers = data.draw(st.lists(st.sampled_from(nodes), unique=True, max_size=3))
        pairs = tuple((peer, data.draw(NUMBERS)) for peer in peers)
        domain = data.draw(st.sampled_from(state.tree.domain_ids()))
        apply_event(state, AddNode(node, domain, pairs))
        nodes.append(node)
        links += [(peer, node, coeff) for peer, coeff in pairs]
        if data.draw(st.booleans()):
            read, fresh = state.network, Network(nodes, links)
            assert read == fresh
            assert list(read._order.items()) == list(fresh._order.items())
    network, waiting = state._network, dict(state._waiting)
    domains = state.tree.states()
    new = nodes[-1] + 1
    kind = data.draw(st.sampled_from(["domain", "peer", "node", "coeff"]))
    failing = {
        "domain": AddNode(new, DomainId.parse("1.99"), ((1, 1),)),
        "peer": AddNode(new, ROOT_DOMAIN, ((1, 1), (new + 1, 1))),
        "node": AddNode(data.draw(st.sampled_from(nodes)), ROOT_DOMAIN),
        "coeff": AddNode(new, ROOT_DOMAIN, ((1, 2), (2, "-1/2"))),
    }[kind]
    with pytest.raises(Exception) as caught:
        apply_event(state, failing)
    if kind == "domain":
        assert caught.type is UnknownDomain
    else:
        # the error, and its wording, of the same join written step by step
        with pytest.raises(caught.type, match=f"^{re.escape(str(caught.value))}$"):
            _stepped(Network(nodes, links), failing)
    assert state._network is network and state._waiting == waiting
    assert state.tree.states() == domains
    assert state.network == Network(nodes, links)


@st.composite
def growing_scenarios(draw) -> Scenario:
    """A scenario made in code: a connected network grown by joins with links.

    Each join links to one or two nodes known by then, at coefficients
    of any type ``add_link`` takes, and joins any domain of the tree grown
    so far. Snapshots fall between the joins. Pins, a ``domain_k`` entry
    and an explicit itinerary are drawn too.
    """
    size = draw(st.integers(min_value=1, max_value=6))
    m_max = draw(st.integers(min_value=1, max_value=3))
    nodes = tuple(range(1, size + 1))
    central = draw(st.sampled_from(nodes))
    links = tuple((a, a + 1, draw(NUMBERS)) for a in range(1, size))
    tree = ManagerTree.initial_partition(nodes, m_max, central)
    events: list = []
    known = list(nodes)
    for step in range(draw(st.integers(min_value=0, max_value=12))):
        if draw(st.booleans()):
            events.append(Snapshot(f"s{step}"))
            continue
        node = len(known) + 1
        ids = tree.domain_ids()
        domain = ids[draw(st.integers(min_value=0)) % len(ids)]
        peers = st.lists(st.sampled_from(known), min_size=1, max_size=2, unique=True)
        join_links = tuple((peer, draw(NUMBERS)) for peer in draw(peers))
        events.append(AddNode(node, domain, join_links))
        tree.add_node_to_domain(node, domain)
        known.append(node)
    pairs = st.tuples(st.sampled_from(known), st.sampled_from(known)).filter(
        lambda pair: pair[0] < pair[1]
    )
    pinned = draw(st.lists(pairs, max_size=2, unique=True)) if len(known) > 1 else []
    domain_k = {}
    if draw(st.booleans()):
        domain_k[str(draw(st.sampled_from(tree.domain_ids())))] = draw(NUMBERS)
    itinerary = None
    if draw(st.booleans()):
        others = [node for node in known if node != central]
        itinerary = (central, *draw(st.permutations(others)))
    sizes = st.integers(min_value=1, max_value=9)
    names = ("s_req", "s_res", "s_ma", "d", "ma_size", "mda_size", "ma_res")
    params = CostParams(num_vars=draw(sizes), **{n: draw(sizes) for n in names})
    return Scenario(
        name="grown",
        nodes=nodes,
        links=links,
        k_override=tuple((a, b, draw(NUMBERS)) for a, b in pinned),
        central=central,
        m_max=m_max,
        params=params,
        domain_k=domain_k,
        events=tuple(events),
        polling_counts=(1,),
        models=("cs", "flatbed", "imasnm"),
        flatbed_itinerary=itinerary,
    )


def stepwise_prices(scenario: Scenario, state: SimulationState) -> tuple[dict, dict]:
    """The three models' (per-poll, deploy) bytes, from the public cost functions."""
    network, tree, params = state.network, state.tree, scenario.params
    present = network.nodes
    if scenario.flatbed_itinerary is None:
        others = sorted(present - {scenario.central})
        itinerary = (scenario.central, *others)
    else:
        itinerary = tuple(n for n in scenario.flatbed_itinerary if n in present)
    flatbed = Fraction(0)
    if len(itinerary) >= 2:
        flatbed = cost_flatbed(network, itinerary, params)
    per_poll = {
        "cs": cost_centralized(network, scenario.central, sorted(present), params),
        "flatbed": flatbed,
        "imasnm": cost_imasnm_poll(network, tree, params, scenario.domain_k),
    }
    deploy = {
        "cs": Fraction(0),
        "flatbed": Fraction(0),
        "imasnm": cost_imasnm_deploy(network, tree, params),
    }
    return per_poll, deploy


@given(growing_scenarios())
def test_a_run_prices_as_a_stepwise_replay(scenario):
    # The replay of build_state, one apply_event at a time, priced at each
    # snapshot and at the end.
    state = SimulationState(
        network=Network(scenario.nodes, scenario.links, scenario.k_override),
        tree=ManagerTree.initial_partition(
            scenario.nodes, scenario.m_max, scenario.central
        ),
    )
    at_snapshots = []
    for event in scenario.events:
        apply_event(state, event)
        if isinstance(event, Snapshot):
            at_snapshots.append(stepwise_prices(scenario, state))
    per_poll, deploy = stepwise_prices(scenario, state)
    final_domains = state.tree.states()

    priced = run(scenario, costs_at_snapshots=True)
    plain = run(scenario)
    for result in (priced, plain):
        assert (result.per_poll, result.deploy) == (per_poll, deploy)
        assert result.final_domains == final_domains
        assert [s.label for s in result.snapshots] == [s.label for s in state.snapshots]
        assert [s.domains for s in result.snapshots] == [
            s.domains for s in state.snapshots
        ]
    assert [(s.per_poll, s.deploy) for s in priced.snapshots] == at_snapshots
    assert all(s.per_poll is s.deploy is None for s in plain.snapshots)
    tables = [priced.per_poll, priced.deploy]
    for taken in priced.snapshots:
        tables += [taken.per_poll, taken.deploy]
    assert all(type(value) is Fraction for table in tables for value in table.values())


def test_a_sound_file_is_loaded_without_walking_its_entries_again(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the loader walked the links, pins or events again")

    replays = []
    replay_shape = ManagerTree._replay_shape

    def count_replays(*args):
        replays.append(args)
        return replay_shape(*args)

    monkeypatch.setattr(Network, "__init__", refuse)
    monkeypatch.setattr(Scenario, "_check_pins", refuse)
    monkeypatch.setattr(Scenario, "_check_events", refuse)
    monkeypatch.setattr(ManagerTree, "_replay_shape", staticmethod(count_replays))
    text = scenario_text(
        nodes=[3, 1, 2],
        links=[[2, 1, 1], [2, 3, 2.5]],
        k_override=[[4, 1, 3], [2, 2, 0], [1, 3, 2.5]],
        events=[join(4, "1", [[3, 1]]), {"snapshot": "end"}],
        models=["cs", "flatbed", "imasnm"],
    )
    scenarios = [load_scenario(text)]
    scenarios += [load_bundled_scenario(name) for name in bundled_scenario_names()]
    monkeypatch.undo()
    assert len(replays) == len(scenarios)  # the split rule is replayed once a load
    assert len(scenarios[0].links) == 2 and len(scenarios[0].k_override) == 3
    for scenario in scenarios:
        built = Network(scenario.nodes, scenario.links, scenario.k_override)
        assert scenario.network == built


# Number literals as a file spells them; 1 and 1.0 are one number.
LITERALS = st.sampled_from([0, 1, 3, 0.5, 1.0, 2.5, 0.75])


@st.composite
def sound_scenario_docs(draw) -> dict:
    """A scenario file whose nodes, links and pins are all sound.

    Node ids come in any order. The links, a random spanning tree and
    some more, come in any order, each end first. Joins link to nodes
    known by then and join any domain of the tree grown so far, between
    snapshots. Pins name initial or joining nodes in either order, and
    may set a node's own cost, at 0.
    """
    nodes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
    m_max = draw(st.integers(min_value=1, max_value=3))
    central = draw(st.sampled_from(nodes))
    keys: set[frozenset] = set()
    links = []

    def link(a: int, b: int) -> None:
        if a != b and frozenset((a, b)) not in keys:
            keys.add(frozenset((a, b)))
            links.append([*((a, b) if draw(st.booleans()) else (b, a)), draw(LITERALS)])

    for index in range(1, len(nodes)):
        link(nodes[index], nodes[draw(st.integers(0, index - 1))])
    for a, b in draw(st.lists(st.tuples(*[st.sampled_from(nodes)] * 2), max_size=4)):
        link(a, b)
    tree = ManagerTree.initial_partition(nodes, m_max, central)
    known, events = list(nodes), []
    for step in range(draw(st.integers(min_value=0, max_value=6))):
        if draw(st.booleans()):
            events.append({"snapshot": f"s{step}"})
            continue
        node = 41 + step
        ids = tree.domain_ids()
        domain = ids[draw(st.integers(min_value=0)) % len(ids)]
        peers = st.lists(st.sampled_from(known), min_size=1, max_size=2, unique=True)
        pairs = [[peer, draw(LITERALS)] for peer in draw(peers)]
        events.append(join(node, str(domain), pairs))
        tree.add_node_to_domain(node, domain)
        known.append(node)
    pins, pinned = [], set()
    for a, b in draw(st.lists(st.tuples(*[st.sampled_from(known)] * 2), max_size=4)):
        if frozenset((a, b)) not in pinned:
            pinned.add(frozenset((a, b)))
            pins.append([a, b, 0 if a == b else draw(LITERALS)])
    sizes = {name: draw(st.integers(1, 9)) for name in MINIMAL["params"]}
    return dict(
        MINIMAL, nodes=nodes, links=links, k_override=pins, central=central,
        m_max=m_max, params=sizes, events=events, polling_counts=[1],
        models=["cs", "flatbed", "imasnm"],
    )


@given(sound_scenario_docs())
def test_a_loaded_network_is_the_one_its_fields_build(doc):
    scenario = load_scenario(json.dumps(doc))
    loaded = scenario.network
    built = Network(scenario.nodes, scenario.links, scenario.k_override)
    # node order, link insertion order and pins, entry for entry
    assert list(loaded._order.items()) == list(built._order.items())
    assert list(loaded._links.items()) == list(built._links.items())
    assert list(loaded._override.items()) == list(built._override.items())
    made = replace(scenario)
    for at_snapshots in (False, True):
        assert run(scenario, costs_at_snapshots=at_snapshots) == run(
            made, costs_at_snapshots=at_snapshots
        )


@given(sound_scenario_docs(), st.data())
def test_a_join_fault_reads_the_same_loaded_or_made_in_code(doc, data):
    # A sound join appended, so that every file has one to break.
    events = [*doc["events"], join(60, "1", [[doc["central"], 1]])]
    joins = [index for index, event in enumerate(events) if "add_node" in event]
    at = data.draw(st.sampled_from(joins))
    body = events[at]["add_node"]
    node, links = body["node"], list(body["links"])
    faults = ["node", "peer", "self", "repeat", "domain", "label"]
    fault = data.draw(st.sampled_from(faults))
    slot = data.draw(st.integers(0, len(links)))
    if fault == "node":
        node = doc["nodes"][0]
    elif fault == "peer":
        links.insert(slot, [99, 1])
    elif fault == "self":
        links.insert(slot, [node, 1])
    elif fault == "repeat":
        links.insert(slot, [data.draw(st.sampled_from(links))[0], 1])
    events[at] = join(node, "1.99" if fault == "domain" else body["domain"], links)
    if fault == "label":
        events.insert(at, {"snapshot": "again"})
        events.insert(data.draw(st.integers(0, at)), {"snapshot": "again"})
    with pytest.raises(ValidationError) as loaded:
        load_scenario(json.dumps({**doc, "events": events}))
    with pytest.raises(ValidationError) as made:
        replace(load_scenario(json.dumps(doc)), events=tuple(map(code_event, events)))
    assert (loaded.value.path, loaded.value.message) == (
        made.value.path, made.value.message
    )
    where = f"events[{at + 1}].snapshot" if fault == "label" else f"events[{at}]."
    assert loaded.value.path.startswith(where)


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
    """Faults found by replaying the joins or by pricing, each with a JSON path.

    Making the scenario replays the joins on domain counts; only a
    pricing finds a pair that cannot be reached.
    """

    def test_join_into_a_missing_domain(self, reference18_scenario):
        join = AddNode(99, DomainId.parse("1.7"))
        events = (*reference18_scenario.events, join)
        with pytest.raises(ValidationError) as caught:
            replace(reference18_scenario, events=events)
        assert (caught.value.path, caught.value.message) == (
            f"events[{len(events) - 1}].add_node.domain",
            "no such domain: 1.7",
        )

    def test_domain_k_key_that_names_no_domain(self, reference18_scenario):
        domain_k = {**reference18_scenario.domain_k, "1.9.9": Fraction(2)}
        with pytest.raises(ValidationError) as caught:
            replace(reference18_scenario, domain_k=domain_k)
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

    def test_a_failed_join_changes_nothing(self, reference18_state):
        # The network step and the tree step both succeed before the state
        # takes the new network, so a corrected retry of the join succeeds.
        state = reference18_state
        network, domains = state.network, state.tree.states()
        link = ((1, Fraction(2)),)
        with pytest.raises(UnknownDomain):
            apply_event(state, AddNode(99, DomainId.parse("1.9"), link))
        with pytest.raises(UnknownNode, match="^unknown node 98$"):
            apply_event(state, AddNode(99, DomainId.parse("1"), ((98, 1),)))
        assert state.network is network and 99 not in network.nodes
        assert state.tree.states() == domains
        apply_event(state, AddNode(99, DomainId.parse("1"), link))
        assert state.network.path_cost(99, 1) == 2
        assert sum(99 in d.members for d in state.tree.states()) == 1

    def test_unknown_event_type_is_a_type_error(self):
        state = self.fresh_state()
        with pytest.raises(TypeError, match="unknown event type"):
            apply_event(state, object())
        assert state.snapshots == [] and len(state.tree.domain_ids()) == 2

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
        domains = {str(d.id): d for d in state.tree.domains()}
        with pytest.raises(AttributeError):
            domains["1.2"].members.append(13)
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


def priced_grown_text(size: int) -> str:
    """``grown_doc(size)`` priced by every model at two polling counts."""
    sizes = params(s_req=120, s_res=280, s_ma=2048, d=64, ma_size=4096, ma_res=96)
    return scenario_text(
        **grown_doc(size), params=sizes, models=["cs", "flatbed", "imasnm"],
        polling_counts=[1, 9],
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
        original = simulation._prices

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(simulation, "_prices", counting)
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

        versions = []
        version = Network._of.__func__

        def starting(cls, *tables):
            versions.append(tables)
            return version(cls, *tables)

        monkeypatch.setattr(Network, "__init__", counting)
        monkeypatch.setattr(Network, "_of", classmethod(starting))
        plain = run(scenario)
        priced = run(scenario, costs_at_snapshots=True)
        assert run(scenario) == plain
        assert run(scenario, costs_at_snapshots=True) == priced
        assert (priced.per_poll, priced.deploy) == (plain.per_poll, plain.deploy)
        assert priced.snapshots[0].per_poll != priced.per_poll
        assert builds == []
        # Each run starts one version over the loaded tables, and prices
        # new versions, never the loaded one.
        loaded = scenario.network
        starts = [made for made in versions if made[0] is loaded._order]
        assert len(starts) == 4
        assert all(made[1] is loaded._links for made in starts)
        assert loaded._engine is None
        monkeypatch.undo()
        fresh = Network(scenario.nodes, scenario.links, scenario.k_override)
        assert scenario.network == fresh
        # The joins went into new versions: the loaded tables keep their size.
        assert len(scenario.network._order) == len(scenario.nodes)
        assert len(scenario.network._links) == len(scenario.links)

    def test_a_run_builds_no_path_engine_on_the_scenario_network(self):
        # The first snapshot comes before every join, so the network priced
        # there has the scenario's nodes and links.
        scenario = load_scenario(self.growing_scenario_text())
        assert isinstance(scenario.events[0], Snapshot)
        priced = run(scenario, costs_at_snapshots=True)
        assert priced.snapshots[0].per_poll["cs"] > 0
        assert scenario.network._engine is None

    def test_a_run_with_no_model_makes_no_network_version(self, monkeypatch):
        scenario = load_scenario(self.growing_scenario_text(models=[]))

        def refuse(self, *args):
            raise AssertionError("a run with no model made a Network version")

        monkeypatch.setattr(Network, "_joined", refuse)
        monkeypatch.setattr(Network, "_of", classmethod(refuse))
        plain = run(scenario)
        priced = run(scenario, costs_at_snapshots=True)
        assert (plain.per_poll, plain.deploy) == ({}, {})
        assert (priced.per_poll, priced.deploy) == ({}, {})
        assert all(s.per_poll is s.deploy is None for s in plain.snapshots)
        tables = [(s.per_poll, s.deploy) for s in priced.snapshots]
        assert tables == [({}, {}), ({}, {})]
        assert len({id(table) for pair in tables for table in pair}) == 4
        monkeypatch.undo()
        assert plain.final_domains == run(scenario, models=["imasnm"]).final_domains

    def test_imasnm_is_priced_from_the_domain_states_alone(self, monkeypatch):
        params = {**MINIMAL["params"], "ma_size": 7, "mda_size": 3, "ma_res": 2}
        text = self.growing_scenario_text(domain_k={"1.1": 5}, params=params)
        scenario = load_scenario(text)
        expected = run(scenario, costs_at_snapshots=True)

        def refuse(self):
            raise AssertionError("pricing read a Domain view")

        monkeypatch.setattr(ManagerTree, "domains", refuse)
        result = run(scenario, costs_at_snapshots=True)
        assert result == expected
        assert result.snapshots[1].per_poll == expected.per_poll
        assert result.deploy["imasnm"] > 0
        assert result.per_poll["imasnm"] != result.snapshots[0].per_poll["imasnm"]

    def test_a_finished_tree_is_freed_without_the_collector(self):
        """A load and a priced run leave no cyclic garbage at all."""
        generated = priced_grown_text(40)
        loads = (
            lambda: load_bundled_scenario("growth19"),
            lambda: load_scenario(generated),
        )
        for load in loads:
            was_enabled, flags = gc.isenabled(), gc.get_debug()
            gc.collect()
            gc.disable()
            try:
                scenario = load()
                run(scenario, costs_at_snapshots=True)
                del scenario
                gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the pass finds unreachable
                unreachable = gc.collect()
                left = [item for item in gc.garbage if type(item) is _ManagerRecord]
            finally:
                gc.set_debug(flags)
                gc.garbage.clear()
                if was_enabled:
                    gc.enable()
            assert left == []
            assert unreachable == 0

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


class TestCollectorPause:
    """``load_scenario`` pauses the cyclic collector and restores it.

    ``run`` leaves it as the caller set it.
    """

    @pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
    def collecting(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    def test_restored_after_success(self, collecting, monkeypatch):
        seen = []

        def spy(name):
            real = getattr(simulation, name)

            def record(*args):
                seen.append((name, gc.isenabled()))
                return real(*args)

            monkeypatch.setattr(simulation, name, record)

        spy("_scenario_from_raw")
        spy("_model_costs")
        run(load_scenario(priced_grown_text(3)))
        assert seen == [("_scenario_from_raw", False), ("_model_costs", collecting)]
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize(
        "call, error, where",
        [
            (lambda: load_scenario("{broken"), ParseError, None),
            (lambda: load_scenario(scenario_text(m_max=0)), ValidationError, "m_max"),
            (
                lambda: run(load_bundled_scenario("growth19"), models=("cs",)),
                ValidationError,
                "models",
            ),
            (
                lambda: run(load_bundled_scenario("growth19"), models=("snmp",)),
                ValueError,
                None,
            ),
        ],
        ids=["parse", "field", "unreachable", "unknown_model_argument"],
    )
    def test_restored_after_a_failure(self, collecting, call, error, where):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert getattr(info.value, "path", None) == where
        assert gc.isenabled() is collecting

    def test_no_pass_runs_while_a_load_works(self, monkeypatch):
        """No collector pass starts before a load's last step returns.

        Turning the collector back on lets its next young pass start at
        once, in the pause's exit, after the work is done.
        """
        big = scenario_text(**grown_doc(2000))  # a few thousand links and pins
        starts, marks = [], []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        real = simulation._scenario_from_raw

        def last_step(raw):
            scenario = real(raw)
            marks.append(len(starts))
            return scenario

        monkeypatch.setattr(simulation, "_scenario_from_raw", last_step)
        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(count)
        try:
            gc.collect()  # so no young pass is due as the load starts
            del starts[:]
            load_scenario(big)
        finally:
            gc.callbacks.remove(count)
            if not was_enabled:
                gc.disable()
        assert marks == [0]
        assert len(starts) <= 1


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
        edges = parent_links(reference18_state.tree)
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
