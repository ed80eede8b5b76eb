"""Exercise the command line entry point through main()."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from netmansim.cli import main


def write_scenario(tmp_path, name="local", **overrides):
    doc = {
        "name": name,
        "nodes": [1, 2],
        "links": [[1, 2, 1]],
        "central": 1,
        "m_max": 3,
        "params": {
            "s_req": 1,
            "s_res": 1,
            "num_vars": 1,
            "s_ma": 1,
            "d": 1,
            "ma_size": 1,
            "mda_size": 1,
            "ma_res": 1,
        },
        "events": [],
        "polling_counts": [1],
        "models": ["cs", "flatbed", "imasnm"],
    }
    doc.update(overrides)
    target = tmp_path / f"{name}.scenario.json"
    target.write_text(json.dumps(doc))
    return str(target)


class TestSimulate:
    def test_bundled_scenario_by_bare_name(self, capsys):
        assert main(["simulate", "--scenario", "reference18"]) == 0
        out = capsys.readouterr().out
        assert "110.22" in out
        assert "7355.74" in out
        assert "100352" in out

    def test_polling_override(self, capsys):
        code = main(
            ["simulate", "--scenario", "reference18", "--pollings", "1,10,20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2204.40" in out
        assert "5511.00" not in out

    def test_model_override_drops_columns(self, capsys):
        code = main(["simulate", "--scenario", "reference18", "--models", "cs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost_cs_kb" in out
        assert "imasnm" not in out

    def test_include_deploy_changes_rows(self, capsys):
        base = main(["simulate", "--scenario", "reference18", "--pollings", "1"])
        plain = capsys.readouterr().out
        with_deploy = main(
            [
                "simulate",
                "--scenario",
                "reference18",
                "--pollings",
                "1",
                "--include-deploy",
            ]
        )
        loaded = capsys.readouterr().out
        assert base == with_deploy == 0
        assert "73.56" in plain
        # 73557.4 + 100352 = 173909.4 bytes, 173.91 Kb
        assert "173.91" in loaded

    def test_snapshots_flag_prints_history(self, capsys):
        code = main(
            ["simulate", "--scenario", "growth19", "--snapshots"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshot" in out
        assert "after-first-split" in out

    def test_scenario_without_models_prints_tree(self, capsys):
        assert main(["simulate", "--scenario", "growth19"]) == 0
        out = capsys.readouterr().out
        assert "1.3.1.1" in out

    def test_csv_output(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code = main(
            [
                "simulate",
                "--scenario",
                "reference18",
                "--pollings",
                "1",
                "--csv",
                str(target),
            ]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "polling,cost_cs_kb,cost_imasnm_kb"
        assert lines[1] == "1,110.22,73.56"

    def test_csv_target_in_missing_directory_is_io_failure(
        self, capsys, tmp_path
    ):
        target = tmp_path / "absent" / "out.csv"
        code = main(
            ["simulate", "--scenario", "reference18", "--csv", str(target)]
        )
        assert code == 2
        assert capsys.readouterr().err != ""

    def test_local_scenario_file(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        assert main(["simulate", "--scenario", path]) == 0
        assert "cost_imasnm_kb" in capsys.readouterr().out

    def test_bad_models_argument(self, capsys):
        code = main(
            ["simulate", "--scenario", "reference18", "--models", "bogus"]
        )
        assert code == 1
        assert "--models" in capsys.readouterr().err
        for value, message in (
            (",", "--models: expected a comma-separated model list"),
            ("cs,cs", "--models: duplicate model"),
        ):
            code = main(["simulate", "--scenario", "reference18", "--models", value])
            assert code == 1
            assert message in capsys.readouterr().err

    def test_bad_pollings_argument(self, capsys):
        for value in ("-1", "x", ""):
            code = main(
                ["simulate", "--scenario", "reference18", "--pollings", value]
            )
            assert code == 1
            assert "--pollings" in capsys.readouterr().err

    def test_malformed_file_is_validation_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.scenario.json"
        bad.write_text("{broken")
        assert main(["simulate", "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err != ""

    def test_huge_message_size_renders_exact_kilobytes(self, capsys, tmp_path):
        params = dict(
            s_req=1e60, s_res=1, num_vars=1, s_ma=1, d=1, ma_size=1, mda_size=1, ma_res=1
        )
        path = write_scenario(tmp_path, params=params, models=["cs"])
        assert main(["simulate", "--scenario", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # (1e60 + 1) bytes over the one unit-cost link: 1e57 Kb and 0.001.
        assert captured.out.splitlines()[-1].split() == ["1", "1" + "0" * 57 + ".00"]

    def test_per_poll_past_the_float_range_prints_exactly(self, capsys, tmp_path):
        path = reference18_with_param(tmp_path, "s_req", "1e308")
        assert main(["simulate", "--scenario", path, "--snapshots"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # 660 polls of (s_req + 84) bytes: float() of it overflows
        assert captured.out.splitlines()[1] == (
            f"  cs: per-poll 6.6e+310 bytes (66{'0' * 304}55.44 Kb)"
        )

    def test_deploy_past_the_float_range_prints_exactly(self, capsys, tmp_path):
        # 10**308 + 0.5 bytes per agent over parent links that sum to 25
        path = reference18_with_param(tmp_path, "ma_size", "1" + "0" * 308 + ".5")
        assert main(["simulate", "--scenario", path, "--include-deploy"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1] == (
            "imasnm deployment: 2.5e+309 bytes"
            f" (25{'0' * 305}.01 Kb, included in rows)"
        )

    def test_totals_too_long_to_print_are_a_runtime_error(self, capsys, tmp_path):
        # Each literal is within the digit limit; (s_req + s_res) * num_vars
        # is not.
        path = reference18_with_param(tmp_path, "s_req", "1e3000")
        with open(path, encoding="utf-8") as stream:
            text = stream.read()
        assert text.count('"num_vars": 5,') == 1
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text.replace('"num_vars": 5,', f'"num_vars": 1{"0" * 3000},'))
        snapshot = REFERENCE18_SNAPSHOT.splitlines(keepends=True)[0]
        for extra, out in (([], ""), (["--snapshots"], snapshot)):
            assert main(["simulate", "--scenario", path, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == out
            assert captured.err == "error: a byte total has too many digits to print\n"

    @pytest.mark.parametrize("literal", ["1e5000", "1e-5000"])
    def test_literals_past_the_digit_limit_are_bad_input(
        self, capsys, tmp_path, literal
    ):
        path = reference18_with_param(tmp_path, "s_req", literal)
        limit = sys.get_int_max_str_digits()
        for command in ("simulate", "validate"):
            assert main([command, "--scenario", path]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: params.s_req: has 5001 digits counting its exponent,"
                f" over {limit}\n"
            )

    @pytest.mark.parametrize(
        "name, models, error",
        [
            (
                "reference18",
                "cs,flatbed,imasnm",
                "flatbed cannot be priced: no path between 1 and 2",
            ),
            ("growth19", "cs", "cs cannot be priced: no path between 10 and 1"),
        ],
    )
    def test_a_model_that_cannot_be_priced_is_bad_input(
        self, capsys, name, models, error
    ):
        assert main(["simulate", "--scenario", name, "--models", models]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: models: {error}\n")

    @staticmethod
    def write_late_join(tmp_path, itinerary):
        # Node 3 joins between the two snapshots, linked to 1 at cost 1.
        return write_scenario(
            tmp_path,
            nodes=[1, 2],
            events=[
                {"snapshot": "before"},
                {"add_node": {"node": 3, "domain": "1", "links": [[1, 1]]}},
                {"snapshot": "after"},
            ],
            flatbed_itinerary=itinerary,
            models=["flatbed"],
        )

    def test_an_itinerary_that_skips_a_joined_node_is_bad_input(
        self, capsys, tmp_path
    ):
        path = self.write_late_join(tmp_path, [1, 2])
        for command in (
            ["validate"],
            ["simulate"],
            ["simulate", "--snapshots"],
            ["explain"],
        ):
            assert main([*command, "--scenario", path]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "",
                "error: flatbed_itinerary: node 3 is never visited\n",
            )

    def test_an_itinerary_is_priced_over_the_stops_present(self, capsys, tmp_path):
        path = self.write_late_join(tmp_path, [1, 3, 2])
        assert main(["simulate", "--scenario", path, "--snapshots"]) == 0
        out = capsys.readouterr().out
        # s_ma = d = 1. Before 3 joins the hops are 1-2 and 2-1:
        # 1 * 2 + 1 * (0 + 1) = 3 bytes. After, 1-3, 3-2 (through 1) and
        # 2-1 cost 1, 2 and 1: 1 * 4 + 1 * (0 + 2 + 2) = 8 bytes.
        assert "flatbed: per-poll 3 bytes" in out
        assert "flatbed: per-poll 8 bytes" in out

    def test_unknown_bundled_name_is_io_failure(self, capsys):
        assert main(["simulate", "--scenario", "nonesuch"]) == 2
        assert "nonesuch" in capsys.readouterr().err

    def test_missing_path_is_io_failure(self, capsys):
        missing = os.path.join("no", "such", "file.scenario.json")
        assert main(["simulate", "--scenario", missing]) == 2
        assert capsys.readouterr().err != ""


class TestValidate:
    def test_ok(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        assert main(["validate", "--scenario", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: local")

    def test_bundled(self, capsys):
        assert main(["validate", "--scenario", "reference18"]) == 0
        assert "reference18" in capsys.readouterr().out

    def test_malformed(self, capsys, tmp_path):
        bad = tmp_path / "bad.scenario.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert main(["validate", "--scenario", str(bad)]) == 1
        assert capsys.readouterr().err != ""

    def test_nesting_past_the_recursion_limit_is_bad_input(self, capsys, tmp_path):
        deep = tmp_path / "deep.scenario.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["validate", "--scenario", str(deep)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scenario is nested too deeply to parse\n"

    @pytest.mark.parametrize(
        "edit, error",
        [
            (
                lambda doc: doc["events"].append(
                    {"add_node": {"node": 99, "domain": "1.7"}}
                ),
                "events[16].add_node.domain: no such domain: 1.7",
            ),
            (
                lambda doc: doc.update(domain_k={"1.9.9": 2}),
                "domain_k.1.9.9: no such domain: 1.9.9",
            ),
        ],
        ids=["join", "domain_k"],
    )
    def test_a_domain_that_never_exists_is_bad_input(
        self, capsys, tmp_path, edit, error
    ):
        doc = bundled_doc("reference18")
        edit(doc)
        path = tmp_path / "missing.scenario.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "simulate", "explain"):
            assert main([command, "--scenario", str(path)]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {error}\n")


class TestExplain:
    def test_prints_domain_tree(self, capsys):
        assert main(["explain", "--scenario", "growth19"]) == 0
        out = capsys.readouterr().out
        assert "1.3.1.1" in out
        assert "host" in out

    def test_indentation_reflects_depth(self, capsys):
        main(["explain", "--scenario", "growth19"])
        lines = capsys.readouterr().out.splitlines()
        by_id = {}
        for line in lines:
            stripped = line.lstrip()
            if stripped and stripped[0].isdigit():
                by_id[stripped.split()[0]] = len(line) - len(stripped)
        assert by_id["1"] < by_id["1.3"] < by_id["1.3.1"] < by_id["1.3.1.1"]

    def test_tree_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # With m_max=1 each node joining the deepest domain splits it, so
        # 1497 joins make a chain of 1499 domains: 1, 1.1, 1.1.1, ...
        events = []
        domain = "1.1"
        for node in range(3, 1500):
            events.append({"add_node": {"node": node, "domain": domain}})
            domain += ".1"
        path = write_scenario(tmp_path, m_max=1, events=events, models=[])
        assert main(["explain", "--scenario", path]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        lines = captured.out.splitlines()
        assert lines[0] == "scenario: local"
        assert len(lines) == 1 + 1499
        assert lines[-1].startswith("  " * 1498 + "1" + ".1" * 1498 + "  ")


REFERENCE18_SNAPSHOT = """\
snapshot fully-discovered: managers 1, 1.1, 1.1.1, 1.1.2, 1.2, 1.2.1
  cs: per-poll 110220 bytes (110.22 Kb)
  imasnm: per-poll 73557.4 bytes (73.56 Kb)
scenario: reference18
"""

GROWTH19_TREE = """\
1  host=10  members=[10, 13]
  1.1  host=1  members=[1, 2, 3]
  1.2  host=4  members=[4, 5, 6]
    1.2.1  host=14  members=[14, 15, 16]
  1.3  host=7  members=[7, 8, 9]
    1.3.1  host=11  members=[11, 12, 17]
      1.3.1.1  host=18  members=[18, 19]
"""

GOLDEN = {
    "simulate --scenario reference18 --snapshots": REFERENCE18_SNAPSHOT
    + """\
imasnm deployment: 100352 bytes (100.35 Kb, one-time, excluded from rows)
polling  cost_cs_kb  cost_imasnm_kb
      1      110.22           73.56
     10     1102.20          735.57
     20     2204.40         1471.15
     50     5511.00         3677.87
    100    11022.00         7355.74
""",
    "simulate --scenario reference18 --snapshots --include-deploy"
    " --models cs,imasnm": REFERENCE18_SNAPSHOT
    + """\
imasnm deployment: 100352 bytes (100.35 Kb, included in rows)
polling  cost_cs_kb  cost_imasnm_kb
      1      110.22          173.91
     10     1102.20          835.93
     20     2204.40         1571.50
     50     5511.00         3778.22
    100    11022.00         7456.09
""",
    "simulate --scenario growth19 --snapshots": """\
snapshot initial: managers 1, 1.1, 1.2, 1.3
snapshot after-first-split: managers 1, 1.1, 1.2, 1.3, 1.3.1
snapshot fully-grown: managers 1, 1.1, 1.2, 1.2.1, 1.3, 1.3.1, 1.3.1.1
scenario: growth19 (no cost models requested)
"""
    + GROWTH19_TREE,
    "explain --scenario growth19": "scenario: growth19\n" + GROWTH19_TREE,
}


def bundled_doc(name):
    scenarios = resources.files("netmansim").joinpath("scenarios")
    return json.loads(scenarios.joinpath(f"{name}.scenario.json").read_text())


def reference18_with_param(tmp_path, param, literal):
    """reference18 with one message size set to a raw JSON number literal."""
    doc = bundled_doc("reference18")
    doc["params"][param] = "@literal@"
    path = tmp_path / "huge.scenario.json"
    path.write_text(json.dumps(doc).replace('"@literal@"', literal))
    return str(path)


def write_searched_mesh(tmp_path):
    """A seeded 60-node mesh whose every model cost needs path search.

    50 nodes start on a random spanning tree plus 25 more links; 10 more
    join the root domain with one or two links each, and three snapshots
    price the network as it grows.
    """
    rng = random.Random("golden-mesh60")
    coeffs = [0.1, 0.5, 1, 1.25, 2, 3]
    links = [[rng.randrange(1, node), node, rng.choice(coeffs)] for node in range(2, 51)]
    linked = {(a, b) for a, b, _ in links}
    while len(links) < 75:
        a, b = sorted(rng.sample(range(1, 51), 2))
        if (a, b) not in linked:
            linked.add((a, b))
            links.append([a, b, rng.choice(coeffs)])
    events = [{"snapshot": "initial"}]
    for node in range(51, 61):
        peers = rng.sample(range(1, node), rng.choice([1, 2]))
        links_in = [[peer, rng.choice(coeffs)] for peer in peers]
        events.append({"add_node": {"node": node, "domain": "1", "links": links_in}})
        if node == 55:
            events.append({"snapshot": "half-joined"})
    events.append({"snapshot": "all-joined"})
    params = dict(
        s_req=120, s_res=280, num_vars=4, s_ma=2048, d=64, ma_size=4096,
        mda_size=512, ma_res=96,
    )
    return write_scenario(
        tmp_path,
        name="mesh60",
        nodes=list(range(1, 51)),
        links=links,
        central=7,
        m_max=4,
        params=params,
        events=events,
        polling_counts=[1, 10, 100],
        domain_k={"1": 1.5},
    )


def _root_and_children(count):
    return ", ".join(["1"] + [f"1.{k}" for k in range(1, count + 1)])


SEARCHED_MESH = f"""\
snapshot initial: managers {_root_and_children(12)}
  cs: per-poll 289760 bytes (289.76 Kb)
  flatbed: per-poll 765968 bytes (765.97 Kb)
  imasnm: per-poll 30739.2 bytes (30.74 Kb)
snapshot half-joined: managers {_root_and_children(15)}
  cs: per-poll 323680 bytes (323.68 Kb)
  flatbed: per-poll 916560 bytes (916.56 Kb)
  imasnm: per-poll 34622.4 bytes (34.62 Kb)
snapshot all-joined: managers {_root_and_children(20)}
  cs: per-poll 367200 bytes (367.20 Kb)
  flatbed: per-poll 1.10667e+06 bytes (1106.67 Kb)
  imasnm: per-poll 39793.6 bytes (39.79 Kb)
scenario: mesh60
imasnm deployment: 343449.6 bytes (343.45 Kb, one-time, excluded from rows)
polling  cost_cs_kb  cost_flatbed_kb  cost_imasnm_kb
      1      367.20          1106.67           39.79
     10     3672.00         11066.72          397.94
    100    36720.00        110667.20         3979.36
"""


def write_deep_tree(tmp_path):
    """A seeded 150-node scenario whose m_max=2 tree grows 37 levels deep.

    12 nodes start on a chain. Each of the 138 joins links to one earlier
    node and goes, in shuffled halves, into the newest of the deepest
    domains or into a random domain; five snapshots record the growth.
    Join targets follow the split rule on member counts alone: a domain
    over two members keeps two and hands the joiner to its next child.
    """
    rng = random.Random("golden-deep150")
    # central 5; the other 11 initial nodes make 1.1 to 1.5 and one leftover
    size = {"1": 2, **{f"1.{k}": 2 for k in range(1, 6)}}
    children = {"1": 5, **{f"1.{k}": 0 for k in range(1, 6)}}
    deepest = "1.5"
    picks = [True] * 69 + [False] * 69
    rng.shuffle(picks)
    events = []
    for k, pick in enumerate(picks):
        node = 13 + k
        domain = deepest if pick else rng.choice(list(size))
        peer = rng.randrange(1, node)
        events.append(
            {"add_node": {"node": node, "domain": domain, "links": [[peer, 1]]}}
        )
        size[domain] += 1
        if size[domain] > 2:
            size[domain] = 2
            children[domain] += 1
            child = f"{domain}.{children[domain]}"
            size[child], children[child] = 1, 0
            if child.count(".") >= deepest.count("."):
                deepest = child
        if (k + 1) % 28 == 0 or k + 1 == len(picks):
            events.append({"snapshot": f"joined-{k + 1}"})
    return write_scenario(
        tmp_path,
        name="deep150",
        nodes=list(range(1, 13)),
        links=[[n, n + 1, 1] for n in range(1, 12)],
        central=5,
        m_max=2,
        events=events,
        models=[],
    )


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def read_golden(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as source:
        return source.read()


class TestGoldenOutput:
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_bundled_stdout_is_exact(self, capsys, command):
        assert main(command.split()) == 0
        captured = capsys.readouterr()
        assert captured.out == GOLDEN[command]
        assert captured.err == ""

    def test_searched_mesh_stdout_is_exact(self, capsys, tmp_path):
        path = write_searched_mesh(tmp_path)
        assert main(["simulate", "--scenario", path, "--snapshots"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == SEARCHED_MESH

    def test_snapshot_lines_list_every_model_in_canonical_order(
        self, capsys, tmp_path
    ):
        path = write_scenario(tmp_path, events=[{"snapshot": "s"}])
        assert main(["simulate", "--scenario", path, "--snapshots"]) == 0
        assert capsys.readouterr().out == (
            "snapshot s: managers 1\n"
            "  cs: per-poll 2 bytes (0.00 Kb)\n"
            "  flatbed: per-poll 3 bytes (0.00 Kb)\n"
            "  imasnm: per-poll 2 bytes (0.00 Kb)\n"
            "scenario: local\n"
            "polling  cost_cs_kb  cost_flatbed_kb  cost_imasnm_kb\n"
            "      1        0.00             0.00            0.00\n"
        )

    def test_deep_tree_stdout_is_exact(self, capsys, tmp_path):
        path = write_deep_tree(tmp_path)
        tree = read_golden("deep150_tree.txt")
        assert main(["simulate", "--scenario", path, "--snapshots"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            read_golden("deep150_snapshots.txt")
            + "scenario: deep150 (no cost models requested)\n"
            + tree
        )
        assert main(["explain", "--scenario", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "scenario: deep150\n" + tree


# -- fuzz -------------------------------------------------------------------

BUNDLED = {name: bundled_doc(name) for name in ("reference18", "growth19")}

# Extreme JSON number literals, spliced in as raw text: json.dumps could
# not write 1e5000 or a 5000-digit integer itself.
EXTREME_NUMBERS = (
    "1e308",
    "1e5000",
    "1e-400",
    str(2**63),
    "1" + "0" * 5000,
    "-1",
    "-0.5",
)
RETYPED_VALUES = (None, True, "3", [], {}, 1.5, [1, 2], {"1": 1})
DOMAIN_IDS = ("1.9", "1.1.1.1.1", "0", "1.0", "1..2", "", " 1", "١", "1.a", 7)
COMMANDS = (
    ["validate"],
    ["explain"],
    ["simulate", "--snapshots", "--include-deploy"],
    ["simulate", "--models", "cs,flatbed,imasnm"],
)


def json_paths(value, prefix=()):
    """Every key or index path inside a JSON document, parents first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield prefix + (key,)
        yield from json_paths(item, prefix + (key,))


def resolve(doc, path):
    """The container holding ``path``'s last key, or None if it is gone."""
    for key in path[:-1]:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return None
    if isinstance(doc, dict) and path[-1] in doc:
        return doc
    if isinstance(doc, list) and isinstance(path[-1], int) and path[-1] < len(doc):
        return doc
    return None


def number_fields(doc):
    """Numeric leaf paths, grouped by field: list indices read as "*"."""
    fields = {}
    for path in json_paths(doc):
        if type(resolve(doc, path)[path[-1]]) in (int, float):
            field = tuple("*" if type(key) is int else key for key in path)
            fields.setdefault(field, []).append(path)
    return list(fields.values())


PATHS = {name: list(json_paths(doc)) for name, doc in BUNDLED.items()}
NUMBER_FIELDS = {name: number_fields(doc) for name, doc in BUNDLED.items()}


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario, one or two edits away from valid, as JSON text.

    An edit deletes a key, retypes a value, puts an extreme number in a
    numeric field (each field equally likely, however many entries it
    has), or names an unknown or malformed domain.
    """
    name = draw(st.sampled_from(sorted(BUNDLED)))
    doc = copy.deepcopy(BUNDLED[name])
    raw = {}
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        kind = draw(st.sampled_from(("delete", "retype", "extreme", "domain")))
        if kind == "domain":
            domain = draw(st.sampled_from(DOMAIN_IDS))
            joins = [e["add_node"] for e in doc.get("events", []) if "add_node" in e]
            if joins and draw(st.booleans()):
                draw(st.sampled_from(joins))["domain"] = domain
            else:
                doc["domain_k"] = {str(domain): 2}
            continue
        if kind == "extreme":
            path = draw(st.sampled_from(draw(st.sampled_from(NUMBER_FIELDS[name]))))
        else:
            path = draw(st.sampled_from(PATHS[name]))
        holder = resolve(doc, path)
        if holder is None:
            continue
        if kind == "delete":
            del holder[path[-1]]
        elif kind == "retype":
            holder[path[-1]] = draw(st.sampled_from(RETYPED_VALUES))
        else:
            marker = f"@{len(raw)}@"
            raw[json.dumps(marker)] = draw(st.sampled_from(EXTREME_NUMBERS))
            holder[path[-1]] = marker
    text = json.dumps(doc)
    for marker, literal in raw.items():
        text = text.replace(marker, literal)
    return text


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.scenario.json"


@settings(max_examples=200)
@given(mutated_scenarios())
def test_mutated_scenarios_never_raise(fuzz_path, text):
    fuzz_path.write_text(text, encoding="utf-8")
    for command in COMMANDS:
        argv = [command[0], "--scenario", str(fuzz_path), *command[1:]]
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (0, 1, 2), argv
