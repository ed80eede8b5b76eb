"""Self-checks of the benchmark: generators, oracle, metric names, tracing.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from netmansim import Network, cli, load_scenario  # noqa: E402
from netmansim import run as simulate  # noqa: E402

SMALL = {"mesh_poll": 24, "growth_storyline": 60, "pinned_large": 80}
REFERENCE18 = ROOT / "src" / "netmansim" / "scenarios" / "reference18.scenario.json"


def _cli_stdout(argv, capsys) -> str:
    capsys.readouterr()
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_seeded_valid_and_connected(name, tmp_path, capsys):
    generate = workloads.GENERATORS[name]
    text = workloads.render(generate(7))
    assert text == workloads.render(generate(7))
    assert text != workloads.render(generate(8))
    path = tmp_path / f"{name}.scenario.json"
    path.write_bytes(text)
    assert _cli_stdout(["validate", "--scenario", str(path)], capsys).startswith("ok: ")
    assert workloads.connected(json.loads(text))


def test_oracle_reproduces_frozen_reference18(capsys):
    expected = oracle.expect_simulate(oracle.load(REFERENCE18.read_bytes()))
    assert oracle.reference18_errors(expected) == []
    assert _cli_stdout(["simulate", "--scenario", "reference18"], capsys) == expected.stdout


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_oracle_agrees_with_netmansim_on_small_scenarios(name, seed, tmp_path, capsys):
    text = workloads.render(workloads.GENERATORS[name](seed, nodes=SMALL[name]))
    path = tmp_path / "small.scenario.json"
    path.write_bytes(text)
    raw = oracle.load(text)
    expected = oracle.expect_simulate(raw, snapshots=True)

    result = simulate(load_scenario(text))
    for model in result.models:
        assert result.per_poll_of(model) == expected.per_poll[model]
        assert result.deploy_of(model) == expected.deploy[model]
    stdout = _cli_stdout(["simulate", "--scenario", str(path), "--snapshots"], capsys)
    assert stdout == expected.stdout
    if not raw["models"]:
        assert oracle.tree_errors(stdout, set(run._all_nodes(raw)), raw["m_max"]) == []


def test_tree_check_catches_broken_invariants():
    nodes = {1, 2, 3, 4}
    good = "scenario: x (no cost models requested)\n1  host=1  members=[1, 2]\n  1.1  host=3  members=[3, 4]\n"
    assert oracle.tree_errors(good, nodes, 2) == []
    assert oracle.tree_errors(good, nodes, 1)  # a domain over m_max
    assert oracle.tree_errors(good.replace("host=3", "host=2"), nodes, 2)  # host not a member
    assert oracle.tree_errors(good.replace("[3, 4]", "[2, 4]"), nodes, 2)  # node twice, node 3 lost


def test_oracle_path_costs_match_network_on_random_graphs():
    rng = random.Random(3)
    for _ in range(30):
        ids = list(range(1, rng.randint(2, 12) + 1))
        spare = (len(ids) - 1) * (len(ids) - 2) // 2  # links beyond a spanning tree
        links = workloads._mesh(rng, ids, rng.randint(0, min(len(ids), spare)))
        pinned = {
            oracle.pair(*rng.sample(ids, 2)): Fraction(rng.randrange(1, 40), 4)
            for _ in range(rng.randint(0, 3))
        }
        network = Network(
            ids,
            [(a, b, Fraction(str(c))) for a, b, c in links],
            {key: cost for key, cost in pinned.items()},
        )
        paths = oracle.Paths(pinned, 4)
        for node in ids:
            paths.add_node(node)
        for a, b, c in links:
            paths.add_link(a, b, Fraction(str(c)))
        for i in ids:
            for j in ids:
                assert paths.cost(i, j) == network.path_cost(i, j)


def test_metric_names_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in config["workloads"]] == list(workloads.GENERATORS)


def _spec(tmp_path: Path, workload: str, trace: bool) -> dict:
    scenario = workloads.GENERATORS[workload](1, nodes=SMALL[workload])
    spec, reference_errors = run.prepare(workload, scenario, tmp_path, "t", 0.01, trace)
    assert reference_errors == []
    return spec


def _wrapped_targets() -> list[str]:
    import netmansim.simulation as simulation

    targets = [cli.main, simulation.run, simulation.apply_event, Network.path_cost]
    return [repr(t) for t in targets if hasattr(t, "__wrapped__")]


def test_untraced_run_creates_no_spans(tmp_path, monkeypatch):
    built = []

    class CountingTracer(tracing.Tracer):
        def __init__(self) -> None:
            built.append(self)
            super().__init__()

    monkeypatch.setattr(tracing, "Tracer", CountingTracer)
    result = worker.measure(_spec(tmp_path, "growth_storyline", trace=False))
    assert result["failed"] == 0, result["errors"]
    assert built == []
    assert "layers" not in result
    assert not (tmp_path / "t.spans.json").exists()
    assert _wrapped_targets() == []


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = worker.measure(_spec(tmp_path, "growth_storyline", trace=True))
    assert result["failed"] == 0, result["errors"]
    assert "layer_errors" not in result
    assert set(result["layers"]) == set(tracing.LAYER_UNITS)
    assert result["layers"]["topology.path_cost_calls"] == 0
    assert result["layers"]["hierarchy.domains_created"] > 1
    dump = json.loads((tmp_path / "t.spans.json").read_text(encoding="utf-8"))
    assert len(dump["spans"]) == result["spans"] > 0
    assert dump["spans"][0][0] == "cli.main"
    assert _wrapped_targets() == []  # the originals are back


def test_traced_pinned_run_answers_every_pair_from_k_override(tmp_path):
    result = worker.measure(_spec(tmp_path, "pinned_large", trace=True))
    assert result["failed"] == 0, result["errors"]
    assert "layer_errors" not in result
    assert result["layers"]["topology.path_cost_calls"] > 0
    assert result["layers"]["topology.path_cost_override_ratio"] == 1.0


def test_traced_run_fails_a_layer_check_it_does_not_meet(tmp_path):
    spec = _spec(tmp_path, "mesh_poll", trace=True)
    spec["layer_checks"] = {"topology.path_cost_calls": 0}
    result = worker.measure(spec)
    assert result["failed"] == 0, result["errors"]
    assert len(result["layer_errors"]) == 1
    assert "topology.path_cost_calls" in result["layer_errors"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mesh_poll", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
