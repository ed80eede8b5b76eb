"""Seeded scenario generators for the benchmark's three workloads.

Each generator returns an ordinary scenario as a JSON-ready dict; the
same seed gives a byte-identical file. Domain names in ``add_node``
events come from the oracle's own copy of the split rule, so the inputs
never depend on the code under test. Counts that drive the amount of
work (links per event, which events join the deepest domain) are drawn
as shuffled halves rather than coin flips, so that runs on different
seeds do the same amount of work.
"""

from __future__ import annotations

import json
import random

from oracle import TreePlan, domain_name, pair

# Decimal literals with small denominators, like the measured coefficients.
COEFFS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.5)

PARAMS = {
    "s_req": 83,
    "s_res": 84,
    "num_vars": 5,
    "s_ma": 1024,
    "d": 64,
    "ma_size": 4014.08,
    "mda_size": 3276.8,
    "ma_res": 583,
}


def _halves(rng: random.Random, count: int, first, second) -> list:
    picks = [first] * (count // 2) + [second] * (count - count // 2)
    rng.shuffle(picks)
    return picks


def _mesh(rng: random.Random, ids: list[int], extra: int) -> list[list]:
    """A random spanning tree over ``ids`` plus ``extra`` further links."""
    order = list(ids)
    rng.shuffle(order)
    links: dict[tuple[int, int], float] = {}
    for k in range(1, len(order)):
        links[pair(order[k], order[rng.randrange(k)])] = rng.choice(COEFFS)
    while len(links) < len(order) - 1 + extra:
        key = pair(*rng.sample(ids, 2))
        if key not in links:
            links[key] = rng.choice(COEFFS)
    return [[a, b, c] for (a, b), c in links.items()]


def _scenario(name, nodes, links, central, m_max, events, **rest) -> dict:
    scenario = {
        "name": name,
        "nodes": nodes,
        "links": links,
        "central": central,
        "m_max": m_max,
        "params": PARAMS,
        "events": events,
    }
    scenario.update(rest)
    return scenario


def mesh_poll(seed: int, nodes: int = 200) -> dict:
    """Path-search workload: path-cost reads between network writes."""
    rng = random.Random(f"mesh_poll:{seed}")
    initial = list(range(1, nodes // 2 + 1))
    central = rng.choice(initial)
    plan = TreePlan(initial, 4, central)
    known = list(initial)
    joins = nodes - len(initial)
    events = []
    for k, width in enumerate(_halves(rng, joins, 1, 2)):
        node = len(initial) + k + 1
        domain = rng.choice(plan.order)
        links = [[peer, rng.choice(COEFFS)] for peer in rng.sample(known, width)]
        events.append(
            {"add_node": {"node": node, "domain": domain_name(domain), "links": links}}
        )
        plan.add(node, domain)
        known.append(node)
        if (k + 1) % (joins // 4) == 0:
            events.append({"snapshot": f"priced-{(k + 1) // (joins // 4)}"})
    return _scenario(
        f"mesh_poll-{seed}",
        initial,
        _mesh(rng, initial, len(initial) // 2),
        central,
        4,
        events,
        domain_k={"1": 1.5, "1.1": 0.75},
        polling_counts=[1, 10, 20, 50, 100],
        models=["cs", "flatbed", "imasnm"],
    )


def growth_storyline(seed: int, nodes: int = 2000) -> dict:
    """Write-only workload: joins, splits and snapshots, no pricing."""
    rng = random.Random(f"growth_storyline:{seed}")
    initial = list(range(1, nodes // 2 + 1))
    central = rng.choice(initial)
    plan = TreePlan(initial, 3, central)
    known = list(initial)
    joins = nodes - len(initial)
    deepest = _halves(rng, joins, True, False)
    events = []
    for k, width in enumerate(_halves(rng, joins, 1, 2)):
        node = len(initial) + k + 1
        domain = plan.deepest if deepest[k] else rng.choice(plan.order)
        links = [[peer, rng.choice(COEFFS)] for peer in rng.sample(known, width)]
        events.append(
            {"add_node": {"node": node, "domain": domain_name(domain), "links": links}}
        )
        plan.add(node, domain)
        known.append(node)
        if (k + 1) % 100 == 0:
            events.append({"snapshot": f"after-{k + 1}"})
    return _scenario(
        f"growth_storyline-{seed}",
        initial,
        _mesh(rng, initial, len(initial) // 4),
        central,
        3,
        events,
        polling_counts=[],
        models=[],
    )


def pinned_large(seed: int, nodes: int = 10_000) -> dict:
    """Bypass workload: every pair cost the models ask for is pinned."""
    rng = random.Random(f"pinned_large:{seed}")
    initial = list(range(1, nodes - nodes // 10 + 1))
    central = rng.choice(initial)
    plan = TreePlan(initial, 5, central)
    events = []
    for node in range(len(initial) + 1, nodes + 1):
        domain = rng.choice(plan.order)
        events.append({"add_node": {"node": node, "domain": domain_name(domain)}})
        plan.add(node, domain)

    # The pairs cs, flatbed and imasnm ask for on the final network. Each
    # is pinned to an odd multiple of 1/8. Every link coefficient is a
    # multiple of 1/4 and so is every path sum, so a path cost equal to
    # its pin can only have come from k_override.
    others = [n for n in range(1, nodes + 1) if n != central]
    wanted = [(central, n) for n in range(1, nodes + 1)]
    wanted += zip(others, others[1:])
    wanted += plan.edges()
    pins: dict[tuple[int, int], float] = {}
    for a, b in wanted:
        if pair(a, b) not in pins:
            pins[pair(a, b)] = 0 if a == b else rng.randrange(1, 160, 2) * 0.125
    return _scenario(
        f"pinned_large-{seed}",
        initial,
        _mesh(rng, initial, len(initial) // 4),
        central,
        5,
        events,
        k_override=[[a, b, c] for (a, b), c in pins.items()],
        polling_counts=list(range(0, 1001, 10)),
        models=["cs", "flatbed", "imasnm"],
    )


GENERATORS = {
    "mesh_poll": mesh_poll,
    "growth_storyline": growth_storyline,
    "pinned_large": pinned_large,
}


def render(scenario: dict) -> bytes:
    return (json.dumps(scenario, separators=(",", ":")) + "\n").encode("utf-8")


def cli_args(workload: str, scenario_path: str, csv_path: str) -> list[str]:
    """The ``netmansim`` arguments one invocation of the workload runs."""
    args = ["simulate", "--scenario", scenario_path]
    if workload == "pinned_large":
        return args + ["--csv", csv_path]
    return args + ["--snapshots"]


def connected(scenario: dict) -> bool:
    """Whether links, event links and pinned pairs join every node."""
    parent: dict[int, int] = {}

    def find(node: int) -> int:
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    nodes = list(scenario["nodes"])
    edges = [(a, b) for a, b, _ in scenario["links"]]
    edges += [(a, b) for a, b, _ in scenario.get("k_override", [])]
    for event in scenario["events"]:
        body = event.get("add_node")
        if body:
            nodes.append(body["node"])
            edges += [(body["node"], peer) for peer, _ in body.get("links", [])]
    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(node) for node in nodes}) == 1
