"""Independent reference results for the benchmark's correctness checks.

Nothing here imports ``netmansim``. The oracle reads a scenario file as
plain JSON, replays it with its own copy of the documented split rule,
finds path costs with its own Dijkstra on integers (every coefficient
scaled by the LCM of the denominators), prices the three models from
their closed forms, and renders the stdout and CSV that
``netmansim simulate`` must print for it.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

MODELS = ("cs", "flatbed", "imasnm")

# Frozen totals of the bundled reference18 scenario, in bytes.
REFERENCE18 = {
    "cs": Fraction(110220),
    "imasnm": Fraction("73557.4"),
    "imasnm_deploy": Fraction(100352),
}


def pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def domain_name(did: tuple[int, ...]) -> str:
    return ".".join(str(part) for part in did)


def parse_domain(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


@dataclass
class PlannedDomain:
    host: int
    members: list[int]
    children: list[tuple[int, ...]] = field(default_factory=list)


class TreePlan:
    """The manager hierarchy, grown by the split rule the README documents.

    Initial partition: the non-central nodes, ascending, are cut into
    full chunks of ``m_max``; chunk k becomes domain 1.k hosted on its
    lowest node, and the central node plus the leftovers form the root.
    Growth: a node joins at the end of its domain's member list. A domain
    over ``m_max`` keeps its first ``m_max`` members (its host swaps in
    for the last kept one if needed) and moves the rest into a new child,
    hosted on the lowest moved node, which is split the same way.
    """

    def __init__(self, nodes, m_max: int, central: int) -> None:
        self.m_max = m_max
        self.domains: dict[tuple[int, ...], PlannedDomain] = {}
        self.order: list[tuple[int, ...]] = []
        self.deepest: tuple[int, ...] = ()
        others = sorted(set(nodes) - {central})
        full = len(others) // m_max
        self._install((1,), [central] + others[full * m_max :], central)
        for k in range(full):
            chunk = others[k * m_max : (k + 1) * m_max]
            self._install((1, k + 1), chunk, chunk[0])

    def _install(self, did, members, host) -> None:
        self.domains[did] = PlannedDomain(host, members)
        self.order.append(did)
        if len(did) >= len(self.deepest):
            self.deepest = did  # the newest of the deepest domains
        if len(did) > 1:
            self.domains[did[:-1]].children.append(did)

    def add(self, node: int, did: tuple[int, ...]) -> None:
        domain = self.domains[did]
        domain.members.append(node)
        while len(domain.members) > self.m_max:
            members = domain.members
            at = members.index(domain.host)
            if at >= self.m_max:
                last = self.m_max - 1
                members[at], members[last] = members[last], members[at]
            moved = members[self.m_max :]
            del members[self.m_max :]
            child = did + (len(domain.children) + 1,)
            self._install(child, moved, min(moved))
            did, domain = child, self.domains[child]

    def sorted_ids(self) -> list[tuple[int, ...]]:
        return sorted(self.domains)

    def edges(self):
        """(mother host, child host) for every parent link."""
        for did in self.sorted_ids():
            if len(did) > 1:
                yield self.domains[did[:-1]].host, self.domains[did].host


class Paths:
    """Minimum path costs: pinned pairs first, else Dijkstra on scaled ints."""

    def __init__(self, overrides: dict, scale: int) -> None:
        self.overrides = overrides
        self.scale = scale
        self.adjacency: dict[int, list[tuple[int, int]]] = {}
        self._trees: dict[int, dict[int, int]] = {}

    def add_node(self, node: int) -> None:
        self.adjacency[node] = []
        self._trees.clear()

    def add_link(self, a: int, b: int, coeff: Fraction) -> None:
        weight = coeff * self.scale
        assert weight.denominator == 1
        self.adjacency[a].append((b, int(weight)))
        self.adjacency[b].append((a, int(weight)))
        self._trees.clear()

    def _tree(self, source: int) -> dict[int, int]:
        tree = self._trees.get(source)
        if tree is None:
            tree = {}
            frontier = [(0, source)]
            while frontier:
                dist, node = heapq.heappop(frontier)
                if node in tree:
                    continue
                tree[node] = dist
                for peer, weight in self.adjacency[node]:
                    if peer not in tree:
                        heapq.heappush(frontier, (dist + weight, peer))
            self._trees[source] = tree
        return tree

    def cost(self, i: int, j: int) -> Fraction:
        pinned = self.overrides.get(pair(i, j))
        if pinned is not None:
            return pinned
        if i == j:
            return Fraction(0)
        return Fraction(self._tree(i)[j], self.scale)


def load(text: str | bytes) -> dict:
    """Parse a scenario file; decimal literals become exact Fractions."""
    return json.loads(text, parse_float=Fraction)


def kilobytes(value: Fraction) -> str:
    """value / 1000, rounded half-up to two decimals."""
    value = Fraction(value)
    cents = (2 * value.numerator + 10 * value.denominator) // (20 * value.denominator)
    return f"{cents // 100}.{cents % 100:02d}"


def _plain_bytes(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(float(value))


@dataclass
class Expected:
    """What one ``simulate`` invocation must produce."""

    stdout: str
    csv: str | None
    per_poll: dict[str, Fraction]
    deploy: dict[str, Fraction]


def _price(raw, params, paths, plan, nodes, models, domain_k):
    central = raw["central"]
    per_poll: dict[str, Fraction] = {}
    deploy: dict[str, Fraction] = {}
    for model in models:
        deploy[model] = Fraction(0)
        if model == "cs":
            pair_bytes = (params["s_req"] + params["s_res"]) * params["num_vars"]
            per_poll[model] = pair_bytes * sum(
                (paths.cost(central, t) for t in sorted(nodes)), Fraction(0)
            )
        elif model == "flatbed":
            stops = raw.get("flatbed_itinerary") or [central] + sorted(
                nodes - {central}
            )
            total = Fraction(0)
            if len(stops) >= 2:
                for hop, (here, there) in enumerate(zip(stops, stops[1:])):
                    total += paths.cost(here, there) * (params["s_ma"] + hop * params["d"])
                total += paths.cost(stops[-1], stops[0]) * (
                    params["s_ma"] + (len(stops) - 1) * params["d"]
                )
            per_poll[model] = total
        else:
            links = sum((paths.cost(m, c) for m, c in plan.edges()), Fraction(0))
            sweeps = sum(
                (
                    params["mda_size"]
                    * len(plan.domains[did].members)
                    * domain_k.get(domain_name(did), Fraction(1))
                    for did in plan.sorted_ids()
                ),
                Fraction(0),
            )
            per_poll[model] = links * params["ma_res"] + sweeps
            deploy[model] = links * params["ma_size"]
    return per_poll, deploy


def _table(name, models, counts, per_poll, deploy) -> tuple[list[str], str]:
    header = ["polling"] + [f"cost_{model}_kb" for model in models]
    body = [
        [str(count)] + [kilobytes(per_poll[model] * count) for model in models]
        for count in counts
    ]
    widths = [max(len(line[col]) for line in [header] + body) for col in range(len(header))]
    lines = [f"scenario: {name}"]
    for model in models:
        if deploy[model]:
            lines.append(
                f"{model} deployment: {_plain_bytes(deploy[model])} bytes "
                f"({kilobytes(deploy[model])} Kb, one-time, excluded from rows)"
            )
    for line in [header] + body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    csv = "\n".join(",".join(line) for line in [header] + body) + "\n"
    return lines, csv


def tree_lines(plan: TreePlan) -> list[str]:
    # Sorted ids are a depth-first walk with children in creation order.
    return [
        f"{'  ' * (len(did) - 1)}{domain_name(did)}  host={plan.domains[did].host}  "
        f"members=[{', '.join(str(m) for m in plan.domains[did].members)}]"
        for did in plan.sorted_ids()
    ]


def expect_simulate(raw: dict, *, snapshots: bool = False) -> Expected:
    """Replay ``raw`` and render ``simulate`` output for the scenario's models."""
    params = {
        key: (value if key == "num_vars" else Fraction(value))
        for key, value in raw["params"].items()
    }
    models = [m for m in MODELS if m in raw["models"]]
    domain_k = {key: Fraction(v) for key, v in raw.get("domain_k", {}).items()}
    overrides = {pair(i, j): Fraction(c) for i, j, c in raw.get("k_override", [])}
    coeffs = [Fraction(c) for _, _, c in raw["links"]]
    for event in raw["events"]:
        coeffs += [Fraction(c) for _, c in event.get("add_node", {}).get("links", [])]
    scale = math.lcm(1, *(c.denominator for c in coeffs))

    paths = Paths(overrides, scale)
    nodes = set(raw["nodes"])
    for node in raw["nodes"]:
        paths.add_node(node)
    for a, b, coeff in raw["links"]:
        paths.add_link(a, b, Fraction(coeff))
    plan = TreePlan(raw["nodes"], raw["m_max"], raw["central"])

    lines: list[str] = []
    for event in raw["events"]:
        if "add_node" in event:
            body = event["add_node"]
            paths.add_node(body["node"])
            nodes.add(body["node"])
            for peer, coeff in body.get("links", []):
                paths.add_link(body["node"], peer, Fraction(coeff))
            plan.add(body["node"], parse_domain(body["domain"]))
        elif snapshots:
            ids = ", ".join(domain_name(did) for did in plan.sorted_ids())
            lines.append(f"snapshot {event['snapshot']}: managers {ids}")
            costs, _ = _price(raw, params, paths, plan, nodes, models, domain_k)
            for model in models:
                lines.append(
                    f"  {model}: per-poll {float(costs[model]):g} bytes "
                    f"({kilobytes(costs[model])} Kb)"
                )

    per_poll, deploy = _price(raw, params, paths, plan, nodes, models, domain_k)
    csv = None
    if models:
        counts = sorted(set(raw["polling_counts"]))
        table, csv = _table(raw["name"], models, counts, per_poll, deploy)
        lines += table
    else:
        lines.append(f"scenario: {raw['name']} (no cost models requested)")
        lines += tree_lines(plan)
    return Expected("\n".join(lines) + "\n", csv, per_poll, deploy)


def reference18_errors(expected: Expected) -> list[str]:
    """Mismatches between the oracle's reference18 totals and the frozen ones."""
    got = {
        "cs": expected.per_poll.get("cs"),
        "imasnm": expected.per_poll.get("imasnm"),
        "imasnm_deploy": expected.deploy.get("imasnm"),
    }
    return [
        f"reference18 {key}: oracle gives {got[key]}, frozen total is {want}"
        for key, want in REFERENCE18.items()
        if got[key] != want
    ]


_TREE_LINE = re.compile(r"^((?:  )*)(\d+(?:\.\d+)*)  host=(\d+)  members=\[([\d, ]*)\]$")


def tree_errors(stdout: str, nodes: set[int], m_max: int) -> list[str]:
    """Check the final tree a no-model ``simulate`` printed.

    Every node is in exactly one domain, no domain holds more than
    ``m_max`` nodes, and each host is a member of its own domain.
    """
    marker = "(no cost models requested)\n"
    if marker not in stdout:
        return ["no manager tree in the output"]
    errors = []
    seen: set[int] = set()
    for line in stdout.split(marker, 1)[1].splitlines():
        match = _TREE_LINE.match(line)
        if match is None:
            errors.append(f"unreadable tree line {line!r}")
            continue
        did, host = match.group(2), int(match.group(3))
        members = [int(m) for m in match.group(4).split(", ") if m]
        if len(members) > m_max:
            errors.append(f"domain {did} holds {len(members)} > m_max={m_max} nodes")
        if host not in members:
            errors.append(f"domain {did}: host {host} is not a member")
        for member in members:
            if member in seen:
                errors.append(f"node {member} is in more than one domain")
            seen.add(member)
    if seen != nodes:
        errors.append(f"{len(nodes - seen)} nodes in no domain, {len(seen - nodes)} unknown")
    return errors
