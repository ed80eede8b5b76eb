"""Spans around the public functions of each ``netmansim`` module.

The tracer wraps the functions from outside: it rebinds each public
function in every ``netmansim`` module namespace that holds it (the
modules import each other's names directly) and each public method on
its class, and puts the originals back on ``uninstall``. Each span
records its name, start, end and parent in memory. Bookkeeping done
after a call (counters) is timed separately, so that it is charged
neither to the span nor to its parent's self time.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, function, span name)
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("simulation", "load_scenario_file", "simulation.load"),
    ("simulation", "load_bundled_scenario", "simulation.load"),
    ("simulation", "run", "simulation.run"),
    ("simulation", "apply_event", "simulation.apply_event"),
    ("costs", "cost_centralized", "costs.cs"),
    ("costs", "cost_flatbed", "costs.flatbed"),
    ("costs", "cost_imasnm_poll", "costs.imasnm_poll"),
    ("costs", "cost_imasnm_deploy", "costs.imasnm_deploy"),
    ("report", "compare", "report.compare"),
    ("report", "format_table", "report.render"),
    ("report", "emit_csv", "report.render"),
)

# (module, class, method, span name)
METHODS = (
    ("topology", "Network", "__init__", "topology.build"),
    ("topology", "Network", "add_node", "topology.mutate"),
    ("topology", "Network", "add_link", "topology.mutate"),
    ("topology", "Network", "path_cost", "topology.path_cost"),
    ("hierarchy", "ManagerTree", "initial_partition", "hierarchy.partition"),
    ("hierarchy", "ManagerTree", "add_node_to_domain", "hierarchy.grow"),
)

# Per-layer metric names and units, in the order they are reported.
LAYER_UNITS = {
    "topology.path_cost_s": "s",
    "topology.path_cost_calls": "count",
    "topology.path_cost_sources": "count",
    "topology.path_cost_repeat_ratio": "ratio",
    "topology.path_cost_override_ratio": "ratio",
    "topology.build_s": "s",
    "topology.mutate_s": "s",
    "topology.mutations": "count",
    "hierarchy.partition_s": "s",
    "hierarchy.grow_s": "s",
    "hierarchy.domains_created": "count",
    "hierarchy.max_depth": "levels",
    "simulation.load_s": "s",
    "simulation.load_bytes": "B",
    "simulation.replay_self_s": "s",
    "simulation.events": "count",
    "simulation.snapshot_s": "s",
    "costs.cs_self_s": "s",
    "costs.flatbed_self_s": "s",
    "costs.imasnm_poll_self_s": "s",
    "costs.imasnm_deploy_self_s": "s",
    "report.compare_s": "s",
    "report.render_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

_NAME, _HEAD, _START, _END, _TAIL, _PARENT = range(6)


class Tracer:
    """Records spans for one invocation at a time, between begin and end."""

    def __init__(self) -> None:
        self.per_invocation: list[dict[str, float]] = []
        self.last_spans: list[list] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reset_counters()

    def _reset_counters(self) -> None:
        self._calls = 0
        self._repeats = 0
        self._pinned_hits = 0
        self._sources: set[int] = set()
        self._asked: set[tuple[int, int]] = set()
        self._pinned: dict[tuple[int, int], object] = {}
        self._load_bytes = 0
        self._domains = 0
        self._max_depth = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and method of the loaded package."""
        package = {
            name: module
            for name, module in sys.modules.items()
            if name == "netmansim" or name.startswith("netmansim.")
        }
        snapshot_type = package["netmansim.simulation"].Snapshot
        after = {
            "simulation.load": self._after_load,
            "simulation.run": self._after_run,
            "topology.mutate": self._after_mutate,
            "topology.path_cost": self._after_path_cost,
        }
        for module, attr, name in FUNCTIONS:
            original = getattr(package[f"netmansim.{module}"], attr)
            if attr == "apply_event":
                wrapper = self._wrap(
                    original,
                    name,
                    None,
                    lambda args: "simulation.snapshot"
                    if isinstance(args[1], snapshot_type)
                    else "simulation.apply_event",
                )
            else:
                wrapper = self._wrap(original, name, after.get(name))
            for owner in package.values():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(package[f"netmansim.{module}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, name, None))
            else:
                wrapper = self._wrap(raw, name, after.get(name))
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name, after, namer=None):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            head = clock()
            spans = self._spans
            record = [namer(args) if namer else name, head, 0, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = record[_TAIL] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
                record[_TAIL] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters recorded at the layer boundaries ---------------------------

    def _after_load(self, args, scenario) -> None:
        if os.path.isfile(args[0]):
            self._load_bytes += os.path.getsize(args[0])
        self._pinned = {
            ((i, j) if i <= j else (j, i)): cost for i, j, cost in scenario.k_override
        }

    def _after_run(self, args, result) -> None:
        self._domains = len(result.final_domains)
        self._max_depth = max(state.id.count(".") for state in result.final_domains)

    def _after_mutate(self, args, result) -> None:
        self._asked.clear()

    def _after_path_cost(self, args, result) -> None:
        _, i, j = args
        key = (i, j) if i <= j else (j, i)
        self._calls += 1
        self._sources.add(i)
        if key in self._asked:
            self._repeats += 1
        else:
            self._asked.add(key)
        # Answered from k_override: the call returned the pair's pinned
        # cost. pinned_large pins values no path search over its links
        # can return, so there this tells the two answers apart.
        if key in self._pinned and self._pinned[key] == result:
            self._pinned_hits += 1

    # -- one invocation ------------------------------------------------------

    def begin(self) -> None:
        self._spans = []
        self._stack.clear()
        self._reset_counters()

    def end(self) -> None:
        """Turn the invocation's spans into per-layer metrics."""
        spans = self._spans
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        count: dict[str, int] = defaultdict(int)
        covered = [0] * len(spans)
        for record in spans:
            if record[_PARENT] >= 0:
                covered[record[_PARENT]] += record[_TAIL] - record[_HEAD]
        for index, record in enumerate(spans):
            name = record[_NAME]
            duration = record[_END] - record[_START]
            total[name] += duration
            own[name] += duration - covered[index]
            count[name] += 1
        calls = self._calls

        def s(ns: int) -> float:
            return ns / 1e9

        self.per_invocation.append(
            {
                "topology.path_cost_s": s(total["topology.path_cost"]),
                "topology.path_cost_calls": calls,
                "topology.path_cost_sources": len(self._sources),
                "topology.path_cost_repeat_ratio": self._repeats / calls if calls else 0.0,
                "topology.path_cost_override_ratio": self._pinned_hits / calls if calls else 0.0,
                "topology.build_s": s(total["topology.build"]),
                "topology.mutate_s": s(total["topology.mutate"]),
                "topology.mutations": count["topology.mutate"],
                "hierarchy.partition_s": s(total["hierarchy.partition"]),
                "hierarchy.grow_s": s(total["hierarchy.grow"]),
                "hierarchy.domains_created": self._domains,
                "hierarchy.max_depth": self._max_depth,
                "simulation.load_s": s(total["simulation.load"]),
                "simulation.load_bytes": self._load_bytes,
                "simulation.replay_self_s": s(
                    own["simulation.run"] + own["simulation.apply_event"]
                ),
                "simulation.events": count["simulation.apply_event"]
                + count["simulation.snapshot"],
                "simulation.snapshot_s": s(total["simulation.snapshot"]),
                "costs.cs_self_s": s(own["costs.cs"]),
                "costs.flatbed_self_s": s(own["costs.flatbed"]),
                "costs.imasnm_poll_self_s": s(own["costs.imasnm_poll"]),
                "costs.imasnm_deploy_self_s": s(own["costs.imasnm_deploy"]),
                "report.compare_s": s(total["report.compare"]),
                "report.render_s": s(total["report.render"]),
                "cli.self_s": s(own["cli.main"]),
            }
        )
        self.last_spans = spans
        self._spans = []

    def medians(self, factor: float) -> dict[str, float]:
        """Median of each per-layer metric over the traced invocations.

        Times are multiplied by ``factor``, the run's nominal-speed scale.
        """
        return {
            name: statistics.median(m[name] for m in self.per_invocation) * factor
            if name.endswith("_s")
            else statistics.median_low(m[name] for m in self.per_invocation)
            for name in self.per_invocation[0]
        }

    def dump(self, path: str) -> None:
        """Write the last invocation's spans as [name, start_ns, end_ns, parent]."""
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": [
                        [r[_NAME], r[_START], r[_END], r[_PARENT]] for r in self.last_spans
                    ],
                },
                sink,
                separators=(",", ":"),
            )
