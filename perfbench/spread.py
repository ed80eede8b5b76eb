"""Run the benchmark over seeds 1 to 10 and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py [--workloads mesh_poll,pinned_large] [--record LABEL]

Runs BENCHMARK.json's command untraced once per workload and seed, one run after
another, and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median. An end-to-end
metric is flagged when its spread is above a third of its bound. Beside
``run_s`` and ``setup_s`` it prints ``raw_run_s`` and ``raw_setup_s``,
the same medians of the unscaled wall times, read from each run's
result file, to show what the calibration does. ``--record LABEL`` appends the medians as one entry of
perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = Path(__file__).with_name("trajectory.json")
SEEDS = range(1, 11)


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            done = subprocess.run(
                config["command"]
                + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{done.stderr}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            record = json.loads(
                (ROOT / ".perfbench_out" / workload / f"seed{seed}-trace0.result.json")
                .read_text(encoding="utf-8")
            )
            values.setdefault("raw_run_s", []).append(statistics.median(record["raw_calls_s"]))
            values.setdefault("raw_setup_s", []).append(statistics.median(record["raw_setup_s"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                if n in bounds
            ), flush=True)
        summary[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {
                "median": statistics.median(series), "q1": q1, "q3": q3,
                "spread": spread, "n": len(series),
            }
            flag = ""
            if name in bounds and spread > bounds[name] / 3:
                flag = f"  SPREAD ABOVE bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {workload:17} {name:34} median {statistics.median(series):.6g}"
                  f"  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{flag}")

    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append({"label": args.record, "seeds": list(SEEDS), "workloads": summary})
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
