"""netmansim benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mesh_poll --seed 1 --seconds 20 --trace 0

The run generates the workload's scenario from the seed, computes the
expected output with the independent oracle, times fresh-interpreter
set-up (import plus ``load_scenario``), then starts one worker process
that calls ``netmansim.cli.main`` in a closed loop for ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced loop. Every metric is printed as
``name = value unit``; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Files go under
``.perfbench_out/`` in the repository root. A traced run also checks
that every traced call shows the workload's ``LAYER_CHECKS`` values.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import oracle
from tracing import LAYER_UNITS
from worker import NOMINAL_CALIBRATION_S, calibration_s, nominal_s
from workloads import GENERATORS, cli_args, render

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 15

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

# Per-layer values every traced call of a workload must show. A traced
# run counts each as one check, failed if any call shows another value.
LAYER_CHECKS = {
    "growth_storyline": {"topology.path_cost_calls": 0},
    "pinned_large": {"topology.path_cost_override_ratio": 1.0},
}

# Timed in a fresh interpreter: import the package, load one scenario.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import netmansim
netmansim.load_scenario_file(sys.argv[2])
print(time.perf_counter() - start)
"""


def time_setup(scenario: Path) -> tuple[list[float], list[float], int]:
    """Set-up times of SETUP_RUNS fresh interpreters, after one untimed one.

    Returns the raw wall times, the factors that scale each to nominal
    machine speed (as the worker does) and the number of failed runs.
    """
    times, factors, failed = [], [], 0
    before = calibration_s()
    for run in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        after = calibration_s()
        if done.returncode != 0:
            failed += 1
            print(f"set-up failed: {done.stderr.strip()[-300:]}", file=sys.stderr)
        elif run:
            factors.append(NOMINAL_CALIBRATION_S / ((before + after) / 2))
            times.append(float(done.stdout.split()[-1]))
        before = after
    return times, factors, failed


def prepare(
    workload: str, scenario: dict, work: Path, stem: str, seconds: float, trace: bool
) -> tuple[dict, list[str]]:
    """Write the scenario and the oracle's expected outputs under ``work``.

    The oracle runs here, before and outside every timed region. Returns
    the worker's spec and the mismatches of the frozen reference18 totals.
    """
    scenario_path = work / f"{stem}.scenario.json"
    scenario_path.write_bytes(render(scenario))
    expected = oracle.expect_simulate(
        oracle.load(scenario_path.read_bytes()),
        snapshots=workload != "pinned_large",
    )
    reference_file = SRC / "netmansim" / "scenarios" / "reference18.scenario.json"
    reference = oracle.expect_simulate(oracle.load(reference_file.read_bytes()))
    files = {}
    for name, text in (
        ("expected_stdout", expected.stdout),
        ("expected_csv", expected.csv),
        ("reference_stdout", reference.stdout),
    ):
        if text is not None:
            files[name] = work / f"{stem}.{name}.txt"
            files[name].write_text(text, encoding="utf-8")

    csv_path = work / f"{stem}.csv"
    cli_argv = cli_args(workload, str(scenario_path), str(csv_path))
    spec = {
        "src": str(SRC),
        "scenario": str(scenario_path),
        "argv": cli_argv,
        "csv_path": str(csv_path),
        "expected_stdout": str(files["expected_stdout"]),
        "expected_csv": str(files["expected_csv"]) if "--csv" in cli_argv else None,
        "reference_stdout": str(files["reference_stdout"]),
        "tree_nodes": [] if scenario["models"] else _all_nodes(scenario),
        "m_max": scenario["m_max"],
        "seconds": seconds,
        "trace": trace,
        "layer_checks": LAYER_CHECKS.get(workload, {}),
        "span_dump": str(work / f"{stem}.spans.json"),
    }
    return spec, oracle.reference18_errors(reference)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "netmansim" / "__init__.py").is_file():
        print(f"perfbench: no netmansim sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    stem = f"seed{args.seed}"
    spec, reference_errors = prepare(
        args.workload, GENERATORS[args.workload](args.seed), work, stem,
        args.seconds, bool(args.trace),
    )

    setup_raw, setup_factors, setup_failed = time_setup(Path(spec["scenario"]))
    if not setup_raw:
        print("perfbench: no set-up run succeeded", file=sys.stderr)
        return 1

    spec_path = work / f"{stem}-trace{args.trace}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(spec_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=args.seconds + 150,
    )
    if done.returncode != 0 or not done.stdout.strip():
        print(f"perfbench: worker failed:\n{done.stderr[-2000:]}", file=sys.stderr)
        return 1
    measured = json.loads(done.stdout.strip().splitlines()[-1])
    worker_s = time.perf_counter() - started

    # worker calls, every set-up run, and the frozen reference18 totals
    attempted = measured["attempted"] + SETUP_RUNS + 1 + 1
    failed = measured["failed"] + setup_failed + (1 if reference_errors else 0)
    layer_errors = measured.get("layer_errors", [])
    if args.trace:
        attempted += len(spec["layer_checks"])
        failed += len(layer_errors)
    for error in reference_errors + measured["errors"] + layer_errors:
        print(f"check failed: {error}", file=sys.stderr)

    if args.trace:
        values = measured["layers"]
        units = LAYER_UNITS
    else:
        values = {
            "run_s": measured["run_s"],
            "setup_s": nominal_s(setup_raw, setup_factors),
            "peak_rss_mb": measured["peak_rss_mb"],
            "success_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        print(
            f"# {args.workload} seed {args.seed}: {len(measured['raw_run_s'])} timed calls, "
            f"{len(setup_raw)} set-ups, worker {worker_s:.1f} s"
        )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    # The result file also keeps every raw wall time and its scale factor,
    # so that the calibration can be checked against the raw times.
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        raw_calls_s=measured.get("raw_run_s"),
        call_scale_factors=measured.get("scale_factors"),
        raw_setup_s=setup_raw,
        setup_scale_factors=setup_factors,
    )
    (work / f"{stem}-trace{args.trace}.result.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def _all_nodes(scenario: dict) -> list[int]:
    nodes = list(scenario["nodes"])
    nodes += [e["add_node"]["node"] for e in scenario["events"] if "add_node" in e]
    return nodes


if __name__ == "__main__":
    sys.exit(main())
