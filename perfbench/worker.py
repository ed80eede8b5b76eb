"""Child process of the benchmark: the timed closed loop of CLI calls.

Usage: ``python3 worker.py SPEC.json``. The spec (written by run.py)
names the sources to import, the CLI arguments, the expected stdout and
CSV, the run length and whether to trace. One ``netmansim.cli.main``
call follows another in this single thread; every call's exit code,
stdout and CSV are checked after its timer stops. The last stdout line
is one JSON object with the timings, counts and (traced) layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction


class Checker:
    """Runs CLI calls and counts those that fail or print a wrong result."""

    def __init__(self, main) -> None:
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, argv, stdout, csv_path=None, csv=None, extra_check=None) -> float:
        """One checked invocation; returns its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.main(argv)
            # A crash of the program under test is a failed invocation.
            except (Exception, SystemExit) as exc:
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit {code!r}: {err.getvalue().strip()[:300]}")
        elif out.getvalue() != stdout:
            problems.append(f"stdout differs from the oracle: {_first_diff(out.getvalue(), stdout)}")
        elif csv is not None:
            with open(csv_path, encoding="utf-8") as source:
                if source.read() != csv:
                    problems.append("CSV differs from the oracle")
        if not problems and extra_check is not None:
            problems += extra_check(out.getvalue())
        if problems:
            self.failed += 1
            self.errors += [f"{' '.join(argv[:3])}: {p}" for p in problems[:3]]
        return elapsed


def _first_diff(got: str, want: str) -> str:
    for number, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if a != b:
            return f"line {number}: {a!r} != {b!r}"
    return f"{len(got.splitlines())} lines, expected {len(want.splitlines())}"


# The machine's speed swings by tens of percent over tens of seconds on
# a shared host, which would swamp any change to the code. Times are
# therefore scaled to a nominal machine speed: a fixed calibration is
# timed before and after every timed interval, which gives the interval
# a factor, NOMINAL_CALIBRATION_S over the mean of those two times. A
# run reports the median of the scaled intervals.
# The calibration allocates like the simulator does (Fractions, tuple
# keys, small lists); a tight integer loop tracked the swings less well.
NOMINAL_CALIBRATION_S = 0.05


def calibration_s() -> float:
    """Wall time of fixed allocation-heavy work, about 50 ms at nominal speed.

    It frees what it builds every 2000 entries, so that its own peak
    memory stays below that of any workload's calls.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for block in range(8):
        table = {}
        for i in range(2000):
            table[i, block] = Fraction(i, 4)
            total += table[i, block]
        rows = [list(range(20)) for _ in range(1000)]
        del table, rows
    return time.perf_counter() - start


def nominal_s(raw: list[float], factors: list[float]) -> float:
    """A run's time at nominal machine speed: the median scaled interval."""
    return statistics.median(t * f for t, f in zip(raw, factors))


def closed_loop(seconds: float, call, after_call=None) -> tuple[list[float], list[float]]:
    """Call back to back until ``seconds`` have passed; at least once.

    Returns each call's raw wall time and its scale factor to nominal
    machine speed. ``after_call`` runs after each call, outside its time.
    """
    raw, factors = [], []
    deadline = time.perf_counter() + seconds
    before = calibration_s()
    while not raw or time.perf_counter() < deadline:
        raw.append(call())
        if after_call is not None:
            after_call()
        after = calibration_s()
        factors.append(NOMINAL_CALIBRATION_S / ((before + after) / 2))
        before = after
    return raw, factors


def measure(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    cli = importlib.import_module("netmansim.cli")
    source = os.path.dirname(os.path.abspath(cli.__file__))
    if source != os.path.join(os.path.abspath(spec["src"]), "netmansim"):
        raise SystemExit(f"netmansim imported from {source}, not from {spec['src']}")
    from oracle import tree_errors  # the benchmark's own module

    def read(path):
        with open(path, encoding="utf-8") as stream:
            return stream.read()

    # Look cli.main up at each call, so that the tracer's wrapper is used.
    checker = Checker(lambda argv: cli.main(argv))
    checker.call(["simulate", "--scenario", "reference18"], read(spec["reference_stdout"]))

    stdout = read(spec["expected_stdout"])
    csv = read(spec["expected_csv"]) if spec["expected_csv"] else None
    tree_check = None
    if spec["tree_nodes"]:
        nodes = set(spec["tree_nodes"])
        tree_check = lambda text: tree_errors(text, nodes, spec["m_max"])  # noqa: E731

    def call(check=None):
        return checker.call(spec["argv"], stdout, spec["csv_path"], csv, check)

    call(tree_check)  # warm-up, also checks the tree invariants
    result = {}
    if not spec["trace"]:
        raw, factors = closed_loop(spec["seconds"], call)
        result.update(run_s=nominal_s(raw, factors), raw_run_s=raw, scale_factors=factors)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    else:
        from tracing import Tracer

        untraced = nominal_s(*closed_loop(spec["seconds"] / 2, call))
        tracer = Tracer()
        tracer.install()

        def traced_call():
            tracer.begin()
            return call()

        try:
            raw, factors = closed_loop(spec["seconds"] / 2, traced_call, tracer.end)
        finally:
            tracer.uninstall()
        # Layer values every traced call must show, such as no path search.
        for name, want in spec["layer_checks"].items():
            off = [m[name] for m in tracer.per_invocation if m[name] != want]
            if off:
                result.setdefault("layer_errors", []).append(
                    f"{name} is {off[0]!r}, not {want!r}, in {len(off)} of "
                    f"{len(tracer.per_invocation)} traced calls"
                )
        layers = tracer.medians(statistics.median(factors))
        layers["trace.overhead_s"] = nominal_s(raw, factors) - untraced
        result["layers"] = layers
        result["spans"] = len(tracer.last_spans)
        tracer.dump(spec["span_dump"])
    result.update(attempted=checker.attempted, failed=checker.failed, errors=checker.errors)
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as stream:
        spec = json.load(stream)
    print(json.dumps(measure(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
