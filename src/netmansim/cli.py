"""Command-line front end: simulate, validate, and explain scenarios.

A command runs with the cyclic garbage collector paused, through the
same helper that pauses it inside ``load_scenario`` (see
``simulation._collector_paused``), and ``main`` turns it back on
afterwards only if it was on before. The load's own pause is then a
no-op. So the run, the argument checks, the report and its CSV also
run without collections, which would walk live data and free next to
nothing: on a 10^4-node scenario such collections took about a sixth
of the call. What the command drops, the manager tree included, is
freed by reference counting. Only the argument parser's cycles, about
140 objects whatever the scenario, wait for the collector's first pass
after the command.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .errors import NetmanError, ParseError, ValidationError
from .report import compare, emit_csv, float_text, format_table, kilobytes
from .simulation import (
    MODEL_NAMES,
    Scenario,
    SimulationResult,
    _collector_paused,
    load_bundled_scenario,
    load_scenario_file,
    run,
)

__all__ = ["main"]


def _load(argument: str) -> Scenario:
    """Treat the argument as a file path, falling back to bundled names."""
    if os.path.exists(argument):
        return load_scenario_file(argument)
    if os.sep not in argument:
        return load_bundled_scenario(argument)
    raise FileNotFoundError(f"no such scenario file: {argument}")


def _parse_models(text: str) -> tuple[str, ...]:
    models = tuple(part.strip() for part in text.split(",") if part.strip())
    if not models:
        raise ValidationError("--models", "expected a comma-separated model list")
    for model in models:
        if model not in MODEL_NAMES:
            raise ValidationError(
                "--models", f"unknown model {model!r} (choose from {MODEL_NAMES})"
            )
    if len(set(models)) != len(models):
        raise ValidationError("--models", "duplicate model")
    return models


def _parse_pollings(text: str) -> tuple[int, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValidationError("--pollings", "expected a comma-separated count list")
    counts = []
    for part in parts:
        # int() alone also takes "1_0", "+5", "05" and non-ASCII digits
        # such as "١٢", none of which a scenario file can write.
        digits = part.removeprefix("-")
        try:
            leading_zero = len(digits) > 1 and digits[0] == "0"
            if leading_zero or not (digits.isascii() and digits.isdigit()):
                raise ValueError(part)
            count = int(part, 10)
        except ValueError:
            raise ValidationError("--pollings", f"not an integer: {part!r}") from None
        if count < 0:
            raise ValidationError("--pollings", f"must be non-negative: {count}")
        counts.append(count)
    return tuple(counts)


def _print_tree(title: str, result: SimulationResult) -> None:
    """``title``, then one line per final domain, indented by its depth."""
    # final_domains are in id order, which is pre-order, and an id has
    # one dot per level below the root.
    lines = [title]
    lines += [
        f"{'  ' * state.id.count('.')}{state.id}  host={state.manager_host}  "
        f"members=[{', '.join(map(str, state.members))}]"
        for state in result.final_domains
    ]
    print("\n".join(lines))


def _print_snapshots(result: SimulationResult) -> None:
    for record in result.snapshots:
        print(f"snapshot {record.label}: managers {', '.join(record.managers)}")
        if record.per_poll:
            for model, per_poll in record.per_poll.items():
                print(
                    f"  {model}: per-poll {float_text(per_poll, 'g')} bytes"
                    f" ({kilobytes(per_poll)} Kb)"
                )


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    models = _parse_models(args.models) if args.models is not None else None
    pollings = (
        _parse_pollings(args.pollings) if args.pollings is not None else None
    )
    result = run(
        scenario,
        models=models,
        polling_counts=pollings,
        costs_at_snapshots=args.snapshots,
    )
    if args.snapshots:
        _print_snapshots(result)
    if not result.models:
        _print_tree(f"scenario: {result.scenario} (no cost models requested)", result)
        return 0
    report = compare(result, include_deploy=args.include_deploy)
    print(format_table(report))
    if args.csv:
        with open(args.csv, "wb") as sink:
            emit_csv(report, sink)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    print(
        f"ok: {scenario.name} ({len(scenario.nodes)} initial nodes, "
        f"{len(scenario.events)} events, models: "
        f"{', '.join(scenario.models) if scenario.models else 'none'})"
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    result = run(scenario, models=(), polling_counts=())
    _print_tree(f"scenario: {scenario.name}", result)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmansim",
        description=(
            "Simulate hierarchical mobile-agent network management and "
            "compare its traffic cost with centralized polling and a "
            "flat-bed agent sweep."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run a scenario and print its cost table"
    )
    simulate.add_argument(
        "--scenario",
        required=True,
        help="scenario file path, or the name of a bundled scenario",
    )
    simulate.add_argument(
        "--models",
        help=f"comma-separated subset of {'/'.join(MODEL_NAMES)}"
        " (default: the scenario's own)",
    )
    simulate.add_argument(
        "--pollings",
        help="comma-separated polling counts (default: the scenario's own)",
    )
    simulate.add_argument("--csv", help="also write the table to this CSV file")
    simulate.add_argument(
        "--include-deploy",
        action="store_true",
        help="add the one-time deployment cost to every hierarchical row",
    )
    simulate.add_argument(
        "--snapshots",
        action="store_true",
        help="print per-snapshot manager sets and costs",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    validate = commands.add_parser(
        "validate", help="parse and check a scenario, reporting problems"
    )
    validate.add_argument("--scenario", required=True, help="scenario file or name")
    validate.set_defaults(handler=_cmd_validate)

    explain = commands.add_parser(
        "explain", help="print the final manager tree of a scenario"
    )
    explain.add_argument("--scenario", required=True, help="scenario file or name")
    explain.set_defaults(handler=_cmd_explain)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point. Returns 0 on success, 1 on bad input, 2 on runtime error."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    with _collector_paused():  # see the module docstring
        try:
            return args.handler(args)
        except (ParseError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (NetmanError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
