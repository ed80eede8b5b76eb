"""Cost comparison reports: kilobyte tables and CSV emission.

Costs are carried in bytes; reports render them as kilobytes using the
1000 divisor with half-up rounding to two decimals. Deployment cost is
reported once in the metadata and kept out of the per-polling rows unless
explicitly included.
"""

from __future__ import annotations

import io
from decimal import Context, Decimal
from fractions import Fraction
from typing import BinaryIO, TextIO, Union

from ._record import Record
from .errors import EmptyResult, NetmanError
from .simulation import SimulationResult

__all__ = ["kilobytes", "ReportRow", "CostReport", "compare", "emit_csv", "format_table"]

def kilobytes(value) -> Decimal:
    """Render a byte count as kilobytes: /1000, 2 decimals, half-up.

    The rounding is done on exact integers, so every count gives its
    exact hundredths; halves round away from zero. Hundredths too long
    to print (see ``_digits``) raise NetmanError.
    """
    amount = Fraction(value)
    n, d = abs(amount.numerator), amount.denominator
    hundredths = (n * 100 + 500 * d) // (1000 * d)
    sign = "-" if amount.numerator < 0 else ""
    return Decimal(f"{sign}{_digits(hundredths)}e-2")


def _digits(number: int) -> str:
    """``str(number)``, or NetmanError past Python's int-to-str digit limit.

    The limit (4300 digits by default) bounds a conversion whose time
    grows with the square of the digit count: without it, a nine-byte
    message size such as ``1e1000000`` takes over a minute to print.
    """
    try:
        return str(number)
    except ValueError:
        raise NetmanError("a byte total has too many digits to print") from None


def float_text(value: Fraction, spec: str = "") -> str:
    """``format(float(value), spec)`` for ``spec`` "" (``repr``) or "g".

    Past the float range the same e-notation is computed exactly: the
    value is rounded half to even to 17 significant digits for "" (the
    most ``repr`` prints) or 6 for "g", and trailing zeros are dropped.
    A value too long to print (see ``_digits``) raises NetmanError.
    """
    try:
        return format(float(value), spec)
    except OverflowError:
        pass
    whole, rest = divmod(abs(value.numerator), value.denominator)
    sign = "-" if value < 0 else ""
    # At this size the fraction can only break a tie, and .1 does that.
    exact = Decimal(f"{sign}{_digits(whole)}.{int(rest > 0)}")
    context = Context(prec=6 if spec == "g" else 17)
    return format(context.plus(exact).normalize(context), "g")


class ReportRow(Record):
    """One polling count with its per-model cost, in bytes and kilobytes."""

    __slots__ = ("polls", "bytes", "kb")

    def __init__(
        self, polls: int, bytes: dict[str, Fraction], kb: dict[str, Decimal]
    ) -> None:
        object.__setattr__(self, "polls", polls)
        object.__setattr__(self, "bytes", bytes)
        object.__setattr__(self, "kb", kb)

    def kb_of(self, model: str) -> Decimal:
        return self.kb[model]


class CostReport(Record):
    """Comparison table over polling counts, plus deployment metadata."""

    __slots__ = ("scenario", "models", "include_deploy", "deploy", "rows")

    def __init__(
        self, scenario: str, models: tuple[str, ...], include_deploy: bool,
        deploy: dict[str, Fraction], rows: tuple[ReportRow, ...],
    ) -> None:
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "include_deploy", include_deploy)
        object.__setattr__(self, "deploy", deploy)
        object.__setattr__(self, "rows", rows)


def compare(result: SimulationResult, include_deploy: bool = False) -> CostReport:
    """Build the per-polling-count comparison table from a run result.

    Hierarchical deployment cost is listed once in the metadata; with
    ``include_deploy`` it is also added (once, not per poll) to every
    hierarchical-model row.
    """
    if not result.models:
        raise EmptyResult(f"run of {result.scenario!r} evaluated no models")
    rows = []
    for polls in result.polling_counts:
        cells = {
            model: result.total_of(model, polls)
            + (result.deploy_of(model) if include_deploy else 0)
            for model in result.models
        }
        kb = {model: kilobytes(value) for model, value in cells.items()}
        rows.append(ReportRow(polls=polls, bytes=cells, kb=kb))
    return CostReport(
        scenario=result.scenario,
        models=result.models,
        include_deploy=include_deploy,
        deploy=result.deploy,
        rows=tuple(rows),
    )


def _table(report: CostReport) -> list[list[str]]:
    """The header, then one row per polling count, as cell strings."""
    table = [["polling"] + [f"cost_{model}_kb" for model in report.models]]
    for row in report.rows:
        table.append([str(row.polls)] + [str(row.kb_of(m)) for m in report.models])
    return table


def emit_csv(report: CostReport, sink: Union[BinaryIO, TextIO]) -> None:
    """Write the report to ``sink`` as UTF-8 CSV, one row per polling count."""
    if not report.models:
        raise EmptyResult("report has no model columns")
    text = "".join(",".join(line) + "\n" for line in _table(report))
    if isinstance(sink, io.TextIOBase):
        sink.write(text)
    else:
        sink.write(text.encode("utf-8"))


def _format_bytes(value: Fraction) -> str:
    if value.denominator == 1:
        return _digits(value.numerator)
    return float_text(value)


def format_table(report: CostReport) -> str:
    """Plain-text table for terminal output."""
    table = _table(report)
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = [f"scenario: {report.scenario}"]
    for model, deploy in report.deploy.items():
        if deploy:
            suffix = "included in rows" if report.include_deploy else "one-time, excluded from rows"
            lines.append(
                f"{model} deployment: {_format_bytes(deploy)} bytes "
                f"({kilobytes(deploy)} Kb, {suffix})"
            )
    for line in table:
        lines.append("  ".join(c.rjust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)
