"""Kilobyte rendering, comparison tables, and CSV emission."""

from __future__ import annotations

import io
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

from netmansim import (
    CostReport,
    EmptyResult,
    NetmanError,
    compare,
    emit_csv,
    format_table,
    kilobytes,
    load_bundled_scenario,
    run,
)
from netmansim.report import float_text


class TestKilobytes:
    def test_reference_values(self):
        assert kilobytes(110220) == Decimal("110.22")
        assert kilobytes(Fraction("73557.4")) == Decimal("73.56")
        assert kilobytes(735574) == Decimal("735.57")
        assert kilobytes(2204400) == Decimal("2204.40")

    def test_rounds_half_up(self):
        assert kilobytes(5) == Decimal("0.01")
        assert kilobytes(4) == Decimal("0.00")
        assert kilobytes(15) == Decimal("0.02")
        assert kilobytes(25) == Decimal("0.03")

    def test_counts_past_fifty_digits_round_exactly(self):
        big = 10**60
        assert str(kilobytes(big)) == "1" + "0" * 57 + ".00"
        assert str(kilobytes(big + 5)) == "1" + "0" * 57 + ".01"
        assert str(kilobytes(Fraction(big + 9, 2))) == "5" + "0" * 56 + ".00"
        assert str(kilobytes(Fraction(big + 10, 2))) == "5" + "0" * 56 + ".01"

    def test_counts_past_the_int_to_str_digit_limit_are_refused(self):
        # Python refuses to render ints of more than 4300 digits in full
        assert str(kilobytes(10**4200 + 5)) == "1" + "0" * 4197 + ".01"
        for count in (10**5000, -(10**5000)):
            with pytest.raises(NetmanError, match="too many digits"):
                kilobytes(count)

    def test_negative_counts_round_away_from_zero(self):
        assert str(kilobytes(-5)) == "-0.01"
        assert str(kilobytes(-4)) == "-0.00"

    def test_zero(self):
        assert kilobytes(0) == Decimal("0.00")
        assert str(kilobytes(0)) == "0.00"

    def test_accepts_common_numeric_types(self):
        assert kilobytes(Fraction(1, 2)) == Decimal("0.00")
        assert kilobytes(Decimal("1000")) == Decimal("1.00")
        assert kilobytes(1000.0) == Decimal("1.00")


class TestFloatText:
    def test_matches_float_formatting_inside_the_float_range(self):
        for value in (
            Fraction(1106672, 1),
            Fraction(735574, 10),
            Fraction(1, 3),
            Fraction(10**300, 7),
            Fraction(-25, 2),
        ):
            assert float_text(value, "g") == f"{float(value):g}"
            assert float_text(value) == str(float(value))

    def test_rounds_exactly_past_the_float_range(self):
        big = 10**400
        assert float_text(Fraction(2 * 10**308), "g") == "2e+308"
        assert float_text(Fraction(big * 1234565), "g") == "1.23456e+406"
        assert float_text(Fraction(big * 1234575), "g") == "1.23458e+406"
        assert float_text(Fraction(big * 1234565 + 1), "g") == "1.23457e+406"
        assert float_text(Fraction(big * 2469130 + 1, 2), "g") == "1.23457e+406"
        assert float_text(Fraction(big * 9999995), "g") == "1e+407"
        assert float_text(Fraction(-(10**4000) - 1, 3), "g") == "-3.33333e+3999"
        with pytest.raises(NetmanError, match="too many digits"):
            float_text(Fraction(10**5000, 3))
        assert float_text(Fraction(big, 3)) == "3.3333333333333333e+399"
        assert float_text(Fraction(25 * 10**308 + 25, 2)) == "1.25e+309"


@pytest.fixture(scope="module")
def reference18_report():
    return compare(run(load_bundled_scenario("reference18")))


class TestCompare:
    def test_row_structure(self, reference18_report):
        report = reference18_report
        assert report.scenario == "reference18"
        assert report.models == ("cs", "imasnm")
        assert [row.polls for row in report.rows] == [1, 10, 20, 50, 100]

    def test_reference_kilobyte_cells(self, reference18_report):
        expected = {
            1: ("110.22", "73.56"),
            10: ("1102.20", "735.57"),
            20: ("2204.40", "1471.15"),
            50: ("5511.00", "3677.87"),
            100: ("11022.00", "7355.74"),
        }
        for row in reference18_report.rows:
            cs, imasnm = expected[row.polls]
            assert str(row.kb_of("cs")) == cs
            assert str(row.kb_of("imasnm")) == imasnm

    def test_deploy_excluded_by_default(self, reference18_report):
        report = reference18_report
        assert report.include_deploy is False
        row = report.rows[0]
        assert row.bytes_of("imasnm") == Fraction("73557.4")

    def test_include_deploy_adds_setup_cost_once_per_row(self):
        result = run(load_bundled_scenario("reference18"))
        report = compare(result, include_deploy=True)
        assert report.include_deploy is True
        assert report.deploy_of("imasnm") == 100352
        assert report.deploy_of("cs") == 0
        for row in report.rows:
            assert row.bytes_of("imasnm") == (
                row.polls * Fraction("73557.4") + 100352
            )
            assert row.bytes_of("cs") == row.polls * 110220

    def test_zero_poll_row_renders_zero(self):
        scenario = load_bundled_scenario("reference18")
        result = run(scenario, polling_counts=[0])
        report = compare(result)
        assert [row.polls for row in report.rows] == [0]
        assert str(report.rows[0].kb_of("cs")) == "0.00"

    def test_empty_result_is_rejected(self):
        scenario = load_bundled_scenario("growth19")
        with pytest.raises(EmptyResult):
            compare(run(scenario))


class TestEmitCsv:
    def test_a_report_without_models_is_rejected(self, reference18_report):
        empty = replace(reference18_report, models=())
        with pytest.raises(EmptyResult):
            emit_csv(empty, io.StringIO())

    def test_binary_sink(self, reference18_report):
        sink = io.BytesIO()
        emit_csv(reference18_report, sink)
        text = sink.getvalue().decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == "polling,cost_cs_kb,cost_imasnm_kb"
        assert lines[1] == "1,110.22,73.56"
        assert len(lines) == 6
        assert text.endswith("\n")

    def test_text_sink(self, reference18_report):
        sink = io.StringIO()
        emit_csv(reference18_report, sink)
        assert sink.getvalue().splitlines()[1] == "1,110.22,73.56"

    def test_column_subset_follows_models(self):
        scenario = load_bundled_scenario("reference18")
        report = compare(run(scenario, models=["cs"]))
        sink = io.StringIO()
        emit_csv(report, sink)
        assert sink.getvalue().splitlines()[0] == "polling,cost_cs_kb"

    def test_round_trip_matches_report(self, reference18_report):
        sink = io.StringIO()
        emit_csv(reference18_report, sink)
        lines = sink.getvalue().splitlines()
        for line, row in zip(lines[1:], reference18_report.rows):
            cells = line.split(",")
            assert int(cells[0]) == row.polls
            assert Decimal(cells[1]) == row.kb_of("cs")
            assert Decimal(cells[2]) == row.kb_of("imasnm")


class TestFormatTable:
    def test_mentions_scenario_and_values(self, reference18_report):
        text = format_table(reference18_report)
        assert "reference18" in text
        assert "110.22" in text
        assert "7355.74" in text

    def test_deploy_metadata_lines(self):
        result = run(load_bundled_scenario("reference18"))
        text = format_table(compare(result))
        assert "deployment" in text
        assert "100.35" in text

    def test_deploy_totals_past_the_float_range(self):
        def deploy_line(value):
            report = CostReport(
                scenario="huge",
                models=("imasnm",),
                include_deploy=False,
                deploy={"imasnm": value},
                rows=(),
            )
            return format_table(report).splitlines()[1]

        assert deploy_line(Fraction(10**400 + 1, 2)) == (
            f"imasnm deployment: 5e+399 bytes (5{'0' * 396}.00 Kb,"
            " one-time, excluded from rows)"
        )
        assert deploy_line(Fraction(10**4000)).startswith(
            f"imasnm deployment: 1{'0' * 4000} bytes (1{'0' * 3997}.00 Kb"
        )
        with pytest.raises(NetmanError, match="too many digits"):
            deploy_line(Fraction(10**5000))

    def test_columns_are_aligned(self, reference18_report):
        lines = format_table(reference18_report).splitlines()
        rows = [line for line in lines if line and line.lstrip()[0].isdigit()]
        assert len(rows) == 5
        ends = {len(line) for line in rows}
        assert len(ends) == 1
