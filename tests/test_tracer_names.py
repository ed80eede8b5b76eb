"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/tracing.py`` rebinds each function and method listed in its
``FUNCTIONS`` and ``METHODS`` tables, and its ``install`` fails on a
missing name. The tables are read with ``ast``, so nothing under
``perfbench/`` is imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_tables() -> dict[str, tuple]:
    """The literal ``FUNCTIONS`` and ``METHODS`` tables of the tracer."""
    tables = {}
    for statement in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id in (
                    "FUNCTIONS",
                    "METHODS",
                ):
                    tables[target.id] = ast.literal_eval(statement.value)
    return tables


TABLES = traced_tables()


def test_both_tables_are_read():
    assert TABLES["FUNCTIONS"] and TABLES["METHODS"]


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, name, _ in TABLES["FUNCTIONS"]]
)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"netmansim.{module}"), name))


@pytest.mark.parametrize(
    "module, cls, name",
    [(module, cls, name) for module, cls, name, _ in TABLES["METHODS"]],
)
def test_traced_method_exists(module, cls, name):
    # The tracer reads the class's own __dict__, not inherited attributes.
    owner = getattr(importlib.import_module(f"netmansim.{module}"), cls)
    assert name in vars(owner)
