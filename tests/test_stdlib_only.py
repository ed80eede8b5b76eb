"""The package imports nothing but the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netmansim"


def outside_imports(source: str) -> list[str]:
    """Every absolute import in ``source`` that is not a stdlib module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            name
            for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    for module in modules:
        assert outside_imports(module.read_text("utf-8")) == [], module.name


def test_the_check_catches_third_party_imports():
    source = (
        "import os.path, numpy\n"
        "from scipy.sparse import csr_matrix\n"
        "from . import topology\n"
        "from .errors import NetmanError\n"
        "from collections import abc\n"
        "def f():\n"
        "    import networkx as nx\n"
    )
    assert outside_imports(source) == ["numpy", "scipy.sparse", "networkx"]
