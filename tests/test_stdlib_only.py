"""The package imports only the standard library and itself, and parses as 3.10.

Importing it also stays cheap: it loads none of the modules that
dominated its start-up time.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    for module in modules:
        ast.parse(module.read_text("utf-8"), module.name, feature_version=(3, 10))


def test_the_parse_catches_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


# Run in a fresh interpreter: which modules `import netmansim` adds, by name.
IMPORT_CODE = """\
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import netmansim
print(netmansim.__file__)
print(*sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_the_import_loads_neither_dataclasses_nor_inspect(flags):
    # Under -S, site loads nothing first, so a lazy import shows too.
    done = subprocess.run(
        [sys.executable, *flags, "-c", IMPORT_CODE, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    source, added = done.stdout.splitlines()
    assert Path(source).parent == PACKAGE
    assert "netmansim.simulation" in added.split()
    for heavy in ("dataclasses", "inspect", "importlib.resources"):
        assert heavy not in added.split(), heavy
