"""Static checks on the package source: no module imports a name it never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "linform"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in source that no expression reads.

    An attribute chain such as np.int64 starts at the Name np, so it counts
    as a use of np; annotations are expressions too.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_finds_unused_imports():
    source = ("import json\nimport os.path\nimport numpy as np\nfrom math import gcd, lcm\n"
              "from . import _bits\n\ndef f(x: np.ndarray) -> int:\n    return gcd(x, os.sep)\n")
    assert unused_imports(source) == ["_bits (line 5)", "json (line 1)", "lcm (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
