"""The runtime stays standard-library only: every module of the package
imports nothing but the standard library and the package itself."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ntn_harq"


def top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    outside = top_level_imports(path) - set(sys.stdlib_module_names) - {"ntn_harq"}
    assert not outside, f"{path.name} imports {sorted(outside)}"
