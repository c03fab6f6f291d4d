"""The functions of the sweep's and the timeline's modules read enum
members through module-level aliases: a member read off its class costs
about ten times a global read on Python 3.11, and a sweep point or a
timeline pass runs these functions on every call.  Alias definitions and
default argument values stay outside any function body, so they may read
members off the class."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ntn_harq"
ENUMS = {"Direction", "GrantMode", "SchedulingMode", "Payload", "Activity", "Perspective"}


def member_reads(path: Path) -> list[str]:
    """``line: Enum.MEMBER`` for each member read in a function body of ``path``."""
    reads = []
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            reads += [f"{node.lineno}: {ast.unparse(node)}" for statement in function.body
                      for node in ast.walk(statement)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in ENUMS]
    return reads


@pytest.mark.parametrize("name", ["harq.py", "metrics.py", "scenario.py", "scheduler.py", "cli.py"])
def test_no_function_reads_an_enum_member_off_its_class(name):
    assert member_reads(PACKAGE / name) == []
