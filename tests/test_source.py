"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qrlab"


def test_no_assert_statements():
    # asserts vanish under python -O; invariants raise named QrlabErrors
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
