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


def test_every_module_constant_is_read():
    # one cap per concept: a module-level ALL_CAPS name nothing reads is a dead knob
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assigned = {}
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and leaf.id.isupper():
                        assigned[leaf.id] = f"{name}:{node.lineno}"
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert assigned, f"no module constants under {SRC}"
    assert sorted(loc for name, loc in assigned.items() if name not in read) == []


def test_every_error_class_is_raised():
    # a named error that nothing raises is a dead concept
    errors = ast.parse((SRC / "errors.py").read_text())
    declared = {node.name: node.lineno for node in errors.body
                if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute)
                           else getattr(exc, "id", None))
    assert declared, f"no error classes in {SRC / 'errors.py'}"
    assert sorted(f"errors.py:{line} {name}" for name, line in declared.items()
                  if name not in raised) == []


def test_every_private_function_is_read():
    # a private helper nothing in the package reads is dead code kept for the tests
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined = {}
    read = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = f"{name}:{node.lineno}"
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined, f"no private functions under {SRC}"
    assert sorted(loc for name, loc in defined.items() if name not in read) == []
