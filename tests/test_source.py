"""Rules the library source keeps."""

import ast
from pathlib import Path

import acygroups


def _modules():
    """(file name, syntax tree) of every module of the library."""
    for path in sorted(Path(acygroups.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements_in_library():
    # python -O strips assert statements, which would silently skip a check
    offenders = []
    for name, tree in _modules():
        offenders += [
            f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []


def test_library_does_not_import_sympy():
    # sympy is a test oracle only; the library must run without it
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "sympy" for module in imported):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []
