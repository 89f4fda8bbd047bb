"""Rules the library source keeps."""

import ast
from pathlib import Path

import acygroups


def test_no_assert_statements_in_library():
    # python -O strips assert statements, which would silently skip a check
    offenders = []
    for path in sorted(Path(acygroups.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert offenders == []
