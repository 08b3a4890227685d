"""Source-level rules for the package."""

from __future__ import annotations

import ast
from pathlib import Path

import specfactor


def test_no_assert_statements_in_package():
    # python -O strips assert, so runtime invariants must raise explicitly
    found = []
    for path in sorted(Path(specfactor.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
