"""Guards on the package source itself."""

import ast
from pathlib import Path

import bvkit


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a certificate check written as
    # one would vanish; every check in the package raises explicitly instead
    paths = sorted(Path(bvkit.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
