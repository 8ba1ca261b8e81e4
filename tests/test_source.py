"""Source checks: no invariant of the package depends on `assert`,
which `python -O` strips."""

import ast
from pathlib import Path

import layeragg


def test_package_source_has_no_assert_statement():
    found = []
    for path in sorted(Path(layeragg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {', '.join(found)}"
