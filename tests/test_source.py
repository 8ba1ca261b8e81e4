"""Source checks on the package: no invariant depends on `assert`, which
`python -O` strips, and no import needs a package it does not declare."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

# found without importing, so an import that fails cannot hide itself
PACKAGE = Path(importlib.util.find_spec("layeragg").origin).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _sources():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _declared_dependencies() -> set[str]:
    """Distribution names in pyproject.toml's [project] dependencies
    (read with a regex, since tomllib needs Python 3.11)."""
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", PYPROJECT.read_text(), re.M | re.S)
    specs = re.findall(r"[\"']([^\"']+)[\"']", block.group(1))
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_") for spec in specs}


def test_package_source_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_package_imports_only_the_stdlib_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | _declared_dependencies()
    assert "numpy" in allowed
    found = []
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert not found, f"undeclared imports in the package: {', '.join(found)}"
