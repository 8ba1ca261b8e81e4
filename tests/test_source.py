"""Source checks on the package: no invariant depends on `assert`, which
`python -O` strips, no import needs a package it does not declare, no
module imports a name it does not use, no message is raised at two
places, and nothing is defined that only tests reach."""

import ast
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

# found without importing, so an import that fails cannot hide itself
PACKAGE = Path(importlib.util.find_spec("layeragg").origin).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
# where a definition in the package may be read: the package itself, the
# benchmark and its layer map, and the acceptance tests
READERS = [
    *PACKAGE.glob("*.py"),
    *PACKAGE.parents[1].glob("roundbench/*.py"),
    PACKAGE.parents[1] / "roundbench" / "map.json",
    PACKAGE.parents[1] / "tests" / "test_acceptance.py",
]


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


def _exported(tree) -> set[str]:
    """The names a module lists in a top-level `__all__ = [...]`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_modules_use_every_name_they_import():
    found = []
    for path, tree in _sources():
        kept = _exported(tree) | {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name not in kept
            ]
    assert not found, f"unused imports in the package: {', '.join(found)}"


def _template(node) -> str:
    """A message's text with each f-string placeholder blanked, so that two
    messages differing only in what they name compare equal."""
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{…}" for part in node.values
        )
    if isinstance(node, ast.Constant):
        return str(node.value)
    return ast.unparse(node)


def test_no_two_raise_sites_in_the_package_share_a_message():
    """A message template (the first argument of a raised call, with its
    placeholders blanked) raised at two places is one check written twice."""
    sites: dict[str, list[str]] = {}
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                template = _template(node.exc.args[0])
                sites.setdefault(template, []).append(f"{path.name}:{node.lineno}")
    found = [f"{template} at {', '.join(at)}" for template, at in sites.items() if len(at) > 1]
    assert not found, f"messages raised at more than one place: {'; '.join(found)}"


def test_every_definition_in_the_package_is_named_outside_its_definition():
    """A function, class or method (dunders aside) whose name appears, as a
    whole word, in the readers no more often than it is defined has no
    caller but the tests."""
    text = "\n".join(path.read_text() for path in READERS)
    defined = Counter(
        node.name
        for _, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )
    found = sorted(
        name
        for name, count in defined.items()
        if len(re.findall(rf"\b{name}\b", text)) <= count
    )
    assert not found, f"defined in the package and named nowhere else: {', '.join(found)}"
