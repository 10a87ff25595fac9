"""The test suite's own layout: a helper that two test modules use has one home."""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def imported_modules(path: Path) -> set[str]:
    """The top-level name of every module a file imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
    return names


def test_no_module_of_the_suite_imports_a_test_module():
    """Shared helpers live in conftest.py and the helper modules (corpus.py, fakes.py,
    recorded.py, stored_forms.py, strategies.py). Importing a test module for one would
    run that module's body too, and tie one module's run to another's."""
    importing = {path.name: sorted(name for name in imported_modules(path)
                                   if name.startswith("test_"))
                 for path in sorted(TESTS.glob("*.py"))}
    assert {name: modules for name, modules in importing.items() if modules} == {}
