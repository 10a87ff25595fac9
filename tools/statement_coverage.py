"""Statement coverage of ``src/refs`` under the tier-1 suite, with the standard library only.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer,
with ``--hypothesis-seed=0`` so that the property tests draw the same
examples on every run. Then it lists each statement of ``src/refs`` that
never ran and exits 1 if there is one, or with pytest's own status when the
suite fails. Usage, from the repository root::

    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python tools/statement_coverage.py

Arguments after the script's name are passed on to pytest.

A statement is one ``ast.stmt``. It counts when the compiled module gives
its own lines code, so a function's docstring, a ``global`` or a bare
``try:`` line does not. A compound statement's own lines are those before
its body, decorators included. It ran when one of its own lines sent a
``line`` event. The tracer sees this process and its threads, not the
``python -m refs.cli`` children that some tests start. So these are left
out:

- the bodies of ``if TYPE_CHECKING:``, which only type checkers read;
- each function that ``ALLOWED`` names, with why;
- the ``if __name__ == "__main__":`` guard of a module, which runs only as a
  child's entry point.

Hypothesis's deadline is lifted for the run: the tracer slows every call,
and the time an example takes under it says nothing about the code. Its
example database is not read, so what runs does not depend on earlier runs.
The suite's own wall-time line, which ``conftest.py`` prints against its
budget, says nothing under the tracer either.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "refs"

# Functions, as module.qualname, that tier-1 cannot run in its own process.
ALLOWED = {
    "transport._connect": "opens a real connection; every test replaces it with a fake",
    "transport._tls_context": "loads the system's CA store, which only real HTTPS needs",
}


def _code_lines(source: str, path: Path) -> set[int]:
    """Every line number the compiled module gives code, in any nested code object."""
    lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
        and node.test.id == "TYPE_CHECKING"


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "__name__ == '__main__'", '__name__ == "__main__"')


def _own_lines(node: ast.stmt) -> range:
    """The lines of ``node`` outside the statements it holds: a compound statement's header."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def statements(path: Path) -> list[tuple[str, range]]:
    """(qualified name of the enclosing function or class, own lines) of each counted
    statement of one module."""
    source = path.read_text(encoding="utf-8")
    code_lines = _code_lines(source, path)
    found: list[tuple[str, range]] = []

    def visit(body: list[ast.stmt], scope: str) -> None:
        for node in body:
            if _is_type_checking(node) or _is_main_guard(node):
                continue
            name = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{node.name}"
                if name in ALLOWED:
                    continue
            own = _own_lines(node)
            if code_lines.intersection(own):
                found.append((scope, own))
            for field in ("body", "orelse", "finalbody", "handlers"):
                children = getattr(node, field, None)
                if isinstance(children, list):
                    visit(children, name)
            for case in getattr(node, "cases", []):
                visit(case.body, name)

    visit(ast.parse(source).body, path.stem)
    return found


class _Profile:
    """Hypothesis settings of the run: no deadline, and no example database, whose saved
    examples would make what runs depend on earlier runs on the same machine."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("statement-coverage", deadline=None, database=None)
        settings.load_profile("statement-coverage")


def main(pytest_args: list[str]) -> int:
    files = {str(path): set() for path in sorted(SOURCE.glob("*.py"))}
    # The lines run of each code file name as imported, a relative one say; None if not refs.
    ran_in: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            ran_in[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ran_in:
            ran_in[filename] = files.get(str(Path(filename).resolve()))
        return None if ran_in[filename] is None else local

    # Imported only under the tracer, so that the module bodies of refs are traced too.
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "--hypothesis-seed=0", *pytest_args], plugins=[_Profile()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"statement coverage: the suite failed (pytest status {status})", file=sys.stderr)
        return int(status)
    unrun, total = [], 0
    for filename, ran in files.items():
        path = Path(filename)
        lines = path.read_text(encoding="utf-8").splitlines()
        counted = statements(path)
        total += len(counted)
        unrun += [f"{path.relative_to(ROOT)}:{own.start} ({scope}): {lines[own.start - 1].strip()}"
                  for scope, own in counted if not ran.intersection(own)]
    print(f"statement coverage: {total - len(unrun)} of {total} statements of src/refs ran;"
          f" {len(ALLOWED)} functions and each __main__ guard left out")
    for line in unrun:
        print(f"never ran: {line}")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
