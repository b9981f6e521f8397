"""Statement coverage of ``src/passcovert`` under the test suite, with the stdlib only.

Runs pytest in this process under ``sys.settrace``, tracing only frames whose
code lies in ``src/passcovert``, then prints every statement of the package that
no test executed (docstrings are not statements here) as ``path:line: source``,
followed by a one-line count. A statement counts as executed when any of its own
lines raised a line event: its header for ``if``, ``for``, ``def`` and the like,
its decorators included; a ``try`` is judged by its branches alone.

    python tools/linecov.py                          # the whole suite
    python tools/linecov.py tests/test_harness.py    # any pytest arguments

The exit code is pytest's. Tracing makes the run slower: the whole suite took
110 s under it against 85 s for a plain ``pytest`` on a 2-vCPU x86-64 host.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "passcovert"


def own_lines(path: Path) -> dict[int, set[int]]:
    """First line of each statement -> the lines that belong to it and to none
    of the statements nested in it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def span(node) -> set[int]:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        return set(range(first, node.end_lineno + 1))

    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, ast.Try):
            lines = span(node)
            for inner in ast.walk(node):
                if inner is not node and isinstance(inner, ast.stmt):
                    lines -= span(inner)
            out[node.lineno] = lines
    # a docstring is an expression statement that compiles to no code
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            del out[node.body[0].lineno]
    return out


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = hits.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = hits.get(str(path), set())
        for first, lines in sorted(own_lines(path).items()):
            total += 1
            if not lines & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} of {total} statements in {PACKAGE.relative_to(ROOT)} not executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
