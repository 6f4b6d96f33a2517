"""Statement coverage of the package's functions under the test suite.

Runs pytest in this process with a ``sys.settrace`` hook on the package's
files, then prints, for each module of ``src/wwmtc``, the lines of the
statements inside its functions that no test executed.  A statement is
counted at its first line, and only where the compiler emitted code for
that line; module-level code runs at import and is not listed.

    python tests/linecov.py                        # the whole suite
    python tests/linecov.py tests/test_design.py   # pytest's arguments

Tests that run the command line in a child process (``subprocess``) are not
traced, so code that only they reach is listed as not executed; so is code
that a test reaches only as a user without root's permissions, when run as
root.  Standard library and pytest only, so that no coverage package is
needed, and not collected by pytest (the file name does not start with
``test_``).  The trace slows the suite down about threefold: ~2 min for the
whole of it.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wwmtc"


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements inside the functions of one module
    that the compiler emitted code for: a docstring, a ``global`` or an
    ``else:`` has none."""
    source = path.read_text()
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for top in node.body:
                starts.update(sub.lineno for sub in ast.walk(top) if isinstance(sub, ast.stmt))
    code_lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        if code.co_name != "<module>":
            code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & code_lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    print("\nstatements inside functions that no test executed "
          "(child processes are not traced):")
    for name, path in files.items():
        missed = sorted(statement_lines(path) - hit[name])
        print(f"{path.relative_to(ROOT)}: {len(missed)}"
              + (": " + ", ".join(map(str, missed)) if missed else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
