"""List the ``raise`` statements of ``src/alskd`` that no test executes.

Run from the repository root, with any pytest arguments after the script:

    python tools/raise_coverage.py
    python tools/raise_coverage.py tests/test_cli.py -x

The tests run in this process under a ``sys.settrace`` recorder of the lines
executed in ``src/alskd`` frames. An AST walk of each module then prints every
``raise`` statement none of whose lines ran, as ``path:line: source``. Tests
run in a subprocess are not traced. The exit code is pytest's when a test
fails or cannot start, else 2 when no line of the package ran (it was imported
from another checkout), 1 when a raise is unreached and 0 when every one is
reached.

Standard library only, apart from pytest itself. The recorder makes the suite
about 1.5 times as slow (42–52 s against 25–33 s on a 2-CPU x86_64 host), so this is
a tool to run on a change, not a test.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "alskd"


def recorder(executed: set[tuple[str, int]]):
    """A trace function that adds (file, line) of each line run in a package frame."""
    in_package: dict[str, bool] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_package:
            in_package[name] = Path(name).resolve().parent == PACKAGE
        return trace_lines if in_package[name] else None

    return trace_calls


def unreached_raises(executed: set[tuple[str, int]]) -> list[str]:
    """``path:line: source`` of each raise statement with no executed line."""
    lines_run: dict[Path, set[int]] = {}
    for name, line in executed:
        lines_run.setdefault(Path(name).resolve(), set()).add(line)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        ran = lines_run.get(path, set())
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, ast.Raise) and ran.isdisjoint(
                    range(node.lineno, node.end_lineno + 1)):
                found.append((path.relative_to(ROOT), node.lineno, text[node.lineno - 1].strip()))
    return [f"{path}:{line}: {code}" for path, line, code in sorted(found)]


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout's package
    executed: set[tuple[str, int]] = set()
    trace = recorder(executed)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if not executed:
        print(f"no line of {PACKAGE} ran", file=sys.stderr)
        return int(code) or 2
    unreached = unreached_raises(executed)
    print(f"\n{len(unreached)} raise statement(s) in {PACKAGE.relative_to(ROOT)} "
          "reached by no test" + (":" if unreached else ""))
    for line in unreached:
        print(f"  {line}")
    return int(code) or int(bool(unreached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
