"""Line census: the statements under ``src/boundstate_lab/`` that a pytest run never runs.

Run from the repository root:

    python tools/line_census.py [PYTEST_ARGS ...]

The script runs pytest in its own process (with ``-q --continue-on-collection-errors``
when no argument is given, the tier-1 suite) and is itself the pytest plugin: before
pytest imports anything it sets a ``sys.settrace`` and ``threading.settrace`` hook that
records each line the package's modules execute, and once pytest is done it
prints, per module, its statements, how many never ran and the first line of each.
Only the standard library is used.

A statement is a simple statement whole, or the header of a compound one (its
decorators and the lines before its first inner statement); docstrings are not
statements.  A statement ran when any of its lines was executed.

It cannot see the compiled kernel ``_dopri.c``, nor the code tests run in fresh
processes (``subprocess``), so a statement it lists may still run there.  Tracing
slows the suite about fourfold, so a test with a time cap may fail under the census
that passes without it.  The census is a report, not a gate: it exits 0 once pytest
has run the tests, whatever their outcome.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boundstate_lab"


def statements(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement of a module, in line order."""
    tree = ast.parse(source)
    docstrings = set()
    spans = []
    for node in ast.walk(tree):  # parents before children: docstrings are known in time
        body = getattr(node, "body", None)
        if (body and isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0])
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        inner = [child.lineno for child in ast.iter_child_nodes(node)
                 if isinstance(child, ast.stmt)]
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        last = min(inner) - 1 if inner else node.end_lineno
        spans.append((first, max(node.lineno, last)))
    return sorted(spans)


class Census:
    """The pytest plugin: traces the package's lines from construction on."""

    def __init__(self) -> None:
        self.ran: dict[str, set[int]] = {}  # by module file name
        self._local: dict[str, object] = {}  # per co_filename: its line tracer, or None
        prefix = str(PACKAGE) + os.sep

        def trace(frame, event, arg):
            name = frame.f_code.co_filename
            local = self._local.get(name, False)
            if local is False:
                path = os.path.realpath(name)
                local = None
                if path.startswith(prefix):
                    add = self.ran.setdefault(os.path.basename(path), set()).add

                    def local(frame, event, arg):
                        add(frame.f_lineno)
                        return local

                self._local[name] = local
            if local is not None:
                local(frame, event, arg)
            return local

        sys.settrace(trace)
        threading.settrace(trace)

    def pytest_unconfigure(self) -> None:  # pytest's last hook: the tests are done
        sys.settrace(None)
        threading.settrace(None)

    def report(self) -> str:
        rows, total, unrun = [], 0, 0
        for path in sorted(PACKAGE.glob("*.py")):
            ran = self.ran.get(path.name, set())
            spans = statements(path.read_text())
            missed = [first for first, last in spans
                      if not any(line in ran for line in range(first, last + 1))]
            total += len(spans)
            unrun += len(missed)
            rows.append(f"{path.name:<16} {len(spans):>10} {len(missed):>6}  "
                        + ", ".join(map(str, missed)))
        head = [f"line census: {unrun} of {total} statements under src/boundstate_lab "
                "never ran", f"{'module':<16} {'statements':>10} {'unrun':>6}  first lines"]
        return "\n".join([*head, *rows]) + "\n"


def main(args: list[str]) -> int:
    census = Census()  # before pytest imports the package, so its module code is seen
    import pytest

    code = pytest.main(args or ["-q", "--continue-on-collection-errors"], plugins=[census])
    sys.stdout.write(census.report())
    return 0 if code in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
