#!/usr/bin/env python3
"""List every line inside a src/prosovc function that no tier-1 test runs.

Run from anywhere inside the checkout:

    python3 scripts/unrun_lines.py

It runs the tier-1 suite (``pytest -q --continue-on-collection-errors``
over ``tests/``) in this process with a standard-library line tracer
(``sys.settrace``, and ``threading.settrace`` for every thread started
after it, so Griffin-Lim's runs and the training worker count too). It
then prints one ``path:line: source`` line per line of a function, method
or lambda of the package that never ran, and a last ``unrun lines: N``
line. A function's own ``def`` line counts as run when the function is
called. Lines at module level are not listed: importing runs them. The
exit status is pytest's, so a failing suite is not mistaken for a
report. The trace costs about 1.6x the plain run.

Only this process is traced: tests that run the CLI through
``subprocess`` add nothing. These lines stay unrun, each for its reason:

- ``cli.entry``'s ``sys.exit(main())``: the console script's entry
  point, which only the installed ``prosovc`` command calls, in a child
  process; the tests call ``main`` itself.
- ``read_pfck``'s second truncation check: only a file that shrinks
  between its size check and its read reaches it.
- ``vocoder._cpu_count``'s fallback for platforms without
  ``os.sched_getaffinity``: Linux, where the suite runs, has it.

``read_pfck``'s handler for a block header that does not unpack is run
only by some of the random mutations of
``tests/test_mutated_inputs.py``, so it is listed in some runs and not in
others.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prosovc"


def function_lines(path: Path) -> set[int]:
    """The line numbers that hold code of a function, method or lambda in the module at path."""
    lines = set()
    pending = list(compile(path.read_text(encoding="utf-8"), str(path), "exec").co_consts)
    while pending:
        const = pending.pop()
        if hasattr(const, "co_lines"):
            lines.update(line for _, _, line in const.co_lines() if line is not None)
            pending.extend(const.co_consts)
    return lines


class LineTracer:
    """Records (file, line) of every line run in the package's files, in every thread."""

    def __init__(self, files: set[str]):
        self.files = files
        self.run: set[tuple[str, int]] = set()

    def on_call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self.files:
            return None
        self.run.add((filename, frame.f_code.co_firstlineno))
        return self.on_line

    def on_line(self, frame, event, arg):
        if event == "line":
            self.run.add((frame.f_code.co_filename, frame.f_lineno))
        return self.on_line

    def __enter__(self):
        threading.settrace(self.on_call)
        sys.settrace(self.on_call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    # as tier-1 runs: the package from src, also for the tests' `python -m prosovc` children
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)
    import pytest

    paths = sorted(PACKAGE.glob("*.py"))
    with LineTracer({str(path) for path in paths}) as tracer:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              "--rootdir", str(ROOT), str(ROOT / "tests")])
    unrun = 0
    for path in paths:
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(function_lines(path) - {line for name, line in tracer.run if name == str(path)}):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            unrun += 1
    print(f"unrun lines: {unrun}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
