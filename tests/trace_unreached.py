"""List the lines of the library that a test run never executes.

A pytest plugin, not a test module::

    PYTHONPATH=src:tests python -m pytest -p trace_unreached -q

It installs a ``sys.settrace`` / ``threading.settrace`` line tracer in
``pytest_configure``, before collection imports the library, and traces
only frames whose code lives under ``src/actionoperads``.  At the end of
the run it prints, for each module, the lines that carry bytecode and
never ran.  Code run in a subprocess is not traced.  Importing this
file (as ``--doctest-modules`` does) installs nothing.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "actionoperads"


def code_lines(code: CodeType) -> set[int]:
    """Every line that some instruction of ``code`` or a nested code
    object is attributed to."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def ranges(lines: list[int]) -> str:
    """``1, 3-5`` for ``[1, 3, 4, 5]``.

    >>> ranges([1, 3, 4, 5])
    '1, 3-5'
    """
    out: list[str] = []
    for line in lines:
        if out and int(out[-1].rpartition("-")[2]) == line - 1:
            out[-1] = f"{out[-1].partition('-')[0]}-{line}"
        else:
            out.append(str(line))
    return ", ".join(out)


class LineTracer:
    """The lines run in frames whose code lives under ``package``, per
    file name."""

    def __init__(self, package: Path):
        self.package = package
        self.reached: dict[str, set[int]] = {}

    def start(self) -> None:
        sys.settrace(self._call)
        threading.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        lines = self.reached.get(filename)
        if lines is None:
            if not filename.startswith(str(self.package)):
                return None
            lines = self.reached[filename] = set()
        # the first line of a code object (its ``def`` or decorator) is where
        # the call starts; it raises no line event of its own
        lines.add(frame.f_lineno)
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.reached[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def unreached(self) -> dict[str, list[int]]:
        """Per module file name, the lines with bytecode that never ran."""
        out = {}
        for path in sorted(self.package.glob("*.py")):
            code = compile(path.read_text(), str(path), "exec")
            missing = sorted(code_lines(code) - self.reached.get(str(path), set()))
            if missing:
                out[path.name] = missing
        return out


_TRACER = pytest.StashKey[LineTracer]()


def pytest_configure(config):
    tracer = config.stash[_TRACER] = LineTracer(PACKAGE)
    tracer.start()


def pytest_terminal_summary(terminalreporter, config):
    tracer = config.stash[_TRACER]
    tracer.stop()
    missing = tracer.unreached()
    terminalreporter.section(f"lines never run: {sum(map(len, missing.values()))}")
    for name, lines in missing.items():
        terminalreporter.write_line(f"{name}: {ranges(lines)}")
