"""Lines of ``src/blockpoly`` that the test suite never runs: a pytest plugin.

From the repository root, ``python -m pytest -p tests.line_reach`` runs the
suite under ``sys.settrace`` and ends with every line of the package that
compiles to code but never ran, as ``path:line``, then their count.  It is
loaded before any conftest, so module and class bodies are traced too; a
``def`` or ``class`` line counts as run when its module is imported.
"""

import os
import sys

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src", "blockpoly"))
_ran = set()
_inside = {}


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _inside:
        _inside[name] = os.path.realpath(name).startswith(SRC + os.sep)
    return _line if _inside[name] else None


def _code_lines(code):
    """The numbers of the lines that ``code`` and its nested code objects
    run, except the ``def`` line at which a function's frame starts."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    ran = {(os.path.realpath(f), n) for f, n in _ran}
    missed = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path, encoding="utf-8") as fh:
                code = compile(fh.read(), path, "exec")
            missed += [(path, n) for n in sorted(_code_lines(code)) if (path, n) not in ran]
    terminalreporter.section("line reach")
    for path, n in missed:
        terminalreporter.write_line(f"{os.path.relpath(path)}:{n}")
    terminalreporter.write_line(f"{len(missed)} unexecuted lines in {os.path.relpath(SRC)}")


sys.settrace(_call)
