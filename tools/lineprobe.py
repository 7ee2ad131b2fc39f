"""Line probe: the statements inside skewmorph's functions that no test runs.

A pytest plugin on sys.settrace, for hosts without coverage.py.  From the
repository root:

    PYTHONPATH=src:tools python -m pytest -q -p lineprobe

After the test summary it prints each never-run statement as path:line.
Code run in a subprocess is not seen, and the run takes about twice as long.
"""

import ast
import os
import pathlib
import sys
import threading

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "skewmorph"
_hit = set()
_ours = {}  # code file name -> whether it lies in SRC


def _local(frame, event, arg):
    if event == "line":
        _hit.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        _ours[name] = os.path.abspath(name).startswith(str(SRC))
    return _local if _ours[name] else None


def _statements(path):
    """Line numbers of the statements inside the functions of path; a
    docstring, try, global and nonlocal make no line event of their own."""
    lines = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(ast.Module(body=fn.body, type_ignores=[])):
                if isinstance(node, ast.stmt) and not (
                        isinstance(node, (ast.Try, ast.Global, ast.Nonlocal))
                        or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)):
                    lines.add(node.lineno)
    return lines


def pytest_sessionstart(session):
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    hit = {(os.path.abspath(name), line) for name, line in _hit}
    missed = [(path, line) for path in sorted(SRC.glob("*.py"))
              for line in sorted(_statements(path)) if (str(path), line) not in hit]
    terminalreporter.write_line("lineprobe: %d statements inside src/skewmorph functions "
                                "never ran" % len(missed))
    for path, line in missed:
        terminalreporter.write_line("  %s:%d" % (path.relative_to(SRC.parent.parent), line))
