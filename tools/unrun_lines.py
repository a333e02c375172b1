"""Print the lines of src/perepair/ that the test suite never runs.

    python tools/unrun_lines.py [pytest arguments]

Runs pytest in this process under a sys.settrace line tracer, then prints
each line of the package that holds code but never ran, as path:line, and
their count last.  Without arguments pytest runs the suite's testpaths
(tests/ and perfbench/).  Child processes the tests start are not traced.
The trace makes the suite several times slower, so the suite does not run
this file.
"""
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "perepair"
ran = set()


def lines_of(code):
    """Lines holding code in a code object and every one nested in it."""
    found = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            found |= lines_of(const)
    return found


def on_line(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return on_line


def on_call(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(SRC)):
        return None  # no line events outside the package
    return on_line(frame, event, arg)


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    status = pytest.main(["-q", "-p", "no:cacheprovider"] + sys.argv[1:])
    sys.settrace(None)
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        unrun += [f"{path.relative_to(ROOT)}:{line}" for line in
                  sorted(lines_of(code) - {ln for f, ln in ran if f == str(path)})]
    print("\n".join(unrun))
    print(f"{len(unrun)} unrun lines (pytest exit status {int(status)})")
