"""Print the lines of src/scythe that the tests and the CLI digest matrix never run.

Runs pytest over tests/ and then the matrix of scripts/cli_digests.py, both
in this process under sys.settrace, and prints each module's unrun lines
and the total against the count of executable lines:

    PYTHONPATH=src python scripts/line_coverage.py

A line is executable when the compiled module maps an instruction to it.
Code that only a subprocess runs (the console script, `python -m scythe`)
is not traced, so it is listed as unrun.  Standard library only, besides
pytest itself; the run takes a minute or two.
"""

import contextlib
import io
import pathlib
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scythe"


def lines_of(code):
    """The lines one code object maps its own instructions to; a module's
    entry instruction sits on line 0, which is not a line of the file."""
    return {line for _, _, line in code.co_lines() if line}


def executable(path):
    """The lines of every code object compiled from the file at path."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= lines_of(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def trace(run):
    """{file name: lines run} for the files under PACKAGE while run() runs.

    A code object stops being traced once every one of its lines has run.
    """
    ours = {str(p) for p in PACKAGE.glob("*.py")}
    seen = {}  # code -> (its lines, the ones not yet run), or None

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in seen:
            path = str(pathlib.Path(code.co_filename).resolve())
            seen[code] = ((lines_of(code), lines_of(code)) if path in ours
                          else None)
        entry = seen[code]
        if entry is None or not entry[1]:
            return None
        left = entry[1]
        left.discard(code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {}
    for code, entry in seen.items():
        if entry is not None:
            path = str(pathlib.Path(code.co_filename).resolve())
            ran.setdefault(path, set()).update(entry[0] - entry[1])
    return ran


def spans(lines):
    """Sorted line numbers as "a-b" ranges of consecutive numbers."""
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def run_all():
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print("pytest exit code", int(code), flush=True)
    sys.path.insert(0, str(ROOT / "scripts"))
    import cli_digests

    with contextlib.redirect_stdout(io.StringIO()):
        cli_digests.report()


def main():
    if "scythe" in sys.modules:
        raise SystemExit("scythe was imported before tracing began")
    ran = trace(run_all)
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable(path)
        missed = lines - ran.get(str(path), set())
        total += len(lines)
        unrun += len(missed)
        if missed:
            print("%s: %s" % (path.name, spans(missed)))
    print("%d of %d executable lines unrun" % (unrun, total))


if __name__ == "__main__":
    main()
