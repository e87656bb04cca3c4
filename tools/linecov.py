"""Line coverage of ``src/surfaut`` under a pytest run, with the standard
library only (``sys.settrace``; no coverage package needed).

    PYTHONPATH=src python tools/linecov.py [--list] [pytest arguments]

Runs pytest in this interpreter (``-q -p no:cacheprovider`` and the given
arguments, ``tests`` by default) while recording every line executed in a
file of ``src/surfaut``.  The executable lines of a file are the line
numbers of its compiled code objects.  The last line of output is JSON:
the pytest exit code, the executable and the never-run line counts, and the
never-run count per file; ``--list`` prints the never-run lines first.
The script exits with pytest's exit code.  Tracing makes the run several
times slower.
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "surfaut"


def executable_lines(path: pathlib.Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    listing = "--list" in argv
    args = [a for a in argv if a != "--list"] or ["tests"]
    files = {str(p): p for p in sorted(PKG.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    never = {}
    total = 0
    for name, path in files.items():
        lines = executable_lines(path)
        total += len(lines)
        missed = sorted(lines - ran[name])
        if missed:
            never[path.name] = missed
    if listing:
        for name, missed in never.items():
            print(f"{name}: {', '.join(map(str, missed))}")
    print(json.dumps({
        "pytest_exit": int(status),
        "executable_lines": total,
        "never_run": sum(map(len, never.values())),
        "never_run_by_file": {name: len(m) for name, m in never.items()},
    }))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
