"""Executed bytecodes of ``surfaut`` over the first cases of a benchmark
workload, with the standard library only: a count that does not drift with
the machine's speed, as wall time on a shared machine does.

    python tools/bytecodes.py --workload NAME [--seed N] [--cases N]
        [--tree PATH]

Builds the first ``--cases`` cases (default 300) of the ``perfbench``
workload at ``--seed`` (default 7) untraced, empties every memo in the
package's registry ``core._MEMOS``, and then runs the cases in order while
counting each opcode executed in a frame of a file under the package
(``sys.settrace`` with per-opcode events); the package's callees in the
standard library are not counted.  The package is imported from
``src/surfaut`` of the checkout at ``--tree`` (default: this one), put first
on ``sys.path`` with this checkout's ``perfbench/`` after it, so the same
workloads can count another tree; one process counts one tree.
``perfbench/`` is read, not changed.  The outputs are checked with the
workload's check after the count.  A table of the ``TOP`` functions with the
most bytecodes comes first; the last line is one JSON object with the
package directory counted, the total, the failed checks and the count of
every function, keyed ``module.qualname`` (``module.name`` on Python 3.10,
whose code objects have no qualified name).  Tracing makes the run many
times slower.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP = 15


def function_key(code) -> str:
    """``module.qualname`` of a code object, or ``module.name`` where the
    interpreter gives code objects no ``co_qualname`` (before 3.11)."""
    name = getattr(code, "co_qualname", code.co_name)
    return f"{Path(code.co_filename).stem}.{name}"


def count(run, cases, pkg: Path) -> tuple[Counter, list]:
    """Opcodes executed in frames of files under ``pkg`` while ``run`` is
    called on each case in turn, per code object, and the outputs."""
    counts: Counter = Counter()
    inside: dict[str, bool] = {}
    prefix = str(pkg) + "/"

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        hit = inside.get(name)
        if hit is None:
            hit = inside[name] = name.startswith(prefix)
        if not hit:
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    outs = []
    sys.settrace(tracer)
    try:
        for case in cases:
            outs.append(run(case))
    finally:
        sys.settrace(None)
    return counts, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--cases", type=int, default=300)
    ap.add_argument("--tree", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.cases < 1:
        ap.error("--cases must be at least 1")

    src = args.tree.resolve() / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import surfaut
    from workloads import WORKLOADS as workloads

    pkg = Path(surfaut.__file__).resolve().parent
    if pkg != src / "surfaut":
        ap.error(f"imported surfaut from {pkg}, not from {src}")
    wl = workloads.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(sorted(workloads))}")
    cases = wl.cases(args.seed, args.cases)
    # the registry holds ``lru_cache`` functions and ``OrderedDict`` memos
    for memo in surfaut.core._MEMOS:
        if hasattr(memo, "cache_clear"):
            memo.cache_clear()
        else:
            memo.clear()
    counts, outs = count(wl.run, cases, pkg)
    failed = sum(wl.check(c, o) is not None for c, o in zip(cases, outs))

    per_function: Counter = Counter()
    for code, n in counts.items():
        per_function[function_key(code)] += n
    total = sum(per_function.values())
    print(f"{args.workload} seed {args.seed}: {len(cases)} cases, "
          f"{total:,} bytecodes, {failed} failed checks")
    for name, n in per_function.most_common(TOP):
        print(f"  {n:12,}  {100 * n / total:5.1f} %  {name}")
    print(json.dumps({
        "package": str(pkg), "workload": args.workload, "seed": args.seed,
        "cases": len(cases), "failed": failed, "bytecodes": total,
        "per_function": dict(per_function.most_common()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
