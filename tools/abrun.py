"""Paired A/B timing of one benchmark workload on two source trees, in one
interpreter, with the standard library only.

    python tools/abrun.py PARENT CHANGE --workload NAME [--seed N] [--pairs N]
        [--cases N]

PARENT and CHANGE are roots of two checkouts, each with ``src/surfaut``.
The first tree is imported as ``surfaut``, the second as ``surfaut_b``, and
``perfbench/workloads.py`` of this checkout is loaded once for each, so each
tree builds its own seeded input pool from the same generator.  A pair is one
pass of the pool through each tree, the two in alternating order (PARENT
first in even pairs), and every pass starts from empty memos: every
``lru_cache`` and every module-level ``OrderedDict`` of the tree's modules,
found the way ``tests/test_memos.py`` finds them.  They are found by
introspection rather than read from a registry, so that a tree from before
the registry ``core._MEMOS`` can be measured too.

The speed of a shared machine drifts by tens of percent between processes;
two passes in one process, seconds apart, share most of that drift, so
per-pair ratios are steadier than ratios of separate ``perfbench/run.py``
runs.  Latencies are plain wall time, not scaled.  The metrics are the
end-to-end metrics of ``perfbench/run.py`` that one process can measure per
tree, computed with its functions: ``ops_per_s``, ``latency_p50_ms``,
``latency_p75_ms`` and ``out_tokens_gmean`` (``peak_rss_mb`` and
``setup_s`` are per process and need ``perfbench/run.py``).  The outputs of
the first pair are checked with the workload's check.  For each metric the
report gives both medians, the per-pair ratios CHANGE/PARENT and how many
pairs the change wins; the last line is the same as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import pkgutil
import statistics
import sys
import time
from collections import OrderedDict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCHMARK = PERFBENCH.parent / "BENCHMARK.json"
METRICS = ("ops_per_s", "latency_p50_ms", "latency_p75_ms", "out_tokens_gmean")


def load_package(root: Path, name: str):
    """The package ``root/src/surfaut`` and all its modules, imported as
    ``name``; its own imports are relative, so they resolve under ``name``."""
    init = root / "src" / "surfaut" / "__init__.py"
    if not init.is_file():
        sys.exit(f"abrun: no surfaut sources under {root / 'src'}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{name}.{info.name}")
    return pkg


def load_workloads(pkg, name: str):
    """``perfbench/workloads.py`` loaded as ``name`` with ``pkg`` standing in
    for ``surfaut``, which it imports; ``oracle`` and ``run`` are imported
    from ``perfbench`` as they are."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    aliases = {"surfaut": pkg, "surfaut.whitehead": pkg.whitehead}
    saved = {k: sys.modules.get(k) for k in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[name] = mod  # its dataclasses look their module up
        spec.loader.exec_module(mod)
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
    return mod


def package_memos(pkg) -> list:
    """Every ``lru_cache``-wrapped function defined in a module of ``pkg``,
    at module level or in a class body, and every module-level
    ``OrderedDict``.  A class is searched but never taken: a memo class
    has the methods of its instances."""
    found: dict[int, object] = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        mod = sys.modules[f"{pkg.__name__}.{info.name}"]
        for obj in list(vars(mod).values()):
            if isinstance(obj, OrderedDict):
                found[id(obj)] = obj
                continue
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                members += list(vars(obj).values())
            for fn in members:
                if isinstance(fn, (staticmethod, classmethod)):
                    fn = fn.__func__
                if (not isinstance(fn, type) and hasattr(fn, "cache_info")
                        and getattr(fn, "__module__", None) == mod.__name__):
                    found[id(fn)] = fn
    return list(found.values())


def clear(memos: list) -> None:
    for memo in memos:
        if isinstance(memo, OrderedDict):
            memo.clear()
        else:
            memo.cache_clear()


class Side:
    """One source tree: its workload, its input pool and its memos."""

    def __init__(self, root: Path, name: str, workload: str, seed: int, cases: int):
        pkg = load_package(root, name)
        wl = load_workloads(pkg, f"{name}_workloads").WORKLOADS.get(workload)
        if wl is None:
            sys.exit(f"abrun: unknown workload {workload!r}")
        self.wl = wl
        self.cases = wl.cases(seed, min(cases, wl.pool) if cases else None)
        self.memos = package_memos(pkg)

    def run_pass(self, check: bool) -> tuple[list[float], list[int], int]:
        """Latencies in seconds and output tokens of one pass from empty
        memos, and the number of outputs that fail the check (0 unchecked)."""
        clear(self.memos)
        gc.collect()
        clock = time.perf_counter
        wl = self.wl
        outs, latencies = [], []
        for case in self.cases:
            start = clock()
            out = wl.run(case)
            latencies.append(clock() - start)
            outs.append(out)
        tokens = [wl.tokens(out) for out in outs]
        failed = sum(wl.check(c, o) is not None for c, o in zip(self.cases, outs)) if check else 0
        clear(self.memos)
        return latencies, tokens, failed


def metrics(run, wl, latencies: list[float], tokens: list[int]) -> dict[str, float]:
    """The metrics of ``perfbench/run.py``'s ``end_to_end``, from one pass."""
    first = tokens[: wl.min_cases]
    return {
        "ops_per_s": run.body_throughput(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p75_ms": 1e3 * run.p75(latencies),
        "out_tokens_gmean": statistics.geometric_mean(max(t or 0, 1) for t in first),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--cases", type=int, default=0, help="pool prefix (default: all)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    sides = {
        "parent": Side(args.parent.resolve(), "surfaut", args.workload, args.seed, args.cases),
        "change": Side(args.change.resolve(), "surfaut_b", args.workload, args.seed, args.cases),
    }
    import run  # perfbench/run.py, for its metric functions

    runs: dict[str, list[dict]] = {name: [] for name in sides}
    failed = {name: 0 for name in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            side = sides[name]
            latencies, tokens, bad = side.run_pass(check=i == 0)
            failed[name] += bad
            runs[name].append(metrics(run, side.wl, latencies, tokens))

    report = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
              "cases": len(sides["parent"].cases), "failed_first_pair": failed,
              "metrics": {}}
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of "
          f"{report['cases']} cases, failed in the first pair {failed}")
    for m in METRICS:
        a = [r[m] for r in runs["parent"]]
        b = [r[m] for r in runs["change"]]
        ratios = [y / x for x, y in zip(a, b)]
        wins = sum((y > x) if better[m] == "higher" else (y < x) for x, y in zip(a, b))
        report["metrics"][m] = {
            "better": better[m],
            "parent_median": statistics.median(a),
            "change_median": statistics.median(b),
            "ratio_median": statistics.median(ratios),
            "ratios": [round(r, 4) for r in ratios],
            "change_wins": f"{wins}/{args.pairs}",
        }
        print(f"  {m:17} parent {statistics.median(a):10.4f}  change "
              f"{statistics.median(b):10.4f}  ratio median {statistics.median(ratios):.4f}"
              f"  wins {wins}/{args.pairs}  ratios "
              + " ".join(f"{r:.3f}" for r in ratios))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
