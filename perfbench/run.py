"""Benchmark entry point: one run of one workload, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adl-grid --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh interpreter (``worker.py``), because the
package's memo caches would make a repeated case nearly free.  With
``--trace 0`` the run times set-up several times and the workload once, and
reports the end-to-end metrics; with ``--trace 1`` it runs the workload with
per-layer tracing, then the same cases untraced, and reports the per-layer
metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report naming the worst case (replayable from workload, seed and
index), the machine and the bases of the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

#: Extra set-up probes per untraced run; with the measured run's own set-up
#: they give the median reported as setup_s.
SETUP_PROBES = 4
#: A run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return the JSON it printed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_spawn(args: list[str], deadline: float) -> tuple[dict, float, float]:
    """Worker result plus its set-up time, interpreter start to inputs ready,
    in wall seconds and at nominal speed (see ``worker._set_up``); the
    interpreter start itself counts as measured."""
    started = time.time()
    result = spawn(args, deadline)
    start_up = result["main_at"] - started
    return result, start_up + result["setup_wall_s"], start_up + result["setup_s"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value.

    With fewer than eleven samples there is no such percentile; the maximum
    stands in and is reported as percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n >= 11 else n - 1
    return 100.0 * (k + 1) / n, xs[k]


def p75(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=4)[-1] if len(latencies) > 1 else latencies[0]


def body_throughput(latencies: list[float]) -> float:
    """Cases per second over the cases up to the tail percentile.

    The ten slowest cases are left out: one of them can take a thousand times
    the median, so a throughput that kept them would mostly count which rare
    case a seed drew.  The report's tail latency and worst case cover them."""
    xs = sorted(latencies)
    body = xs[:-10] if len(xs) > 20 else xs
    return len(body) / sum(body)


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def failures(rows: list[dict]) -> list[dict]:
    return [r for r in rows if r["error"] is not None]


def busy(rows: list[dict], key: str = "seconds") -> float:
    return sum(r[key] for r in rows)


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = [timed_spawn(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    result, wall, nominal = timed_spawn(common + ["--seconds", str(args.seconds)], deadline)
    setups = [p[2] for p in probes] + [nominal]
    wall_setups = [p[1] for p in probes] + [wall]
    rows = result["rows"]
    latencies = [r["seconds"] for r in rows]
    pct, tail_s = tail(latencies)
    first = rows[: result["min_cases"]]
    worst = max(rows, key=lambda r: r["seconds"])
    metrics = {
        "ops_per_s": (body_throughput(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_p75_ms": (1e3 * p75(latencies), "ms"),
        "out_tokens_gmean": (statistics.geometric_mean(max(r["tokens"] or 0, 1) for r in first), "tokens"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    report = {
        "cases": len(rows),
        "pool": result["pool"],
        "pool_exhausted": len(rows) == result["pool"],
        "latency_tail_ms": 1e3 * tail_s,
        "tail_percentile": pct,
        "latency_max_ms": 1e3 * worst["seconds"],
        "worst_case": worst,
        "out_tokens_total_first_cases": [len(first), sum(r["tokens"] or 0 for r in first)],
        "error_rate": len(failures(rows)) / len(rows),
        "setup_samples_s": setups,
        "wall_setup_samples_s": wall_setups,
        "timed_wall_s": result["elapsed"],
        "wall_latency_p50_ms": 1e3 * statistics.median(r["wall_seconds"] for r in rows),
        "wall_cases_per_s": len(rows) / busy(rows, "wall_seconds"),
        "speed_scale_p50": statistics.median(r["seconds"] / r["wall_seconds"] for r in rows),
    }
    return metrics, report, rows


def per_layer(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    traced = spawn(common + ["--seconds", str(args.seconds), "--trace", "1"], deadline)
    n = len(traced["rows"])
    base = spawn(common + ["--limit", str(n)], deadline)
    traced_ops = n / busy(traced["rows"])
    base_ops = n / busy(base["rows"])
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.ops_per_s"] = (traced_ops, "1/s")
    metrics["trace.untraced_ops_per_s"] = (base_ops, "1/s")
    metrics["trace.overhead_ratio"] = (traced_ops / base_ops, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"worst-spans-{args.workload}-{args.seed}.json"
    spans_file.write_text(json.dumps(traced["worst_spans"]))
    worst = max(traced["rows"], key=lambda r: r["seconds"])
    report = {
        "cases": n,
        "overhead_basis": f"traced {traced_ops:.4g}/s over untraced {base_ops:.4g}/s, "
                          f"the same {n} cases, latencies at nominal speed",
        "worst_case_traced": worst,
        "worst_case_spans": str(spans_file.relative_to(ROOT)),
    }
    return metrics, report, traced["rows"] + base["rows"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "surfaut" / "__init__.py").is_file():
        print(f"perfbench: no surfaut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, report, rows = per_layer(args, deadline)
        else:
            metrics, report, rows = end_to_end(args, deadline)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    bad = failures(rows)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), **report,
              "failures": bad[:5]}
    print(json.dumps(report))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(rows),
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
