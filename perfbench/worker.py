"""One measurement in a fresh interpreter: set up, time, check, report.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       [--trace 0|1] [--limit N] [--setup-only]

Set-up is the import of ``surfaut`` from the checkout's ``src`` and the
generation of the seeded input pool.  The timed phase is a closed loop on
one thread: one caller sends the next case only after the previous call
returned.  It runs until the cases have been busy for ``--seconds`` at
nominal machine speed (see ``_time_cases``) and at least the workload's
``min_cases`` are done, or for exactly ``--limit`` cases; a traced
run does exactly ``min_cases`` unless given ``--limit``.  Outputs are
checked after the timed phase.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The calibration evaluates this fixed word at signature (2, 1) with
#: ``oracle``: pure-Python tuple, list and dict work like the package's own,
#: but in code that no change to the package touches.
CALIBRATION_SIG = (2, 1)
CALIBRATION_WORD = (
    ("b", 1, 1), ("g", 2, 1), ("a", 2, -1), ("b", 2, 1), ("g", 1, -1),
    ("a", 1, 1), ("b", 2, -1), ("g", 2, 1), ("a", 1, -1), ("b", 1, -1),
    ("g", 1, 1), ("a", 2, 1), ("b", 2, 1), ("g", 2, -1), ("a", 1, 1),
    ("b", 1, 1),
)
CALIBRATION_REPEATS = 5
#: Cases generated in set-up between two calibrations.
SETUP_CHUNK = 20
#: What the calibration takes on the 2-core reference machine when it is quiet.
NOMINAL_CALIBRATION_S = 0.0002


def _import_workloads() -> dict:
    if not (SRC / "surfaut" / "__init__.py").is_file():
        sys.exit(f"perfbench: no surfaut sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import surfaut

    if Path(surfaut.__file__).resolve().parent != SRC / "surfaut":
        sys.exit(f"perfbench: imported surfaut from {surfaut.__file__}, not {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS


def calibrate() -> float:
    """The fastest of a few calibration runs: the first may find cold caches."""
    import oracle

    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        oracle.evaluate(CALIBRATION_SIG, CALIBRATION_WORD)
        best = min(best, time.perf_counter() - start)
    return best


def _time_cases(wl, cases, seconds: float, limit, tracer=None):
    """Closed loop over the pool; returns per-case records, elapsed time and
    peak memory.

    The speed of a shared machine drifts by tens of percent within seconds.
    So the calibration runs between cases, and each case's latency is also
    given scaled by NOMINAL_CALIBRATION_S over the mean of the calibrations
    on either side of it: the time the case would take at nominal speed.
    The loop stops once ``seconds`` of such busy time have passed.
    Peak memory is read once ``min_cases`` cases are done, so that it covers
    the same cases however fast the machine is.  With a tracer, each record
    also holds the range of its spans."""
    records = []
    clock = time.perf_counter
    calibration = calibrate()
    rss_mb = None
    busy = 0.0  # at nominal speed, so a slow spell does not cut the run short
    begin = clock()
    for case in cases:
        if limit is not None:
            if len(records) >= limit:
                break
        elif busy >= seconds and len(records) >= wl.min_cases:
            break
        first = tracer.span_count if tracer else 0
        start = clock()
        try:
            out, error = wl.run(case), None
        except Exception as exc:  # an unexpected raise is a failed case, not a crash
            out, error = None, f"{type(exc).__name__}: {exc}"
        took = clock() - start
        spans = (first, tracer.span_count) if tracer else None
        after = calibrate()
        scale = 2 * NOMINAL_CALIBRATION_S / (calibration + after)
        calibration = after
        busy += took * scale
        records.append((case, took, scale, out, error, spans))
        if len(records) == wl.min_cases:
            rss_mb = _peak_rss_mb()
    return records, clock() - begin, rss_mb or _peak_rss_mb()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(workload: str, seed: int):
    """Import the package and generate the input pool.

    Returns the workload, the pool, and the set-up time in wall seconds and
    at nominal speed: like a case, the import and each chunk of
    SETUP_CHUNK generated cases are scaled by the calibrations around them."""
    clock = time.perf_counter
    calibration = calibrate()
    wall = nominal = 0.0

    def timed(step):
        nonlocal calibration, wall, nominal
        start = clock()
        value = step()
        took = clock() - start
        after = calibrate()
        wall += took
        nominal += took * 2 * NOMINAL_CALIBRATION_S / (calibration + after)
        calibration = after
        return value

    workloads = timed(_import_workloads)
    if workload not in workloads:
        sys.exit(f"perfbench: unknown workload {workload!r}; "
                 f"choose from {', '.join(sorted(workloads))}")
    wl = workloads[workload]
    stream = wl.generate(seed)
    cases = []
    while len(cases) < wl.pool:
        size = min(SETUP_CHUNK, wl.pool - len(cases))
        cases += timed(lambda: list(itertools.islice(stream, size)))
    return wl, cases, wall, nominal


def main(argv=None) -> int:
    main_at = time.time()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl, cases, setup_wall, setup_nominal = _set_up(args.workload, args.seed)
    # the interpreter start before main_at is added by the parent, unscaled
    ready = {"main_at": main_at, "setup_wall_s": setup_wall, "setup_s": setup_nominal}
    if args.setup_only:
        print(json.dumps(ready))
        return 0

    tracer, limit = None, args.limit
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        if limit is None:
            limit = wl.min_cases  # a fixed case set, so the counts repeat exactly
    records, elapsed, peak_rss_mb = _time_cases(wl, cases, args.seconds, limit, tracer)

    rows = []
    for case, took, scale, out, error, _ in records:
        tokens = None
        if error is None:
            try:
                error = wl.check(case, out)
                tokens = wl.tokens(out)
            except Exception as exc:  # a malformed output fails its case
                error = f"check raised {type(exc).__name__}: {exc}"
        rows.append({
            "sig": list(case.sig),
            "index": case.index,
            "input": case.text,
            "seconds": took * scale,
            "wall_seconds": took,
            "tokens": tokens,
            "error": error,
        })

    result = {
        **ready,
        "elapsed": elapsed,
        "pool": len(cases),
        "min_cases": wl.min_cases,
        "peak_rss_mb": peak_rss_mb,
        "rows": rows,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        worst = max(records, key=lambda r: r[1] * r[2])
        result["worst_spans"] = tracer.spans(*worst[5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
