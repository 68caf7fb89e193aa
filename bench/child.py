"""One benchmark process: set up one workload, run it, report as JSON.

run.py starts this file in a fresh interpreter for every workload run, so
set-up time and peak memory belong to that one workload.  The process is
single-threaded and starts no process of its own.

Set-up is importing multifam from the checkout's src/ and generating the
seeded inputs; the monotonic clock reading taken when the first item is
ready is reported as "ready" (CLOCK_MONOTONIC is shared by all processes,
so run.py can subtract its own start reading).

The items then run as a closed loop: one after another, in a fixed cyclic
order, each timed alone, each right after a timed run of the reference
loop (reference.py) that run.py normalises the item's time by.  The first
full pass always runs; after it, an item starts only if its previous time
still fits in the budget.  Each item's first answer goes through the
oracle; every later answer must repeat its node count and output digest
exactly.

Usage (normally started by run.py):
    python3 bench/child.py --workload search --seed 1 --budget 28 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parents[1]

EXIT_SETUP = 2
EXIT_DETERMINISM = 3


def _import_multifam():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import multifam

    if Path(multifam.__file__).resolve().parent != src / "multifam":
        raise ImportError(f"multifam was imported from {multifam.__file__}, not from {src}")
    return multifam


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0, help="seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smoke-size items")
    parser.add_argument("--setup-only", action="store_true", help="exit once set up")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    try:
        _import_multifam()
    except ImportError as exc:
        print(f"cannot import multifam: {exc}", file=sys.stderr)
        return EXIT_SETUP
    import oracle
    import workloads

    items = workloads.build(args.workload, args.seed, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    reference.warm_up()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    try:
        report = _run_items(items, args.budget, tracer, oracle)
    except oracle.DeterminismError as exc:
        print(f"determinism error: {exc}", file=sys.stderr)
        return EXIT_DETERMINISM
    report["ready"] = ready
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    origin = report.pop("origin")
    if tracer is not None:
        report["trace_missing"] = tracer.missing
        if args.spans:
            tracer.write(args.spans, origin)
    print(json.dumps(report))
    return 0


def _run_items(items, budget: float, tracer, oracle) -> dict:
    n = len(items)
    times: list[list[float]] = [[] for _ in items]
    refs: list[list[float]] = [[] for _ in items]
    quantities: list[list[dict]] = [[] for _ in items]
    first: list[tuple[int, str] | None] = [None] * n
    errors: list[str | None] = [None] * n
    failed = 0
    attempted = 0
    origin = time.perf_counter()
    deadline = origin + budget
    i = 0
    while True:
        idx = i % n
        if i >= n and time.perf_counter() + times[idx][-1] > deadline:
            break
        i += 1
        refs[idx].append(reference.loop_time())
        mark = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        try:
            result = items[idx].run()
        except Exception:  # a failed item is counted and the run goes on
            times[idx].append(time.perf_counter() - t0)
            attempted += 1
            failed += 1
            errors[idx] = traceback.format_exc(limit=3)
            print(errors[idx], file=sys.stderr)
            continue
        times[idx].append(time.perf_counter() - t0)
        attempted += 1
        if tracer:
            quantities[idx].append(tracer.quantities(mark))
        outcome = items[idx].outcome(result)
        if first[idx] is None:
            first[idx] = outcome
            try:
                items[idx].check(result)
            except oracle.OracleError as exc:
                errors[idx] = f"wrong answer: {exc}"
                print(f"{items[idx].label}: {errors[idx]}", file=sys.stderr)
        elif outcome != first[idx]:
            raise oracle.DeterminismError(
                f"{items[idx].label}: (nodes, digest) {outcome} after {first[idx]}"
            )
        if errors[idx]:
            failed += 1
    return {
        "origin": origin,
        "attempted": attempted,
        "failed": failed,
        "items": [
            {
                "label": item.label,
                "times": times[j],
                "refs": refs[j],
                "nodes": first[j][0] if first[j] else None,
                "digest": first[j][1] if first[j] else None,
                "error": errors[j],
                "quantities": _fastest(quantities[j]),
            }
            for j, item in enumerate(items)
        ],
    }


def _fastest(samples: list[dict]) -> dict:
    """Each per-layer quantity at its least-disturbed execution (counts are
    the same in every execution)."""
    keys = {key for sample in samples for key in sample}
    return {key: min(s.get(key, 0.0) for s in samples) for key in sorted(keys)}


if __name__ == "__main__":
    sys.exit(main())
