"""multifam benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload search --seed 1 --seconds 28 --trace 0

Workloads: search, graph-build, uniqueness, compression (README.md says
why each exists).  Every run happens in fresh interpreters started one at
a time (bench/child.py); this process only starts them, waits for them and
aggregates what they report.

Times are normalised to the reference loop (reference.py): each timed
item, and each set-up sample, is divided by the time of the loop run right
before it and multiplied by reference.LOOP_S, which cancels most of the
slowdown other tenants of a shared host cause (README.md, "Noise").

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       time of one batch: the sum over items of each item's median
               normalised time in the run
  setup_s      median, over SETUP_SAMPLES fresh interpreters (the measuring
               one and set-up-only ones started before and after it), of the
               normalised time from starting the interpreter to the first
               item being ready
  peak_rss_mb  high-water resident memory of the interpreter that ran the
               items
and also prints search_nodes (exact node count of one batch) and fail_ratio
(failed / attempted items).
--trace 1 runs the batch untraced and then traced, half the time each, and
reports the per-layer metrics of the traced run (see tracer.py).

Every answer is checked (oracle.py).  Node counts and output digests must
repeat across item repeats, between the untraced and traced runs, and
across invocations on the same code (remembered in bench/.out/); a
mismatch is a benchmark error.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 result printed; 2 multifam cannot be set up from src/;
3 determinism error; 4 a child process failed or timed out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

WORKLOADS = ("search", "graph-build", "uniqueness", "compression")
SEED_DEPENDENT = {"compression"}
SETUP_SAMPLES = 9  # the measuring child plus eight set-up-only children
TIME_LIMIT_S = 175.0  # a run must end within 180 s

EXIT_DETERMINISM = 3
EXIT_CHILD = 4


class BenchError(RuntimeError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _child(args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    ref = reference.loop_time()
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {exc.timeout:.0f} s", EXIT_CHILD) from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}", proc.returncode)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    report["setup_ref"] = ref
    return report


def _normalised(seconds: float, ref: float) -> float:
    return seconds / ref * reference.LOOP_S


def _item_s(item: dict) -> float:
    """An item's median normalised time over its runs."""
    return statistics.median(_normalised(t, ref) for t, ref in zip(item["times"], item["refs"]))


def _wall_s(report: dict) -> float:
    return sum(_item_s(item) for item in report["items"])


def _fastest_batch_s(report: dict) -> float:
    """Raw batch time with each item at its fastest run: the base for the
    per-layer quantities, which are also taken at each item's fastest."""
    return sum(min(item["times"]) for item in report["items"])


def _outcomes(report: dict) -> dict:
    return {item["label"]: [item["nodes"], item["digest"]] for item in report["items"]}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_repeat(args, outcomes: dict) -> None:
    """Node counts and digests must repeat across invocations on the same
    sources; the last ones seen are kept in bench/.out/outcomes.json."""
    key = args.workload + (f"/seed={args.seed}" if args.workload in SEED_DEPENDENT else "")
    key += "/smoke" if args.smoke else ""
    path = OUT / "outcomes.json"
    source = _source_digest()
    try:
        saved = json.loads(path.read_text())
    except (OSError, ValueError):
        saved = {}
    if saved.get("source") != source:
        saved = {"source": source, "runs": {}}
    previous = saved["runs"].get(key)
    if previous is not None and previous != outcomes:
        changed = sorted(label for label in outcomes if previous.get(label) != outcomes[label])
        raise BenchError(f"outcomes differ from an earlier run of the same code: {changed}",
                         EXIT_DETERMINISM)
    saved["runs"][key] = outcomes
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(saved, sort_keys=True))
    os.replace(tmp, path)


def _print_items(report: dict) -> None:
    for item in report["items"]:
        status = "ok" if item["error"] is None else "FAILED"
        times = item["times"]
        print(f"  {item['label']:<24} runs {len(times):>3}  fastest {min(times):8.4f} s  "
              f"median {statistics.median(times):8.4f} s  normalised {_item_s(item):8.4f} s  "
              f"nodes {item['nodes']}  {status}")


def run(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    reference.warm_up()
    seed_note = "" if args.workload in SEED_DEPENDENT else " (inputs fixed by construction; seed unused)"
    print(f"workload {args.workload}  seed {args.seed}{seed_note}")

    if not args.trace:
        # set-up samples are taken before and after the measuring child, so
        # that a slow stretch of the machine at one end of the run does not
        # move their median
        before = (SETUP_SAMPLES - 1) // 2
        samples = [_child(args, deadline, "--setup-only") for _ in range(before)]
        report = _child(args, deadline, "--budget", str(args.seconds))
        samples.append(report)
        samples += [_child(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES - 1 - before)]
        setups = [_normalised(r["setup_s"], r["setup_ref"]) for r in samples]
        _check_repeat(args, _outcomes(report))
        _print_items(report)
        nodes = sum(item["nodes"] or 0 for item in report["items"])
        metrics = {
            "wall_s": {"value": _wall_s(report), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        extra = {
            "search_nodes": {"value": nodes, "unit": "count"},
            "fail_ratio": {"value": report["failed"] / report["attempted"], "unit": "ratio"},
        }
        for name, metric in {**metrics, **extra}.items():
            print(f"  {name:<14} {metric['value']:.6g} {metric['unit']}")
        return {"attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}

    import tracer

    half = str(args.seconds / 2)
    plain = _child(args, deadline, "--budget", half)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.jsonl"
    traced = _child(args, deadline, "--budget", half, "--trace", "1", "--spans", str(spans))
    if _outcomes(plain) != _outcomes(traced):
        raise BenchError("the traced run's node counts or digests differ from the untraced run's",
                         EXIT_DETERMINISM)
    _check_repeat(args, _outcomes(traced))
    _print_items(traced)
    if traced["trace_missing"]:
        print(f"  not traced (absent from multifam): {', '.join(traced['trace_missing'])}")
    totals: dict[str, float] = {}
    for item in traced["items"]:
        for key, value in item["quantities"].items():
            totals[key] = totals.get(key, 0.0) + value
    traced_wall = _wall_s(traced)
    metrics = tracer.layer_metrics(totals, traced_wall, _wall_s(plain))
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    stressed = sum(totals.get(key, 0.0) for key in tracer.STRESSED[args.workload]) / 1000.0
    share = stressed / _fastest_batch_s(traced)
    print(f"  stressed layers ({' + '.join(tracer.STRESSED[args.workload])}): "
          f"{share:.1%} of the traced batch (target {tracer.STRESS_TARGET:.0%})")
    print(f"  spans written to {spans.relative_to(ROOT)}")
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multifam benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smoke-size items (selftest.py)")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return exc.code
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
