"""Self-test of the benchmark at smoke size (about half a minute).

    python3 bench/selftest.py

Checks that every workload runs through run.py with tracing off and on,
that each run prints exactly the metrics BENCHMARK.json names with their
units, that the oracle rejects deliberately wrong answers, that the
determinism guard trips on an outcome that does not repeat, and that the
tracer wraps every name bound to a layer function and times generators.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import child  # noqa: E402  (sets up the import of multifam from src/)

child._import_multifam()
import oracle  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def check_runs(spec: dict) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.WORKLOADS), f"BENCHMARK.json names the workloads {names}")
    for workload in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{where} exits 0 (got {proc.returncode}: {proc.stderr[-500:]})")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{where} prints the four result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{where} checks every answer correct")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == wanted[trace], f"{where} emits every metric of BENCHMARK.json with its unit")
            if trace == 0:
                text = "\n".join(lines[:-1])
                expect(all(f"  {name} " in text for name in ("search_nodes", "fail_ratio")),
                       f"{where} prints search_nodes and fail_ratio")


def check_oracle() -> None:
    row = workloads.SMOKE["uniqueness"][0]
    item = workloads.verify_item(*row)
    report = item.run()
    item.check(report)
    witness = report.witness
    smaller = dataclasses.replace(witness, members=witness.members[1:])
    wrong = {
        "a wrong optimum": dataclasses.replace(report, search_optimum=report.search_optimum + 1),
        "a wrong status": dataclasses.replace(report, status="mismatch"),
        "a wrong uniqueness verdict": dataclasses.replace(report, uniqueness_verdict="multiple_classes"),
        "a witness one member short": dataclasses.replace(report, witness=smaller),
    }
    for what, bad in wrong.items():
        expect(_rejects(item.check, bad), f"oracle rejects {what}")

    fam = workloads.SMOKE["compress-frankl"][0]
    comp = workloads.build("compression", 7, smoke=True)[0]
    out = comp.run()
    comp.check(out)
    m, k = fam[0], fam[1]
    # k copies of an element the first member lacks: meets it in nothing
    first = out.members[0]
    lonely = first.counts.index(0)
    bad_member = type(first)(m, tuple(k if i == lonely else 0 for i in range(m)))
    broken = dataclasses.replace(out, members=(first, bad_member) + out.members[2:])
    expect(_rejects(comp.check, broken), "oracle rejects a compressed family that is not t-intersecting")
    expect(_rejects(comp.check, dataclasses.replace(out, members=out.members[1:])),
           "oracle rejects a compressed family of the wrong size")


def _rejects(check, answer) -> bool:
    try:
        check(answer)
    except oracle.OracleError:
        return True
    return False


def check_determinism_guard() -> None:
    calls = iter(range(100))
    item = workloads.Item(
        "drifting", run=lambda: next(calls), check=lambda r: None, outcome=lambda r: (r, "digest")
    )
    try:
        child._run_items([item], 0.05, None, oracle)
    except oracle.DeterminismError:
        tripped = True
    else:
        tripped = False
    expect(tripped, "determinism guard rejects a node count that does not repeat")


def check_tracer() -> None:
    import multifam
    import tracer

    # an import hoisted to module level binds a second name to the function
    multifam.verify.max_p_s1_family = multifam.search.max_p_s1_family
    spans = tracer.Tracer()
    spans.install()
    wrapped = all(hasattr(f, "__wrapped__") for f in (
        multifam.graphs.build_graph, multifam.search.build_graph,
        multifam.verify.build_graph, multifam.build_graph,
        multifam.search.max_p_s1_family, multifam.verify.max_p_s1_family,
    ))
    expect(wrapped and not spans.missing, "tracer wraps every name bound to a layer function")
    mark = spans.mark()
    multifam.graphs.build_graph("M_t", 5, 3, 2)
    build, enum = spans.spans[mark:]
    expect(enum.parent == build.sid and build.end - build.start > enum.end - enum.start > 0,
           "tracer times a generator until exhausted, as a child of its caller")
    q = spans.quantities(mark)
    expect(q["graphs.vertices"] == 35 and q["graphs.build_calls"] == 1,
           "tracer counts the built graph's vertices")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracle()
    check_determinism_guard()
    check_runs(spec)
    check_tracer()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
