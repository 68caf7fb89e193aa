"""The four benchmark workloads: their items and reference answers.

Every item calls the public library API the way the `multifam` CLI does.
Functions are looked up on the multifam modules at call time, so the
tracer's wrappers see every call.

search, graph-build and uniqueness are deterministic by construction: their
inputs are fixed parameter lists and the seed is not used.  compression
draws its input stream from the seed.  README.md says why each workload
exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import multifam
import multifam.acceptance
import oracle

WORKLOADS = ("search", "graph-build", "uniqueness", "compression")


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises oracle.OracleError
    outcome: Callable[[object], tuple[int, str]]  # (search nodes, output digest)


def _report_outcome(report) -> tuple[int, str]:
    reps = [oracle.family_digest(f) for f in report.optimum_classes or []]
    return report.nodes_explored, oracle.digest(
        report.search_optimum, report.status, report.uniqueness_verdict,
        oracle.family_digest(report.witness), reps,
    )


def _search_outcome(result) -> tuple[int, str]:
    return result.nodes_explored, oracle.digest(
        result.optimum, result.status, oracle.family_digest(result.witness)
    )


def verify_item(theorem: str, params: dict, optimum: int, rule: tuple,
                verdict: str | None = None, classes: int | None = None) -> Item:
    """verify_theorem on one reference row; `verdict` turns on uniqueness."""
    label = theorem + "(" + ",".join(str(v) for v in params.values()) + ")"
    m, k = params["m"], params["k"]

    def run():
        return multifam.verify.verify_theorem(theorem, dict(params), uniqueness=verdict is not None)

    def check(report):
        oracle.check_report(report, m, k, optimum, rule, verdict, classes)

    return Item(label + (" uniq" if verdict else ""), run, check, _report_outcome)


def support_item(m: int, k: int, t: int, optimum: int) -> Item:
    """Largest support-t-intersecting family (graph kind M_support_t)."""

    def run():
        return multifam.search.max_t_intersecting(m, k, t, mode="support_intersection")

    def check(result):
        oracle.check_search(result, m, k, optimum, ("support", t))

    return Item(f"support({m},{k},{t})", run, check, _search_outcome)


def compress_item(label: str, fam, t: int) -> Item:
    def run():
        return multifam.compression.down_compress_full(fam, t)

    def check(out):
        oracle.check_compressed(fam, out, t)

    return Item(label, run, check, lambda out: (0, oracle.family_digest(out)))


def _t(t: int) -> tuple:
    return ("t_intersecting", t)


UNIQUE = "unique_up_to_iso"
MULTIPLE = "multiple_classes"

# reference answers: the optimum equals the closed form and the explicit
# construction (status "ok"); uniqueness rows add the verdict and the
# number of isomorphism classes of optimal families
SEARCH = [
    ("T1.1", {"m": 12, "k": 3}, 55, _t(1)),
    ("T1.4", {"m": 8, "k": 4}, 120, _t(1)),
    ("T4.1", {"m": 8, "k": 4, "t": 2}, 36, _t(2)),
    ("T3.3", {"m": 7, "k": 3}, 19, ("small_core", 1)),
    ("T4.8", {"m": 8, "k": 3, "t": 2}, 4, ("small_core", 2)),
    ("T2.3", {"m": 10, "k": 2, "s": 2}, 17, ("no_disjoint", 2)),
    ("T2.4", {"m": 7, "k": 2}, 11, ("two_intersecting", 0)),
    ("T3.5", {"m": 7, "k": 2}, 13, ("two_intersecting", 0)),
]
GRAPH_BUILD = [
    ("T4.1", {"m": 9, "k": 4, "t": 3}, 9, _t(3)),
    ("T4.1", {"m": 8, "k": 4, "t": 3}, 8, _t(3)),
    ("T4.1", {"m": 7, "k": 5, "t": 4}, 7, _t(4)),
]
GRAPH_BUILD_SUPPORT = [(7, 5, 3, 31), (8, 4, 3, 8)]
UNIQUENESS = [
    ("T1.4", {"m": 7, "k": 2}, 7, _t(1), UNIQUE, 1),
    ("T4.1", {"m": 6, "k": 3, "t": 2}, 6, _t(2), MULTIPLE, 2),
    ("T1.1", {"m": 7, "k": 2}, 6, _t(1), UNIQUE, 1),
    ("T1.4", {"m": 6, "k": 3}, 21, _t(1), UNIQUE, 1),
]
# compression stream: permuted extremal families (m, k, t, r), then seeded
# random greedy families (m, k, t, pairs) drawn until their member pairs
# reach `pairs`.  Compression cost grows with member pairs, and family sizes
# vary widely from seed to seed, so a pair budget rather than a family count
# keeps a batch's work nearly the same for every seed.
COMPRESS_FRANKL = [(8, 5, 2, 1), (9, 5, 2, 2), (9, 4, 2, 1), (8, 4, 2, 1)]
COMPRESS_RANDOM = [(8, 4, 2, 3000), (9, 5, 3, 6000)]

# smoke sizes for selftest.py: same code paths, answers in under a second
SMOKE = {
    "search": [
        ("T1.1", {"m": 6, "k": 2}, 5, _t(1)),
        ("T1.4", {"m": 4, "k": 3}, 10, _t(1)),
        ("T4.1", {"m": 5, "k": 3, "t": 2}, 5, _t(2)),
        ("T3.3", {"m": 5, "k": 2}, 3, ("small_core", 1)),
        ("T4.8", {"m": 6, "k": 3, "t": 2}, 4, ("small_core", 2)),
        ("T2.3", {"m": 8, "k": 2, "s": 2}, 13, ("no_disjoint", 2)),
        ("T2.4", {"m": 6, "k": 2}, 9, ("two_intersecting", 0)),
        ("T3.5", {"m": 5, "k": 2}, 9, ("two_intersecting", 0)),
    ],
    "graph-build": [("T4.1", {"m": 6, "k": 3, "t": 2}, 6, _t(2))],
    "graph-build-support": [(5, 3, 2, 5)],
    "uniqueness": [
        ("T1.4", {"m": 4, "k": 2}, 4, _t(1), UNIQUE, 1),
        ("T1.1", {"m": 5, "k": 2}, 4, _t(1), UNIQUE, 1),
    ],
    "compress-frankl": [(6, 4, 2, 1)],
    "compress-random": [(6, 3, 2, 20)],
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Item]:
    """The items of one batch, inputs generated from `seed`."""
    if workload == "search":
        return [verify_item(*row) for row in (SMOKE["search"] if smoke else SEARCH)]
    if workload == "graph-build":
        rows = SMOKE["graph-build"] if smoke else GRAPH_BUILD
        support = SMOKE["graph-build-support"] if smoke else GRAPH_BUILD_SUPPORT
        return [verify_item(*row) for row in rows] + [support_item(*row) for row in support]
    if workload == "uniqueness":
        return [verify_item(*row) for row in (SMOKE["uniqueness"] if smoke else UNIQUENESS)]
    if workload == "compression":
        return _compression_items(
            random.Random(seed),
            SMOKE["compress-frankl"] if smoke else COMPRESS_FRANKL,
            SMOKE["compress-random"] if smoke else COMPRESS_RANDOM,
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _compression_items(rng: random.Random, frankl_rows, random_rows) -> list[Item]:
    items = []
    for m, k, t, r in frankl_rows:
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        fam = multifam.families.apply_permutation(multifam.families.frankl_multiset(m, k, t, r), perm)
        items.append(compress_item(f"frankl({m},{k},{t},{r})", fam, t))
    for m, k, t, pairs in random_rows:
        drawn = 0
        while drawn < pairs:
            fam = multifam.acceptance.random_t_intersecting_family(m, k, t, rng)
            drawn += len(fam) * (len(fam) - 1) // 2
            items.append(compress_item(f"random({m},{k},{t})#{len(items)}", fam, t))
    return items
