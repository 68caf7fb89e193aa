"""A fixed pure-Python reference loop that measures how fast the machine
runs Python code at this moment.

On a shared host, other tenants slow the whole machine down for seconds to
minutes at a time, and every timing taken then reads slow.  The benchmark
runs this loop right before each timed item (and before each set-up
sample) and divides the item's time by the loop's, which cancels most of
the slowdown: see README.md, "Noise".

The loop shares no code with multifam and must never change: it is the
yardstick, and changing it changes every reading.  It does what the
library does, in miniature: builds a disjointness-style graph over
3-multisets of [7] as bitmasks (pairwise multiset intersection), then
finds a maximum independent set of part of it by branch and bound.
"""

from __future__ import annotations

import time
from itertools import combinations_with_replacement

# the loop's fastest time on a shared 2-vCPU Xeon virtual machine at
# 2.1 GHz (Python 3.11.7), the machine the README's numbers come from:
# normalised readings are in seconds of that machine when uncontended
LOOP_S = 0.0030


def _universe(m: int, k: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(m), k):
        counts = [0] * m
        for x in combo:
            counts[x] += 1
        out.append(tuple(counts))
    return out


_MEMBERS = _universe(7, 3)


def _loop() -> int:
    n = len(_MEMBERS)
    adj = [0] * n
    for i in range(n):
        a = _MEMBERS[i]
        for j in range(i + 1, n):
            if sum(x if x < y else y for x, y in zip(a, _MEMBERS[j])) < 2:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best = 0

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if cand == 0:
            best = max(best, size)
            return
        if size + bin(cand).count("1") <= best:
            return
        v = (cand & -cand).bit_length() - 1
        grow(cand & ~adj[v] & ~(1 << v), size + 1)
        grow(cand & ~(1 << v), size)

    grow((1 << 34) - 1, 0)
    return best


def warm_up() -> None:
    """Run the loop a few times untimed: the interpreter specialises its
    bytecode over the first runs, which are slower."""
    for _ in range(5):
        _loop()


def loop_time() -> float:
    """Seconds one reference loop takes right now (call warm_up first)."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
