"""Independent correctness oracle for the benchmark.

Every answer is checked against the reference table in workloads.py and
re-validated with the predicates below, which are written here from the
definitions and share no code with multifam.core.  A member of a multiset
family is its multiplicity vector; a member of a set family is a frozenset.
"""

from __future__ import annotations

import hashlib
from itertools import combinations


class OracleError(AssertionError):
    """An answer disagrees with the reference or fails a predicate."""


class DeterminismError(RuntimeError):
    """A node count or output digest did not repeat exactly."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def member_keys(fam) -> list:
    if fam.kind == "multiset":
        return [tuple(a.counts) for a in fam.members]
    return [frozenset(b.members) for b in fam.members]


def meet(a, b) -> int:
    """|A ∩ B| counted with multiplicity."""
    if isinstance(a, frozenset):
        return len(a & b)
    return sum(x if x < y else y for x, y in zip(a, b))


def support_meet(a, b) -> int:
    """Number of elements both supports contain."""
    if isinstance(a, frozenset):
        return len(a & b)
    return sum(1 for x, y in zip(a, b) if x and y)


def _all_pairs(keys, pred, t: int) -> bool:
    return all(pred(a, b) >= t for a, b in combinations(keys, 2))


def _core_size(keys) -> int:
    if isinstance(keys[0], frozenset):
        return len(frozenset.intersection(*keys))
    return sum(min(column) for column in zip(*keys))


def _has_disjoint_clique(keys, size: int) -> bool:
    """True iff some `size` members are pairwise disjoint."""
    n = len(keys)
    disjoint = [{j for j in range(n) if j != i and meet(keys[i], keys[j]) == 0} for i in range(n)]

    def extend(chosen_left: int, candidates: set) -> bool:
        if chosen_left == 0:
            return True
        return any(
            extend(chosen_left - 1, candidates & {w for w in disjoint[v] if w > v})
            for v in candidates
        )

    return extend(size, set(range(n)))


def _is_union_of_two_intersecting(keys) -> bool:
    """2-colour the disjointness graph of the members."""
    side = {}
    for root in range(len(keys)):
        if root in side:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in range(len(keys)):
                if w != v and meet(keys[v], keys[w]) == 0:
                    if w not in side:
                        side[w] = 1 - side[v]
                        queue.append(w)
                    elif side[w] == side[v]:
                        return False
    return True


def check_family(fam, m: int, k: int, size: int, rule: tuple) -> None:
    """Members are distinct k-(multi)sets of [m], there are `size` of
    them, and the family satisfies `rule`."""
    _expect(fam.m == m and fam.k == k, f"family over ({fam.m},{fam.k}), expected ({m},{k})")
    keys = member_keys(fam)
    _expect(len(keys) == size, f"family has {len(keys)} members, expected {size}")
    _expect(len(set(keys)) == len(keys), "family has repeated members")
    for key in keys:
        if isinstance(key, frozenset):
            ok = len(key) == k and all(1 <= x <= m for x in key)
        else:
            ok = len(key) == m and sum(key) == k and min(key) >= 0
        _expect(ok, f"member {sorted(key) if isinstance(key, frozenset) else key} is not a {k}-member of [{m}]")
    name, value = rule
    if name == "t_intersecting":
        _expect(_all_pairs(keys, meet, value), f"two members meet in fewer than {value}")
    elif name == "support":
        _expect(_all_pairs(keys, support_meet, value), f"two supports share fewer than {value}")
    elif name == "small_core":
        _expect(_all_pairs(keys, meet, value), f"two members meet in fewer than {value}")
        _expect(_core_size(keys) < value, f"common core has at least {value} elements")
    elif name == "no_disjoint":
        _expect(not _has_disjoint_clique(keys, value + 1), f"{value + 1} members are pairwise disjoint")
    elif name == "two_intersecting":
        _expect(_is_union_of_two_intersecting(keys), "not a union of two intersecting families")
    else:
        raise ValueError(f"unknown rule {name!r}")


def check_report(report, m: int, k: int, optimum: int, rule: tuple,
                 verdict: str | None = None, classes: int | None = None) -> None:
    """A verify_theorem report against its reference row."""
    _expect(report.status == "ok", f"status {report.status!r}, expected 'ok'")
    _expect(report.analytic_bound == optimum, f"bound {report.analytic_bound} != {optimum}")
    _expect(report.constructed_size == optimum, f"construction {report.constructed_size} != {optimum}")
    _expect(report.search_optimum == optimum, f"search optimum {report.search_optimum} != {optimum}")
    check_family(report.witness, m, k, optimum, rule)
    if verdict is not None:
        _expect(report.uniqueness_verdict == verdict,
                f"verdict {report.uniqueness_verdict!r}, expected {verdict!r}")
        reps = report.optimum_classes or []
        _expect(len(reps) == classes, f"{len(reps)} isomorphism classes, expected {classes}")
        for rep in reps:
            check_family(rep, m, k, optimum, rule)


def check_search(result, m: int, k: int, optimum: int, rule: tuple) -> None:
    """A SearchResult against its reference row."""
    _expect(result.status == "proved_optimal", f"status {result.status!r}")
    _expect(result.optimum == optimum, f"optimum {result.optimum} != {optimum}")
    check_family(result.witness, m, k, optimum, rule)


def check_compressed(source, output, t: int) -> None:
    """Down-compression keeps the size, and the output is t-intersecting
    with pairwise support overlap at least t."""
    _expect(output.kind == "multiset", "compressed family is not a multiset family")
    check_family(output, source.m, source.k, len(source), ("t_intersecting", t))
    _expect(_all_pairs(member_keys(output), support_meet, t),
            f"two compressed supports share fewer than {t}")


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def family_digest(fam) -> str:
    keys = member_keys(fam)
    return digest(fam.m, fam.k, sorted(tuple(sorted(x)) if isinstance(x, frozenset) else x for x in keys))
