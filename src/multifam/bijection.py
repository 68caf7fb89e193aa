"""Support-preserving bijection between k-subsets of [n] and k-multisets of [m].

With n = m + k - 1 the two universes have the same size, C(n, k) =
multichoose(m, k), and the map sends a k-set B to a k-multiset whose support
is exactly B ∩ [m].  Because the support shrinks to the part of B inside
[m], disjoint sets map to disjoint multisets, and more generally
|B1 ∩ B2| < t forces the image supports to share fewer than t elements:
the map is a graph homomorphism between the corresponding disjointness
graphs in both the plain and the t-threshold versions.

The class of k-sets with B ∩ [m] = S (|S| = j) and the class of k-multisets
with support S both have C(k-1, k-j) members; within a class we match by
lexicographic rank (overflow part of B on one side, multiplicity vector on
the other).  Any support-preserving matching yields the same homomorphism
properties; rank matching is canonical and needs no lookup tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ContractError,
    KSet,
    Multiset,
    kset_rank,
    kset_unrank,
    multiset_rank,
    multiset_unrank,
)


@dataclass(frozen=True, slots=True)
class BijectionContext:
    """Fixes m and k; the set side lives on [n] with n = m + k - 1."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1:
            raise ContractError(f"need m >= 1 and k >= 1, got ({self.m}, {self.k})")

    @property
    def n(self) -> int:
        return self.m + self.k - 1


def forward(ctx: BijectionContext, b: KSet) -> Multiset:
    """Map a k-subset of [n] to the k-multiset with support B ∩ [m]."""
    if b.ground_size != ctx.n:
        raise ContractError(f"expected ground size {ctx.n}, got {b.ground_size}")
    if b.cardinality != ctx.k:
        raise ContractError(f"expected cardinality {ctx.k}, got {b.cardinality}")
    support = [x for x in b.members if x <= ctx.m]
    overflow = [x - ctx.m for x in b.members if x > ctx.m]
    j = len(support)
    # Only k-1 elements of [n] lie above m, so the support is never empty.
    if ctx.k == j:
        rank = 0
    else:
        rank = kset_rank(KSet(ctx.k - 1, tuple(overflow)))
    counts = [0] * ctx.m
    if j == ctx.k:
        extra = (0,) * j
    else:
        extra = multiset_unrank(j, ctx.k - j, rank).counts
    for pos, x in enumerate(support):
        counts[x - 1] = 1 + extra[pos]
    return Multiset(ctx.m, tuple(counts))


def inverse(ctx: BijectionContext, a: Multiset) -> KSet:
    """Inverse map: forward(inverse(A)) == A and inverse(forward(B)) == B."""
    if a.ground_size != ctx.m:
        raise ContractError(f"expected ground size {ctx.m}, got {a.ground_size}")
    if a.cardinality != ctx.k:
        raise ContractError(f"expected cardinality {ctx.k}, got {a.cardinality}")
    support = [i + 1 for i, c in enumerate(a.counts) if c > 0]
    j = len(support)
    if j == ctx.k:
        overflow: tuple[int, ...] = ()
    else:
        extra = tuple(a.counts[x - 1] - 1 for x in support)
        rank = multiset_rank(Multiset(j, extra))
        overflow = kset_unrank(ctx.k - 1, ctx.k - j, rank).members
    members = tuple(support) + tuple(x + ctx.m for x in overflow)
    return KSet(ctx.n, members)
