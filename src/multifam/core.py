"""Multiset algebra, predicates, enumeration, ranking and exact counting.

Ground sets are [m] = {1, ..., m}.  A multiset is stored canonically as a
dense multiplicity vector of length m (no ordering ambiguity, O(m)
intersection); a k-set is a strictly increasing element tuple.  Element-list
forms are accepted only at construction/IO boundaries.

All types are immutable after construction and every operation here is a
pure function, so values are safe to share freely.

Enumeration order is lexicographic on multiplicity vectors (multisets) and
lexicographic on element tuples (sets); ranks are consistent with that
order, which is what the disjointness graphs use for vertex indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Iterable


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ScaleExceededError(RuntimeError):
    """Instance exceeds an exhaustive-computation guard; refusing to run."""


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k).  Returns 0 for k > n.

    Uses arbitrary-precision integers throughout, so counting values that
    exceed any fixed machine width are still exact (no wraparound is
    possible).
    """
    if n < 0 or k < 0:
        raise ContractError(f"binomial requires n, k >= 0, got ({n}, {k})")
    return math.comb(n, k)


def multichoose(m: int, k: int) -> int:
    """Number of k-multisets over [m], equal to C(m+k-1, k).  Exact."""
    if m < 0 or k < 0:
        raise ContractError(f"multichoose requires m, k >= 0, got ({m}, {k})")
    if m == 0:
        return 1 if k == 0 else 0
    return math.comb(m + k - 1, k)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Multiset:
    """A multiset over [m]; counts[i] is the multiplicity of element i+1."""

    ground_size: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if self.ground_size < 1:
            raise ContractError(f"ground_size must be >= 1, got {self.ground_size}")
        if len(self.counts) != self.ground_size:
            raise ContractError(
                f"counts has length {len(self.counts)}, expected {self.ground_size}"
            )
        if any(c < 0 for c in self.counts):
            raise ContractError(f"negative multiplicity in {self.counts}")

    @classmethod
    def from_elements(cls, ground_size: int, elements: Iterable[int]) -> "Multiset":
        counts = [0] * ground_size
        for x in elements:
            if not 1 <= x <= ground_size:
                raise ContractError(f"element {x} outside [1, {ground_size}]")
            counts[x - 1] += 1
        return cls(ground_size, tuple(counts))

    @property
    def cardinality(self) -> int:
        """Total number of elements including repetitions."""
        return sum(self.counts)

    def multiplicity(self, i: int) -> int:
        if not 1 <= i <= self.ground_size:
            raise ContractError(f"element {i} outside [1, {self.ground_size}]")
        return self.counts[i - 1]

    def elements(self) -> tuple[int, ...]:
        """Non-decreasing element list with repetitions."""
        out: list[int] = []
        for i, c in enumerate(self.counts):
            out.extend([i + 1] * c)
        return tuple(out)

    def support(self) -> "KSet":
        """Set of distinct elements (equals the intersection with [m])."""
        return KSet(
            self.ground_size,
            tuple(i + 1 for i, c in enumerate(self.counts) if c > 0),
        )

    def support_mask(self) -> int:
        mask = 0
        for i, c in enumerate(self.counts):
            if c:
                mask |= 1 << i
        return mask

    def unary_mask(self, width: int) -> int:
        """Multiplicities in unary, one field of `width` bits per element
        (bit e*width + j set iff j < min(counts[e], width)): the popcount of
        the AND of two masks of one width is the intersection size."""
        mask = 0
        for c in reversed(self.counts):
            mask = mask << width | (1 << (c if c < width else width)) - 1
        return mask

    def intersect(self, other: "Multiset") -> "Multiset":
        """Element-wise minimum of multiplicities."""
        if self.ground_size != other.ground_size:
            raise ContractError(
                f"ground sizes differ: {self.ground_size} vs {other.ground_size}"
            )
        return Multiset(
            self.ground_size,
            tuple(min(a, b) for a, b in zip(self.counts, other.counts)),
        )

    def contains(self, other: "Multiset") -> bool:
        """True iff every multiplicity of `other` is covered by `self`."""
        if self.ground_size != other.ground_size:
            raise ContractError(
                f"ground sizes differ: {self.ground_size} vs {other.ground_size}"
            )
        return all(a >= b for a, b in zip(self.counts, other.counts))

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements()) + "}"


@dataclass(frozen=True, slots=True)
class KSet:
    """A subset of [n], stored as a strictly increasing element tuple."""

    ground_size: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if self.ground_size < 0:
            raise ContractError(f"ground_size must be >= 0, got {self.ground_size}")
        prev = 0
        for x in self.members:
            if not 1 <= x <= self.ground_size:
                raise ContractError(f"element {x} outside [1, {self.ground_size}]")
            if x <= prev:
                raise ContractError(f"members not strictly increasing: {self.members}")
            prev = x

    @classmethod
    def from_elements(cls, ground_size: int, elements: Iterable[int]) -> "KSet":
        return cls(ground_size, tuple(sorted(set(elements))))

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def mask(self) -> int:
        mask = 0
        for x in self.members:
            mask |= 1 << (x - 1)
        return mask

    support_mask = mask  # a set is its own support

    def intersect(self, other: "KSet") -> "KSet":
        if self.ground_size != other.ground_size:
            raise ContractError(
                f"ground sizes differ: {self.ground_size} vs {other.ground_size}"
            )
        common = set(self.members) & set(other.members)
        return KSet(self.ground_size, tuple(sorted(common)))

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.members) + "}"


SET = "set"
MULTISET = "multiset"


@dataclass(frozen=True)
class Family:
    """A duplicate-free collection of k-multisets (or k-sets) over [m].

    Members are stored in canonical order: lexicographic on multiplicity
    vectors for multisets, lexicographic on element tuples for sets.
    """

    m: int
    k: int
    kind: str
    members: tuple

    def __post_init__(self) -> None:
        if self.kind not in (SET, MULTISET):
            raise ContractError(f"kind must be 'set' or 'multiset', got {self.kind!r}")

    @classmethod
    def of_multisets(cls, m: int, k: int, members: Iterable[Multiset]) -> "Family":
        seen: dict[tuple[int, ...], Multiset] = {}
        for a in members:
            if a.ground_size != m:
                raise ContractError(f"member {a} has ground size {a.ground_size}, expected {m}")
            if a.cardinality != k:
                raise ContractError(f"member {a} has cardinality {a.cardinality}, expected {k}")
            seen.setdefault(a.counts, a)
        ordered = tuple(seen[key] for key in sorted(seen))
        return cls(m, k, MULTISET, ordered)

    @classmethod
    def of_sets(cls, n: int, k: int, members: Iterable[KSet]) -> "Family":
        seen: dict[tuple[int, ...], KSet] = {}
        for b in members:
            if b.ground_size != n:
                raise ContractError(f"member {b} has ground size {b.ground_size}, expected {n}")
            if b.cardinality != k:
                raise ContractError(f"member {b} has cardinality {b.cardinality}, expected {k}")
            seen.setdefault(b.members, b)
        ordered = tuple(seen[key] for key in sorted(seen))
        return cls(n, k, SET, ordered)

    @classmethod
    def universe(cls, m: int, k: int, kind: str = MULTISET) -> "Family":
        """The full universe of k-multisets of [m] (or k-subsets of [n])."""
        if kind == MULTISET:
            return cls.of_multisets(m, k, enumerate_k_multisets(m, k))
        return cls.of_sets(m, k, enumerate_k_subsets(m, k))

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, member) -> bool:
        return member in self.members

    def member_keys(self) -> set:
        """Hashable member keys (counts tuples / element tuples)."""
        if self.kind == MULTISET:
            return {a.counts for a in self.members}
        return {b.members for b in self.members}


# ---------------------------------------------------------------------------
# family predicates
# ---------------------------------------------------------------------------

def _all_pairs_share(masks: list[int], t: int) -> bool:
    """True iff every pair of masks shares at least t set bits."""
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if (a & b).bit_count() < t:
                return False
    return True


def is_t_intersecting(fam: Family, t: int) -> bool:
    """True iff every pair of distinct members shares >= t elements,
    counted with multiplicity for multisets.  Vacuously true for families
    with fewer than two members.  A pair is one AND and popcount of element
    masks, or of unary masks whose width is the largest multiplicity present."""
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    if fam.kind == MULTISET:
        width = max((max(a.counts) for a in fam.members), default=0)
        masks = [a.unary_mask(width) for a in fam.members]
    else:
        masks = [b.mask() for b in fam.members]
    return _all_pairs_share(masks, t)


def is_support_t_intersecting(fam: Family, t: int) -> bool:
    """True iff every pair of distinct members' supports shares >= t
    elements; each pair is one AND and popcount of support masks."""
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    return _all_pairs_share([x.support_mask() for x in fam.members], t)


def common_intersection(fam: Family):
    """Element-wise minimum multiplicity across all members (set
    intersection for set families).  The family must be nonempty."""
    if not fam.members:
        raise ContractError("common_intersection requires a nonempty family")
    if fam.kind == MULTISET:
        counts = list(fam.members[0].counts)
        for a in fam.members[1:]:
            counts = [min(c, d) for c, d in zip(counts, a.counts)]
        return Multiset(fam.m, tuple(counts))
    common = set(fam.members[0].members)
    for b in fam.members[1:]:
        common &= set(b.members)
    return KSet(fam.m, tuple(sorted(common)))


def has_property_p_s1(fam: Family, s: int) -> bool:
    """P(s,1): no s+1 members of the family are pairwise disjoint.

    Checked by an exhaustive scan over (s+1)-subsets; multiset disjointness
    coincides with support disjointness, so the scan runs on bitmasks.
    """
    if s < 1:
        raise ContractError(f"s must be >= 1, got {s}")
    masks = [x.support_mask() for x in fam.members]
    for combo in combinations(masks, s + 1):
        if all(
            combo[i] & combo[j] == 0
            for i in range(s + 1)
            for j in range(i + 1, s + 1)
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration and ranking
# ---------------------------------------------------------------------------

def _count_vectors(m: int, k: int) -> Iterator[tuple[int, ...]]:
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _count_vectors(m - 1, k - first):
            yield (first,) + rest


def enumerate_k_multisets(m: int, k: int) -> Iterator[Multiset]:
    """All k-multisets of [m] in lexicographic multiplicity-vector order.

    Emits exactly multichoose(m, k) distinct multisets, deterministically.
    """
    if m < 1:
        raise ContractError(f"m must be >= 1, got {m}")
    if k < 0:
        raise ContractError(f"k must be >= 0, got {k}")
    for counts in _count_vectors(m, k):
        yield Multiset(m, counts)


def enumerate_k_subsets(n: int, k: int) -> Iterator[KSet]:
    """All k-subsets of [n] in lexicographic order; empty when k > n."""
    if n < 0 or k < 0:
        raise ContractError(f"n, k must be >= 0, got ({n}, {k})")
    for combo in combinations(range(1, n + 1), k):
        yield KSet(n, combo)


def multiset_rank(a: Multiset) -> int:
    """Rank of a multiset within the enumeration of (m, k)-multisets."""
    m = a.ground_size
    rem = a.cardinality
    rank = 0
    for i, c in enumerate(a.counts):
        for v in range(c):
            rank += multichoose(m - i - 1, rem - v)
        rem -= c
    return rank


def multiset_unrank(m: int, k: int, rank: int) -> Multiset:
    """Inverse of multiset_rank; rank must lie in [0, multichoose(m, k))."""
    total = multichoose(m, k)
    if not 0 <= rank < total:
        raise ContractError(f"rank {rank} outside [0, {total})")
    counts: list[int] = []
    rem = k
    r = rank
    for i in range(m):
        if i == m - 1:
            counts.append(rem)
            break
        v = 0
        while True:
            block = multichoose(m - i - 1, rem - v)
            if r < block:
                break
            r -= block
            v += 1
        counts.append(v)
        rem -= v
    return Multiset(m, tuple(counts))


def kset_rank(b: KSet) -> int:
    """Rank of a k-set within the lexicographic enumeration of (n, k)-subsets."""
    n = b.ground_size
    k = len(b.members)
    rank = 0
    prev = 0
    for idx, x in enumerate(b.members):
        for y in range(prev + 1, x):
            rank += binomial(n - y, k - idx - 1)
        prev = x
    return rank


def kset_unrank(n: int, k: int, rank: int) -> KSet:
    """Inverse of kset_rank; rank must lie in [0, C(n, k))."""
    total = binomial(n, k)
    if not 0 <= rank < total:
        raise ContractError(f"rank {rank} outside [0, {total})")
    members: list[int] = []
    r = rank
    x = 1
    for idx in range(k):
        while True:
            block = binomial(n - x, k - idx - 1)
            if r < block:
                break
            r -= block
            x += 1
        members.append(x)
        x += 1
    return KSet(n, tuple(members))
