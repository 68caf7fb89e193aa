"""Multiset algebra, predicates, enumeration, ranking and exact counting.

Ground sets are [m] = {1, ..., m}.  A multiset is stored canonically as a
dense multiplicity vector of length m (no ordering ambiguity, O(m)
intersection); a k-set is a strictly increasing element tuple.  Element-list
forms are accepted only at construction/IO boundaries.

All types are immutable after construction and every operation here is a
pure function, so values are safe to share freely.

Enumeration order is lexicographic on multiplicity vectors (multisets) and
lexicographic on element tuples (sets); ranks are consistent with that
order, which is what the disjointness graphs use for vertex indexing.  A
k-multiset of [m] is ranked through stars and bars: it is the (m-1)-subset
of bar positions in its word of k stars and m-1 bars, and those subsets
run in the order of the count vectors on the k-set code (the
combinatorial number system).  The count vectors themselves are walked by
lexicographic successor, which changes at most three counts a step and
numbers each row's multiplicity type on the way.  Every walk over a
universe reads universe_rows, its one scale guard.  Every family predicate
reads member pairs through one row codec, unary_mask, so whether two
members meet t times is one AND and popcount; P(s,1) is a clique search
over the bitsets of the pairs that fail it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, compress
from operator import attrgetter
from typing import Iterator, Iterable


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ScaleExceededError(RuntimeError):
    """Instance exceeds an exhaustive-computation guard; refusing to run."""


# the most members any universe walk (core.universe_rows) enumerates
ENUMERATION_CAP = 200_000

# 1 << i for each element index i, extended as longer rows come along
_POWERS = [1 << i for i in range(64)]


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
        if min(self.counts) < 0:
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
        """Bit i set iff element i+1 is held."""
        return _support_mask(self.counts)

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
        return cls._checked(m, k, MULTISET, members, attrgetter("counts"))

    @classmethod
    def of_sets(cls, n: int, k: int, members: Iterable[KSet]) -> "Family":
        return cls._checked(n, k, SET, members, attrgetter("members"))

    @classmethod
    def _checked(cls, m: int, k: int, kind: str, members: Iterable, key) -> "Family":
        """Validated members, duplicates dropped, sorted by key."""
        seen = {}
        for x in members:
            if x.ground_size != m:
                raise ContractError(f"member {x} has ground size {x.ground_size}, expected {m}")
            if x.cardinality != k:
                raise ContractError(f"member {x} has cardinality {x.cardinality}, expected {k}")
            seen.setdefault(key(x), x)
        return cls(m, k, kind, tuple(seen[x] for x in sorted(seen)))

    @classmethod
    def universe(cls, m: int, k: int, kind: str = MULTISET) -> "Family":
        """The full universe of k-multisets of [m] (or k-subsets of [n]) in
        enumeration order, the canonical member order, walked by universe_rows."""
        return cls.from_rows(m, k, kind, universe_rows(m, k, kind))

    @classmethod
    def from_rows(cls, m: int, k: int, kind: str, rows: Iterable[tuple[int, ...]]) -> "Family":
        """The family whose members have these multiplicity rows (see
        multiplicity_rows), built in the order given, which must be the
        canonical member order."""
        if kind == MULTISET:
            members = (Multiset(m, row) for row in rows)
        else:
            ground = range(1, m + 1)
            members = (KSet(m, tuple(compress(ground, row))) for row in rows)
        return cls(m, k, kind, tuple(members))

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, member) -> bool:
        return member in self.members


def multiplicity_rows(members: Iterable) -> list[tuple[int, ...]]:
    """Each member's multiplicities over its ground set: a multiset's
    counts, a k-set's 0/1 membership."""
    return [x.counts if isinstance(x, Multiset) else _set_row(x.ground_size, x.members)
            for x in members]


def _set_row(n: int, elements: Iterable[int]) -> tuple[int, ...]:
    """The 0/1 membership row over [n] of a set of elements."""
    row = [0] * n
    for e in elements:
        row[e - 1] = 1
    return tuple(row)


# ---------------------------------------------------------------------------
# family predicates
# ---------------------------------------------------------------------------

def unary_mask(row: tuple[int, ...], width: int) -> int:
    """The row codec: multiplicities in unary, one field of `width` bits
    per element (bit e*width + j set iff j < min(row[e], width)), so the
    popcount of the AND of two masks of one width is sum(min(a, b, width))."""
    mask = 0
    for c in reversed(row):
        mask = mask << width | (1 << (c if c < width else width)) - 1
    return mask


def _support_mask(row: tuple[int, ...]) -> int:
    """unary_mask(row, 1), bit i set iff row[i] > 0, as one C-level sum of
    the powers of two that the nonzero counts select."""
    if len(row) > len(_POWERS):
        _POWERS.extend(1 << i for i in range(len(_POWERS), len(row)))
    return sum(compress(_POWERS, row))


def _unary_width(rows: list[tuple[int, ...]], t: int) -> int:
    """The narrowest width whose masks decide a pair threshold t on these
    rows: sum(min(a, b)) >= t iff sum(min(a, b, t)) >= t."""
    return min(t, max(chain.from_iterable(rows), default=0))


def _pair_masks(members, t: int) -> list[int]:
    """Masks on which two members share t bits iff they meet t times,
    multiplicities counted: support masks at t = 1, else unary masks."""
    if t == 1:
        return [x.support_mask() for x in members]
    rows = multiplicity_rows(members)
    width = _unary_width(rows, t)
    return [unary_mask(row, width) for row in rows]


def _all_pairs_share(masks: list[int], t: int) -> bool:
    """True iff every pair of masks shares at least t set bits."""
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if (a & b).bit_count() < t:
                return False
    return True


def _clique_free(masks: list[int], t: int, s: int) -> bool:
    """True iff no s+1 masks pairwise share fewer than t bits: a search for an
    (s+1)-clique of failing pairs on an explicit stack of bitset frames.  A
    clique takes at most one vertex from each class of a colouring with no
    failing pair inside a class, so a frame whose candidates a greedy
    colouring puts in fewer than `need` classes is pruned."""
    n = len(masks)
    fails = [0] * n
    for i, a in enumerate(masks):
        for j in range(i + 1, n):
            if (a & masks[j]).bit_count() < t:
                fails[i] |= 1 << j
                fails[j] |= 1 << i
    stack = [((1 << n) - 1, s + 1)]
    while stack:
        cand, need = stack.pop()
        size = cand.bit_count()
        if size < need:
            continue
        if need == 1:
            return False
        rest, classes = cand, 0
        while rest and classes < need:
            classes += 1
            free = rest
            while free:
                low = free & -free
                rest ^= low
                free &= ~(fails[low.bit_length() - 1] | low)
        if classes < need:
            continue
        if classes == size:  # one vertex per class: the candidates pairwise fail
            return False
        v = (cand & -cand).bit_length() - 1
        cand ^= 1 << v
        stack += (cand, need), (cand & fails[v], need - 1)
    return True


def is_t_intersecting(fam: Family, t: int) -> bool:
    """True iff every pair of distinct members shares >= t elements,
    counted with multiplicity for multisets.  Vacuously true for families
    with fewer than two members.  A pair is one AND and popcount."""
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    return _all_pairs_share(_pair_masks(fam.members, t), t)


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
    core = tuple(map(min, zip(*multiplicity_rows(fam.members))))
    return Family.from_rows(fam.m, sum(core), fam.kind, [core]).members[0]


def has_property_p_s1(fam: Family, s: int) -> bool:
    """P(s,1): no s+1 members are pairwise disjoint (a clique search)."""
    if s < 1:
        raise ContractError(f"s must be >= 1, got {s}")
    return _clique_free(_pair_masks(fam.members, 1), 1, s)


# ---------------------------------------------------------------------------
# enumeration and ranking
# ---------------------------------------------------------------------------

def _stars(bars: Iterable[int], n: int) -> tuple[int, ...]:
    """Multiplicities from the 1-based bar positions of a word of n stars
    and bars: element i gets the stars between bar i-1 and bar i."""
    counts = []
    prev = 0
    for b in bars:
        counts.append(b - prev - 1)
        prev = b
    counts.append(n - prev)
    return tuple(counts)


def _bars(a: Multiset) -> KSet:
    """The bar positions of a's stars-and-bars word, as an (m-1)-subset of
    [m+k-1]: bar i follows the stars of elements 1..i."""
    bars = []
    pos = 0
    for c in a.counts[:-1]:
        pos += c + 1
        bars.append(pos)
    return KSet(a.ground_size + a.cardinality - 1, tuple(bars))


def enumerate_k_multisets(
    m: int, k: int, rows: bool = False, types: list[int] | None = None
) -> Iterator[Multiset | tuple[int, ...]]:
    """All k-multisets of [m] in lexicographic multiplicity-vector order;
    with rows=True, their count vectors instead, with no Multiset built.
    With a list `types`, each one's type number is appended to it (see
    count_vectors).

    Walks the count vectors by lexicographic successor (count_vectors).
    That order is the lexicographic order of the (m-1)-subsets of bar
    positions in their words of m+k-1 stars and bars, through which
    multiset_rank ranks them.  Emits exactly multichoose(m, k) distinct
    multisets, deterministically.
    """
    if rows:
        yield from count_vectors(m, k, types)
        return
    for counts in count_vectors(m, k, types):
        yield Multiset(m, counts)


def count_vectors(
    m: int, k: int, types: list[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """The multiplicity vectors of enumerate_k_multisets(m, k), in its
    order, with no Multiset built.

    A lexicographic successor walk (Knuth, TAOCP 4A, 7.2.1.3) from
    (0, ..., 0, k): while the last count is nonzero it hands one unit to
    its neighbour; once it is empty, the last nonzero count p passes one
    unit to p-1 and the rest to the last element.  A step changes at most
    three counts, and as a multiset of counts it moves one unit from a
    count x to a count a.

    With a list `types`, each row's type number is appended to it as the
    row is yielded: rows share a number iff they have the same sorted row
    (the orbits of the permutations of [m]), and numbers run from 0 in
    order of first appearance.  The type key sum_e (m+1)**row[e] is
    injective on sorted rows, since at most m counts share a value, and a
    step updates it in O(1) from the counts x and a."""
    if m < 1:
        raise ContractError(f"m must be >= 1, got {m}")
    if k < 0:
        raise ContractError(f"k must be >= 0, got {k}")
    if m == 1:
        if types is not None:
            types.append(0)
        yield (k,)
        return
    if types is None:
        step, key = [0] * k, 0  # zero steps: the key stays 0, unread
    else:
        power = [(m + 1) ** c for c in range(k + 1)]
        step, key = [power[c + 1] - power[c] for c in range(k)], m - 1 + power[k]
    numbers: dict[int, int] = {}
    row = [0] * m
    row[-1] = k
    last = -1  # the last nonzero count before the last element, or -1
    while True:
        if types is not None:
            number = numbers.get(key)
            if number is None:
                number = numbers[key] = len(numbers)
            types.append(number)
        yield tuple(row)
        x = row[-1]
        if x:
            a = row[-2]
            row[-2] = a + 1
            row[-1] = x - 1
            last = m - 2
        elif last > 0:
            x = row[last]
            row[last] = 0
            last -= 1
            a = row[last]
            row[last] = a + 1
            row[-1] = x - 1
        else:
            return
        key += step[a] - step[x - 1]


def enumerate_k_subsets(n: int, k: int, rows: bool = False) -> Iterator[KSet | tuple[int, ...]]:
    """All k-subsets of [n] in lexicographic order; empty when k > n.  With
    rows=True, each one's 0/1 membership row instead, with no KSet built."""
    if n < 0 or k < 0:
        raise ContractError(f"n, k must be >= 0, got ({n}, {k})")
    for combo in combinations(range(1, n + 1), k):
        yield _set_row(n, combo) if rows else KSet(n, combo)


def universe_rows(
    m: int, k: int, kind: str, cap: int = ENUMERATION_CAP, types: list[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """The multiplicity rows of Family.universe(m, k, kind), in its order,
    with no member built: count vectors for multisets, 0/1 membership rows
    for sets.  It is the enumerators' rows=True walk, so members and rows
    share one walk per kind.  With a list `types`, each row's type number
    (see count_vectors) is appended to it by the time the walk ends; every
    k-subset has the same sorted row, so a set universe's rows all get 0.

    This is the scale guard of every walk over a universe: a universe of
    more than `cap` members, counted in closed form, is refused
    (ScaleExceededError) here, before the walk starts."""
    # a negative m or k counts as empty, so the walk reports its own check
    count = universe_size(max(m, 0), max(k, 0), kind)
    if count > cap:
        raise ScaleExceededError(f"universe has {count} members, exceeding the cap of {cap}")
    if kind == MULTISET:
        return enumerate_k_multisets(m, k, rows=True, types=types)
    if types is not None:
        types += [0] * count
    return enumerate_k_subsets(m, k, rows=True)


def universe_size(m: int, k: int, kind: str) -> int:
    """len(Family.universe(m, k, kind)) in closed form, with nothing
    enumerated."""
    return multichoose(m, k) if kind == MULTISET else binomial(m, k)


def multiset_rank(a: Multiset) -> int:
    """Rank of a multiset within the enumeration of (m, k)-multisets: the
    k-set rank of its bar positions."""
    return kset_rank(_bars(a))


def multiset_unrank(m: int, k: int, rank: int) -> Multiset:
    """Inverse of multiset_rank; rank must lie in [0, multichoose(m, k))."""
    n = m + k - 1
    return Multiset(m, _stars(kset_unrank(n, m - 1, rank).members, n))


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
