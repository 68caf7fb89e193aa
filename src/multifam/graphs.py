"""Disjointness graphs over enumerated k-set / k-multiset universes.

Vertices are the universe members in enumeration order (a vertex's rank
is its index in `multiplicities`).  Adjacency joins pairs that fall below
the intersection threshold:

  K(n,k)        k-subsets,   edge iff disjoint
  K(n,k,t)      k-subsets,   edge iff |A ∩ B| < t
  M(m,k)        k-multisets, edge iff the multiset intersection is empty
  M(m,k,t)      k-multisets, edge iff |A ∩ B| < t (multiplicity counted)
  M'(m,k,t)     k-multisets, edge iff supports share < t elements

Independent sets are intersecting (resp. t-intersecting, support-t-
intersecting) families.  M(m,k) and M'(m,k,1) coincide edge for edge, as do
M(m,k) and M(m,k,1).  Each kind is one table entry (member kind, pairs
compared on supports or not, threshold taken or not, label) that
GRAPH_KINDS, family_kind, label(), build_graph and the pair rule read.
The graph is stored as its complement, one compatibility bitmask per
vertex, which is what the search module's word-parallel candidate
operations consume.

All five kinds share one bit-sliced construction.  Each vertex is its row
of per-element multiplicities (core.universe_rows: a multiset's count
vector, a k-set's 0/1 membership row), and columns[e][j] is the bitset of
vertices whose multiplicity at e exceeds j.  The ladder reads them up to
min(k, t) levels for M(m,k,t) (an intersection is only compared with t)
and up to one level, its support, for the others.
|A ∩ B| is then the number of A's columns that contain B, so OR-ing A's
columns through a saturating ladder of t bitsets yields every vertex
meeting A at least t times at once.  The t bitsets are lanes 1..t of one
integer of (t+1)·n bits, lane 0 all ones and lane t the lowest, and a
column replicated into lanes 1..t advances every lane in one right shift,
AND and OR.  Rank order is lexicographic, so the rows are the leaves, in
order, of the universe's trie of held elements, and a ladder state
depends on a row's prefix alone: one iterative walk of the trie runs each
column step once per trie edge.  The cost is at most O(n · k) steps on
(t+1)·n-bit integers instead of O(n²) pair tests.

build_graph only enumerates the universe's rows; no member object is
built until a family is decoded (family_from_mask).  The graph has one
view, `ordered`, built by the ladder when first read and kept on the graph
object: the compatibility graph (the complement, whose cliques are the
intersecting families) in the clique engine's branching order, descending
compatibility degree with rank breaking ties.  Every kind is invariant
under permuting [m], so a vertex's degree depends only on its multiplicity
type (its sorted row).  The universe walk numbers each row's type as it
goes (core.count_vectors), the graph keeps those numbers (`types`), and
the degree is counted once per type in closed form, on the type's first
row, before any column exists; no row is sorted.  The columns are then
built once, by one transpose of the rows listed in branching order, so
each vertex's bit is its branching slot and one walk yields the engine's
rows with no bit permutation.  For K kinds all vertices share one type
and the order is rank order.  The view keeps each type's vertices as one
bitset: the orbits the searches' orbital front starts from.  It also
keeps the columns, up to the largest multiplicity present (k levels for
multisets, one for sets), which the front splits those orbits on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .core import (
    MULTISET,
    SET,
    ContractError,
    Family,
    _pair_masks,
    binomial,
    is_support_t_intersecting,
    is_t_intersecting,
    multichoose,
    universe_rows,
)

KIND_KNESER = "K"
KIND_MULTISET_DISJOINT = "M"
KIND_KNESER_T = "K_t"
KIND_MULTISET_T = "M_t"
KIND_MULTISET_SUPPORT_T = "M_support_t"

# each kind: what its vertices are (SET or MULTISET), whether a pair compares
# supports, not multiplicity (alike at t = 1 and on sets), whether it takes a
# threshold t (K and M are t = 1 only), and its label
_Kind = NamedTuple(
    "_Kind", [("family_kind", str), ("supports", bool), ("threshold", bool), ("label", str)]
)
_KINDS = {
    KIND_KNESER: _Kind(SET, False, False, "K({m},{k})"),
    KIND_MULTISET_DISJOINT: _Kind(MULTISET, False, False, "M({m},{k})"),
    KIND_KNESER_T: _Kind(SET, False, True, "K({m},{k},{t})"),
    KIND_MULTISET_T: _Kind(MULTISET, False, True, "M({m},{k},{t})"),
    KIND_MULTISET_SUPPORT_T: _Kind(MULTISET, True, True, "M'({m},{k},{t})"),
}
GRAPH_KINDS = tuple(_KINDS)


DEFAULT_VERTEX_CAP = 5000


class BranchingView(NamedTuple):
    """The compatibility graph in branching order: new vertex i is the
    vertex of rank to_old[i], rows[i] the bitset of new vertices
    compatible with it and counts[i] its multiplicity row.  orbits holds
    the bitset of new vertices of each multiplicity type (sorted row), in
    rank order of the types' first members: the orbits of the
    permutations of [m].  columns[e][j] is the bitset of new vertices
    whose multiplicity at e exceeds j, for every j below the largest
    multiplicity present (k for multisets, 1 for sets)."""

    rows: list[int]
    to_old: list[int]
    counts: list[tuple[int, ...]]
    orbits: list[int]
    columns: list[list[int]]


@dataclass
class DisjointnessGraph:
    """One universe's disjointness graph; immutable in practice.  It holds
    each vertex's multiplicity row in rank order (`multiplicities`) and its
    type number (`types`: vertices share a number iff their sorted rows
    are equal, numbered in rank order of the types' first vertices, as
    core.universe_rows reports them).  Its one view, `ordered`, is computed
    on first read and cached outside the dataclass fields, so it takes no
    part in equality or repr."""

    kind: str
    m: int
    k: int
    t: int
    multiplicities: tuple[tuple[int, ...], ...]
    types: tuple[int, ...]

    @property
    def family_kind(self) -> str:
        """The kind of member the vertices are: SET or MULTISET."""
        return _KINDS[self.kind].family_kind

    @property
    def n_vertices(self) -> int:
        return len(self.multiplicities)

    @property
    def _levels(self) -> int:
        # only M(m,k,t) counts multiplicity; the other kinds compare supports.
        # A level at or above t changes no count that reaches t.
        return min(self.k, self.t) if self.kind == KIND_MULTISET_T else 1

    @cached_property
    def ordered(self) -> BranchingView:
        """The compatibility rows in branching order (module docstring)."""
        rows = self.multiplicities
        levels = self._levels
        multisets = self.family_kind == MULTISET
        to_old, slot, orbits = _branching_order(rows, self.types, self.t, levels, multisets)
        counts = [rows[v] for v in to_old]
        columns = _columns(counts, self.k if multisets else min(self.k, 1))
        compat = _compatibility(columns, slot, self.k, self.t, multisets, levels)
        return BranchingView(compat, to_old, counts, orbits, columns)

    def edge_count(self) -> int:
        # counted on the branching view, which every search builds anyway
        n = self.n_vertices
        return (n * (n - 1) - sum(row.bit_count() for row in self.ordered.rows)) // 2

    def label(self) -> str:
        """The kind's label at the graph's parameters, e.g. M(4,3,2) for M_t."""
        return _KINDS[self.kind].label.format(m=self.m, k=self.k, t=self.t)

    def is_independent(self, fam: Family) -> bool:
        """The raw pairwise predicate of the graph's independent sets, read
        off the members, not the adjacency rows (K and M graphs have t = 1)."""
        test = is_support_t_intersecting if _KINDS[self.kind].supports else is_t_intersecting
        return test(fam, self.t)

    def pair_masks(self, members) -> list[int]:
        """The P(s,1) check's masks: two members share t bits iff compatible."""
        return _pair_masks(members, 1 if _KINDS[self.kind].supports else self.t)

    def family_from_mask(self, mask: int) -> Family:
        # ranks are in canonical member order, and so is any subsequence;
        # only the chosen members are built
        rows = self.multiplicities
        return Family.from_rows(self.m, self.k, self.family_kind, [rows[v] for v in _bits(mask)])


def _bits(mask: int):
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def build_graph(kind: str, m: int, k: int, t: int = 1) -> DisjointnessGraph:
    """Build the requested disjointness graph; refuses (ScaleExceededError)
    a universe of more than DEFAULT_VERTEX_CAP members before enumerating
    anything.  Vertex order is the enumeration (= rank) order.  Only the universe's
    rows are enumerated here: `ordered` runs the ladder when first read
    (module docstring)."""
    if kind not in GRAPH_KINDS:
        raise ContractError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    if not _KINDS[kind].threshold and t != 1:
        raise ContractError(f"graph kind {kind} does not take a threshold t")

    types: list[int] = []
    rows = tuple(universe_rows(m, k, _KINDS[kind].family_kind, DEFAULT_VERTEX_CAP, types))
    return DisjointnessGraph(kind, m, k, t, rows, tuple(types))


def _columns(rows, levels: int) -> list[list[int]]:
    """columns[e][j] = bitset of the row indices whose multiplicity at e
    exceeds j, for j < levels; row i is bit i.

    One C-level transpose (zip) gives each element's counts, last row
    first, as bytes; for each level, bytes.translate maps a count above j
    to "1" and any other to "0", and int(..., 2) reads the bitset off that
    string.  A byte holds a count up to 255: a universe with larger counts
    (k > 255) reads each count through a lookup that lifts it above the
    base of a band of 255 levels and caps it, one band at a time.  No
    count exceeds k, so levels at or above k are empty."""
    if not rows:
        return []
    k = sum(rows[0])
    top = min(levels, k)
    columns: list[list[int]] = [[] for _ in rows[0]]
    for base in range(0, top, 255):
        lift = [min(max(c - base, 0), 255) for c in range(k + 1)].__getitem__
        tables = [b"0" * (j + 1) + b"1" * (255 - j) for j in range(min(top - base, 255))]
        for column, counts in zip(columns, zip(*rows[::-1])):
            data = bytes(map(lift, counts) if k > 255 else counts)
            column += [int(data.translate(table), 2) for table in tables]
    empty = [0] * (levels - top)
    for column in columns:
        column += empty
    return columns


def _compatibility(columns, slot, k: int, t: int, multisets: bool, levels: int) -> list[int]:
    """The full ladder: out[slot[v]] = bitset of the vertices u != v with
    sum_e min(c_v(e), c_u(e), levels) >= t, for the vertex of rank v and
    `columns` in slot order, as `_columns` builds them from the
    slot-ordered rows; only the first `levels` of each element are read.

    A row occupies exactly the columns (e, j < min(row[e], levels)), and
    its intersection with u is the number of those columns that contain u.
    A saturating ladder counts that per u, in t+1 lanes of n bits packed
    into one integer: lane i holds the u met at least i times, lane 0 all
    of them.  Lane i sits at bit (t-i)·n, so one right shift by n carries
    every lane into the next (and drops lane t), and a column step is that
    shift, an AND with the column replicated into lanes 1..t once, and an
    OR.  Lane t, the row, is the low n bits.

    The rows are the leaves of the universe's trie of held elements, and a
    node's ladder depends on its prefix alone, so the walk runs each column
    step once per trie edge.  A node is (next element it may hold, units
    left, ladder); an explicit stack takes its children pushed in reverse,
    so the leaves come out in rank order: multisets go by held element
    descending, then count ascending (the count vectors' lexicographic
    order), sets by held element ascending.  A count above the levels
    steps no further."""
    n = len(slot)
    out = [0] * n
    if not n:
        return out
    m = len(columns)
    lane = (1 << n) - 1
    rep = ((1 << t * n) - 1) // lane  # a one at the base of lanes t..1
    packed = [[col * rep for col in cols[:levels]] for cols in columns]
    leaves = iter(slot)
    stack = [(0, k, lane << t * n)]  # (next element, units left, ladder)
    while stack:
        e, r, ge = stack.pop()
        if r == 1:
            # every child is a leaf, and they come in a run: step only lane t
            hi = ge & lane
            lo = ge >> n & lane
            for f in range(m - 1, e - 1, -1) if multisets else range(e, m):
                s = next(leaves)
                out[s] = (hi | lo & columns[f][0]) & ~(1 << s)
        elif not r:
            s = next(leaves)
            out[s] = ge & lane & ~(1 << s)
        elif multisets:
            for f in range(e, m - 1):
                g = ge
                kids = []
                for c, step in enumerate(packed[f][:r], 1):
                    g |= g >> n & step
                    kids.append((f + 1, r - c, g))
                # a count above the levels steps no further
                kids += [(f + 1, r - c, g) for c in range(len(kids) + 1, r + 1)]
                kids.reverse()
                stack += kids
            for step in packed[m - 1][:r]:  # the last element takes every unit left
                ge |= ge >> n & step
            stack.append((m, 0, ge))
        else:
            for f in range(m - r, e - 1, -1):
                stack.append((f + 1, r - 1, ge | ge >> n & packed[f][0]))
    return out


def _type_degree(shape, t: int, levels: int, multisets: bool) -> int:
    """The compatibility degree of every vertex whose sorted multiplicity
    row is that of `shape` (any row of the type, sorted or not), counted
    without a ladder.

    Another member b meets the vertex in sum_e min(b[e], c_e) units, c_e
    its multiplicity at a held element e capped at `levels`.  A table over
    the held elements, keyed by (units b places up to the caps, elements it
    fills to the cap), counts the ways b can sit on them; that first key is
    the intersection.  The remaining units go in closed form to the
    elements the type does not hold and, for multisets, on top of the
    filled ones: multichoose for multisets, binomial for sets.  The vertex
    itself is dropped when it meets itself at least t times."""
    k = sum(shape)
    caps = [c if c < levels else levels for c in shape if c]
    table = {(0, 0): 1}
    for c in caps:
        step: dict[tuple[int, int], int] = {}
        for (units, filled), ways in table.items():
            for b in range(c + 1):
                key = (units + b, filled + (b == c))
                step[key] = step.get(key, 0) + ways
        table = step
    free = len(shape) - len(caps)
    degree = 0
    for (units, filled), ways in table.items():
        if units >= t:
            rest = multichoose(free + filled, k - units) if multisets else binomial(free, k - units)
            degree += ways * rest
    return degree - (sum(caps) >= t)


def _branching_order(rows, types, t: int, levels: int, multisets: bool):
    """(to_old, slot, orbits): vertices by descending compatibility degree,
    rank breaking ties, the position of each rank in that order, and the
    bitset of each multiplicity type's vertices in that order.  Permuting
    [m] is an automorphism of every graph kind, so vertices of one type
    share a degree, counted by _type_degree on the type's first row.  Type
    numbers run in order of first appearance, so type j first appears
    after type j-1 does."""
    degrees = []  # minus each type's degree
    first = 0
    for number in range(max(types, default=-1) + 1):
        first = types.index(number, first)
        degrees.append(-_type_degree(rows[first], t, levels, multisets))
    key = [degrees[number] for number in types]
    # one type: every key ties and the stable sort keeps rank order
    to_old = sorted(range(len(rows)), key=key.__getitem__)
    slot = [0] * len(rows)
    orbits = [0] * len(degrees)
    for i, v in enumerate(to_old):
        slot[v] = i
        orbits[types[v]] |= 1 << i
    return to_old, slot, orbits
