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
M(m,k) and M(m,k,1).  The graph is stored as its complement, one
compatibility bitmask per vertex, which is what the search module's
word-parallel candidate operations consume.

All five kinds share one bit-sliced construction.  Each vertex is its row
of per-element multiplicities (core.universe_rows: a multiset's count
vector, a k-set's 0/1 membership row), read up to min(k, t) levels for
M(m,k,t) (an intersection is only compared with t) and up to one level,
its support, for the others, and columns[e][j] is the bitset of vertices
whose multiplicity at e exceeds j.
|A ∩ B| is then the number of A's columns that contain B, so OR-ing A's
columns through a saturating ladder of t bitsets yields every vertex
meeting A at least t times at once.  Rank order is lexicographic, so
consecutive rows share a prefix of held elements and the ladder resumes
from the state the previous row reached there.  The cost is at most
O(n · k · t) big-integer operations instead of O(n²) pair tests.

build_graph only enumerates the universe's rows; no member object is
built until a family is decoded (family_from_mask).  The graph has one
view, `ordered`, built by the ladder when first read and kept on the graph
object: the compatibility graph (the complement, whose cliques are the
intersecting families) in the clique engine's branching order, descending
compatibility degree with rank breaking ties.  Every kind is invariant
under permuting [m], so a vertex's degree depends only on its multiplicity
type (its sorted row), and it is counted once per type in closed form,
before any column exists.  The columns are then built once, with each
vertex at its branching slot, so one ladder pass yields the engine's rows
with no bit permutation.  For K kinds all vertices share one type and the
order is rank order.  The view keeps each type's vertices as one bitset:
the orbits the searches' orbital front starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from .core import MULTISET, SET, ContractError, Family, binomial, multichoose, universe_rows

KIND_KNESER = "K"
KIND_MULTISET_DISJOINT = "M"
KIND_KNESER_T = "K_t"
KIND_MULTISET_T = "M_t"
KIND_MULTISET_SUPPORT_T = "M_support_t"

# each graph kind and the kind of member its vertices are
_FAMILY_KIND = {
    KIND_KNESER: SET,
    KIND_MULTISET_DISJOINT: MULTISET,
    KIND_KNESER_T: SET,
    KIND_MULTISET_T: MULTISET,
    KIND_MULTISET_SUPPORT_T: MULTISET,
}
GRAPH_KINDS = tuple(_FAMILY_KIND)

DEFAULT_VERTEX_CAP = 5000


class BranchingView(NamedTuple):
    """The compatibility graph in branching order: new vertex i is the
    vertex of rank to_old[i], rows[i] the bitset of new vertices
    compatible with it and counts[i] its multiplicity row.  orbits holds
    the bitset of new vertices of each multiplicity type (sorted row), in
    rank order of the types' first members: the orbits of the
    permutations of [m]."""

    rows: list[int]
    to_old: list[int]
    counts: list[tuple[int, ...]]
    orbits: list[int]


@dataclass
class DisjointnessGraph:
    """One universe's disjointness graph; immutable in practice.  It holds
    each vertex's multiplicity row in rank order (`multiplicities`).  Its
    one view, `ordered`, is computed on first read and cached outside the
    dataclass fields, so it takes no part in equality or repr."""

    kind: str
    m: int
    k: int
    t: int
    multiplicities: tuple[tuple[int, ...], ...]

    @property
    def family_kind(self) -> str:
        """The kind of member the vertices are: SET or MULTISET."""
        return _FAMILY_KIND[self.kind]

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
        to_old, slot, orbits = _branching_order(rows, self.t, levels, self.family_kind == MULTISET)
        columns = _columns(rows, slot, self.m, levels)
        compat = _compatibility(rows, columns, self.t, slot)
        return BranchingView(compat, to_old, [rows[v] for v in to_old], orbits)

    def edge_count(self) -> int:
        # counted on the branching view, which every search builds anyway
        n = self.n_vertices
        return (n * (n - 1) - sum(row.bit_count() for row in self.ordered.rows)) // 2

    def label(self) -> str:
        if self.kind == KIND_KNESER:
            return f"K({self.m},{self.k})"
        if self.kind == KIND_MULTISET_DISJOINT:
            return f"M({self.m},{self.k})"
        if self.kind == KIND_KNESER_T:
            return f"K({self.m},{self.k},{self.t})"
        if self.kind == KIND_MULTISET_T:
            return f"M({self.m},{self.k},{self.t})"
        return f"M'({self.m},{self.k},{self.t})"

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


def build_graph(
    kind: str,
    m: int,
    k: int,
    t: int = 1,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> DisjointnessGraph:
    """Build the requested disjointness graph; refuses (ScaleExceededError)
    a universe of more than vertex_cap members before enumerating anything.
    Vertex order is the enumeration (= rank) order.  Only the universe's
    rows are enumerated here: `ordered` runs the ladder when first read
    (module docstring)."""
    if kind not in GRAPH_KINDS:
        raise ContractError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    if kind in (KIND_KNESER, KIND_MULTISET_DISJOINT) and t != 1:
        raise ContractError(f"graph kind {kind} does not take a threshold t")

    rows = tuple(universe_rows(m, k, _FAMILY_KIND[kind], vertex_cap))
    return DisjointnessGraph(kind, m, k, t, rows)


def _columns(rows, slot, m: int, levels: int) -> list[list[int]]:
    """columns[e][j] = bitset of the vertices whose multiplicity at e
    exceeds j, for j < levels; the vertex of rows[v] is bit slot[v].  Each
    held element sets one bit, in the bitset of its capped multiplicity;
    a suffix OR over those turns them into the columns."""
    exact = [[0] * (levels + 1) for _ in range(m)]
    ground = range(m)
    for s, row in zip(slot, rows):
        bit = 1 << s
        for e in compress(ground, row):  # the elements v holds
            c = row[e]
            exact[e][c if c < levels else levels] |= bit
    columns = []
    for at in exact:
        col = [0] * levels
        acc = 0
        for j in range(levels, 0, -1):
            acc |= at[j]
            col[j - 1] = acc
        columns.append(col)
    return columns


def _compatibility(rows, columns, t: int, slot) -> list[int]:
    """The full ladder: out[slot[v]] = bitset of the vertices u != v with
    sum_e min(rows[v][e], rows[u][e], levels) >= t, bits as in `columns`.

    A row occupies exactly the columns (e, j < min(row[e], levels)) and its
    intersection with u is the number of those columns that contain u.  A
    saturating ladder counts that per u: after all of the row's columns,
    ge[i] holds the u met at least i+1 times.  The ladder state after
    element e depends on row[:e+1] alone, and rank order is lexicographic,
    so consecutive rows share a prefix: a stack keeps the state after each
    held element of the previous row, and a row resumes from the last one
    before the first element where it differs."""
    out = [0] * len(rows)
    m = len(columns)
    prev: tuple[int, ...] = ()
    stack = [(-1, [0] * t)]  # (held element, ladder after it)
    for s, row in zip(slot, rows):
        e = 0
        for a, b in zip(prev, row):
            if a != b:
                break
            e += 1
        while stack[-1][0] >= e:
            stack.pop()
        ge = stack[-1][1]
        for f in range(e, m):
            c = row[f]
            if c:
                ge = ge[:]
                for col in columns[f][:c]:
                    for i in range(t - 1, 0, -1):
                        ge[i] |= ge[i - 1] & col
                    ge[0] |= col
                stack.append((f, ge))
        prev = row
        out[s] = ge[-1] & ~(1 << s)
    return out


def _type_degree(shape, t: int, levels: int, multisets: bool) -> int:
    """The compatibility degree of every vertex whose sorted multiplicity
    row is `shape`, counted without a ladder.

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


def _branching_order(rows, t: int, levels: int, multisets: bool):
    """(to_old, slot, orbits): vertices by descending compatibility degree,
    rank breaking ties, the position of each rank in that order, and the
    bitset of each multiplicity type's vertices in that order.  Permuting
    [m] is an automorphism of every graph kind, so vertices of one type
    share a degree, counted once per type by _type_degree."""
    types: dict[tuple[int, ...], tuple[int, int]] = {}  # shape: (number, -degree)
    type_of = []
    key = []
    for row in rows:
        shape = tuple(sorted(row))
        entry = types.get(shape)
        if entry is None:
            entry = types[shape] = (len(types), -_type_degree(shape, t, levels, multisets))
        type_of.append(entry[0])
        key.append(entry[1])
    # one type: every key ties and the stable sort keeps rank order
    to_old = sorted(range(len(rows)), key=key.__getitem__)
    slot = [0] * len(rows)
    orbits = [0] * len(types)
    for i, v in enumerate(to_old):
        slot[v] = i
        orbits[type_of[v]] |= 1 << i
    return to_old, slot, orbits
