"""Disjointness graphs over enumerated k-set / k-multiset universes.

Vertices are the universe members in enumeration order (vertex index ==
rank).  Adjacency joins pairs that fall below the intersection threshold:

  K(n,k)        k-subsets,   edge iff disjoint
  K(n,k,t)      k-subsets,   edge iff |A ∩ B| < t
  M(m,k)        k-multisets, edge iff the multiset intersection is empty
  M(m,k,t)      k-multisets, edge iff |A ∩ B| < t (multiplicity counted)
  M'(m,k,t)     k-multisets, edge iff supports share < t elements

Independent sets are intersecting (resp. t-intersecting, support-t-
intersecting) families.  M(m,k) and M'(m,k,1) coincide edge for edge, as do
M(m,k) and M(m,k,1).  Adjacency is stored as one bitmask per vertex, which
is what the search module's word-parallel candidate operations consume.

All five kinds share one bit-sliced construction.  Each vertex is its row
of per-element multiplicities (core.multiplicity_rows), read up to k levels
for M(m,k,t) and up to one level, its support, for the others, and
columns[e][j] is the bitset of vertices whose multiplicity at e exceeds j.
|A ∩ B| is then the number of A's columns that contain B, so OR-ing A's
columns through a saturating ladder of t bitsets yields every vertex
meeting A at least t times at once.  The cost
is O(n · k · t) big-integer operations instead of O(n²) pair tests.

build_graph only enumerates the universe; the ladder runs when a view is
first read, and each view is kept on the graph object:

  adj      the adjacency over ranks, for the callers that index vertices
           by rank (the small-core search, the G □ K₂ product);
  ordered  the compatibility graph (the complement, whose cliques are the
           intersecting families) in the clique engine's branching order:
           descending compatibility degree, rank breaking ties.  Every
           kind is invariant under permuting [m], so a vertex's degree
           depends only on its multiplicity type (its sorted row); one
           ladder row per type fixes the order, and one ladder pass over
           the rows in that order yields the engine's rows with no bit
           permutation.  For K kinds all vertices share one type and the
           order is rank order.  The view keeps each type's vertices as
           one bitset: the orbits the searches' orbital front starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from .core import (
    MULTISET,
    SET,
    ContractError,
    Family,
    ScaleExceededError,
    binomial,
    multichoose,
    multiplicity_rows,
)

KIND_KNESER = "K"
KIND_MULTISET_DISJOINT = "M"
KIND_KNESER_T = "K_t"
KIND_MULTISET_T = "M_t"
KIND_MULTISET_SUPPORT_T = "M_support_t"

GRAPH_KINDS = (
    KIND_KNESER,
    KIND_MULTISET_DISJOINT,
    KIND_KNESER_T,
    KIND_MULTISET_T,
    KIND_MULTISET_SUPPORT_T,
)

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
    """One universe's disjointness graph; immutable in practice.  `adj`
    and `ordered` are computed on first read and cached outside the
    dataclass fields, so they take no part in equality or repr."""

    kind: str
    m: int
    k: int
    t: int
    family_kind: str
    vertices: tuple

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def multiplicities(self) -> list[tuple[int, ...]]:
        """Each vertex's multiplicity row, in rank order."""
        return multiplicity_rows(self.vertices)

    @property
    def _levels(self) -> int:
        # only M(m,k,t) counts multiplicity; the other kinds compare supports
        return self.k if self.kind == KIND_MULTISET_T else 1

    @cached_property
    def adj(self) -> list[int]:
        """adj[v] = bitset of the ranks u != v below the threshold with v."""
        rows = self.multiplicities
        full = (1 << len(rows)) - 1
        compat = _compatibility(rows, _columns(rows, self.m, self._levels), self.t)
        return [full & ~(row | 1 << v) for v, row in enumerate(compat)]

    @cached_property
    def ordered(self) -> BranchingView:
        """The compatibility rows in branching order (module docstring)."""
        rows = self.multiplicities
        columns = _columns(rows, self.m, self._levels)
        to_old, orbits = _branching_order(rows, columns, self.t)
        if len(orbits) > 1:  # more than one type: vertices may move
            rows = [rows[v] for v in to_old]
            columns = _columns(rows, self.m, self._levels)
        return BranchingView(_compatibility(rows, columns, self.t), to_old, rows, orbits)

    def edge_count(self) -> int:
        # counted on the branching view, which the MIS, enumeration and
        # clique-free searches build anyway
        n = self.n_vertices
        return (n * (n - 1) - sum(row.bit_count() for row in self.ordered.rows)) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

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
        # vertices are in canonical member order, and so is any subsequence
        chosen = tuple(self.vertices[v] for v in _bits(mask))
        return Family(self.m, self.k, self.family_kind, chosen)


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
    """Build the requested disjointness graph; refuses universes above the
    vertex cap.  Vertex order is the enumeration (= rank) order.  Only the
    universe is enumerated here: `adj` and `ordered` run the ladder when
    first read (module docstring)."""
    if kind not in GRAPH_KINDS:
        raise ContractError(f"unknown graph kind {kind!r}; expected one of {GRAPH_KINDS}")
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    if kind in (KIND_KNESER, KIND_MULTISET_DISJOINT) and t != 1:
        raise ContractError(f"graph kind {kind} does not take a threshold t")

    set_based = kind in (KIND_KNESER, KIND_KNESER_T)
    count = binomial(m, k) if set_based else multichoose(m, k)
    if count > vertex_cap:
        raise ScaleExceededError(
            f"universe has {count} vertices, exceeding the cap of {vertex_cap}"
        )

    family_kind = SET if set_based else MULTISET
    vertices = Family.universe(m, k, family_kind).members
    return DisjointnessGraph(kind, m, k, t, family_kind, vertices)


def _columns(rows, m: int, levels: int) -> list[list[int]]:
    """columns[e][j] = bitset of the vertices whose multiplicity at e
    exceeds j, for j < levels; vertex v is bit v, its index in rows."""
    columns = [[0] * levels for _ in range(m)]
    ground = range(m)
    for v, row in enumerate(rows):
        bit = 1 << v
        for e in compress(ground, row):  # the elements v holds
            col = columns[e]
            c = row[e]
            for j in range(c if c < levels else levels):
                col[j] |= bit
    return columns


def _meeting(columns, row, t: int) -> int:
    """Bitset of the vertices u (the row's own vertex included) with
    sum_e min(row[e], rows[u][e], levels) >= t.

    The row occupies exactly the columns (e, j < row[e]) and its
    intersection with u is the number of those columns that contain u.  A
    saturating ladder counts that per u: after all of the row's columns,
    ge[i] holds the u met at least i+1 times."""
    ge = [0] * t
    for e, c in enumerate(row):
        for col in columns[e][:c]:
            for i in range(t - 1, 0, -1):
                ge[i] |= ge[i - 1] & col
            ge[0] |= col
    return ge[-1]


def _compatibility(rows, columns, t: int) -> list[int]:
    """The full ladder: row v = bitset of u != v meeting v at least t
    times, in the order of `rows` (the order `columns` was built in)."""
    return [_meeting(columns, row, t) & ~(1 << v) for v, row in enumerate(rows)]


def _branching_order(rows, columns, t: int) -> tuple[list[int], list[int]]:
    """Vertices by descending compatibility degree, rank breaking ties, and
    the bitset of each multiplicity type's vertices in that order.
    Permuting [m] is an automorphism of every graph kind, so vertices of
    one type share a degree: one ladder row per type is enough."""
    types: dict[tuple[int, ...], tuple[int, int]] = {}  # shape: (number, -degree)
    type_of = []
    key = []
    for v, row in enumerate(rows):
        shape = tuple(sorted(row))
        entry = types.get(shape)
        if entry is None:
            d = (_meeting(columns, row, t) & ~(1 << v)).bit_count()
            entry = types[shape] = (len(types), -d)
        type_of.append(entry[0])
        key.append(entry[1])
    # one type: every key ties and the stable sort keeps rank order
    to_old = sorted(range(len(rows)), key=key.__getitem__)
    orbits = [0] * len(types)
    for i, v in enumerate(to_old):
        orbits[type_of[v]] |= 1 << i
    return to_old, orbits
