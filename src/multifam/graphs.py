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
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class DisjointnessGraph:
    """Adjacency-over-ranks view of one universe; immutable in practice."""

    kind: str
    m: int
    k: int
    t: int
    family_kind: str
    vertices: tuple
    adj: list[int]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

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
    vertex cap.  Vertex order is the enumeration (= rank) order."""
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
    # only M(m,k,t) counts multiplicity; the other kinds compare supports
    levels = k if kind == KIND_MULTISET_T else 1
    adj = _below_t_adjacency(multiplicity_rows(vertices), m, levels, t)
    return DisjointnessGraph(kind, m, k, t, family_kind, vertices, adj)


def _below_t_adjacency(rows, m: int, levels: int, t: int) -> list[int]:
    """adj[v] = bitset of u != v with sum_e min(rows[v][e], rows[u][e],
    levels) < t.

    columns[e][j] holds the vertices whose multiplicity at e exceeds j, so v
    occupies exactly the columns (e, j < rows[v][e]) and |v ∩ u| is the
    number of v's columns that contain u.  A saturating ladder counts that
    per u: after all of v's columns, ge[i] holds the u met at least i+1
    times, and ge[t-1] is everything at or above the threshold."""
    columns = [[0] * levels for _ in range(m)]
    for v, row in enumerate(rows):
        bit = 1 << v
        for e, c in enumerate(row):
            col = columns[e]
            for j in range(c if c < levels else levels):
                col[j] |= bit
    full = (1 << len(rows)) - 1
    adj = []
    for v, row in enumerate(rows):
        ge = [0] * t
        for e, c in enumerate(row):
            for col in columns[e][:c]:
                for i in range(t - 1, 0, -1):
                    ge[i] |= ge[i - 1] & col
                ge[0] |= col
        adj.append(full & ~ge[-1] & ~(1 << v))
    return adj
