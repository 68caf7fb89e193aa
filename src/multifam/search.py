"""Exact desk-scale extremal searches over disjointness graphs.

The workhorse is a branch-and-bound maximum-clique search run on the
complement of a disjointness graph (a clique there is an intersecting
family).  Candidate sets are Python integers used as bitsets, so the inner
set operations are word-parallel AND / ANDNOT.  Vertices are ordered by
descending degree with rank as the tie-break, so every run is
deterministic: optima, witnesses and node counts never vary.  The graph
builder hands the searches their rows already in that order (the graph's
`ordered` view, cached per graph object; see the graphs module), so no
search renumbers a graph; only the G □ K₂ product below, which the builder
does not make, is sorted and relabelled here.

The upper bound is a greedy sequential colouring of the candidate set,
trimmed as in MCS (Tomita et al. 2010) and masked with precomputed rows as
in BBMC (San Segundo et al. 2011): each solver keeps free[v], the vertices
that may share a colour class with v, so a class grows by one AND per
vertex.  Every search colours through one kernel,
_greedy_color(p_mask, free, kmin, cap), which returns only the suffix of
the colour order whose bound is at least kmin = best - |R| + 1: a vertex
with a lower bound can never lead to a clique that beats the incumbent, so
it is never branched on, and a class that cannot reach kmin is walked
without being listed.  Each class adds one to the bound for each of its
first `cap` vertices: cap = 1 is the colour number, cap = s the P(s,1)
capacity bound below.

Constrained variants:

  * families whose common intersection must end below a cardinality limit
    (maximum intersecting family with empty common intersection; maximum
    t-intersecting family with no common t-multiset) branch first on which
    member breaks the common core, one orbit of the permutations of [m]
    fixing the chosen members at a time, then fall back to plain expansion
    once the core is small enough.  The constraint and every candidate set
    are invariant under those permutations, so a completion through any
    member of an orbit maps onto one through its first member; the orbits
    are read off the members' counts on classes of equal signature;
  * P(s,1) families (no s+1 pairwise disjoint members) are cliques of
    the complement in which a candidate leaves once it would close an
    (s+1)-clique of G; a colour class of the complement is a clique of G,
    so the bound counts at most s vertices from each;
  * unions of two intersecting families are the largest independent sets
    of G □ K₂ (one copy of G per side, the two copies of a vertex joined),
    found as cliques of its complement.

Clique expansion is one loop over an explicit stack, so search depth is
bounded by memory, not by the interpreter's recursion limit.  Every graph
kind is invariant under permuting [m], so the MIS, clique-free and
orbit-enumeration searches run one orbital front ahead of that loop, also
on an explicit stack: a front node branches one orbit of the permutations
of [m] fixing the chosen members at a time, with the same orbit keys as
the small-core front end, and hands a node to the plain loop once every
candidate orbit is a single vertex.  The root orbits are the multiplicity
types the graph builder already sorted the vertices by.  A search needs
one optimum only up to those permutations, and a uniqueness verdict one
optimum from each isomorphism class.  Enumerating all optima runs on the
plain loop alone: the incumbent is held at one below the proved optimum
and each leaf is recorded instead of adopted.  The G □ K₂ product has no
multiplicity rows and also runs on the plain loop.

Every search re-validates its witness against the raw pairwise predicate,
independent of the adjacency structure, and honest node-limit reporting
replaces any silent truncation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul

from .core import (
    MULTISET,
    ContractError,
    Family,
    common_intersection,
    has_property_p_s1,
    is_support_t_intersecting,
    is_t_intersecting,
    multiset_rank,
)
from .graphs import (
    KIND_KNESER,
    KIND_KNESER_T,
    KIND_MULTISET_DISJOINT,
    KIND_MULTISET_SUPPORT_T,
    KIND_MULTISET_T,
    DisjointnessGraph,
    _bits,
    build_graph,
)

PROVED_OPTIMAL = "proved_optimal"
NODE_LIMIT_HIT = "node_limit_hit"


@dataclass
class SearchResult:
    optimum: int
    witness: Family
    status: str
    nodes_explored: int

    @property
    def proved(self) -> bool:
        return self.status == PROVED_OPTIMAL


@dataclass
class EnumerationResult:
    optimum: int
    families: list[Family]
    complete: bool
    nodes_explored: int


class _Budget(Exception):
    pass


class _CapHit(Exception):
    pass


class _NodeCounter:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int | None):
        if limit is not None and limit < 1:
            raise ContractError(f"node limit must be at least 1, got {limit}")
        self.nodes = 0
        self.limit = limit

    def tick(self) -> None:
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise _Budget


def _greedy_color(
    p_mask: int, free: list[int], kmin: int, cap: int = 1
) -> tuple[list[int], list[int]]:
    """Greedy sequential colouring of the candidate set, trimmed at kmin.

    free[v] holds the vertices that may share a colour class with v (every
    vertex but v and its neighbours).  Classes are taken lowest index
    first, and each adds one to the running bound for each of its first
    `cap` vertices, so no clique inside the first i+1 vertices of the full
    order holds more than bounds[i] vertices in which each class counts at
    most `cap` times.  Returns the suffix of that order and its bounds
    whose bound is at least kmin; a class that cannot reach kmin is walked
    only to remove its vertices from the candidates still to colour."""
    order: list[int] = []
    bounds: list[int] = []
    bound = 0
    rest = p_mask
    while rest:
        avail = rest
        top = bound + cap
        if top < kmin:
            while avail:
                bit = avail & -avail
                rest ^= bit
                avail &= free[bit.bit_length() - 1]
                if bound < top:
                    bound += 1
            continue
        while avail:
            bit = avail & -avail
            v = bit.bit_length() - 1
            rest ^= bit
            avail &= free[v]
            if bound < top:
                bound += 1
            order.append(v)
            bounds.append(bound)
    # a listed class smaller than cap can still end below kmin
    cut = bisect_left(bounds, kmin)
    if cut:
        del order[:cut], bounds[:cut]
    return order, bounds


def _relabel(adj: list[int], order: list[int]) -> list[int]:
    """Adjacency renumbered so that new vertex i is old vertex order[i].

    Each row is permuted at C level: its n-bit string (most significant bit
    first, so character n-1-b is bit b) is reordered by one itemgetter."""
    n = len(adj)
    if not n:
        return []
    pick = itemgetter(*(n - 1 - order[n - 1 - p] for p in range(n)))
    width = f"0{n}b"
    return [int("".join(pick(format(adj[old], width))), 2) for old in order]


class _CliqueSearch:
    """Incumbent, node budget and the branch-and-bound clique loop
    (Tomita-style colouring bounds) shared by every search; a subclass
    supplies _search and may override the loop's steps _color, _children
    and _leaf."""

    def __init__(self, adj: list[int], node_limit: int | None):
        self.adj = adj
        full = (1 << len(adj)) - 1
        self.free = [full & ~(row | 1 << v) for v, row in enumerate(adj)]
        self.counter = _NodeCounter(node_limit)
        self.best = 0
        self.best_mask = 0

    def solve(self) -> tuple[int, int, int, bool]:
        """Returns (optimum, witness mask, nodes explored, limit_hit)."""
        limited = False
        try:
            self._search()
        except _Budget:
            limited = True
        return self.best, self.best_mask, self.counter.nodes, limited

    def _expand(self, r_size: int, r_mask: int, p_mask: int) -> None:
        """Extend the clique r (r_size members, r_mask) from the candidates
        p_mask.  Each stack frame is (r_size, r_mask, p_mask, colour order,
        colours, index); the index walks the trimmed order from its last
        vertex, the one with the highest colour, and the frame ends once the
        colour bound can no longer beat the incumbent or the order runs
        out."""
        color = self._color
        children = self._children
        tick = self.counter.tick
        stack = []
        tick()
        order, colors = color(p_mask, self.best - r_size + 1)
        i = len(order)
        while True:
            i -= 1
            if i < 0 or r_size + colors[i] <= self.best:
                if not stack:
                    return
                r_size, r_mask, p_mask, order, colors, i = stack.pop()
                continue
            v = order[i]
            bit = 1 << v
            new_p = children(r_mask, v, p_mask)
            p_mask &= ~bit
            if new_p:
                stack.append((r_size, r_mask, p_mask, order, colors, i))
                r_size += 1
                r_mask |= bit
                p_mask = new_p
                tick()
                order, colors = color(p_mask, self.best - r_size + 1)
                i = len(order)
            elif r_size + 1 > self.best:
                self._leaf(r_size + 1, r_mask | bit)

    def _color(self, p_mask: int, kmin: int) -> tuple[list[int], list[int]]:
        """Candidates in branching order with non-decreasing bounds, cut to
        the suffix whose bound is at least kmin: no clique among order[i]
        and the candidates coloured before it has more than colors[i]
        vertices.  A node with r_size chosen members passes kmin =
        best - r_size + 1, since a candidate whose bound is below it is
        never branched on."""
        return _greedy_color(p_mask, self.free, kmin)

    def _children(self, r_mask: int, v: int, p_mask: int) -> int:
        """The candidates left once v joins the clique r_mask."""
        return p_mask & self.adj[v]

    def _leaf(self, size: int, mask: int) -> None:
        """A clique the loop cannot extend that beats the incumbent."""
        self.best = size
        self.best_mask = mask


def _branching_rows(adj: list[int]) -> tuple[list[int], list[int]]:
    """A graph's rows in branching order (descending degree, index breaking
    ties) and to_old, for graphs the builder does not make."""
    order = sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))
    return _relabel(adj, order), order


def _orbit_masks(cls: tuple[int, ...], rows, vertices) -> dict[tuple, int]:
    """The vertices grouped by orbit under the permutations of [m] fixing
    every chosen member, in order of first appearance.  cls[e] numbers the
    signature class of element e under the chosen members, and a vertex's
    orbit key is the sorted list of its (class, multiplicity) pairs, each
    coded as multiplicity * m + class (cls[e] < m)."""
    scale = (len(cls),) * len(cls)
    orbits: dict[tuple, int] = {}
    for v in vertices:
        key = tuple(sorted(map(add, map(mul, rows[v], scale), cls)))
        orbits[key] = orbits.get(key, 0) | 1 << v
    return orbits


def _split(cls: tuple[int, ...], rows, mask: int) -> tuple[list[int], int]:
    """The orbits of two or more vertices of mask, and their union."""
    groups = []
    union = 0
    for o in _orbit_masks(cls, rows, _bits(mask)).values():
        if o & (o - 1):
            groups.append(o)
            union |= o
    return groups, union


def _refine(cls: tuple[int, ...], row) -> tuple[int, ...]:
    """cls once one more member with multiplicities `row` is chosen: two
    elements keep one class iff they shared one and row agrees on them."""
    pairs = list(zip(cls, row))
    rank = {pair: i for i, pair in enumerate(sorted(set(pairs)))}
    return tuple(rank[pair] for pair in pairs)


class _MaxCliqueSolver(_CliqueSearch):
    """Exact maximum clique on rows already in branching order; new vertex
    i is vertex to_old[i] of the caller's graph.

    Given each vertex's multiplicity row (counts) and the orbits of the
    permutations of [m] (orbits, one bitset per multiplicity type), for a
    graph invariant under permuting [m], the search branches on orbits
    (Ostrowski, Linderoth, Rossi & Smriglio 2011) in a front ahead of the
    shared loop; without them it is the plain loop.  A front node (chosen
    members r, candidates p) carries cls, the signature classes of the
    elements under r, so a candidate's orbit under the permutations fixing
    every member of r is read off _orbit_masks.  The node walks the colour
    order from the top as _expand does, trimmed and bounded against the
    current incumbent in the same way, branches on each vertex not yet
    barred and then bars its whole orbit.  p stays a union of orbits, so a
    clique through any member of an orbit maps onto one through the vertex
    branched on.  Once every candidate orbit is a singleton nothing is left
    to prune: a child with no orbit of two candidates is handed to _expand,
    and a node whose split leaves none branches as _expand would.  Orbits
    are split only at a node that has colours to branch on."""

    def __init__(
        self,
        adj: list[int],
        to_old: list[int],
        node_limit: int | None = None,
        counts: list[tuple[int, ...]] | None = None,
        orbits: list[int] | None = None,
    ):
        self.n = len(adj)
        self.to_old = to_old
        self.counts = counts
        self.orbits = orbits
        super().__init__(adj, node_limit)

    def _seed_greedy(self) -> None:
        chosen = 0
        size = 0
        cand = (1 << self.n) - 1
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand = self._children(chosen, v, cand)
            chosen |= bit
            size += 1
        self.best = size
        self.best_mask = chosen

    def _search(self) -> None:
        self._seed_greedy()
        if self.n:
            self._root()

    def _root(self) -> None:
        p_mask = (1 << self.n) - 1
        groups = [o for o in self.orbits or () if o & (o - 1)]
        if groups:
            self._front(p_mask, groups)
        else:
            self._expand(0, 0, p_mask)

    def _front(self, p_mask: int, groups: list[int]) -> None:
        """The orbital front from the root.  A node keeps `groups`, its
        candidate orbits of two or more vertices, and `grouped`, their
        union; every other candidate is an orbit by itself.  A child keeps
        the groups that still hold two or more of its candidates, and
        splits them only when its cls is finer.  Each stack frame is
        (r_size, r_mask, cls, p_mask, groups, grouped, colour order,
        colours, index), walked as _expand walks its frames."""
        rows = self.counts
        color = self._color
        children = self._children
        tick = self.counter.tick
        r_size, r_mask, cls = 0, 0, (0,) * len(rows[0])
        grouped = 0
        for o in groups:
            grouped |= o
        stack = []
        tick()
        order, colors = color(p_mask, self.best - r_size + 1)
        i = len(order)
        while True:
            i -= 1
            if i < 0 or r_size + colors[i] <= self.best:
                if not stack:
                    return
                r_size, r_mask, cls, p_mask, groups, grouped, order, colors, i = stack.pop()
                continue
            v = order[i]
            bit = 1 << v
            if not p_mask & bit:
                continue  # barred with an earlier branch's orbit
            new_p = children(r_mask, v, p_mask)
            if grouped & bit:
                for o in groups:
                    if o & bit:
                        p_mask &= ~o
                        break
            else:
                p_mask ^= bit
            if not new_p:
                if r_size + 1 > self.best:
                    self._leaf(r_size + 1, r_mask | bit)
                continue
            kept = []
            child_grouped = 0
            for o in groups:
                o &= new_p
                if o & (o - 1):
                    kept.append(o)
                    child_grouped |= o
            if not kept:
                self._expand(r_size + 1, r_mask | bit, new_p)
                continue
            stack.append((r_size, r_mask, cls, p_mask, groups, grouped, order, colors, i))
            r_size += 1
            r_mask |= bit
            p_mask = new_p
            tick()
            order, colors = color(p_mask, self.best - r_size + 1)
            i = len(order)
            if not order:
                continue  # nothing to branch on: the orbits are not needed
            child_cls = _refine(cls, rows[v])
            if child_cls != cls:
                cls = child_cls
                kept, child_grouped = _split(cls, rows, child_grouped)
            groups = kept
            grouped = child_grouped

    def solve(self) -> tuple[int, int, int, bool]:
        """As _CliqueSearch.solve, the witness in original indexing."""
        best, mask, nodes, limited = super().solve()
        return best, self._remap(mask), nodes, limited

    def _remap(self, mask: int) -> int:
        out = 0
        for v in _bits(mask):
            out |= 1 << self.to_old[v]
        return out


class _CliqueEnumerator(_MaxCliqueSolver):
    """Every clique of the clique number `target`, on the shared loop; with
    counts and orbits, at least one from every class under the
    permutations of [m], through the orbital front.

    The incumbent stays at target - 1, so the colour bound keeps exactly
    the branches that can still reach target, and a leaf is recorded
    instead of adopted.  The loop drops each branched vertex from its later
    siblings, so every clique is reached by one path."""

    def enumerate_target(self, target: int, cap: int | None) -> tuple[list[int], bool, int]:
        """All cliques of `target` vertices, up to `cap`; returns (masks in
        original indexing, complete, nodes).  `target` must be the clique
        number: a larger clique is a contract error."""
        self.found: list[int] = []
        self.cap = cap
        self.target = target
        self.best = target - 1
        complete = True
        try:
            if self.n:
                self._root()
            elif target == 0:
                self.found.append(0)  # the empty clique of the empty graph
        except (_CapHit, _Budget):
            complete = False
        return [self._remap(m) for m in self.found], complete, self.counter.nodes

    def _leaf(self, size: int, mask: int) -> None:
        if size > self.target:
            raise ContractError(
                f"target {self.target} is below the clique number: found {size}"
            )
        self.found.append(mask)
        if self.cap is not None and len(self.found) >= self.cap:
            raise _CapHit


def _complement_adj(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(adj)]


def _validate_witness(graph: DisjointnessGraph, fam: Family) -> None:
    if graph.kind in (KIND_KNESER, KIND_MULTISET_DISJOINT):
        ok = is_t_intersecting(fam, 1)
    elif graph.kind in (KIND_KNESER_T, KIND_MULTISET_T):
        ok = is_t_intersecting(fam, graph.t)
    else:
        ok = is_support_t_intersecting(fam, graph.t)
    if not ok:
        raise RuntimeError("internal error: witness fails the raw pairwise predicate")


def max_independent_set(graph: DisjointnessGraph, node_limit: int | None = None) -> SearchResult:
    """Exact maximum independent set (= largest intersecting family for the
    graph's threshold).  The optimum, witness and node count are
    deterministic."""
    view = graph.ordered
    solver = _MaxCliqueSolver(view.rows, view.to_old, node_limit, view.counts, view.orbits)
    best, mask, nodes, limited = solver.solve()
    witness = graph.family_from_mask(mask)
    _validate_witness(graph, witness)
    status = NODE_LIMIT_HIT if limited else PROVED_OPTIMAL
    return SearchResult(best, witness, status, nodes)


def enumerate_maximum_independent_sets(
    graph: DisjointnessGraph,
    cap: int | None = 10000,
    node_limit: int | None = None,
    optimum: int | None = None,
) -> EnumerationResult:
    """All maximum independent sets (up to `cap`), for uniqueness-class
    analysis.  complete=False flags a truncated enumeration."""
    nodes_total = 0
    if optimum is None:
        base = max_independent_set(graph, node_limit)
        if not base.proved:
            return EnumerationResult(base.optimum, [base.witness], False, base.nodes_explored)
        optimum = base.optimum
        nodes_total = base.nodes_explored
    view = graph.ordered
    solver = _CliqueEnumerator(view.rows, view.to_old, node_limit)
    masks, complete, nodes = solver.enumerate_target(optimum, cap)
    return EnumerationResult(optimum, _validated(graph, masks), complete, nodes_total + nodes)


def enumerate_optimum_orbits(
    graph: DisjointnessGraph,
    optimum: int,
    cap: int | None = 10000,
    node_limit: int | None = None,
) -> EnumerationResult:
    """At least one maximum independent set from every isomorphism class
    (up to `cap` sets), for a proved `optimum`; isomorphic sets may repeat.
    complete=False flags a truncated enumeration."""
    view = graph.ordered
    solver = _CliqueEnumerator(view.rows, view.to_old, node_limit, view.counts, view.orbits)
    masks, complete, nodes = solver.enumerate_target(optimum, cap)
    return EnumerationResult(optimum, _validated(graph, masks), complete, nodes)


def _validated(graph: DisjointnessGraph, masks: list[int]) -> list[Family]:
    families = []
    for mask in masks:
        fam = graph.family_from_mask(mask)
        _validate_witness(graph, fam)
        families.append(fam)
    return families


# ---------------------------------------------------------------------------
# constrained search: common core below a cardinality limit
# ---------------------------------------------------------------------------

class _SmallCoreSolver(_CliqueSearch):
    """Maximum pairwise t_pair-intersecting multiset family whose common
    intersection ends with cardinality below core_limit.

    While the running core is still too large, branching is over which
    member first shrinks it, one orbit of such members at a time under the
    permutations of [m] fixing every chosen member: branch i takes the
    first member of orbit i and bars orbits 1..i-1 whole.  The candidate
    set at every node is invariant under those permutations (the rows,
    the core and the barred orbits all are), so a completion that meets
    orbit i first maps onto one holding its first member.  Once the core
    drops below the limit it can never grow again and the shared clique
    loop takes over on the compatibility rows."""

    def __init__(
        self,
        counts: list[tuple[int, ...]],
        compat: list[int],
        core_limit: int,
        node_limit: int | None,
    ):
        super().__init__(compat, node_limit)
        self.counts = counts
        self.limit = core_limit

    def solve(self, seed_mask: int = 0) -> tuple[int, int, int, bool]:
        self.best = seed_mask.bit_count()
        self.best_mask = seed_mask
        return super().solve()

    def _search(self) -> None:
        n = len(self.counts)
        if n:
            self._dfs(0, 0, None, (0,) * len(self.counts[0]), (1 << n) - 1)

    def _dfs(self, r_size: int, r_mask: int, core, cls: tuple[int, ...], p_mask: int) -> None:
        """One front-end node: cls[e] numbers the signature class of
        element e, so elements share a class iff every chosen member has
        the same count at both."""
        self.counter.tick()
        if core is not None and sum(core) < self.limit:
            if r_size > self.best:
                self._leaf(r_size, r_mask)
            self._expand(r_size, r_mask, p_mask)
            return
        if not p_mask:
            return
        # colouring runs on the compatibility graph itself: colour classes
        # are pairwise-incompatible sets, so #colours bounds the family size;
        # an empty trimmed order means no candidate can beat the incumbent
        if not self._color(p_mask, self.best - r_size + 1)[0]:
            return
        if core is not None and not self._core_fixable(core, p_mask):
            return
        banned = 0
        for orbit in _orbit_masks(cls, self.counts, self._reducers(core, p_mask)).values():
            v = (orbit & -orbit).bit_length() - 1
            cv = self.counts[v]
            new_core = cv if core is None else tuple(map(min, core, cv))
            child_p = p_mask & self.adj[v] & ~banned
            self._dfs(r_size + 1, r_mask | 1 << v, new_core, _refine(cls, cv), child_p)
            banned |= orbit

    def _core_fixable(self, core, p_mask: int) -> bool:
        """Even including every remaining candidate, can the core drop
        below the limit?"""
        ach = list(core)
        total = sum(ach)
        if total < self.limit:
            return True
        for v in _bits(p_mask):
            cv = self.counts[v]
            changed = False
            for idx, c in enumerate(ach):
                if cv[idx] < c:
                    total -= c - cv[idx]
                    ach[idx] = cv[idx]
                    changed = True
            if changed and total < self.limit:
                return True
        return total < self.limit

    def _reducers(self, core, p_mask: int) -> list[int]:
        if core is None:
            return list(_bits(p_mask))
        out = []
        for v in _bits(p_mask):
            cv = self.counts[v]
            if any(x < c for c, x in zip(core, cv)):
                out.append(v)
        return out


def _seed_mask_for(seed: Family | None, m: int, k: int, t_pair: int, core_limit: int) -> int:
    if seed is None:
        return 0
    if seed.kind != MULTISET or seed.m != m or seed.k != k:
        raise ContractError("seed family does not match the search universe")
    if not is_t_intersecting(seed, t_pair):
        raise ContractError("seed family is not pairwise compatible")
    if len(seed) and common_intersection(seed).cardinality >= core_limit:
        raise ContractError("seed family violates the common-core constraint")
    mask = 0
    for a in seed.members:
        mask |= 1 << multiset_rank(a)
    return mask


def _small_core_search(
    m: int,
    k: int,
    t_pair: int,
    core_limit: int,
    node_limit: int | None,
    seed: Family | None,
) -> SearchResult:
    graph = build_graph(KIND_MULTISET_T, m, k, t_pair)
    counts = graph.multiplicities
    seed_mask = _seed_mask_for(seed, m, k, t_pair, core_limit)
    solver = _SmallCoreSolver(counts, _complement_adj(graph.adj), core_limit, node_limit)
    best, mask, nodes, limited = solver.solve(seed_mask)
    witness = graph.family_from_mask(mask)
    if not is_t_intersecting(witness, t_pair):
        raise RuntimeError("internal error: witness fails pairwise compatibility")
    if len(witness) and common_intersection(witness).cardinality >= core_limit:
        raise RuntimeError("internal error: witness violates the core constraint")
    status = NODE_LIMIT_HIT if limited else PROVED_OPTIMAL
    return SearchResult(best, witness, status, nodes)


def max_intersecting_empty_common(
    m: int,
    k: int,
    node_limit: int | None = None,
    seed: Family | None = None,
) -> SearchResult:
    """Largest intersecting family of k-multisets of [m] whose common
    intersection is empty.  A verified seed family may provide the initial
    incumbent; it never changes the optimum."""
    if k < 1 or m < 1:
        raise ContractError(f"need m, k >= 1, got ({m}, {k})")
    return _small_core_search(m, k, 1, 1, node_limit, seed)


def max_t_intersecting_nontrivial(
    m: int,
    k: int,
    t: int,
    node_limit: int | None = None,
    seed: Family | None = None,
) -> SearchResult:
    """Largest t-intersecting family of k-multisets whose common
    intersection has cardinality below t."""
    if not 1 <= t <= k:
        raise ContractError(f"need 1 <= t <= k, got t={t}, k={k}")
    return _small_core_search(m, k, t, t, node_limit, seed)


# ---------------------------------------------------------------------------
# clique-free induced subgraphs: P(s,1) families
# ---------------------------------------------------------------------------

class _CliqueFreeSolver(_MaxCliqueSolver):
    """Maximum vertex subset of G whose induced subgraph has no
    (s+1)-clique, for s >= 2, as a clique search on the complement rows.

    A greedy colour class of the complement is a clique of G, so at most s
    of its vertices can be chosen: the colour bound counts min(|class|, s)
    per class (the colouring kernel with cap = s).  A candidate leaves when it would close an (s+1)-clique of G
    with the new member and s-1 chosen ones."""

    def __init__(
        self,
        adj: list[int],
        to_old: list[int],
        s: int,
        node_limit: int | None,
        counts: list[tuple[int, ...]] | None = None,
        orbits: list[int] | None = None,
    ):
        super().__init__(adj, to_old, node_limit, counts, orbits)
        self.s = s

    def _color(self, p_mask: int, kmin: int) -> tuple[list[int], list[int]]:
        return _greedy_color(p_mask, self.free, kmin, self.s)

    def _children(self, r_mask: int, v: int, p_mask: int) -> int:
        """Drop each G-neighbour w of v that is G-adjacent to every vertex
        of some (s-1)-clique of G among v's chosen G-neighbours.  Those
        cliques are walked on an explicit stack of (vertices still to try,
        candidates adjacent to every vertex taken, vertices still needed)
        frames; the last vertex of a clique is closed without a push."""
        g = self.free  # the free rows of the complement are G's rows
        alive = p_mask & g[v]
        stack = [(r_mask & g[v], alive, self.s - 1)]
        while stack:
            cand, common, need = stack.pop()
            common &= alive
            if not common or cand.bit_count() < need:
                continue
            if need == 1:
                while cand and common:
                    bit = cand & -cand
                    cand ^= bit
                    hit = common & g[bit.bit_length() - 1]
                    common ^= hit
                    alive ^= hit
                continue
            bit = cand & -cand
            cand ^= bit
            u = bit.bit_length() - 1
            stack.append((cand, common, need))
            stack.append((cand & g[u], common & g[u], need - 1))
        return p_mask & self.adj[v] | alive


def clique_free_search(graph: DisjointnessGraph, s: int, node_limit: int | None = None) -> SearchResult:
    """Largest vertex subset of a disjointness graph inducing no
    (s+1)-clique, i.e. the largest P(s,1) family for that universe."""
    if s < 1:
        raise ContractError(f"s must be >= 1, got {s}")
    if s == 1:
        return max_independent_set(graph, node_limit)
    view = graph.ordered
    solver = _CliqueFreeSolver(view.rows, view.to_old, s, node_limit, view.counts, view.orbits)
    best, mask, nodes, limited = solver.solve()
    witness = graph.family_from_mask(mask)
    if not has_property_p_s1(witness, s):
        raise RuntimeError("internal error: witness fails the P(s,1) predicate")
    status = NODE_LIMIT_HIT if limited else PROVED_OPTIMAL
    return SearchResult(best, witness, status, nodes)


def max_p_s1_family(m: int, k: int, s: int, node_limit: int | None = None) -> SearchResult:
    """Largest family of k-multisets of [m] in which no s+1 members are
    pairwise disjoint.  s=1 delegates to the independent-set search."""
    graph = build_graph(KIND_MULTISET_DISJOINT, m, k)
    return clique_free_search(graph, s, node_limit)


# ---------------------------------------------------------------------------
# induced bipartite subgraphs: unions of two intersecting families
# ---------------------------------------------------------------------------

def _max_induced_bipartite(
    adj: list[int], node_limit: int | None
) -> tuple[int, tuple[int, int], int, bool]:
    """Largest induced bipartite subgraph of G as a maximum clique of the
    complement of G □ K₂; returns (size, (side one, side two) masks, nodes
    explored, limit_hit).

    Side one holds vertex v at index v, side two holds vertex v >= 1 at
    n + v - 1: some optimum keeps vertex 0 off side two (swap the sides
    otherwise), so its side-two copy is dropped.  Copies on one side are
    joined when the vertices are distinct and non-adjacent in G, copies on
    opposite sides when the vertices are distinct."""
    n = len(adj)
    full = (1 << n) - 1
    rows = []
    for v in range(n):
        others = full & ~(1 << v)
        rows.append(others & ~adj[v] | others >> 1 << n)
    for v in range(1, n):
        others = full & ~(1 << v)
        rows.append(others | (others & ~adj[v]) >> 1 << n)
    best, mask, nodes, limited = _MaxCliqueSolver(*_branching_rows(rows), node_limit).solve()
    return best, (mask & full, mask >> n << 1), nodes, limited


def induced_bipartite_search(graph: DisjointnessGraph, node_limit: int | None = None) -> SearchResult:
    """Largest vertex subset of a disjointness graph inducing a bipartite
    subgraph; the two colour classes are two intersecting families."""
    best, (a_mask, b_mask), nodes, limited = _max_induced_bipartite(graph.adj, node_limit)
    side_a = graph.family_from_mask(a_mask)
    side_b = graph.family_from_mask(b_mask)
    if not (is_t_intersecting(side_a, 1) and is_t_intersecting(side_b, 1)):
        raise RuntimeError("internal error: a side of the witness is not intersecting")
    witness = graph.family_from_mask(a_mask | b_mask)
    status = NODE_LIMIT_HIT if limited else PROVED_OPTIMAL
    return SearchResult(best, witness, status, nodes)


def max_union_two_intersecting(m: int, k: int, node_limit: int | None = None) -> SearchResult:
    """Largest union of two intersecting families of k-multisets of [m]
    (equivalently, the largest induced bipartite subgraph of M(m,k))."""
    graph = build_graph(KIND_MULTISET_DISJOINT, m, k)
    return induced_bipartite_search(graph, node_limit)


# ---------------------------------------------------------------------------
# t-intersecting searches and the structural threshold
# ---------------------------------------------------------------------------

TRUE_INTERSECTION = "true_intersection"
SUPPORT_INTERSECTION = "support_intersection"


def max_t_intersecting(
    m: int,
    k: int,
    t: int,
    node_limit: int | None = None,
    mode: str = TRUE_INTERSECTION,
) -> SearchResult:
    """Largest family of k-multisets with pairwise |A ∩ B| >= t, counting
    multiplicity (true mode) or distinct support overlap (support mode)."""
    if mode not in (TRUE_INTERSECTION, SUPPORT_INTERSECTION):
        raise ContractError(f"unknown mode {mode!r}")
    kind = KIND_MULTISET_T if mode == TRUE_INTERSECTION else KIND_MULTISET_SUPPORT_T
    graph = build_graph(kind, m, k, t)
    return max_independent_set(graph, node_limit)


@dataclass(frozen=True)
class AkThreshold:
    """Structural parameter r for the t-intersecting maximum at n = m+k-1.

    boundary=True means n sits exactly on the threshold between r and r+1,
    where the two candidate families have equal size; `tied` then carries
    the pair."""

    r: int
    boundary: bool
    tied: tuple[int, int] | None


def ak_threshold_r(m: int, k: int, t: int) -> AkThreshold:
    """Locate n = m+k-1 within the open threshold intervals
    (k-t+1)(2 + (t-1)/(r+1)) < n < (k-t+1)(2 + (t-1)/r), evaluated in exact
    rational arithmetic ((t-1)/r is taken as infinity for r = 0).

    Requires m > k-t+1 so that n > 2k-t and the classification applies.
    """
    if t < 1 or k < t:
        raise ContractError(f"need 1 <= t <= k, got t={t}, k={k}")
    if m <= k - t + 1:
        raise ContractError(
            f"need m > k-t+1 (i.e. n > 2k-t), got m={m}, k={k}, t={t}"
        )
    n = m + k - 1
    for r in range(0, k - t + 1):
        lower = (k - t + 1) * (2 + Fraction(t - 1, r + 1))
        if n == lower:
            return AkThreshold(r, True, (r, r + 1))
        if r == 0:
            if n > lower:
                return AkThreshold(0, False, None)
        else:
            upper = (k - t + 1) * (2 + Fraction(t - 1, r))
            if lower < n < upper:
                return AkThreshold(r, False, None)
    raise RuntimeError(
        f"internal error: no structural r found for m={m}, k={k}, t={t}"
    )
