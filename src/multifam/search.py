"""Exact desk-scale extremal searches over disjointness graphs.

The workhorse is a branch-and-bound maximum-clique search run on the
complement of a disjointness graph (a clique there is an intersecting
family).  Candidate sets are Python integers used as bitsets, so the inner
set operations are word-parallel AND / ANDNOT.  Vertices are ordered by
descending degree with rank as the tie-break, so every run is
deterministic: optima, witnesses and node counts never vary.  The graph
builder hands the searches their rows already in that order (the graph's
`ordered` view, cached per graph object; see the graphs module), so no
search renumbers a graph.  Every solver takes that one BranchingView, and
the G □ K₂ product below is built as a view straight from it.

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

  * families whose common intersection must end below the caller's graph's
    t (on M_t(m,k,t), the maximum t-intersecting family with no common
    t-multiset; on M(m,k), t = 1, the maximum intersecting family with
    empty common intersection) carry the running core through the
    orbital loop below and, while it is still too large, branch only on
    the members that shrink it;
  * P(s,1) families (no s+1 pairwise disjoint members) are cliques of
    the complement in which a candidate leaves once it would close an
    (s+1)-clique of G; a colour class of the complement is a clique of G,
    so the bound counts at most s vertices from each;
  * unions of two intersecting families are the largest independent sets
    of G □ K₂ (one copy of G per side, the two copies of a vertex joined),
    found as cliques of its complement.

Clique expansion is one loop over an explicit stack, so search depth is
bounded by memory, not by the interpreter's recursion limit.  Every graph
kind is invariant under permuting [m], so every search but the full
enumeration of optima branches on orbits in that loop: a node branches one
orbit of the permutations of [m] fixing the chosen members at a time.  Two
members lie in one orbit when they hold the same multiset of counts on
each class of elements the chosen members cannot tell apart, so no group
computation is needed.  The root orbits are the multiplicity types the
graph builder already sorted the vertices by; the G □ K₂ product adds the
side swap to the group through two marker elements.  A child's orbits are
its parent's, cut by bitsets: when the member just chosen splits a class
into parts, each orbit is cut by the bitsets "at least i elements of the
part hold more than j" read off the graph's per-element count columns
(_cut), never by a key per vertex.  A node none of whose candidate
orbits holds two vertices only walks its colour order, as every node does
on a view with no orbits: the plain loop.  A search needs one optimum only
up to those permutations, and a uniqueness verdict one optimum from each
isomorphism class.  Enumerating all optima runs the plain loop, the
graph's view with its orbits dropped: the incumbent is held at one below
the proved optimum and each leaf is recorded instead of adopted.

The incumbent a search starts from is its seed, an explicit extremal
family the caller hands over (verify passes each theorem's construction),
or a greedy clique when that is strictly larger; with no seed it is the
greedy clique.  The seed is checked once against the raw pairwise
predicate and refused if it fails or comes from another universe.

Every family a search returns passes the raw pairwise predicate, read off
its members independent of the adjacency structure (for P(s,1), on the
graph's own pair rule), exactly once: a witness that is still the seed's
mask is the checked seed itself, and any other witness is decoded and
checked.  Honest node-limit reporting replaces any silent truncation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ContractError,
    Family,
    _clique_free,
    common_intersection,
    multiplicity_rows,
)
from .graphs import (
    KIND_MULTISET_DISJOINT,
    KIND_MULTISET_SUPPORT_T,
    KIND_MULTISET_T,
    BranchingView,
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


def _refine(cls: tuple[int, ...], row) -> tuple[tuple[int, ...], list[list[int]]]:
    """(cls once one more member with multiplicities `row` is chosen, the
    parts to cut the orbits on).  Two elements keep one class iff they
    shared one and row agrees on them, and classes are numbered by rank of
    (old class, count).  A class that splits breaks into one part per
    count row holds on it; every part but the class's last is listed, in
    ascending element order.  No part is listed when no class splits, and
    cls is then returned as it is."""
    pairs = list(zip(cls, row))
    keys = set(pairs)
    if len(keys) == len(set(cls)):
        return cls, []
    keys = sorted(keys)
    rank = {key: i for i, key in enumerate(keys)}
    child = tuple(map(rank.__getitem__, pairs))
    parts: list[list[int]] = [[] for _ in keys]
    for e, i in enumerate(child):
        parts[i].append(e)
    return child, [parts[i] for i in range(len(keys) - 1) if keys[i][0] == keys[i + 1][0]]


def _cut(
    groups: list[int], parts: list[list[int]], columns: list[list[int]]
) -> tuple[list[int], int]:
    """The orbits of two or more vertices left once the groups, orbits
    under the old classes, are cut by the parts _refine listed; and their
    union.  Vertices of one group agree on the multiset of their counts
    over each old class C.  Under the new classes they must also agree on
    it over every part P of C, and agreeing on all parts but one fixes the
    last.  The multiset over P is fixed by N_j = #{e in P : count > j} for
    each level j, so each group is cut by the bitsets "N_j >= i" of every
    listed part: columns[e][j] itself for a part of one element, and for a
    larger part the rungs of a saturating ladder over its columns at that
    level.  A part's levels stop at the first at which no grouped vertex
    exceeds j; the columns are nested in j, so every later level is empty
    too.  A piece of one vertex is an orbit by itself and is dropped."""
    grouped = 0
    for g in groups:
        grouped |= g
    for part in parts:
        for j in range(len(columns[part[0]])):
            rungs: list[int] = []  # rungs[i]: above j at i+1 or more elements of P seen
            for e in part:
                col = columns[e][j]
                # the new top rung reads the old top before the lower rungs move
                rungs.append(rungs[-1] & col if rungs else col)
                for i in range(len(rungs) - 2, 0, -1):
                    rungs[i] |= rungs[i - 1] & col
                if len(rungs) > 1:
                    rungs[0] |= col
            if not rungs[0] & grouped:
                break
            for b in rungs:
                if not b & grouped:
                    break  # the rungs are nested: none above holds a grouped vertex
                if not grouped & ~b:
                    continue
                kept = []
                for g in groups:
                    h = g & b
                    if not h or h == g:
                        kept.append(g)
                        continue
                    for piece in (h, g ^ h):
                        if piece & (piece - 1):
                            kept.append(piece)
                        else:
                            grouped ^= piece
                groups = kept
                if not groups:
                    return groups, 0
    return groups, grouped


class _MaxCliqueSolver:
    """Exact maximum clique on a BranchingView: rows already in branching
    order, new vertex i being vertex to_old[i] of the caller's graph.  It
    holds the incumbent, the node budget and the one branch-and-bound loop
    _front (Tomita-style colouring bounds); a subclass may override the
    loop's steps _color, _children and _leaf.

    The incumbent starts at `seed`, a clique given as a bitset of branching
    slots (a validated construction, or none), or at a greedy clique when
    that is strictly larger.  A strong seed shrinks the tree (Batsyn,
    Goldengorin, Maslov & Pardalos 2014) and never changes the optimum:
    the loop still proves that nothing beats it.

    Through the view's multiplicity rows (counts) and its orbits of the
    permutations of [m] (one bitset per multiplicity type), for a graph
    invariant under permuting [m], the loop branches on orbits
    (Ostrowski, Linderoth, Rossi & Smriglio 2011).  A node (chosen members
    r, candidates p) carries cls, the signature classes of the elements
    under r, and its candidate orbits under the permutations fixing every
    member of r.  A child's orbits are its parent's, cut on the parts of
    the classes its new member splits (_refine, _cut) through the view's
    count columns (columns[e][j] is the bitset of vertices whose count at
    e exceeds j).  The root classes are all one unless `cls` gives others:
    the G □ K₂ product keeps its side markers apart from the real elements
    that way.  A node walks the colour order from the top, trimmed and
    bounded against the current incumbent, branches on each vertex not yet
    barred and then bars its whole orbit.  p stays a union of orbits, so
    a clique through any member of an orbit maps onto one through the
    vertex branched on.  Orbits are split only at a node that has colours
    to branch on.  Once no candidate orbit holds two vertices nothing is
    left to prune: the node and every node below it skip _refine and _cut
    and bar only the vertex branched on, as every node does on a view with
    no orbits (the plain loop, which reads neither counts nor columns).

    A subclass that sets `core` (the small-core searches) also carries a
    running core in every node and supplies _filter, the branches of a
    node whose core is still too large, and _shrink, a child's core or
    None once no constraint is left; a clique counts as a leaf only once
    its core is None."""

    core = None

    def __init__(
        self,
        view: BranchingView,
        node_limit: int | None = None,
        seed: int = 0,
        cls: tuple[int, ...] | None = None,
    ):
        self.rows, self.to_old, self.counts, self.orbits, self.columns = view
        self.n = len(self.rows)
        full = (1 << self.n) - 1
        self.free = [full & ~(row | 1 << v) for v, row in enumerate(self.rows)]
        self.cls = cls
        self.counter = _NodeCounter(node_limit)
        self.seed = seed
        self.best = 0
        self.best_mask = 0

    def solve(self) -> tuple[int, int, int, bool]:
        """Returns (optimum, witness mask in original indexing, nodes
        explored, limit_hit)."""
        limited = False
        try:
            self._seed()
            if self.n:
                self._front()
        except _Budget:
            limited = True
        return self.best, self._remap(self.best_mask), self.counter.nodes, limited

    def _seed(self) -> None:
        """The first incumbent: the seed, or a greedy clique (lowest index
        first) when that is strictly larger.  A solver with a core takes
        the seed alone, since a greedy clique can break its constraint."""
        self.best = self.seed.bit_count()
        self.best_mask = self.seed
        if self.core is not None:
            return
        chosen = 0
        size = 0
        cand = (1 << self.n) - 1
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand = self._children(chosen, v, cand)
            chosen |= bit
            size += 1
        if size > self.best:
            self.best = size
            self.best_mask = chosen

    def _remap(self, mask: int) -> int:
        out = 0
        for v in _bits(mask):
            out |= 1 << self.to_old[v]
        return out

    def _front(self) -> None:
        """The one branch-and-bound loop, from the root.  A node keeps
        `groups`, its candidate orbits of two or more vertices, and
        `grouped`, their union; every other candidate is an orbit by
        itself.  A child keeps the groups that still hold two or more of
        its candidates, and splits them only when its cls is finer; a node
        with no groups (every node of the plain loop) only walks its colour
        order.  Each stack frame is (r_size, r_mask, cls, core, p_mask,
        groups, grouped, colour order, colours, index); the index walks the
        trimmed order from its last vertex, the one with the highest colour,
        and the frame ends once the colour bound can no longer beat the
        incumbent or the order runs out."""
        counts = self.counts
        columns = self.columns
        color = self._color
        children = self._children
        tick = self.counter.tick
        p_mask = (1 << self.n) - 1
        groups = [o for o in self.orbits if o & (o - 1)]
        grouped = 0
        for o in groups:
            grouped |= o
        # cls is read only while some orbit holds two candidates
        cls = (self.cls or (0,) * len(counts[0])) if groups else None
        r_size, r_mask, core = 0, 0, self.core
        stack = []
        tick()
        order, colors = color(p_mask, self.best - r_size + 1)
        if core is not None and order:
            order, colors = self._filter(core, p_mask, colors[-1])
        i = len(order)
        while True:
            i -= 1
            if i < 0 or r_size + colors[i] <= self.best:
                if not stack:
                    return
                r_size, r_mask, cls, core, p_mask, groups, grouped, order, colors, i = stack.pop()
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
            child_core = None if core is None else self._shrink(core, counts[v])
            if not new_p:
                if child_core is None and r_size + 1 > self.best:
                    self._leaf(r_size + 1, r_mask | bit)
                continue
            stack.append((r_size, r_mask, cls, core, p_mask, groups, grouped, order, colors, i))
            if groups:
                kept = []
                grouped = 0
                for o in groups:
                    o &= new_p
                    if o & (o - 1):
                        kept.append(o)
                        grouped |= o
                groups = kept
            r_size += 1
            r_mask |= bit
            p_mask = new_p
            core = child_core
            tick()
            order, colors = color(p_mask, self.best - r_size + 1)
            if core is not None and order:
                order, colors = self._filter(core, p_mask, colors[-1])
            i = len(order)
            if groups and order:  # orbits are split only at a node with colours to branch on
                child_cls, parts = _refine(cls, counts[v])
                if parts:
                    cls = child_cls
                    groups, grouped = _cut(groups, parts, columns)

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
        return p_mask & self.rows[v]

    def _leaf(self, size: int, mask: int) -> None:
        """A clique the loop cannot extend that beats the incumbent."""
        self.best = size
        self.best_mask = mask


class _CliqueEnumerator(_MaxCliqueSolver):
    """Every clique of the clique number `target`, on the shared loop: on
    the plain loop all of them, on a graph's view with its orbits at least
    one from every class under the permutations of [m].

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
                self._front()
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


def _validate_witness(graph: DisjointnessGraph, fam: Family) -> None:
    if not graph.is_independent(fam):
        raise RuntimeError("internal error: witness fails the raw pairwise predicate")


def _seed_slots(graph: DisjointnessGraph, seed: Family | None, valid, what: str) -> int:
    """The seed family as a bitset of the graph's branching slots (0 for no
    seed), read through an index of the branching view's rows.  A seed
    from another universe, or one failing `valid`, the search's raw
    predicate, is refused (ContractError) before any search runs."""
    if seed is None:
        return 0
    if (seed.kind, seed.m, seed.k) != (graph.family_kind, graph.m, graph.k):
        raise ContractError("seed family does not match the search universe")
    if not valid(seed):
        raise ContractError(f"seed family fails {what}")
    slot = {row: i for i, row in enumerate(graph.ordered.counts)}
    slots = {slot.get(row) for row in multiplicity_rows(seed.members)}
    if None in slots or len(slots) != len(seed):
        raise ContractError("seed family is not a set of the graph's vertices")
    return sum(1 << i for i in slots)


def _seeded_search(graph: DisjointnessGraph, seed: Family | None, valid, what: str, solver_for):
    """Run the solver `solver_for(seed slots)` from the checked seed.  Each
    family passes `valid` once: a witness that is still the seed's mask is
    the seed family itself, any other is decoded and checked here."""
    slots = _seed_slots(graph, seed, valid, what)
    solver = solver_for(slots)
    best, mask, nodes, limited = solver.solve()
    if seed is not None and solver.best_mask == slots:
        witness = seed
    else:
        witness = graph.family_from_mask(mask)
        if not valid(witness):
            raise RuntimeError(f"internal error: witness fails {what}")
    status = NODE_LIMIT_HIT if limited else PROVED_OPTIMAL
    return SearchResult(best, witness, status, nodes)


def max_independent_set(
    graph: DisjointnessGraph, node_limit: int | None = None, seed: Family | None = None
) -> SearchResult:
    """Exact maximum independent set (= largest intersecting family for the
    graph's threshold).  An independent set of the graph given as `seed`
    (an explicit extremal family) is the first incumbent; it never changes
    the optimum.  The optimum, witness and node count are deterministic."""
    return _seeded_search(
        graph, seed, graph.is_independent, "the raw pairwise predicate",
        lambda slots: _MaxCliqueSolver(graph.ordered, node_limit, slots),
    )


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
    solver = _CliqueEnumerator(graph.ordered._replace(orbits=[]), node_limit)
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
    solver = _CliqueEnumerator(graph.ordered, node_limit)
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

class _SmallCoreSolver(_MaxCliqueSolver):
    """Maximum clique of an M or M_t graph's view (a t-intersecting
    family) whose common intersection ends with cardinality below
    core_limit, on the orbital loop.

    The loop carries the running core, the elementwise minimum of the
    chosen members' rows.  It starts at (k+1,)*m, read off the view as
    the G □ K₂ product reads its marker count, and every member shrinks
    it.  While the core is at or above the limit, a node branches only on
    the candidates that shrink it, one orbit of them at a time (the core
    is invariant under the permutations fixing the chosen members, so the
    set of such candidates is a union of orbits).  The others stay
    candidates for every branch, so a branch through a vertex coloured
    early may still take candidates coloured after it: each branch is
    bounded by the node's whole colour bound, not by its prefix bound, and
    the branches are listed from the untrimmed candidates.  Once the core
    drops below the limit it can never grow again, and the node is an
    ordinary one.  A greedy clique can break the constraint, so the
    incumbent is the seed alone (see _MaxCliqueSolver._seed).

    over[e][j] is the bitset of the vertices whose count at e exceeds j,
    for j up to k (the view's columns, and an empty level k), so the
    candidates that shrink a core and the least count each element keeps
    among them are bitset tests."""

    def __init__(self, view: BranchingView, core_limit: int, node_limit: int | None, seed: int):
        super().__init__(view, node_limit, seed)
        top = max(map(sum, view.counts), default=0) + 1  # k+1: above every count
        self.core = (top,) * len(view.columns)
        self.limit = core_limit
        # the root core, k+1 at every element, reads level k: no vertex exceeds it
        self.over = [[*col, 0] for col in self.columns]

    def _filter(self, core, p_mask: int, bound: int) -> tuple[list[int], list[int]]:
        """The branches of a node whose core is still at or above the limit:
        the candidates that shrink it, in ascending order, each bounded by
        the node's whole colour bound; none once even all of them together
        cannot bring the core below the limit.  All of them bring element e
        down to the least count j < core[e] one of them holds there, if
        any; the others never lower it."""
        over = self.over
        fixed = p_mask  # the candidates that lower no element of the core
        for col, c in zip(over, core):
            if c:
                fixed &= col[c - 1]
        reducers = p_mask ^ fixed
        low = 0
        for col, c in zip(over, core):
            j = 0
            while j < c and not reducers & ~col[j]:
                j += 1
            low += j
            if low >= self.limit:
                return [], []
        return list(_bits(reducers)), [bound] * reducers.bit_count()

    def _shrink(self, core, row):
        """The core once a member with multiplicities `row` joins, or None
        once it is below the limit."""
        core = tuple(map(min, core, row))
        return core if sum(core) >= self.limit else None


def _small_core_search(
    graph: DisjointnessGraph, node_limit: int | None, seed: Family | None
) -> SearchResult:
    """The largest independent set of an M or M_t graph whose common
    intersection has cardinality below the graph's t."""
    if graph.kind not in (KIND_MULTISET_DISJOINT, KIND_MULTISET_T):
        raise ContractError(f"the small-core searches run on M or M_t graphs, got {graph.label()}")
    t = graph.t
    if not t <= graph.k:
        raise ContractError(f"need 1 <= t <= k, got t={t}, k={graph.k}")

    def valid(fam: Family) -> bool:
        if not graph.is_independent(fam):
            return False
        return not len(fam) or common_intersection(fam).cardinality < t

    return _seeded_search(
        graph, seed, valid, "pairwise compatibility with a common core below the limit",
        lambda slots: _SmallCoreSolver(graph.ordered, t, node_limit, slots),
    )


def max_intersecting_empty_common(
    graph: DisjointnessGraph, node_limit: int | None = None, seed: Family | None = None
) -> SearchResult:
    """Largest intersecting family of k-multisets of [m] whose common
    intersection is empty, on M(m,k) (or M_t(m,k,1)).  A verified seed
    family may provide the initial incumbent; it never changes the
    optimum."""
    if graph.t != 1:
        raise ContractError(
            f"the empty-common search runs on M or M_t graphs at t = 1, got {graph.label()}"
        )
    return _small_core_search(graph, node_limit, seed)


def max_t_intersecting_nontrivial(
    graph: DisjointnessGraph, node_limit: int | None = None, seed: Family | None = None
) -> SearchResult:
    """Largest t-intersecting family of k-multisets whose common
    intersection has cardinality below t, on M_t(m,k,t) (M(m,k) is t = 1)."""
    return _small_core_search(graph, node_limit, seed)


# ---------------------------------------------------------------------------
# clique-free induced subgraphs: P(s,1) families
# ---------------------------------------------------------------------------

class _CliqueFreeSolver(_MaxCliqueSolver):
    """Maximum vertex subset of G whose induced subgraph has no
    (s+1)-clique, for s >= 2, as a clique search on the complement rows:
    the rows of G's branching view, on the shared loop with its orbits.

    A greedy colour class of the complement is a clique of G, so at most s
    of its vertices can be chosen: the colour bound counts min(|class|, s)
    per class (the colouring kernel with cap = s).  A candidate leaves
    when it would close an (s+1)-clique of G with the new member and s-1
    chosen ones."""

    def __init__(self, view: BranchingView, s: int, node_limit: int | None, seed: int = 0):
        super().__init__(view, node_limit, seed)
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
        return p_mask & self.rows[v] | alive


def clique_free_search(
    graph: DisjointnessGraph, s: int, node_limit: int | None = None, seed: Family | None = None
) -> SearchResult:
    """Largest vertex subset of a disjointness graph inducing no
    (s+1)-clique, i.e. the largest P(s,1) family for that universe (on a
    graph with t >= 2: no s+1 members pairwise meeting fewer than t times).
    A family given as `seed` is the first incumbent; it and the witness are
    checked on the graph's own pair rule, not on the adjacency rows."""
    if s < 1:
        raise ContractError(f"s must be >= 1, got {s}")
    if s == 1:
        return max_independent_set(graph, node_limit, seed)
    return _seeded_search(
        graph, seed, lambda fam: _clique_free(graph.pair_masks(fam.members), graph.t, s),
        "the P(s,1) predicate of the graph",
        lambda slots: _CliqueFreeSolver(graph.ordered, s, node_limit, slots),
    )


def max_p_s1_family(m: int, k: int, s: int, node_limit: int | None = None) -> SearchResult:
    """Largest family of k-multisets of [m] in which no s+1 members are
    pairwise disjoint.  s=1 delegates to the independent-set search."""
    graph = build_graph(KIND_MULTISET_DISJOINT, m, k)
    return clique_free_search(graph, s, node_limit)


# ---------------------------------------------------------------------------
# induced bipartite subgraphs: unions of two intersecting families
# ---------------------------------------------------------------------------

def _spread(mask: int) -> int:
    """mask with bit i moved to bit 2i, at C level: a 0 goes after every
    binary digit but the last."""
    return int("0".join(format(mask, "b")), 2)


def _max_induced_bipartite(
    view: BranchingView, node_limit: int | None
) -> tuple[int, tuple[int, int], int, bool]:
    """Largest induced bipartite subgraph of G as a maximum clique of the
    complement of G □ K₂, given G's branching view (its rows are G's
    compatibility rows, the complement); returns (size, (side one, side
    two) masks with vertex i at bit view.to_old[i], nodes explored,
    limit_hit).  The product is itself a view, and the only one that
    starts the loop with root classes of its own (`cls`).

    Vertex v is product vertex 2v on side one and 2v+1 on side two, so
    each side keeps the rows' order and a vertex's two copies are
    neighbours.  Copies on one side are joined when the vertices are
    compatible, copies on opposite sides when they are distinct.  Each
    product vertex carries v's multiplicity row and two marker elements,
    (k+1, 0) on side one and (0, k+1) on side two, in a class of their own
    from the root: swapping them swaps the sides, so the loop's orbits
    are those of the permutations of [m] together with the side swap, and
    orbit o of G gives the root orbit holding both copies of its
    vertices.  The product's count columns are G's with both copies of
    each vertex set (spread, times 3), no real element above level k, and
    a marker's column holding every vertex of its side at each level.  A
    view with no orbits gives a product with none: the plain loop."""
    n = len(view.rows)
    others = _spread((1 << n) - 1)
    product = []
    for v, row in enumerate(view.rows):
        same = _spread(row)
        other = others ^ 1 << 2 * v
        product += (same | other << 1, other | same << 1)
    top = max(map(sum, view.counts), default=0) + 1  # k+1: above every real count
    counts = [c + marker for c in view.counts for marker in ((top, 0), (0, top))]
    orbits = [_spread(o) * 3 for o in view.orbits]
    columns = [[_spread(c) * 3 for c in cols] + [0] * (top - len(cols)) for cols in view.columns]
    columns += ([others] * top, [others << 1] * top)
    cls = (0,) * len(view.columns) + (1, 1)
    solver = _MaxCliqueSolver(
        BranchingView(product, range(2 * n), counts, orbits, columns), node_limit, cls=cls
    )
    best, mask, nodes, limited = solver.solve()
    sides = [0, 0]
    for v in _bits(mask):
        sides[v & 1] |= 1 << view.to_old[v >> 1]
    return best, (sides[0], sides[1]), nodes, limited


def induced_bipartite_search(graph: DisjointnessGraph, node_limit: int | None = None) -> SearchResult:
    """Largest vertex subset of a disjointness graph inducing a bipartite
    subgraph; the two colour classes are two intersecting families."""
    best, (a_mask, b_mask), nodes, limited = _max_induced_bipartite(graph.ordered, node_limit)
    if a_mask & b_mask:
        raise RuntimeError("internal error: the two sides of the witness share a member")
    _validate_witness(graph, graph.family_from_mask(a_mask))
    _validate_witness(graph, graph.family_from_mask(b_mask))
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
