"""Independent brute-force oracles and pair-loop references for the tests.

These never touch the library's solvers or predicates: plain subset scans
over bitmask adjacency and one-pair-at-a-time intersection counts, kept
deliberately dumb so disagreement always indicts the fast path.
"""

from fractions import Fraction
from itertools import combinations


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_max_independent_set(adj):
    n = len(adj)
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        if all(adj[v] & mask == 0 for v in bits(mask)):
            best = mask.bit_count()
    return best


def has_clique(adj, mask, size):
    """Whether the vertices of mask include a clique of `size` vertices."""
    return any(
        all(adj[u] >> v & 1 for idx, u in enumerate(combo) for v in combo[idx + 1 :])
        for combo in combinations(bits(mask), size)
    )


def brute_max_clique_free(adj, s):
    """Largest subset whose induced subgraph has no (s+1)-clique."""
    best = 0
    for mask in range(1 << len(adj)):
        if mask.bit_count() > best and not has_clique(adj, mask, s + 1):
            best = mask.bit_count()
    return best


def _induced_bipartite(adj, mask):
    color = {}
    for start in bits(mask):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in bits(adj[u] & mask):
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def brute_max_induced_bipartite(adj):
    n = len(adj)
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        if _induced_bipartite(adj, mask):
            best = mask.bit_count()
    return best


def _pair_loop_edge(kind, m, k, t):
    """(vertices, edge): the universe in the library's enumeration order and
    the edge predicate on two vertex indices."""
    from multifam.core import enumerate_k_multisets, enumerate_k_subsets

    if kind in ("K", "K_t"):
        vertices = tuple(enumerate_k_subsets(m, k))
        masks = [v.mask() for v in vertices]
    else:
        vertices = tuple(enumerate_k_multisets(m, k))
        masks = [v.support_mask() for v in vertices]

    if kind in ("K", "M"):
        def edge(i, j):
            return masks[i] & masks[j] == 0
    elif kind in ("K_t", "M_support_t"):
        def edge(i, j):
            return (masks[i] & masks[j]).bit_count() < t
    else:
        def edge(i, j):
            total = sum(min(a, b) for a, b in zip(vertices[i].counts, vertices[j].counts))
            return total < t
    return vertices, edge


def pair_loop_graph(kind, m, k, t=1):
    """Reference disjointness graph: (vertices, adj) from one predicate test
    per vertex pair, in the library's enumeration order."""
    vertices, edge = _pair_loop_edge(kind, m, k, t)
    n = len(vertices)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if edge(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return vertices, adj


def pair_loop_degrees(kind, m, k, t, rows):
    """The compatibility degree (non-neighbours other than itself) of the
    vertex of rank v for each v in `rows`: pair_loop_graph's predicate, run
    on those rows only."""
    vertices, edge = _pair_loop_edge(kind, m, k, t)
    n = len(vertices)
    return [sum(1 for u in range(n) if u != v and not edge(v, u)) for v in rows]


def universe_graph(kind, m, k, t=1):
    """Reference graph: (vertices, graph) with the vertices built by
    Family.universe and the graph's rows read back off them by
    multiplicity_rows, as the graph was built before it held count rows."""
    from multifam.core import Family, multiplicity_rows
    from multifam.graphs import _KINDS, DisjointnessGraph

    vertices = Family.universe(m, k, _KINDS[kind].family_kind).members
    rows = tuple(multiplicity_rows(vertices))
    return vertices, DisjointnessGraph(kind, m, k, t, rows, sorted_row_types(rows))


def sorted_row_types(rows):
    """Reference type numbers: rows share a number iff their sorted rows
    are equal, numbered in order of first appearance."""
    numbers = {}
    return tuple(numbers.setdefault(tuple(sorted(row)), len(numbers)) for row in rows)


def sorted_row_branching_order(rows, t, levels, multisets):
    """Reference graphs._branching_order, as it was before the walk handed
    over type numbers: each row's type found by sorting it and looking the
    sorted row up, its degree counted on the sorted row."""
    from multifam.graphs import _type_degree

    types = {}  # shape: (number, -degree)
    type_of = []
    key = []
    for row in rows:
        shape = tuple(sorted(row))
        entry = types.get(shape)
        if entry is None:
            entry = types[shape] = (len(types), -_type_degree(shape, t, levels, multisets))
        type_of.append(entry[0])
        key.append(entry[1])
    to_old = sorted(range(len(rows)), key=key.__getitem__)
    slot = [0] * len(rows)
    orbits = [0] * len(types)
    for i, v in enumerate(to_old):
        slot[v] = i
        orbits[type_of[v]] |= 1 << i
    return to_old, slot, orbits


def rank_adjacency(graph):
    """The disjointness adjacency over ranks, for the oracles: adj[v] is the
    bitset of the ranks u != v that are not compatible with v.  The graph's
    branching view is mapped back to ranks through to_old, one bit at a
    time."""
    view = graph.ordered
    n = len(view.rows)
    full = (1 << n) - 1
    adj = [0] * n
    for i, row in enumerate(view.rows):
        v = view.to_old[i]
        compat = 0
        for j in bits(row):
            compat |= 1 << view.to_old[j]
        adj[v] = full & ~(compat | 1 << v)
    return adj


def ladder_columns(rows, m, levels):
    """columns[e][j] = bitset of the row indices whose multiplicity at e
    exceeds j, for j < levels, one bit at a time."""
    columns = [[0] * levels for _ in range(m)]
    for v, row in enumerate(rows):
        for e, c in enumerate(row):
            for j in range(min(c, levels)):
                columns[e][j] |= 1 << v
    return columns


def ladder_meeting(columns, row, t):
    """Bitset of the row indices u (the row's own included) that meet `row`
    at least t times: a saturating ladder of t bitsets over the row's own
    columns (e, j < row[e]), run from scratch; ge[i] holds the u met at
    least i+1 times."""
    ge = [0] * t
    for e, c in enumerate(row):
        for col in columns[e][:c]:
            for i in range(t - 1, 0, -1):
                ge[i] |= ge[i - 1] & col
            ge[0] |= col
    return ge[-1]


def sorted_key_orbit_masks(cls, rows, vertices):
    """The vertices grouped by orbit under the permutations of [m] fixing
    every chosen member, in order of first appearance: cls[e] numbers the
    signature class of element e under the chosen members (cls[e] < m),
    and a vertex's orbit key is the sorted list of its (class,
    multiplicity) pairs, each coded as multiplicity * m + class."""
    width = len(cls)
    orbits = {}
    for v in vertices:
        key = tuple(sorted(c * width + cls[e] for e, c in enumerate(rows[v])))
        orbits[key] = orbits.get(key, 0) | 1 << v
    return orbits


def signature_refine(cls, row):
    """cls once one more member with multiplicities `row` is chosen: two
    elements keep one class iff they shared one and row agrees on them,
    numbered by rank of (old class, count)."""
    pairs = list(zip(cls, row))
    rank = {pair: i for i, pair in enumerate(sorted(set(pairs)))}
    return tuple(rank[pair] for pair in pairs)


def per_row_compatibility(rows, m, levels, t):
    """Reference compatibility rows in the order of `rows`: one full ladder
    per row, the row's own bit cleared."""
    columns = ladder_columns(rows, m, levels)
    return [ladder_meeting(columns, row, t) & ~(1 << v) for v, row in enumerate(rows)]


def pairwise_compat_masks(counts, t):
    """Reference small-core compatibility: j in compat[i] iff i != j and the
    multisets share at least t elements counting multiplicity."""
    n = len(counts)
    compat = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if sum(min(a, b) for a, b in zip(counts[i], counts[j])) >= t:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return compat


def relabel_by_bits(adj, order):
    """Reference relabel: new vertex i is old vertex order[i], one bit at a
    time."""
    new_index = {old: new for new, old in enumerate(order)}
    out = [0] * len(adj)
    for old, mask in enumerate(adj):
        for old_nb in bits(mask):
            out[new_index[old]] |= 1 << new_index[old_nb]
    return out


def pair_size(a, b):
    """Multiplicity-counted |a ∩ b| for multisets, |a ∩ b| for sets."""
    if hasattr(a, "counts"):
        return sum(min(x, y) for x, y in zip(a.counts, b.counts))
    return len(set(a.members) & set(b.members))


def greedy_t_subfamily(fam, t):
    """Members kept in order while they t-intersect every kept one, so a
    predicate under test also sees families on which it must answer True."""
    from multifam.core import Family

    kept = []
    for x in fam.members:
        if all(pair_size(x, y) >= t for y in kept):
            kept.append(x)
    return Family(fam.m, fam.k, fam.kind, tuple(kept))


def pair_loop_is_t_intersecting(fam, t):
    """Reference t-intersection: one pair at a time on counts or elements."""
    members = fam.members
    return all(
        pair_size(members[i], members[j]) >= t
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )


def pair_loop_is_support_t_intersecting(fam, t):
    """Reference support t-intersection: one pair at a time on supports."""
    supports = [
        set(x.support().members) if hasattr(x, "counts") else set(x.members)
        for x in fam.members
    ]
    return all(
        len(supports[i] & supports[j]) >= t
        for i in range(len(supports))
        for j in range(i + 1, len(supports))
    )


def pair_loop_is_t_kernel(fam, T, t):
    """Reference t-kernel test: |F1 ∩ F2 ∩ T| >= t for every pair, summed
    element by element."""
    counts = [a.counts for a in fam.members]
    return all(
        sum(min(a, b, w) for a, b, w in zip(counts[i], counts[j], T.counts)) >= t
        for i in range(len(counts))
        for j in range(i + 1, len(counts))
    )


def shift_loop_shift_family(fam, p, on_shift=None):
    """Reference shift_family: every member in canonical order goes through
    the library's single-member shift_multiset, and moves when its shifted
    multiset is absent from the family state at that moment; the family is
    rebuilt from the final state."""
    from multifam.compression import shift_multiset
    from multifam.core import Family

    current = list(fam.members)
    present = {a.counts for a in current}
    for a in fam.members:
        b = shift_multiset(a, p)
        if b is a or b.counts in present:
            continue
        present.remove(a.counts)
        present.add(b.counts)
        current[current.index(a)] = b
        if on_shift is not None:
            on_shift({
                "i": p.i,
                "s": p.s,
                "j": p.j,
                "member_before": " ".join(map(str, a.elements())),
                "member_after": " ".join(map(str, b.elements())),
            })
    if current == list(fam.members):
        return fam
    return Family.of_multisets(fam.m, fam.k, current)


def shift_loop_compress_pass(fam, T, i, t, on_shift=None):
    """Reference compression pass: one shift_loop_shift_family call per
    j = 1..m (each walks and rebuilds the whole family), then the
    t-intersection and t-kernel postconditions as separate pair loops.
    Takes valid arguments only (i held at least twice by the kernel T)."""
    from multifam.compression import CompressionInvariantError, ShiftParams
    from multifam.core import Multiset

    s = T.multiplicity(i)
    result = fam
    for j in range(1, fam.m + 1):
        if j != i:
            result = shift_loop_shift_family(result, ShiftParams(i, s, j), on_shift)
    new_kernel = Multiset(T.ground_size, tuple(c - (e == i) for e, c in enumerate(T.counts, 1)))
    if len(result) != len(fam):
        raise CompressionInvariantError("compression pass changed the family size")
    if not pair_loop_is_t_intersecting(result, t):
        raise CompressionInvariantError("compression pass broke t-intersection")
    if not pair_loop_is_t_kernel(result, new_kernel, t):
        raise CompressionInvariantError("shrunken kernel is not a t-kernel for the output")
    return result, new_kernel


def member_walk_universe(m, k, kind):
    """Reference for Family.universe: the enumerators' members, in their
    order, with no scale guard."""
    from multifam.core import MULTISET, Family, enumerate_k_multisets, enumerate_k_subsets

    members = enumerate_k_multisets(m, k) if kind == MULTISET else enumerate_k_subsets(m, k)
    return Family(m, k, kind, tuple(members))


def greedy_random_t_intersecting_family(m, k, t, rng):
    """Reference for acceptance.random_t_intersecting_family: the same rng
    draws over the universe's Multiset members, with compatibility summed
    from multiplicity vectors."""
    from multifam.core import Family, enumerate_k_multisets

    universe = list(enumerate_k_multisets(m, k))
    rng.shuffle(universe)
    target = rng.randint(1, max(2, len(universe) // 2))
    rate = rng.uniform(0.4, 1.0)
    chosen = []
    for a in universe:
        if len(chosen) >= target:
            break
        if rng.random() > rate:
            continue
        if all(pair_size(a, c) >= t for c in chosen):
            chosen.append(a)
    if not chosen:
        chosen = [universe[0]]
    return Family.of_multisets(m, k, chosen)


def two_sided_max_induced_bipartite(adj):
    """Reference two-family search: every vertex, in descending-degree
    order, goes to side one, to side two or to neither, each side kept
    independent and the first placed vertex pinned to side one.  A branch
    ends once its count plus the vertices still placeable on some side, or
    plus a greedy clique cover of each side's placeable vertices (a side
    takes at most one vertex of each clique), cannot beat the best found.
    Returns (size, (side one mask, side two mask))."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    g = relabel_by_bits(adj, order)  # position i holds vertex order[i]
    best = [0, 0, 0]

    def cover(s):
        parts = 0
        while s:
            low = s & -s
            s ^= low
            clique = s & g[low.bit_length() - 1]
            while clique:
                low = clique & -clique
                s ^= low
                clique &= g[low.bit_length() - 1]
            parts += 1
        return parts

    def rec(idx, a, b, fit_a, fit_b, count):
        rest = (fit_a | fit_b) >> idx << idx
        if count + rest.bit_count() <= best[0]:
            return
        if count + cover(fit_a & rest) + cover(fit_b & rest) <= best[0]:
            return
        if not rest:
            best[:] = [count, a, b]
            return
        i = (rest & -rest).bit_length() - 1
        bit = 1 << i
        if fit_a & bit:
            rec(i + 1, a | bit, b, fit_a & ~g[i], fit_b, count + 1)
        if a and fit_b & bit:
            rec(i + 1, a, b | bit, fit_a, fit_b & ~g[i], count + 1)
        rec(i + 1, a, b, fit_a, fit_b, count)

    full = (1 << n) - 1
    rec(0, 0, 0, full, full, 0)
    count, a, b = best
    return count, tuple(sum(1 << order[i] for i in bits(side)) for side in (a, b))


def complement(adj):
    """The complement graph's rows: u in out[v] iff u != v and u not in
    adj[v]."""
    full = (1 << len(adj)) - 1
    return [full & ~(row | 1 << v) for v, row in enumerate(adj)]


def memberwise_apply_permutation(fam, perm):
    """Reference relabelling (element i becomes perm[i-1]): each member
    relabelled on its own and the family built, sorted and checked, by its
    kind's constructor."""
    from multifam.core import MULTISET, Family, KSet, Multiset

    if fam.kind == MULTISET:
        members = []
        for a in fam.members:
            out = [0] * fam.m
            for i, c in enumerate(a.counts):
                out[perm[i] - 1] = c
            members.append(Multiset(fam.m, tuple(out)))
        return Family.of_multisets(fam.m, fam.k, members)
    members = (KSet(fam.m, tuple(sorted(perm[x - 1] for x in b.members))) for b in fam.members)
    return Family.of_sets(fam.m, fam.k, members)


def scan_canonical_form(fam):
    """Reference canonical form: the lexicographic minimum, over all m!
    relabelings, of the sorted member list (counts tuples for multisets,
    element tuples for sets)."""
    from itertools import permutations

    from multifam.core import MULTISET, Family, KSet, Multiset

    m = fam.m
    best = None
    if fam.kind == MULTISET:
        for perm in permutations(range(m)):
            relabeled = []
            for a in fam.members:
                out = [0] * m
                for i, c in enumerate(a.counts):
                    out[perm[i]] = c
                relabeled.append(tuple(out))
            relabeled.sort()
            if best is None or relabeled < best:
                best = relabeled
        return Family.of_multisets(m, fam.k, (Multiset(m, c) for c in best))
    for perm in permutations(range(1, m + 1)):
        relabeled = sorted(tuple(sorted(perm[x - 1] for x in b.members)) for b in fam.members)
        if best is None or relabeled < best:
            best = relabeled
    return Family.of_sets(m, fam.k, (KSet(m, mem) for mem in best))


def _color_bound(adj, p_mask):
    """Greedy sequential colouring: (vertices, colour numbers), colours
    non-decreasing."""
    order, colors, color, rest = [], [], 0, p_mask
    while rest:
        color += 1
        avail = rest
        while avail:
            bit = avail & -avail
            v = bit.bit_length() - 1
            order.append(v)
            colors.append(color)
            rest ^= bit
            avail = (avail ^ bit) & ~adj[v]
    return order, colors


def capacity_bounds(order, colors, s):
    """The P(s,1) capacity bound along a greedy colouring (order, colors):
    each colour class counts at most s of its vertices.  Returns the
    running bound at each position."""
    bounds = []
    bound = last = run = 0
    for c in colors:
        run = run + 1 if c == last else 1
        last = c
        if run <= s:
            bound += 1
        bounds.append(bound)
    return bounds


def recursive_max_clique(rows):
    """Reference for the clique loop given no orbits: a greedy clique,
    lowest index first, as the first incumbent, then recursion over the
    greedy colouring of each candidate set, branching from its last vertex
    while the colour bound can still beat the incumbent.  Every node with
    candidates counts once.  Returns (size, mask, nodes)."""
    size = mask = nodes = 0
    cand = (1 << len(rows)) - 1
    while cand:
        bit = cand & -cand
        size, mask = size + 1, mask | bit
        cand &= rows[bit.bit_length() - 1]

    def rec(r_size, r_mask, p_mask):
        nonlocal nodes, size, mask
        nodes += 1
        order, colors = _color_bound(rows, p_mask)
        for v, color in zip(reversed(order), reversed(colors)):
            if r_size + color <= size:
                return
            bit = 1 << v
            if p_mask & rows[v]:
                rec(r_size + 1, r_mask | bit, p_mask & rows[v])
            elif r_size + 1 > size:
                size, mask = r_size + 1, r_mask | bit
            p_mask ^= bit

    if rows:
        rec(0, 0, (1 << len(rows)) - 1)
    return size, mask, nodes


def recursive_enumerate_cliques(adj, target, cap=None):
    """Reference enumeration: every clique of exactly `target` vertices, by
    recursion over greedy-colour-bounded candidate sets; each clique is
    reached once by adding vertices in increasing index.  Returns (masks,
    complete, nodes)."""

    found = []
    nodes = 0

    class Cap(Exception):
        pass

    def rec(r_size, r_mask, p_mask):
        nonlocal nodes
        nodes += 1
        if r_size == target:
            found.append(r_mask)
            if cap is not None and len(found) >= cap:
                raise Cap
            return
        if not p_mask:
            return
        order, colors = _color_bound(adj, p_mask)
        if r_size + colors[-1] < target:
            return
        for v in order:
            bit = 1 << v
            rec(r_size + 1, r_mask | bit, p_mask & adj[v] & ~((bit << 1) - 1))

    try:
        rec(0, 0, (1 << len(adj)) - 1)
    except Cap:
        return found, False, nodes
    return found, True, nodes


def exclusion_max_clique_free(adj, s):
    """Reference P(s,1) search: the largest subset inducing no (s+1)-clique,
    by branching on the lexicographically first violated clique (one of
    its vertices leaves, the ones before it are pinned inside), seeded by
    a greedy pass in index order.  Returns (size, mask, nodes)."""
    n = len(adj)

    def find_clique(cand_mask, size):
        if size == 0:
            return []
        if cand_mask.bit_count() < size:
            return None
        for v in bits(cand_mask):
            sub = cand_mask & adj[v] & ~((2 << v) - 1)
            rest = find_clique(sub, size - 1)
            if rest is not None:
                return [v] + rest
        return None

    chosen = 0
    for v in range(n):
        if find_clique(chosen & adj[v], s) is None:
            chosen |= 1 << v
    best = [chosen.bit_count(), chosen]
    nodes = 0

    def rec(included, pinned):
        nonlocal nodes
        nodes += 1
        if included.bit_count() <= best[0]:
            return
        clique = find_clique(included, s + 1)
        if clique is None:
            best[:] = [included.bit_count(), included]
            return
        for v in clique:
            bit = 1 << v
            if not pinned & bit:
                rec(included & ~bit, pinned)
            pinned |= bit

    rec((1 << n) - 1, 0)
    return best[0], best[1], nodes


def vertex_small_core_search(counts, compat, core_limit, seed_mask=0):
    """Reference small-core search: the largest clique of compat whose
    members' common intersection (elementwise min of counts) has
    cardinality below core_limit.  While the core is too large it branches
    on every member that shrinks it, one vertex at a time, each earlier
    one barred; then a recursive colour-bounded clique search.  Returns
    (size, mask, nodes)."""
    best = [seed_mask.bit_count(), seed_mask]
    nodes = 0

    def expand(r_size, r_mask, p_mask):
        nonlocal nodes
        nodes += 1
        order, colors = _color_bound(compat, p_mask)
        for i in reversed(range(len(order))):
            if r_size + colors[i] <= best[0]:
                return
            v = order[i]
            bit = 1 << v
            new_p = p_mask & compat[v]
            p_mask &= ~bit
            if new_p:
                expand(r_size + 1, r_mask | bit, new_p)
            elif r_size + 1 > best[0]:
                best[:] = [r_size + 1, r_mask | bit]

    def fixable(core, p_mask):
        low = [min(c, *(counts[v][e] for v in bits(p_mask))) for e, c in enumerate(core)]
        return sum(low) < core_limit

    def front(r_size, r_mask, core, p_mask):
        nonlocal nodes
        nodes += 1
        if core is not None and sum(core) < core_limit:
            if r_size > best[0]:
                best[:] = [r_size, r_mask]
            expand(r_size, r_mask, p_mask)
            return
        if not p_mask:
            return
        _order, colors = _color_bound(compat, p_mask)
        if r_size + colors[-1] <= best[0]:
            return
        if core is not None and not fixable(core, p_mask):
            return
        banned = 0
        for v in bits(p_mask):
            if core is not None and all(x >= c for c, x in zip(core, counts[v])):
                continue
            new_core = tuple(counts[v]) if core is None else tuple(map(min, core, counts[v]))
            front(r_size + 1, r_mask | 1 << v, new_core, p_mask & compat[v] & ~banned)
            banned |= 1 << v

    if counts:
        front(0, 0, None, (1 << len(counts)) - 1)
    return best[0], best[1], nodes


def scan_small_core_filter(counts, core, p_mask, core_limit):
    """Reference for the small-core search's branch filter: the candidates
    of p_mask that shrink core, each row scanned, in ascending order, or []
    once even all of them together leave a core of cardinality at least
    core_limit (the early-exit prefix scan the bitset filter replaced)."""
    order = [v for v in bits(p_mask) if any(x < c for x, c in zip(counts[v], core))]
    low = core
    for v in order:
        low = tuple(map(min, low, counts[v]))
        if sum(low) < core_limit:
            return order
    return []


def brute_small_core(counts, t, core_limit):
    """Largest family (as a mask) of pairwise t-intersecting count vectors
    whose elementwise-min core has cardinality below core_limit, by
    scanning every pairwise-compatible subset.  The empty family counts,
    with size 0."""
    n = len(counts)
    best = [0, 0]

    def rec(idx, mask, chosen, core):
        if idx == n:
            if chosen and len(chosen) > best[0] and sum(core) < core_limit:
                best[:] = [len(chosen), mask]
            return
        a = counts[idx]
        if all(sum(map(min, a, counts[j])) >= t for j in chosen):
            new_core = tuple(a) if core is None else tuple(map(min, core, a))
            rec(idx + 1, mask | 1 << idx, chosen + [idx], new_core)
        rec(idx + 1, mask, chosen, core)

    rec(0, 0, [], None)
    return best[0], best[1]


def recursive_count_vectors(m, k, prefix=()):
    """Reference multiset enumeration: the k-multisets of [m] as count
    vectors in lexicographic order, by recursion on the first count, each
    after `prefix`.  The prefix is handed down, so a row is built once, at
    its leaf; the recursion nests one generator per element of [m]."""
    if m == 1 or k == 0:
        yield prefix + (0,) * (m - 1) + (k,)
        return
    for first in range(k + 1):
        yield from recursive_count_vectors(m - 1, k - first, prefix + (first,))


def loop_multiset_rank(counts):
    """Reference rank of a count vector among the (m, k)-multisets: for
    each element, the multisets that agree so far but take fewer copies."""
    from multifam.core import multichoose

    m = len(counts)
    rem = sum(counts)
    rank = 0
    for i, c in enumerate(counts):
        for v in range(c):
            rank += multichoose(m - i - 1, rem - v)
        rem -= c
    return rank


def loop_multiset_unrank(m, k, rank):
    """Reference inverse of loop_multiset_rank, as a count vector."""
    from multifam.core import multichoose

    counts = []
    rem = k
    for i in range(m - 1):
        v = 0
        while rank >= multichoose(m - i - 1, rem - v):
            rank -= multichoose(m - i - 1, rem - v)
            v += 1
        counts.append(v)
        rem -= v
    counts.append(rem)
    return tuple(counts)


def loop_support_mask(counts):
    """Reference support mask of a count vector, one bit at a time."""
    mask = 0
    for i, c in enumerate(counts):
        if c:
            mask |= 1 << i
    return mask


def loop_unary_mask(counts, width):
    """Reference unary mask of a count vector, one bit at a time: bit
    e*width + j for each j below min(counts[e], width)."""
    mask = 0
    for e, c in enumerate(counts):
        for j in range(min(c, width)):
            mask |= 1 << (e * width + j)
    return mask


def multiset_theorem_closed_form(theorem_id, m, k, s=1):
    """(bound, hypothesis met) of T1.4, T3.3, T3.4 or T3.5 as stated on the
    multiset ground [m], with no reference to the set theorem at m+k-1."""
    from multifam.core import binomial, multichoose
    from multifam.families import hit_s_size

    if theorem_id == "T1.4":
        return binomial(m + k - 2, k - 1), m >= k + 1
    if theorem_id == "T3.3":
        return binomial(m + k - 2, k - 1) - binomial(m - 2, k - 1) + 1, 1 < k <= m - 1
    if theorem_id == "T3.4":
        return hit_s_size(m, k, s), m > (2 * k - 1) * s
    # T3.5: m > (1+sqrt(5))k/2 + 1, checked exactly via (2(m-1)-k)^2 > 5k^2
    lhs = 2 * (m - 1) - k
    return multichoose(m, k - 1) + multichoose(m - 1, k - 1), lhs > 0 and lhs * lhs > 5 * k * k


def scan_ak_threshold(m, k, t):
    """Reference ak_threshold_r as (r, boundary): scan r = 0..k-t for
    the open interval (k-t+1)(2 + (t-1)/(r+1)) < n < (k-t+1)(2 + (t-1)/r)
    holding n = m+k-1, or its lower end, in exact rationals ((t-1)/r is
    infinity for r = 0).  Takes valid arguments only (1 <= t <= k,
    m > k-t+1)."""
    n = m + k - 1
    for r in range(0, k - t + 1):
        lower = (k - t + 1) * (2 + Fraction(t - 1, r + 1))
        if n == lower:
            return r, True
        if r == 0:
            if n > lower:
                return 0, False
        else:
            upper = (k - t + 1) * (2 + Fraction(t - 1, r))
            if lower < n < upper:
                return r, False
    raise AssertionError(f"no r found for m={m}, k={k}, t={t}")
