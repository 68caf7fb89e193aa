"""Independent brute-force oracles for the search tests.

These never touch the library's solvers: plain subset scans over bitmask
adjacency, kept deliberately dumb so disagreement always indicts the fast
path.
"""

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


def brute_max_clique_free(adj, s):
    """Largest subset whose induced subgraph has no (s+1)-clique."""
    n = len(adj)
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        vertices = list(bits(mask))
        bad = False
        for combo in combinations(vertices, s + 1):
            if all(
                adj[u] >> v & 1
                for idx, u in enumerate(combo)
                for v in combo[idx + 1 :]
            ):
                bad = True
                break
        if not bad:
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


def pair_loop_graph(kind, m, k, t=1):
    """Reference disjointness graph: (vertices, adj) from one predicate test
    per vertex pair, in the library's enumeration order."""
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

    n = len(vertices)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if edge(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return vertices, adj


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
