from itertools import permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from multifam import (
    ContractError,
    Family,
    ScaleExceededError,
    ak_threshold_r,
    binomial,
    build_graph,
    canonical_form,
    clique_free_search,
    common_intersection,
    enumerate_maximum_independent_sets,
    frankl_multiset,
    frankl_set,
    frankl_set_size,
    has_property_p_s1,
    hit_s,
    hit_s_set,
    hm_multiset,
    hm_multiset_size,
    is_t_intersecting,
    kset_rank,
    max_independent_set,
    max_intersecting_empty_common,
    max_p_s1_family,
    max_t_intersecting,
    max_t_intersecting_nontrivial,
    max_union_two_intersecting,
    multichoose,
    multiset_rank,
    star,
    verify_theorem,
)
from multifam import KSet, Multiset, graphs, search
from multifam.core import MULTISET, multiplicity_rows
from multifam.search import (
    NODE_LIMIT_HIT,
    PROVED_OPTIMAL,
    SUPPORT_INTERSECTION,
    SearchResult,
    _CliqueFreeSolver,
    _MaxCliqueSolver,
    _SmallCoreSolver,
    _cut,
    _greedy_color,
    _max_induced_bipartite,
    _refine,
    _seed_slots,
    _validate_witness,
    enumerate_optimum_orbits,
    induced_bipartite_search,
)

from bruteforce import (
    _color_bound,
    bits,
    brute_max_clique_free,
    brute_max_independent_set,
    brute_max_induced_bipartite,
    brute_small_core,
    capacity_bounds,
    complement,
    exclusion_max_clique_free,
    has_clique,
    ladder_columns,
    pair_loop_degrees,
    pair_loop_graph,
    pair_loop_is_support_t_intersecting,
    pair_loop_is_t_intersecting,
    per_row_compatibility,
    pairwise_compat_masks,
    rank_adjacency,
    recursive_enumerate_cliques,
    recursive_max_clique,
    relabel_by_bits,
    scan_small_core_filter,
    signature_refine,
    sorted_key_orbit_masks,
    sorted_row_branching_order,
    sorted_row_types,
    two_sided_max_induced_bipartite,
    universe_graph,
    vertex_small_core_search,
)
from conftest import plain_view, random_adjacency


def _solve_mis_raw(adj):
    """Drive the solver core directly on a raw adjacency, its rows in
    identity order."""
    best, mask, _nodes, limited = _MaxCliqueSolver(plain_view(complement(adj))).solve()
    assert not limited
    return best, mask


# -- graph construction -------------------------------------------------------

def test_petersen_shape():
    graph = build_graph("K", 5, 2)
    assert graph.n_vertices == 10
    assert graph.edge_count() == 15
    assert all(row.bit_count() == 3 for row in rank_adjacency(graph))


def test_multiset_graph_sizes():
    assert build_graph("M", 4, 3).n_vertices == multichoose(4, 3) == 20


def test_support_t1_graph_equals_disjointness_graph():
    plain = build_graph("M", 4, 3)
    support = build_graph("M_support_t", 4, 3, 1)
    true_t = build_graph("M_t", 4, 3, 1)
    assert plain.ordered == support.ordered == true_t.ordered


def _graph_instances(max_m=7, max_k=4):
    for kind in ("K", "M", "K_t", "M_t", "M_support_t"):
        for m in range(1, max_m + 1):
            for k in range(0, max_k + 1):
                for t in [1] if kind in ("K", "M") else range(1, k + 2):
                    yield kind, m, k, t


def _members(graph):
    """Every vertex's member, in rank order."""
    return graph.family_from_mask((1 << graph.n_vertices) - 1).members


def test_bit_sliced_builder_matches_pair_loop():
    # t = k+1 exceeds every self-intersection, so only the builder's own
    # self-bit clearing keeps the diagonal empty there
    for kind, m, k, t in _graph_instances():
        graph = build_graph(kind, m, k, t)
        vertices, adj = pair_loop_graph(kind, m, k, t)
        assert _members(graph) == vertices, (kind, m, k, t)
        assert rank_adjacency(graph) == adj, (kind, m, k, t)
        assert not any(row >> i & 1 for i, row in enumerate(graph.ordered.rows))
        assert graph.edge_count() == sum(row.bit_count() for row in adj) // 2


def test_branching_view_is_the_sorted_relabelled_complement():
    # the reference: the pairwise compatibility masks in rank order (on the
    # supports for M'), sorted by (-degree, rank), every row's bits permuted
    # one at a time
    for kind, m, k, t in _graph_instances():
        graph = build_graph(kind, m, k, t)
        view = graph.ordered
        rows = graph.multiplicities
        if kind == "M_support_t":
            rows = [tuple(min(c, 1) for c in row) for row in rows]
        comp = pairwise_compat_masks(rows, t)
        order = sorted(range(len(comp)), key=lambda v: (-comp[v].bit_count(), v))
        assert view.to_old == order, (kind, m, k, t)
        assert view.rows == relabel_by_bits(comp, order), (kind, m, k, t)
        assert view.counts == [graph.multiplicities[v] for v in order]
        types: dict[tuple, int] = {}
        for i, row in enumerate(view.counts):
            shape = tuple(sorted(row))
            types[shape] = types.get(shape, 0) | 1 << i
        assert sorted(view.orbits) == sorted(types.values()), (kind, m, k, t)


def test_branching_order_matches_the_sorted_row_reference():
    # the type numbers the walk hands over, against sorting every row
    for kind, m, k, t in _graph_instances(max_m=8, max_k=5):
        graph = build_graph(kind, m, k, t)
        rows = graph.multiplicities
        multisets = graph.family_kind == MULTISET
        assert graph.types == sorted_row_types(rows), (kind, m, k, t)
        assert graphs._branching_order(rows, graph.types, t, graph._levels, multisets) == (
            sorted_row_branching_order(rows, t, graph._levels, multisets)
        ), (kind, m, k, t)


def test_graph_rows_match_the_universe_reference():
    # the graph holds core.universe_rows; the reference reads the rows back
    # off Family.universe's members, on all five kinds, m <= 8, k <= 5,
    # t <= k+1
    instances = list(_graph_instances(max_m=8, max_k=5))
    assert len(instances) == 600
    for kind, m, k, t in instances:
        graph = build_graph(kind, m, k, t)
        vertices, reference = universe_graph(kind, m, k, t)
        assert graph.multiplicities == reference.multiplicities, (kind, m, k, t)
        assert graph.ordered == reference.ordered, (kind, m, k, t)
        assert _members(graph) == vertices, (kind, m, k, t)


def test_searches_build_only_the_witness_members(monkeypatch):
    # building the graph builds no member; a search builds its witness's
    # members only, each side and the union once for the bipartite one
    built = []
    for member in (Multiset, KSet):
        def counting(self, real=member.__post_init__):
            built.append(self)
            real(self)

        monkeypatch.setattr(member, "__post_init__", counting)
    for args, search, copies in (
        (("M_t", 7, 4, 2), max_independent_set, 1),
        (("K", 8, 3), max_independent_set, 1),
        (("M_support_t", 6, 3, 2), max_independent_set, 1),
        (("M", 5, 2), induced_bipartite_search, 2),
        (("K", 6, 2), induced_bipartite_search, 2),
    ):
        built.clear()
        graph = build_graph(*args)
        assert built == [], args
        result = search(graph)
        assert result.proved
        assert len(built) == copies * result.optimum, args
        assert set(built) == set(result.witness.members), args


def _count_calls(monkeypatch, name):
    """Record the arguments of every call to multifam.graphs.<name>,
    whatever its signature."""
    calls = []
    real = getattr(graphs, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graphs, name, counting)
    return calls


def test_build_graph_runs_no_ladder(monkeypatch):
    # no columns built, no type degree counted, no ladder run
    columns = _count_calls(monkeypatch, "_columns")
    degrees = _count_calls(monkeypatch, "_type_degree")
    ladders = _count_calls(monkeypatch, "_compatibility")
    for args in (("M_t", 6, 3, 2), ("K", 7, 3), ("M_support_t", 5, 3, 2)):
        build_graph(*args)
    assert columns == [] and degrees == [] and ladders == []
    # the same helpers do run once a view is read
    assert len(build_graph("M_t", 6, 3, 2).ordered.rows) == 56
    assert len(columns) == 1 and len(ladders) == 1 and len(degrees) == 3


def test_one_full_ladder_per_searched_graph(monkeypatch):
    # the MIS proof and the orbit enumeration share one cached view, and
    # its columns are built once, in branching order
    ladders = _count_calls(monkeypatch, "_compatibility")
    columns = _count_calls(monkeypatch, "_columns")
    report = verify_theorem("T1.4", {"m": 6, "k": 3}, uniqueness=True)
    assert report.status == "ok" and report.uniqueness_verdict == "unique_up_to_iso"
    assert len(ladders) == 1 and len(columns) == 1
    ladders.clear()
    columns.clear()
    enum = enumerate_maximum_independent_sets(build_graph("M", 5, 3))
    assert enum.complete and len(enum.families) == 5
    assert len(ladders) == 1 and len(columns) == 1
    # on M(5,3)'s 35 vertices
    assert len(columns[0][0]) == len(ladders[0][1]) == 35


def test_counted_type_degree_matches_pair_loop():
    # every multiplicity type's counted degree against pair_loop_graph's
    # predicate, on the first vertex of that type
    checked = set()
    for kind, m, k, t in _graph_instances(max_m=9, max_k=5):
        graph = build_graph(kind, m, k, t)
        first: dict[tuple, int] = {}
        for v, row in enumerate(graph.multiplicities):
            first.setdefault(tuple(sorted(row)), v)
        expected = pair_loop_degrees(kind, m, k, t, list(first.values()))
        multisets = graph.family_kind == MULTISET
        for shape, degree in zip(first, expected):
            assert graphs._type_degree(shape, t, graph._levels, multisets) == degree, (
                kind, m, k, t, shape,
            )
            checked.add((kind, m, k, t, shape))
    # a vertex whose support is below t does not meet itself: nothing to drop
    assert ("M_support_t", 4, 4, 2, (0, 0, 0, 4)) in checked
    assert graphs._type_degree((0, 0, 0, 4), 2, 1, True) == 0
    graph = build_graph("M_support_t", 4, 4, 2)
    assert graph.multiplicities[34] == (4, 0, 0, 0)
    assert rank_adjacency(graph)[34] == (1 << 34) - 1  # adjacent to every other vertex
    # t > k: the compatibility graph is empty; and the one-element ground set
    assert graphs._type_degree((0, 1, 1), 3, 1, False) == 0
    assert ("K_t", 9, 5, 6, (0,) * 4 + (1,) * 5) in checked
    assert ("M", 1, 5, 1, (5,)) in checked and ("K", 1, 1, 1, (1,)) in checked


def test_trie_walk_matches_per_row_ladder(monkeypatch):
    # the old path: columns one bit at a time and one full ladder per row,
    # both in the rows' order, here the branching order; levels = k for
    # M_t, which counts the same as the builder's min(k, t)
    ladders = _count_calls(monkeypatch, "_compatibility")

    def check(graph):
        levels = graph.k if graph.kind == "M_t" else 1
        view = graph.ordered
        assert view.rows == per_row_compatibility(view.counts, graph.m, levels, graph.t)
        if view.counts:
            # the builder's levels, and k+1: the small-core search's `over`
            over = ladder_columns(view.counts, graph.m, graph.k + 1)
            built = graphs._columns(view.counts, graph._levels)
            assert built == [col[: graph._levels] for col in over], graph.label()
            assert graphs._columns(view.counts, graph.k + 1) == over, graph.label()
            # the view's stored table holds every level below the largest
            # count present (k for multisets, 1 for sets, 0 at k = 0), and
            # the ladder reads only the builder's levels of it
            top = max(map(max, view.counts))
            assert top == (graph.k if graph.family_kind == MULTISET else min(graph.k, 1))
            assert view.columns == [col[:top] for col in over], graph.label()
            columns, *_args, read = ladders[-1]
            assert columns is view.columns and read == graph._levels, graph.label()

    for kind, m, k, t in _graph_instances():
        check(build_graph(kind, m, k, t))
    for args in (("K", 14, 4), ("M_t", 9, 6, 4)):
        graph = build_graph(*args)
        assert graph.n_vertices > 1000
        check(graph)
    # a shallow trie of many leaves, counts at and above a byte's 255
    # (k+1 = 256 or more levels), many lanes, the vertex cap, k = 0, m = 1
    # and t > k
    for args in (
        ("M", 1200, 1), ("K", 300, 1),
        ("M", 2, 255), ("M", 2, 256), ("M", 2, 300), ("M_t", 2, 300, 3),
        ("M_support_t", 2, 300, 2),
        ("M_t", 3, 60, 40),
        ("K", 100, 98),
        ("K", 9, 0), ("M", 9, 0), ("M_t", 1, 7, 3), ("K_t", 1, 1, 1),
        ("M_t", 6, 3, 5), ("K_t", 8, 3, 4),
    ):
        check(build_graph(*args))


def test_cached_views_stay_out_of_equality_and_repr():
    graph = build_graph("M_t", 5, 3, 2)
    max_independent_set(graph)  # the view is now cached
    fresh = build_graph("M_t", 5, 3, 2)
    assert graph == fresh
    assert repr(graph) == repr(fresh)
    assert "ordered" not in repr(graph)


def test_small_core_compat_matches_pairwise_masks(monkeypatch):
    for m in range(1, 7):
        for k in range(1, 5):
            for t in range(1, k + 1):
                graph = build_graph("M_t", m, k, t)
                counts = graph.multiplicities
                view = graph.ordered
                assert view.rows == relabel_by_bits(pairwise_compat_masks(counts, t), view.to_old)

    seen = []

    class Recording(_SmallCoreSolver):
        def __init__(self, view, core_limit, node_limit, seed_mask):
            super().__init__(view, core_limit, node_limit, seed_mask)
            seen.append((self, core_limit))

    monkeypatch.setattr("multifam.search._SmallCoreSolver", Recording)
    searched = (build_graph("M", 5, 3), build_graph("M_t", 5, 3, 2))
    max_intersecting_empty_common(searched[0])
    max_t_intersecting_nontrivial(searched[1])
    assert [limit for _s, limit in seen] == [1, 2]
    for (solver, _limit), graph in zip(seen, searched):
        counts = graph.multiplicities
        assert solver.counts == [counts[v] for v in solver.to_old]
        assert solver.rows == relabel_by_bits(pairwise_compat_masks(counts, graph.t), solver.to_old)


def test_graph_cap_and_kind_validation(monkeypatch):
    # the cap is checked before any universe row is enumerated
    def refuse(*args):
        raise AssertionError("a universe row was enumerated")

    monkeypatch.setattr("multifam.core.count_vectors", refuse)
    monkeypatch.setattr("multifam.core.combinations", refuse)
    for kind, t in (("M", 1), ("K", 1), ("M_t", 2), ("K_t", 2), ("M_support_t", 2)):
        with pytest.raises(ScaleExceededError):
            build_graph(kind, 20, 10, t, vertex_cap=100)
    for kind in ("M", "K"):
        with pytest.raises(AssertionError, match="enumerated"):
            build_graph(kind, 4, 2)
    monkeypatch.undo()
    with pytest.raises(ContractError):
        build_graph("Q", 4, 2)
    for kind in ("K", "M"):
        with pytest.raises(ContractError, match=f"graph kind {kind} does not take a threshold t"):
            build_graph(kind, 4, 2, t=2)


# -- maximum independent set ---------------------------------------------------

@given(random_adjacency(max_n=12))
def test_mis_matches_bruteforce(adj):
    best, mask = _solve_mis_raw(adj)
    assert best == brute_max_independent_set(adj)
    assert mask.bit_count() == best
    assert all(adj[v] & mask == 0 for v in bits(mask))


@given(random_adjacency(max_n=12))
def test_clique_loop_matches_recursive_reference(adj):
    # optimum, witness and node count: the plain loop walks the
    # reference's traversal node for node
    rows = complement(adj)
    assert _MaxCliqueSolver(plain_view(rows)).solve() == (*recursive_max_clique(rows), False)


# -- the colouring kernel -----------------------------------------------------

@given(random_adjacency(max_n=12), st.data())
def test_color_kernel_is_the_trimmed_reference_colouring(adj, data):
    n = len(adj)
    p_mask = data.draw(st.integers(0, (1 << n) - 1))
    kmin = data.draw(st.integers(-1, n + 2))
    cap = data.draw(st.sampled_from((1, 2, 3)))
    order, colors = _color_bound(adj, p_mask)
    bounds = colors if cap == 1 else capacity_bounds(order, colors, cap)
    kept = [i for i, bound in enumerate(bounds) if bound >= kmin]
    assert kept == list(range(len(order) - len(kept), len(order)))  # a suffix
    free = _MaxCliqueSolver(plain_view(adj)).free
    expected = ([order[i] for i in kept], [bounds[i] for i in kept])
    assert _greedy_color(p_mask, free, kmin, cap) == expected
    assert _greedy_color(p_mask, free, min(kmin, 1), cap) == (order, bounds)


def _colourings(monkeypatch, solver):
    """Record (p_mask, trimmed order) at every colouring the solver makes."""
    seen = []
    color = solver._color

    def recording_color(self, p_mask, kmin):
        order, bounds = color(self, p_mask, kmin)
        seen.append((p_mask, order))
        return order, bounds

    monkeypatch.setattr(solver, "_color", recording_color)
    return seen


def test_mis_reference_values():
    assert max_independent_set(build_graph("K", 5, 2)).optimum == 4
    assert max_independent_set(build_graph("M", 4, 3)).optimum == 10
    assert max_independent_set(build_graph("M", 5, 3)).optimum == binomial(6, 2)


def test_mis_determinism():
    # unseeded, and seeded with the construction as verify does
    for args, seed in ((("M", 5, 3), None), (("M_t", 8, 4, 2), frankl_multiset(8, 4, 2, 1))):
        graph = build_graph(*args)
        first = max_independent_set(graph, seed=seed)
        second = max_independent_set(graph, seed=seed)
        assert first.optimum == second.optimum
        assert first.nodes_explored == second.nodes_explored
        assert first.witness == second.witness


def _plain(graph, s=1):
    """The MIS (s = 1) or clique-free search on the plain loop: the solver
    given the graph's view with no orbits, so its loop branches on single
    vertices."""
    view = graph.ordered._replace(orbits=[])
    if s == 1:
        solver = _MaxCliqueSolver(view)
    else:
        solver = _CliqueFreeSolver(view, s, None)
    best, mask, nodes, limited = solver.solve()
    assert not limited
    return SearchResult(best, graph.family_from_mask(mask), PROVED_OPTIMAL, nodes)


# exact nodes_explored and the witness as its members' sorted ranks; a
# change here is a change of traversal order and must be deliberate and
# logged in CHANGES.md
PINNED_NODE_COUNTS = [
    # the plain loop (_plain), the reference for the orbital searches
    (lambda: _plain(build_graph("M", 5, 3)), 15, 16,
     (*range(10, 20), 26, 27, 28, 29, 33)),
    (lambda: _plain(build_graph("K", 7, 3)), 15, 101, tuple(range(15))),
    (lambda: _plain(build_graph("M", 6, 3)), 21, 27,
     (4, 5, 6, 7, 8, 9, 13, 14, 15, 18, 23, 24, 25, 28, 32, 38, 39, 40, 43, 47, 52)),
    (lambda: _plain(build_graph("K", 10, 2), 2), 17, 3946, tuple(range(17))),
    (lambda: _plain(build_graph("K", 8, 2), 2), 13, 59, tuple(range(13))),
    (lambda: _plain(build_graph("K", 12, 2), 2), 21, 2346, tuple(range(21))),
    (lambda: _plain(build_graph("M", 7, 2), 2), 13, 46, (0, 1, 2, 3, 4, 6, 7, 10, 11, 15, 16, 21, 22)),
    (lambda: _plain(build_graph("M", 6, 3), 2), 40, 411,  # 56 vertices
     (1, 2, *range(4, 9), *range(10, 19), *range(20, 34), 36, 38, 39, 41, 42, 43, *range(45, 49))),
    (lambda: _plain(build_graph("M", 8, 2), 3), 21, 1026,
     (1, 3, 4, 6, 7, 8, 10, 11, 12, 13, *range(15, 20), *range(21, 27))),
    # the public searches, each on the orbital front
    (lambda: max_independent_set(build_graph("M", 5, 3)), 15, 15,
     (*range(10, 20), 26, 27, 28, 29, 33)),
    (lambda: max_independent_set(build_graph("K", 7, 3)), 15, 13, tuple(range(15))),
    (lambda: max_independent_set(build_graph("M", 6, 3)), 21, 21,
     (4, 5, 6, 7, 8, 9, 13, 14, 15, 18, 23, 24, 25, 28, 32, 38, 39, 40, 43, 47, 52)),
    (lambda: max_independent_set(build_graph("K", 10, 4)), 84, 506, tuple(range(84))),
    # the small-core searches run on the same front, their core in its frames
    (lambda: max_intersecting_empty_common(build_graph("M", 6, 3)), 16, 47,
     (26, 27, 28, 29, 33, *range(41, 50), 53, 54)),
    (lambda: max_intersecting_empty_common(build_graph("M", 5, 3)), 13, 39,
     (13, 14, 15, 18, 23, 24, 25, 26, 27, 28, 29, 32, 33)),
    (lambda: max_t_intersecting_nontrivial(build_graph("M_t", 6, 4, 2)), 21, 111,
     (48, 49, 50, 53, 63, 83, 84, 85, 88, *range(93, 100), 102, 103, 113, 117, 118)),
    (lambda: max_t_intersecting_nontrivial(build_graph("M_t", 7, 3, 1)), 19, 72,
     (45, 46, 47, 48, 49, 54, *range(66, 77), 81, 82)),
    # the small-core items of the search benchmark, seeded as verify does
    (lambda: max_intersecting_empty_common(build_graph("M", 7, 3), seed=hm_multiset(7, 3)),
     19, 58,
     (48, *range(62, 77), 80, 81, 82)),
    (lambda: max_t_intersecting_nontrivial(
        build_graph("M_t", 8, 3, 2), seed=frankl_multiset(8, 3, 2, 1)), 4, 9,
     (75, 103, 109, 110)),
    # the G □ K₂ product on the same front: T3.5(7,2), T2.4(7,2), T3.5(6,3)
    (lambda: max_union_two_intersecting(7, 2), 13, 16, tuple(range(15, 28))),
    (lambda: induced_bipartite_search(build_graph("K", 7, 2)), 11, 10, tuple(range(11))),
    (lambda: max_union_two_intersecting(6, 3), 36, 1864, tuple(range(20, 56))),
    (lambda: clique_free_search(build_graph("K", 10, 2), 2), 17, 12, tuple(range(17))),
    (lambda: clique_free_search(build_graph("K", 8, 2), 2), 13, 9, tuple(range(13))),
    (lambda: clique_free_search(build_graph("K", 12, 2), 2), 21, 10, tuple(range(21))),
    (lambda: clique_free_search(build_graph("K", 9, 2), 3), 21, 3061, tuple(range(21))),
    (lambda: max_p_s1_family(7, 2, 2), 13, 19, (0, 1, 2, 3, 4, 6, 7, 10, 11, 15, 16, 21, 22)),
    (lambda: max_p_s1_family(6, 3, 2), 40, 29,  # 56 vertices
     (1, 2, *range(4, 9), *range(10, 19), *range(20, 34), 36, 38, 39, 41, 42, 43, *range(45, 49))),
    (lambda: max_p_s1_family(8, 2, 3), 21, 24,
     (1, 3, 4, 6, 7, 8, 10, 11, 12, 13, *range(15, 20), *range(21, 27))),
]


def _member_ranks(fam):
    rank = multiset_rank if fam.kind == MULTISET else kset_rank
    return tuple(sorted(rank(a) for a in fam.members))


@pytest.mark.parametrize(
    "search, optimum, nodes, ranks",
    # a row's id is its search, optimum and node count
    [pytest.param(*row, id=f"{row[0].__name__}-{row[1]}-{row[2]}") for row in PINNED_NODE_COUNTS],
)
def test_pinned_node_counts(search, optimum, nodes, ranks):
    result = search()
    assert result.proved
    assert (result.optimum, result.nodes_explored) == (optimum, nodes)
    assert _member_ranks(result.witness) == ranks


def test_deep_clique_search_stops_at_the_node_limit():
    # the optimum, 1001 members, is deeper than the default recursion limit
    result = max_independent_set(build_graph("M", 11, 5), node_limit=1000)
    assert result.status == NODE_LIMIT_HIT
    assert result.nodes_explored == 1001
    assert is_t_intersecting(result.witness, 1)


def test_mis_edgeless_graph_takes_everything():
    graph = build_graph("K", 3, 2)  # all 2-subsets of [3] pairwise intersect
    result = max_independent_set(graph)
    assert result.optimum == 3


def test_node_limit_is_reported_not_silent():
    graph = build_graph("M", 5, 3)
    result = max_independent_set(graph, node_limit=1)
    assert result.status == NODE_LIMIT_HIT
    assert result.optimum <= 15
    assert is_t_intersecting(result.witness, 1)


@pytest.mark.parametrize("limit", [0, -1])
def test_node_limit_below_one_is_rejected(limit):
    graph = build_graph("M", 4, 2)
    for search in (
        lambda: max_independent_set(graph, node_limit=limit),
        lambda: enumerate_maximum_independent_sets(graph, node_limit=limit, optimum=4),
        lambda: max_intersecting_empty_common(build_graph("M", 4, 2), node_limit=limit),
        lambda: max_t_intersecting_nontrivial(build_graph("M_t", 4, 2, 1), node_limit=limit),
        lambda: max_p_s1_family(4, 2, 2, node_limit=limit),
        lambda: max_union_two_intersecting(4, 2, node_limit=limit),
    ):
        with pytest.raises(ContractError, match="node limit"):
            search()


def test_node_limit_on_every_constrained_solver():
    for result in (
        max_intersecting_empty_common(build_graph("M", 5, 3), node_limit=2),
        max_t_intersecting_nontrivial(build_graph("M_t", 5, 3, 2), node_limit=2),
        max_p_s1_family(5, 2, 2, node_limit=1),
        max_union_two_intersecting(4, 2, node_limit=2),
    ):
        assert result.status == NODE_LIMIT_HIT
        assert result.optimum == len(result.witness)


# -- enumeration of optima ------------------------------------------------------

def test_enumerate_optima_boundary_case_has_multiple_classes():
    graph = build_graph("M", 4, 3)
    enum = enumerate_maximum_independent_sets(graph)
    assert enum.complete and enum.optimum == 10
    classes = {canonical_form(f).members for f in enum.families}
    assert len(classes) >= 2


def test_enumerate_optima_above_boundary_is_unique_star_class():
    graph = build_graph("M", 5, 3)
    enum = enumerate_maximum_independent_sets(graph)
    assert enum.complete and len(enum.families) == 5
    classes = {canonical_form(f).members for f in enum.families}
    assert len(classes) == 1


def test_enumerate_optima_complete_graph():
    graph = build_graph("M", 3, 1)  # distinct singletons are pairwise disjoint
    enum = enumerate_maximum_independent_sets(graph)
    assert enum.optimum == 1
    assert len(enum.families) == 3


def test_enumerate_cap_flags_partial_output():
    graph = build_graph("M", 4, 3)
    enum = enumerate_maximum_independent_sets(graph, cap=2)
    assert not enum.complete
    assert len(enum.families) == 2


def test_enumerate_with_an_unproved_optimum_returns_the_incumbent():
    # the search behind the enumeration stops before proving 56 on K(9,4)
    enum = enumerate_maximum_independent_sets(build_graph("K", 9, 4), node_limit=10)
    assert not enum.complete
    assert enum.optimum == 56 and len(enum.families) == 1


ENUM_GRID = [
    ("K", 3, 4), ("K", 5, 2), ("K", 6, 2), ("K", 7, 3), ("K", 8, 3),
    ("M", 3, 1), ("M", 4, 2), ("M", 4, 3), ("M", 5, 3), ("M", 6, 2),
    ("M_t", 5, 3, 2), ("M_t", 6, 3, 2), ("M_t", 6, 4, 3),
]


@pytest.mark.parametrize("args", ENUM_GRID)
def test_enumeration_matches_recursive_reference(args):
    graph = build_graph(*args)
    enum = enumerate_maximum_independent_sets(graph)
    assert enum.complete
    masks, complete, _nodes = recursive_enumerate_cliques(complement(rank_adjacency(graph)), enum.optimum)
    assert complete
    expected = {graph.family_from_mask(mask) for mask in masks}
    assert len(enum.families) == len(set(enum.families)) == len(expected)
    assert set(enum.families) == expected


# exact enumeration nodes given the optimum; a change here is a change of
# traversal order and must be deliberate and logged in CHANGES.md
PINNED_ENUMERATION_NODES = [
    (("M", 5, 3), 15, 5, 70),
    (("M", 4, 3), 10, 12, 60),
    (("K", 7, 3), 15, 7, 258),
    (("M_t", 7, 4, 2), 28, 28, 909),
]


@pytest.mark.parametrize("args, optimum, count, nodes", PINNED_ENUMERATION_NODES)
def test_pinned_enumeration_node_counts(args, optimum, count, nodes):
    enum = enumerate_maximum_independent_sets(build_graph(*args), optimum=optimum)
    assert enum.complete
    assert (len(enum.families), enum.nodes_explored) == (count, nodes)


def test_enumeration_of_a_deep_optimum():
    # K(13,7) has no edges: one optimum of 1716 members, deeper than the
    # default recursion limit
    enum = enumerate_maximum_independent_sets(build_graph("K", 13, 7))
    assert enum.complete and enum.optimum == 1716
    assert len(enum.families) == 1 and len(enum.families[0]) == 1716


def test_enumeration_rejects_a_target_below_the_optimum():
    with pytest.raises(ContractError, match="clique number"):
        enumerate_maximum_independent_sets(build_graph("M", 4, 2), optimum=3)


# -- optima up to isomorphism ---------------------------------------------------

# multi-class instances (K(6,3) has 13 classes, M_t(5,4,3) 4, M_t(8,5,2) 3)
# and instances outside their theorem's hypothesis (K(5,3), M(3,3), M(4,4),
# M_t(5,4,2)) next to unique ones, on every graph kind
ORBIT_GRID = ENUM_GRID + [
    ("K", 6, 3), ("K", 5, 3), ("K", 9, 3), ("M", 3, 3), ("M", 4, 4), ("M", 6, 3),
    ("M_t", 4, 3, 2), ("M_t", 5, 4, 2), ("M_t", 5, 4, 3), ("M_t", 7, 4, 2), ("M_t", 8, 5, 2),
    ("K_t", 6, 3, 2), ("K_t", 7, 4, 2), ("M_support_t", 4, 3, 2), ("M_support_t", 5, 3, 2),
]


@pytest.mark.parametrize("args", ORBIT_GRID)
def test_optimum_orbits_match_full_enumeration_classes(args):
    graph = build_graph(*args)
    full = enumerate_maximum_independent_sets(graph, cap=None)
    assert full.complete
    orbits = enumerate_optimum_orbits(graph, full.optimum, cap=None)
    assert orbits.complete and orbits.optimum == full.optimum
    assert set(orbits.families) <= set(full.families)
    for fam in orbits.families:
        assert len(fam) == full.optimum
        _validate_witness(graph, fam)
    classes = {canonical_form(f).members for f in full.families}
    assert {canonical_form(f).members for f in orbits.families} == classes


# exact orbital enumeration nodes and sets recorded given the optimum; a
# change here is a change of traversal order and must be deliberate and
# logged in CHANGES.md
PINNED_ORBIT_NODES = [
    (("K", 6, 3), 10, 145, 162),
    (("M", 4, 3), 10, 5, 25),
    (("M_t", 7, 4, 2), 28, 3, 88),
    (("M_t", 8, 5, 2), 120, 4, 605),
    (("K", 10, 4), 84, 1, 825),
]


@pytest.mark.parametrize("args, optimum, count, nodes", PINNED_ORBIT_NODES)
def test_pinned_orbit_enumeration_node_counts(args, optimum, count, nodes):
    enum = enumerate_optimum_orbits(build_graph(*args), optimum)
    assert enum.complete
    assert (len(enum.families), enum.nodes_explored) == (count, nodes)


def test_optimum_orbits_symmetry_reduction_guard():
    # K(6,3) has 1024 optima in 13 classes; enumerating them all takes
    # 1,023 nodes, one representative per class far fewer
    enum = enumerate_optimum_orbits(build_graph("K", 6, 3), 10, node_limit=300)
    assert enum.complete
    assert len({canonical_form(f).members for f in enum.families}) == 13


def test_optimum_orbits_flag_truncation():
    graph = build_graph("K", 6, 3)
    capped = enumerate_optimum_orbits(graph, 10, cap=2)
    assert not capped.complete and len(capped.families) == 2
    limited = enumerate_optimum_orbits(graph, 10, node_limit=5)
    assert not limited.complete and limited.nodes_explored == 6
    with pytest.raises(ContractError, match="clique number"):
        enumerate_optimum_orbits(build_graph("M", 4, 2), 3)


def test_orbit_walk_ends_where_the_trimmed_order_ends(monkeypatch):
    # K(7,3) has nodes of the orbital loop whose trimmed colour
    # order is empty while candidates remain: the walk must stop at the
    # order's end and leave those candidates to the bound, as the full
    # colouring's walk did
    seen = _colourings(monkeypatch, _MaxCliqueSolver)
    graph = build_graph("K", 7, 3)
    enum = enumerate_optimum_orbits(graph, 15)
    assert enum.complete
    assert (len(enum.families), enum.nodes_explored) == (1, 30)
    assert any(p_mask and not order for p_mask, order in seen)
    full = enumerate_maximum_independent_sets(graph, optimum=15)
    classes = {canonical_form(f).members for f in full.families}
    assert {canonical_form(f).members for f in enum.families} == classes
    # the MIS search walks the same loop
    seen.clear()
    assert max_independent_set(graph).nodes_explored == 13
    assert seen


def test_optimum_orbits_of_a_deep_optimum():
    enum = enumerate_optimum_orbits(build_graph("K", 13, 7), 1716)
    assert enum.complete
    assert len(enum.families) == 1 and len(enum.families[0]) == 1716


# -- empty common intersection ---------------------------------------------------

def test_empty_common_reference_values():
    assert max_intersecting_empty_common(build_graph("M", 6, 3)).optimum == 16
    assert max_intersecting_empty_common(build_graph("M", 4, 3)).optimum == 10
    assert max_intersecting_empty_common(build_graph("M", 3, 1)).optimum == 0


def test_empty_common_seed_equals_unseeded():
    seeded = max_intersecting_empty_common(build_graph("M", 5, 3), seed=hm_multiset(5, 3))
    plain = max_intersecting_empty_common(build_graph("M", 5, 3))
    assert seeded.optimum == plain.optimum


def test_empty_common_witness_is_valid():
    result = max_intersecting_empty_common(build_graph("M", 5, 3))
    assert is_t_intersecting(result.witness, 1)
    assert common_intersection(result.witness).cardinality == 0


def test_empty_common_rejects_invalid_seed():
    with pytest.raises(ContractError):
        max_intersecting_empty_common(build_graph("M", 4, 3), seed=frankl_multiset(4, 3, 2, 0))


@pytest.mark.parametrize("graph", [
    build_graph("K", 6, 3), build_graph("K_t", 6, 3, 2), build_graph("M_support_t", 5, 3, 2),
], ids=lambda graph: graph.kind)
def test_small_core_searches_refuse_another_kind(graph):
    # fed to the solver, K(6,3) broke in _filter and M'(5,3,2) answered a
    # support question; the entries refuse both before any search
    for search in (max_intersecting_empty_common, max_t_intersecting_nontrivial):
        with pytest.raises(ContractError, match="on M or M_t graphs"):
            search(graph)


def test_empty_common_refuses_a_threshold_above_one():
    # empty common intersection is the t = 1 question; M_t(5,3,2) asks another
    with pytest.raises(ContractError, match=r"at t = 1, got M\(5,3,2\)"):
        max_intersecting_empty_common(build_graph("M_t", 5, 3, 2))
    assert max_intersecting_empty_common(build_graph("M_t", 5, 3, 1)).optimum == 13


def test_small_core_searches_refuse_t_above_k():
    for search in (max_intersecting_empty_common, max_t_intersecting_nontrivial):
        with pytest.raises(ContractError, match="need 1 <= t <= k, got t=1, k=0"):
            search(build_graph("M", 3, 0))
    with pytest.raises(ContractError, match="need 1 <= t <= k, got t=3, k=2"):
        max_t_intersecting_nontrivial(build_graph("M_t", 4, 2, 3))


def _small_core_instance(m, k, t):
    graph = build_graph("M_t", m, k, t)
    counts = list(graph.multiplicities)
    return graph, counts, pairwise_compat_masks(counts, t)


def _construction_seed(m, k, t):
    """The family verify seeds T3.3 (t = 1) or T4.8 with, where it exists."""
    if t == 1:
        return hm_multiset(m, k) if m >= k + 1 and k >= 2 else None
    return frankl_multiset(m, k, t, 1) if t + 2 <= m and t + 1 <= k else None


def _assert_small_core_family(fam, t):
    assert pair_loop_is_t_intersecting(fam, t)
    if len(fam):
        assert common_intersection(fam).cardinality < t


def _assert_small_core_result(result, t):
    assert result.proved and result.optimum == len(result.witness)
    _assert_small_core_family(result.witness, t)


def test_vertex_reference_reproduces_the_old_node_counts():
    # the vertex-by-vertex front end the orbital one replaced
    for (m, k, t), optimum, nodes in (
        ((6, 3, 1), 16, 2535),
        ((5, 3, 1), 13, 412),
        ((6, 4, 2), 21, 3855),
        ((7, 3, 1), 19, 11300),
    ):
        _graph, counts, compat = _small_core_instance(m, k, t)
        best, _mask, explored = vertex_small_core_search(counts, compat, t)
        assert (best, explored) == (optimum, nodes), (m, k, t)


# the vertex-by-vertex reference needs 404,376 and millions of nodes here;
# the theorem's closed form (T3.3 holds for 1 < k <= m-1) stands in for it
CLOSED_FORM_ONLY = {(7, 4, 1), (8, 4, 1)}


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("k", range(1, 5))
def test_small_core_matches_vertex_reference(m, k):
    # a seed never changes the optimum, so seeded and unseeded searches
    # both answer to the unseeded reference
    for t in range(1, k + 1):
        graph, counts, compat = _small_core_instance(m, k, t)
        if (m, k, t) in CLOSED_FORM_ONLY:
            expected = hm_multiset_size(m, k)
        else:
            expected, mask, _nodes = vertex_small_core_search(counts, compat, t)
            assert mask.bit_count() == expected
            _assert_small_core_family(graph.family_from_mask(mask), t)
        seed = _construction_seed(m, k, t)
        for seed in (None, seed) if seed is not None else (None,):
            searches = [max_t_intersecting_nontrivial(graph, seed=seed)]
            if t == 1:
                searches.append(max_intersecting_empty_common(build_graph("M", m, k), seed=seed))
            for result in searches:
                _assert_small_core_result(result, t)
                assert result.optimum == expected, (m, k, t, seed is not None)


@pytest.mark.parametrize("m, k", [(m, k) for m in range(1, 17) for k in range(1, 5)
                                  if multichoose(m, k) <= 16])
def test_small_core_matches_subset_bruteforce(m, k):
    for t in range(1, k + 1):
        _graph, counts, compat = _small_core_instance(m, k, t)
        best, _mask = brute_small_core(counts, t, t)
        assert vertex_small_core_search(counts, compat, t)[0] == best, (m, k, t)
        result = max_t_intersecting_nontrivial(build_graph("M_t", m, k, t))
        _assert_small_core_result(result, t)
        assert result.optimum == best, (m, k, t)


def _record_front_orbits(monkeypatch):
    """Record the orbits the orbital loop reads: at its root, and at every
    cut, where _refine has listed parts and _cut splits the groups.  Each
    record is (chosen members, cls, multiplicity rows, the vertices
    grouped, their orbits); a grouped vertex the cut leaves in no group is
    recorded as an orbit by itself."""
    seen = []
    at = {}
    front, children = _MaxCliqueSolver._front, _MaxCliqueSolver._children
    refine, cut = search._refine, search._cut

    def recording_front(self):
        root = self.cls or (0,) * len(self.counts[0])
        seen.append((0, root, self.counts, (1 << self.n) - 1, list(self.orbits)))
        front(self)

    def recording_children(self, r_mask, v, p_mask):
        # the node whose orbits a cut computes next
        at.update(chosen=r_mask | 1 << v, rows=self.counts)
        return children(self, r_mask, v, p_mask)

    def recording_refine(cls, row):
        at["cls"], parts = refine(cls, row)
        return at["cls"], parts

    def record(groups, parts, columns):
        vertices = sum(groups)  # the groups are disjoint
        kept, grouped = cut(groups, parts, columns)
        alone = [1 << v for v in bits(vertices & ~grouped)]
        seen.append((at["chosen"], at["cls"], at["rows"], vertices, kept + alone))
        return kept, grouped

    monkeypatch.setattr(_MaxCliqueSolver, "_front", recording_front)
    monkeypatch.setattr(_MaxCliqueSolver, "_children", recording_children)
    monkeypatch.setattr("multifam.search._refine", recording_refine)
    monkeypatch.setattr("multifam.search._cut", record)
    return seen


def _assert_stabiliser_orbits(seen, group, root_cls):
    """Brute force over `group`, maps of the row elements (a row's entry e
    moves to p[e]): the maps fixing every chosen member carry each orbit's
    first member onto exactly that orbit, the orbits partition the grouped
    vertices, and cls numbers the classes of equal root class and equal
    signature under the chosen members."""
    width = len(root_cls)
    for r_mask, cls, rows, vertices, orbits in seen:
        index = {row: i for i, row in enumerate(rows)}
        chosen = [rows[v] for v in bits(r_mask)]
        signature = [(root_cls[e], *(c[e] for c in chosen)) for e in range(width)]
        assert all(
            (cls[e] == cls[f]) == (signature[e] == signature[f])
            for e in range(width) for f in range(width)
        )
        stab = [p for p in group if all(tuple(c[p[e]] for e in range(width)) == c for c in chosen)]
        covered = 0
        for orbit in orbits:
            rep = rows[(orbit & -orbit).bit_length() - 1]
            images = {index[tuple(rep[p[e]] for e in range(width))] for p in stab}
            assert sum(1 << v for v in images) == orbit
            assert orbit & covered == 0
            covered |= orbit
        assert covered == vertices


@pytest.mark.parametrize("m", range(2, 6))
def test_small_core_orbits_are_stabiliser_orbits(m, monkeypatch):
    # the group is the m! permutations of [m]
    group = list(permutations(range(m)))
    seen = _record_front_orbits(monkeypatch)
    for k in range(1, 5):
        for t in range(1, k + 1):
            solver = _SmallCoreSolver(build_graph("M_t", m, k, t).ordered, t, None, 0)
            assert not solver.solve()[3]
    assert seen and (m == 2 or any(r_mask for r_mask, *_rest in seen))
    _assert_stabiliser_orbits(seen, group, (0,) * m)


@pytest.mark.parametrize("m", range(2, 5))
def test_product_orbits_are_stabiliser_orbits(m, monkeypatch):
    # the group is S_m × Z₂: the m! permutations of [m], each with and
    # without the swap of the two side markers
    group = [p + swap for p in permutations(range(m)) for swap in ((m, m + 1), (m + 1, m))]
    seen = _record_front_orbits(monkeypatch)
    for kind in ("K", "M"):
        for k in range(1, 4):
            if kind == "M" or k <= m:
                result = induced_bipartite_search(build_graph(kind, m, k))
                assert result.proved
    assert seen and (m == 2 or any(r_mask for r_mask, *_rest in seen))
    _assert_stabiliser_orbits(seen, group, (0,) * m + (1, 1))
    for _r_mask, cls, *_rest in seen:
        assert not set(cls[:m]) & set(cls[m:])  # no marker shares a real element's class


def _orbital_paths(graph, limit):
    """Every orbital search on `graph`, each stopped after `limit` nodes:
    the MIS proof, the optimum orbit enumeration (when the proof ends), the
    clique-free search at s = 2, the small-core search (on M_t) and the
    G □ K₂ product."""
    mis = max_independent_set(graph, limit)
    if mis.proved:
        enumerate_optimum_orbits(graph, mis.optimum, node_limit=limit)
    clique_free_search(graph, 2, limit)
    if graph.kind == "M_t" and graph.t <= graph.k:
        max_t_intersecting_nontrivial(graph, limit)
    induced_bipartite_search(graph, limit)


@pytest.mark.parametrize("kind", graphs.GRAPH_KINDS)
def test_every_cut_is_the_sorted_key_partition(kind, monkeypatch):
    # every split the orbital loop makes, and its root orbits, against the
    # sorted-key orbits of the same vertices, compared as sets; and every
    # refined cls against the signature reference
    seen = _record_front_orbits(monkeypatch)
    recording_refine = search._refine
    refined = []

    def checked_refine(cls, row):
        child, parts = recording_refine(cls, row)
        assert child == signature_refine(cls, row)
        assert bool(parts) == (child != cls)
        refined.append(bool(parts))
        return child, parts

    monkeypatch.setattr("multifam.search._refine", checked_refine)
    for graph_kind, m, k, t in _graph_instances():
        if graph_kind == kind:
            _orbital_paths(build_graph(graph_kind, m, k, t), 1000)
    cuts = 0
    for r_mask, cls, rows, vertices, orbits in seen:
        expected = sorted_key_orbit_masks(cls, rows, bits(vertices)).values()
        assert set(orbits) == set(expected), (r_mask, cls)
        cuts += r_mask != 0
    assert cuts > 50 and False in refined


@st.composite
def _rows_and_classes(draw):
    """Rows closed under permuting [m] (every arrangement of a few drawn
    rows, so orbits are large), of counts 0..3 and any sums (so a part's
    top level can decide a cut); cls in rank form; and the row of the
    member chosen next."""
    m = draw(st.integers(1, 5))
    row = st.tuples(*[st.integers(0, 3)] * m)
    rows = sorted({p for base in draw(st.lists(row, min_size=1, max_size=3))
                   for p in permutations(base)})
    raw = draw(st.tuples(*[st.integers(0, 1)] * m))
    return rows, signature_refine((0,) * m, raw), draw(st.tuples(*[st.integers(0, 2)] * m))


# (1,2,0) and (2,1,0) agree on the part {0, 1} of the class [3] that
# (0,0,1) splits, yet differ on each of its elements at level 1
@example((sorted(permutations((0, 1, 2))), (0, 0, 0), (0, 0, 1)))
@given(_rows_and_classes())
def test_cut_is_the_sorted_key_partition_on_random_rows(case):
    rows, cls, row = case

    def groups_under(classes):
        orbits = sorted_key_orbit_masks(classes, rows, range(len(rows))).values()
        return [o for o in orbits if o & (o - 1)]

    child, parts = _refine(cls, row)
    assert child == signature_refine(cls, row)
    columns = ladder_columns(rows, len(cls), max(map(max, rows)))
    kept, grouped = _cut(groups_under(cls), parts, columns)
    assert set(kept) == set(groups_under(child)) and len(kept) == len(set(kept))
    assert grouped == sum(kept)


def test_product_columns_are_the_ladder_columns_of_its_rows(monkeypatch):
    # the G □ K₂ table derived from the view's, against the product's own
    # rows: k+1 levels, both copies of each real column, the side markers
    tables = []
    front = _MaxCliqueSolver._front

    def recording_front(self):
        tables.append((self.counts, self.columns))
        front(self)

    monkeypatch.setattr(_MaxCliqueSolver, "_front", recording_front)
    for kind, m, k, t in _graph_instances():
        graph = build_graph(kind, m, k, t)
        if not graph.n_vertices:
            continue
        tables.clear()
        induced_bipartite_search(graph, node_limit=1)
        (counts, columns), = tables
        assert len(counts) == 2 * graph.n_vertices
        assert columns == ladder_columns(counts, m + 2, k + 1), (kind, m, k, t)


def test_small_core_filter_matches_the_row_scan(monkeypatch):
    # the bitset filter against the per-candidate scan it replaced, at every
    # node the small-core searches filter
    outcomes = set()
    real = _SmallCoreSolver._filter

    def checked(self, core, p_mask, bound):
        order, bounds = real(self, core, p_mask, bound)
        assert order == scan_small_core_filter(self.counts, core, p_mask, self.limit)
        assert bounds == [bound] * len(order)
        outcomes.add(bool(order))
        return order, bounds

    monkeypatch.setattr(_SmallCoreSolver, "_filter", checked)
    for m in range(1, 8):
        for k in range(1, 5):
            for t in range(1, k + 1):
                graph = build_graph("M_t", m, k, t)
                seed = _construction_seed(m, k, t)
                for seed in (None, seed) if seed is not None else (None,):
                    _assert_small_core_result(max_t_intersecting_nontrivial(graph, seed=seed), t)
    assert outcomes == {True, False}


def test_small_core_front_end_prunes_on_an_empty_trimmed_order(monkeypatch):
    # seeded at its optimum, a front-end node whose candidates cannot beat
    # the seed gets an empty trimmed colour order and is pruned
    seed = max_intersecting_empty_common(build_graph("M", 6, 3)).witness
    seen = _colourings(monkeypatch, _SmallCoreSolver)
    result = max_intersecting_empty_common(build_graph("M", 6, 3), seed=seed)
    assert result.proved and result.optimum == 16
    assert any(p_mask and not order for p_mask, order in seen)


def test_small_core_symmetry_reduction_guard():
    # the orbital front proves T3.3(7,4) in 358 nodes; the vertex-by-vertex
    # front end needs 404,376
    report = verify_theorem("T3.3", {"m": 7, "k": 4}, node_limit=1_000)
    assert report.status == "ok" and report.search_optimum == 75


# -- P(s,1) families --------------------------------------------------------------

def test_p_s1_delegates_for_s_equal_one():
    via_p = max_p_s1_family(4, 2, 1)
    via_mis = max_independent_set(build_graph("M", 4, 2))
    assert via_p.optimum == via_mis.optimum


@given(random_adjacency(max_n=9), st.sampled_from((2, 3)))
def test_clique_free_matches_bruteforce(adj, s):
    solver = _CliqueFreeSolver(plain_view(complement(adj)), s, None)
    best, mask, _nodes, limited = solver.solve()
    assert not limited
    assert best == brute_max_clique_free(adj, s)
    assert mask.bit_count() == best
    assert not has_clique(adj, mask, s + 1)


@pytest.mark.parametrize("kind, m, k, s", [
    ("K", 7, 2, 2), ("K", 8, 2, 2), ("K", 10, 2, 2), ("K", 8, 2, 3), ("K", 8, 3, 2),
    ("M", 5, 2, 2), ("M", 7, 2, 2), ("M", 5, 3, 2), ("M", 6, 3, 2), ("M", 6, 2, 3),
    ("M", 8, 2, 3),
])
def test_clique_free_matches_exclusion_reference(kind, m, k, s):
    graph = build_graph(kind, m, k)
    best, _mask, _nodes = exclusion_max_clique_free(rank_adjacency(graph), s)
    result = clique_free_search(graph, s)
    assert result.proved and result.optimum == len(result.witness) == best
    assert has_property_p_s1(result.witness, s)


# every graph kind, among them instances outside their theorem's
# hypothesis (K(5,3), M(4,4), M_t(5,4,2)); s = 1 is the MIS search
ORBITAL_GRID = [
    ("K", 5, 2), ("K", 5, 3), ("K", 6, 2), ("K", 7, 3), ("K_t", 6, 3, 2), ("K_t", 6, 4, 3),
    ("M", 3, 3), ("M", 4, 2), ("M", 4, 4), ("M", 5, 3), ("M", 6, 2),
    ("M_t", 4, 3, 2), ("M_t", 5, 4, 2), ("M_t", 5, 4, 3), ("M_t", 6, 3, 2),
    ("M_support_t", 4, 3, 2), ("M_support_t", 5, 3, 2),
]
# the references take 2-40 s a case here (the M_t graphs of 56 and 70
# vertices at s = 3)
ORBITAL_SLOW = {(("M_t", 5, 4, 2), 3), (("M_t", 5, 4, 3), 3), (("M_t", 6, 3, 2), 3)}


@pytest.mark.parametrize("args, s", [
    pytest.param(args, s, id=f"{args[0]}{args[1:]}-s{s}")
    for args in ORBITAL_GRID for s in (1, 2, 3) if (args, s) not in ORBITAL_SLOW
])
def test_orbital_searches_match_the_plain_loop_and_bruteforce(args, s):
    graph = build_graph(*args)
    adj = rank_adjacency(graph)
    if s == 1:
        result = max_independent_set(graph)
        if graph.n_vertices <= 16:
            expected = brute_max_independent_set(adj)
        else:
            expected = exclusion_max_clique_free(adj, 1)[0]
        _validate_witness(graph, result.witness)
    else:
        result = clique_free_search(graph, s)
        expected = exclusion_max_clique_free(adj, s)[0]
        assert has_property_p_s1(result.witness, s)
    plain = _plain(graph, s)
    assert result.proved and plain.proved
    assert result.optimum == len(result.witness) == plain.optimum == expected


# -- seeded searches ------------------------------------------------------------

def _rank_mask(graph, fam):
    """fam's members as a bitset of the graph's ranks, through an index of
    the rows (not the library's slot map)."""
    index = {row: v for v, row in enumerate(graph.multiplicities)}
    return sum(1 << index[row] for row in multiplicity_rows(fam.members))


def _slots_to_ranks(graph, slots):
    to_old = graph.ordered.to_old
    return sum(1 << to_old[i] for i in bits(slots))


def _prefixes(fam):
    """fam and its leading sub-families of 0, 1, half and all but one of its
    members: valid seeds of every size up to fam's, in one universe."""
    members = fam.members
    for size in sorted({0, 1, len(members) // 2, len(members) - 1, len(members)}):
        if 0 <= size <= len(members):
            yield Family(fam.m, fam.k, fam.kind, members[:size])


def _search(graph, s, seed=None):
    """The MIS search (s = 1) or the clique-free one."""
    if s == 1:
        return max_independent_set(graph, seed=seed)
    return clique_free_search(graph, s, seed=seed)


def _assert_seeded_matches_unseeded(graph, s, seed):
    plain = _search(graph, s)
    seeded = _search(graph, s, seed)
    where = (graph.label(), s, len(seed))
    assert (seeded.optimum, seeded.status) == (plain.optimum, plain.status), where
    assert len(seeded.witness) == seeded.optimum
    mask = _rank_mask(graph, seeded.witness)
    assert graph.family_from_mask(mask) == seeded.witness
    if s > 1:
        assert not has_clique(rank_adjacency(graph), mask, s + 1)
    elif graph.kind == "M_support_t":
        assert pair_loop_is_support_t_intersecting(seeded.witness, graph.t)
    else:
        assert pair_loop_is_t_intersecting(seeded.witness, graph.t)


@pytest.mark.parametrize("args, s", [
    pytest.param(args, s, id=f"{args[0]}{args[1:]}-s{s}")
    for args in ORBITAL_GRID for s in (1, 2, 3) if (args, s) not in ORBITAL_SLOW
])
def test_seeded_searches_match_unseeded(args, s):
    # seeds of every size from the unseeded witness: each search keeps its
    # optimum and status, and its witness passes the pair-loop oracles
    graph = build_graph(*args)
    for seed in _prefixes(_search(graph, s).witness):
        _assert_seeded_matches_unseeded(graph, s, seed)


@pytest.mark.parametrize("graph, s, construction", [
    (("K", 7, 3), 1, lambda: frankl_set(7, 3, 1, 0)),
    (("M", 6, 3), 1, lambda: star(6, 3, 1)),
    (("M_t", 5, 4, 2), 1, lambda: frankl_multiset(5, 4, 2, 1)),  # T4.1(5,4,2), m < 2k-t
    (("M_t", 6, 3, 2), 1, lambda: frankl_multiset(6, 3, 2, 0)),
    (("M_support_t", 5, 3, 2), 1, lambda: frankl_multiset(5, 3, 2, 0)),
    (("K_t", 7, 3, 2), 1, lambda: frankl_set(7, 3, 2, 0)),
    (("K", 8, 2), 2, lambda: hit_s_set(8, 2, (1, 2))),
    (("M", 7, 2), 2, lambda: hit_s(7, 2, (1, 2))),
    (("M", 6, 2), 3, lambda: hit_s(6, 2, (1, 2, 3))),
    (("K_t", 6, 3, 2), 2, lambda: frankl_set(6, 3, 2, 0)),
    (("M_t", 5, 3, 2), 2, lambda: frankl_multiset(5, 3, 2, 0)),
])
def test_construction_seeds_match_unseeded(graph, s, construction):
    graph = build_graph(*graph)
    fam = construction()
    for seed in _prefixes(fam):
        _assert_seeded_matches_unseeded(graph, s, seed)


def test_a_seed_below_the_optimum_is_beaten():
    # M(6,3): the greedy clique has 10 members, the star 21; the star less
    # five members is adopted over the greedy clique, and the search must
    # still find, decode and check a 21-member optimum
    graph = build_graph("M", 6, 3)
    seed = Family(6, 3, MULTISET, star(6, 3, 1).members[5:])
    greedy = _MaxCliqueSolver(graph.ordered)
    greedy._seed()
    assert greedy.best == 10 < len(seed) == 16
    result = max_independent_set(graph, seed=seed)
    assert result.proved and result.optimum == len(result.witness) == 21
    assert result.witness != seed
    assert pair_loop_is_t_intersecting(result.witness, 1)
    # the clique-free search likewise beats a hitting family less members
    graph = build_graph("K", 8, 2)
    seed = Family(8, 2, "set", hit_s_set(8, 2, (1, 2)).members[3:])
    result = clique_free_search(graph, 2, seed=seed)
    assert result.proved and result.optimum == len(result.witness) == 13
    assert not has_clique(rank_adjacency(graph), _rank_mask(graph, result.witness), 3)


def test_greedy_clique_replaces_only_a_smaller_seed():
    graph = build_graph("M", 6, 3)
    view = graph.ordered
    greedy = _MaxCliqueSolver(view)
    greedy._seed()
    assert greedy.best == 10 and greedy.best_mask.bit_count() == 10
    # a one-vertex seed gives way to the larger greedy clique
    solver = _MaxCliqueSolver(view, seed=1)
    solver._seed()
    assert (solver.best, solver.best_mask) == (greedy.best, greedy.best_mask)
    # a seed as large as the greedy clique is kept
    star_slots = _seed_slots(graph, star(6, 3, 1), graph.is_independent, "")
    tied = 0
    for i in bits(star_slots):
        if tied.bit_count() < 10:
            tied |= 1 << i
    assert tied != greedy.best_mask
    solver = _MaxCliqueSolver(view, seed=tied)
    solver._seed()
    assert (solver.best, solver.best_mask) == (10, tied)
    # the small-core solver never takes a greedy clique
    small = _SmallCoreSolver(build_graph("M_t", 6, 3, 1).ordered, 1, None, 0)
    small._seed()
    assert (small.best, small.best_mask) == (0, 0)


@pytest.mark.parametrize("args, construction", [
    (("K", 7, 3), lambda: frankl_set(7, 3, 1, 0)),
    (("M", 8, 4), lambda: star(8, 4, 1)),
    (("M_t", 8, 4, 2), lambda: frankl_multiset(8, 4, 2, 1)),
    (("M_t", 9, 4, 3), lambda: frankl_multiset(9, 4, 3, 0)),
    (("M_support_t", 5, 3, 2), lambda: frankl_multiset(5, 3, 2, 0)),
])
def test_seed_slots_map_the_construction(args, construction):
    # the slot bitset, read back through the branching view, decodes to
    # the construction itself
    graph = build_graph(*args)
    fam = construction()
    slots = _seed_slots(graph, fam, graph.is_independent, "")
    assert slots.bit_count() == len(fam)
    assert graph.family_from_mask(_slots_to_ranks(graph, slots)) == fam
    assert _slots_to_ranks(graph, slots) == _rank_mask(graph, fam)


def test_invalid_seeds_are_refused_before_any_search(monkeypatch):
    def fail(self):
        raise AssertionError("a search ran")

    monkeypatch.setattr(_MaxCliqueSolver, "solve", fail)
    graph = build_graph("M", 5, 3)
    stray = Multiset.from_elements(5, (2, 2, 3))  # misses the star's element
    refused = [
        # a star plus one member that misses its element
        lambda: max_independent_set(
            graph, seed=Family.of_multisets(5, 3, [*star(5, 3, 1).members, stray])),
        # families from other universes: (m, k) and the member kind
        lambda: max_independent_set(graph, seed=star(6, 3, 1)),
        lambda: max_independent_set(graph, seed=star(5, 2, 1)),
        lambda: max_independent_set(build_graph("K", 5, 3), seed=star(5, 3, 1)),
        # a 2-intersecting graph refuses a family that is only intersecting
        lambda: max_independent_set(build_graph("M_t", 5, 3, 2), seed=star(5, 3, 1)),
        # a member outside the universe, and a repeated member
        lambda: max_independent_set(
            graph, seed=Family(5, 3, MULTISET, (Multiset.from_elements(5, (1, 1, 1, 1)),))),
        lambda: max_independent_set(graph, seed=Family(5, 3, MULTISET, (stray, stray))),
        # not P(2,1): three pairwise disjoint members
        lambda: clique_free_search(build_graph("K", 8, 2), 2, seed=Family.of_sets(
            8, 2, [KSet(8, (1, 2)), KSet(8, (3, 4)), KSet(8, (5, 6))])),
        # P(1,1) is intersecting: the clique-free entry at s = 1 refuses two
        # disjoint members
        lambda: clique_free_search(build_graph("M", 4, 2), 1, seed=Family.of_multisets(
            4, 2, [Multiset.from_elements(4, (1, 1)), Multiset.from_elements(4, (2, 2))])),
        # three members of the hitting family pairwise share one element:
        # a triangle of K_t(6,3,2), so not P(2,1) under the graph's rule
        lambda: clique_free_search(build_graph("K_t", 6, 3, 2), 2, seed=hit_s_set(6, 3, (1, 2))),
        # the small-core searches: not intersecting, then a common element
        lambda: max_intersecting_empty_common(
            build_graph("M", 4, 3), seed=frankl_multiset(4, 3, 2, 0)),
        lambda: max_intersecting_empty_common(build_graph("M", 5, 3), seed=star(5, 3, 1)),
    ]
    for search in refused:
        with pytest.raises(ContractError):
            search()


def _sets(n, k, *members):
    return Family.of_sets(n, k, [KSet(n, x) for x in members])


def test_clique_free_checks_follow_the_graph_rule(monkeypatch):
    # on K_t(6,3,2) at s = 2, 123, 145 and 246 pairwise share one element:
    # no two are disjoint, so the family is P(2,1), yet it is a triangle of
    # the graph and is refused as a seed
    graph = build_graph("K_t", 6, 3, 2)
    triangle = _sets(6, 3, (1, 2, 3), (1, 4, 5), (2, 4, 6))
    assert has_property_p_s1(triangle, 2)
    assert has_clique(rank_adjacency(graph), _rank_mask(graph, triangle), 3)
    with pytest.raises(ContractError, match="fails the P"):
        clique_free_search(graph, 2, seed=triangle)
    # a construction that is valid on the graph's rule is adopted and
    # changes neither the optimum nor the status
    plain = clique_free_search(graph, 2)
    seeded = clique_free_search(graph, 2, seed=frankl_set(6, 3, 2, 0))
    assert (seeded.optimum, seeded.status) == (plain.optimum, plain.status) == (10, PROVED_OPTIMAL)
    # three multisets pairwise sharing two copies of 1 but one support
    # element: no pair fails M_t(4,3,2)'s rule, every pair fails
    # M_support_t(4,3,2)'s
    heavy = Family.of_multisets(4, 3, [
        Multiset.from_elements(4, (1, 1, e)) for e in (2, 3, 4)])
    for kind, s in (("M_t", 2), ("M_t", 3)):
        plain = clique_free_search(build_graph(kind, 4, 3, 2), s)
        seeded = clique_free_search(build_graph(kind, 4, 3, 2), s, seed=heavy)
        assert (seeded.optimum, seeded.status) == (plain.optimum, plain.status)
    with pytest.raises(ContractError, match="fails the P"):
        clique_free_search(build_graph("M_support_t", 4, 3, 2), 2, seed=heavy)
    # the triangle returned by the solver is caught as a wrong witness
    mask = _rank_mask(graph, triangle)
    monkeypatch.setattr(_CliqueFreeSolver, "solve", lambda self: (3, mask, 1, False))
    with pytest.raises(RuntimeError, match="witness fails"):
        clique_free_search(graph, 2)


def test_each_family_passes_the_predicate_once(monkeypatch):
    # a seed the search keeps is checked once and is the witness itself; a
    # seed the search beats is checked once and its better witness once
    calls = []
    real = is_t_intersecting

    def counting(fam, t):
        calls.append(len(fam))
        return real(fam, t)

    monkeypatch.setattr("multifam.graphs.is_t_intersecting", counting)
    seed = star(6, 3, 1)
    result = max_independent_set(build_graph("M", 6, 3), seed=seed)
    assert result.witness is seed and calls == [21]
    calls.clear()
    smaller = Family(6, 3, MULTISET, seed.members[5:])
    result = max_independent_set(build_graph("M", 6, 3), seed=smaller)
    assert result.optimum == 21 and calls == [16, 21]


def test_clique_free_search_deeper_than_the_recursion_limit():
    # K(1200,1) is complete: any 1100 singletons are an optimum, and the
    # greedy seed meets the root bound
    result = clique_free_search(build_graph("K", 1200, 1), 1100, node_limit=100)
    assert result.proved and result.optimum == 1100
    assert result.nodes_explored == 1


def test_p_s1_reference_value():
    result = max_p_s1_family(7, 2, 2)
    assert result.proved and result.optimum == 13


def test_p_s1_saturated_s_takes_whole_universe():
    # M(3,2) holds at most 3 pairwise disjoint members, so s=3 is no constraint
    result = max_p_s1_family(3, 2, 3)
    assert result.optimum == multichoose(3, 2)


# -- induced bipartite --------------------------------------------------------------

@given(random_adjacency(max_n=9))
def test_bipartite_matches_bruteforce(adj):
    best, (a_mask, b_mask), _nodes, limited = _max_induced_bipartite(
        plain_view(complement(adj)), None
    )
    assert not limited
    assert best == brute_max_induced_bipartite(adj) == two_sided_max_induced_bipartite(adj)[0]
    assert (a_mask | b_mask).bit_count() == best
    assert all(adj[v] & a_mask == 0 for v in bits(a_mask))
    assert all(adj[v] & b_mask == 0 for v in bits(b_mask))


def test_bipartite_reference_values():
    assert max_union_two_intersecting(5, 2).optimum == 9
    assert max_union_two_intersecting(4, 1).optimum == 2


# K and M graphs with k <= 3 and at most 60 vertices, then K(3,0) and K(0,0)
PRODUCT_GRID = [
    (kind, m, k) for kind in ("K", "M") for k in (1, 2, 3) for m in range(1, 61)
    if (binomial(m, k) if kind == "K" else multichoose(m, k)) <= 60
] + [("K", 3, 0), ("K", 0, 0)]
# the two-sided reference takes minutes here; T2.4's closed form
# C(n-1,k-1) + C(n-2,k-1), whose hypothesis holds, stands in for it
PRODUCT_CLOSED_FORM = {("K", 8, 3): binomial(7, 2) + binomial(6, 2)}


def _assert_product_matches_reference(graph):
    key = (graph.kind, graph.m, graph.k)
    if key in PRODUCT_CLOSED_FORM:
        best = PRODUCT_CLOSED_FORM[key]
    else:
        best, _sides = two_sided_max_induced_bipartite(rank_adjacency(graph))
    _best, (a_mask, b_mask), _nodes, _limited = _max_induced_bipartite(graph.ordered, None)
    assert a_mask & b_mask == 0
    for side in (a_mask, b_mask):
        fam = graph.family_from_mask(side)
        if graph.kind == "M_support_t":
            assert pair_loop_is_support_t_intersecting(fam, graph.t)
        else:
            assert pair_loop_is_t_intersecting(fam, graph.t)
    result = induced_bipartite_search(graph)
    assert result.proved and result.optimum == len(result.witness) == best
    assert result.witness == graph.family_from_mask(a_mask | b_mask)


@pytest.mark.parametrize("kind, m, k", PRODUCT_GRID)
def test_product_search_matches_two_sided_reference(kind, m, k):
    _assert_product_matches_reference(build_graph(kind, m, k))


@pytest.mark.parametrize("args", [("K_t", 6, 3, 2), ("M_t", 5, 3, 2), ("M_support_t", 5, 3, 2)])
def test_product_search_on_threshold_kinds_matches_two_sided_reference(args):
    _assert_product_matches_reference(build_graph(*args))


def test_union_of_two_above_the_old_cap():
    # M(6,3) has 56 vertices
    result = max_union_two_intersecting(6, 3)
    assert result.proved and result.optimum == 36


# -- t-intersecting searches ----------------------------------------------------------

def test_t_intersecting_reference_value():
    result = max_t_intersecting(5, 4, 2)
    assert result.proved and result.optimum == 17
    assert is_t_intersecting(result.witness, 2)


def test_support_mode_never_beats_true_mode():
    for (m, k, t) in ((3, 2, 2), (4, 3, 2), (5, 3, 2), (4, 4, 3)):
        true_mode = max_t_intersecting(m, k, t).optimum
        support_mode = max_t_intersecting(m, k, t, mode=SUPPORT_INTERSECTION).optimum
        assert support_mode <= true_mode


def test_modes_agree_inside_the_compression_regime():
    # compression turns any t-intersecting family into a support-t-intersecting
    # one of the same size, so the two optima coincide for m >= 2k-t
    for t in range(1, 4):
        for k in range(t, 5):
            for m in range(max(1, 2 * k - t), 6):
                true_mode = max_t_intersecting(m, k, t).optimum
                support_mode = max_t_intersecting(m, k, t, mode=SUPPORT_INTERSECTION).optimum
                assert true_mode == support_mode, (m, k, t)


def test_homomorphism_bound_on_grid():
    # support-mode optimum never exceeds the set-side optimum at n = m+k-1
    for m in range(2, 6):
        for k in range(2, 5):
            for t in range(1, min(k, 3) + 1):
                support_mode = max_t_intersecting(m, k, t, mode=SUPPORT_INTERSECTION)
                sets = max_independent_set(build_graph("K_t", m + k - 1, k, t))
                assert support_mode.optimum <= sets.optimum, (m, k, t)


def test_tiny_ground_set_forces_common_t_multiset():
    result = max_t_intersecting(2, 3, 2)
    assert common_intersection(result.witness).cardinality >= 2


def test_nontrivial_t_reference_value():
    result = max_t_intersecting_nontrivial(build_graph("M_t", 5, 3, 2))
    assert result.proved and result.optimum == 4
    assert common_intersection(result.witness).cardinality < 2
    unconstrained = max_t_intersecting(5, 3, 2)
    assert result.optimum <= unconstrained.optimum


# -- structural thresholds ---------------------------------------------------------------

def test_threshold_examples():
    assert ak_threshold_r(5, 4, 2).r == 1
    for m in range(5, 9):
        threshold = ak_threshold_r(m, 3, 1)
        assert threshold.r == 0 and not threshold.boundary


def test_threshold_boundaries():
    assert ak_threshold_r(5, 4, 3).tied == (0, 1)
    assert ak_threshold_r(4, 3, 1).tied == (0, 1)  # m = k+1 for t = 1
    boundary = ak_threshold_r(4, 4, 2)
    assert boundary.boundary and boundary.tied == (2, 3)


def test_threshold_boundary_sizes_tie():
    threshold = ak_threshold_r(5, 4, 3)
    n = 5 + 4 - 1
    assert frankl_set_size(n, 4, 3, threshold.tied[0]) == frankl_set_size(n, 4, 3, threshold.tied[1])


def test_threshold_contract_errors():
    with pytest.raises(ContractError):
        ak_threshold_r(3, 4, 2)  # m <= k-t+1
    with pytest.raises(ContractError):
        ak_threshold_r(5, 3, 4)  # t > k
