import pytest
from hypothesis import given
from hypothesis import strategies as st

from multifam import (
    ContractError,
    ScaleExceededError,
    ak_threshold_r,
    binomial,
    build_graph,
    canonical_form,
    clique_free_search,
    common_intersection,
    enumerate_maximum_independent_sets,
    frankl_multiset,
    frankl_set_size,
    has_property_p_s1,
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
    verify_theorem,
)
from multifam import graphs
from multifam.core import MULTISET
from multifam.search import (
    NODE_LIMIT_HIT,
    PROVED_OPTIMAL,
    SUPPORT_INTERSECTION,
    SearchResult,
    _CliqueFreeSolver,
    _CliqueSearch,
    _MaxCliqueSolver,
    _SmallCoreSolver,
    _branching_rows,
    _complement_adj,
    _greedy_color,
    _max_induced_bipartite,
    _orbit_masks,
    _relabel,
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
    exclusion_max_clique_free,
    has_clique,
    pair_loop_graph,
    pair_loop_is_t_intersecting,
    pairwise_compat_masks,
    recursive_enumerate_cliques,
    relabel_by_bits,
    two_sided_max_induced_bipartite,
    vertex_small_core_search,
)
from conftest import random_adjacency


def _solve_mis_raw(adj):
    """Drive the solver core directly on a raw adjacency."""
    n = len(adj)
    full = (1 << n) - 1
    comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    best, mask, _nodes, limited = _MaxCliqueSolver(*_branching_rows(comp)).solve()
    assert not limited
    return best, mask


# -- graph construction -------------------------------------------------------

def test_petersen_shape():
    graph = build_graph("K", 5, 2)
    assert graph.n_vertices == 10
    assert graph.edge_count() == 15
    assert all(graph.degree(v) == 3 for v in range(10))


def test_multiset_graph_sizes():
    assert build_graph("M", 4, 3).n_vertices == multichoose(4, 3) == 20


def test_support_t1_graph_equals_disjointness_graph():
    plain = build_graph("M", 4, 3)
    support = build_graph("M_support_t", 4, 3, 1)
    true_t = build_graph("M_t", 4, 3, 1)
    assert plain.adj == support.adj == true_t.adj


def _graph_instances():
    for kind in ("K", "M", "K_t", "M_t", "M_support_t"):
        for m in range(1, 8):
            for k in range(0, 5):
                for t in [1] if kind in ("K", "M") else range(1, k + 2):
                    yield kind, m, k, t


def test_bit_sliced_builder_matches_pair_loop():
    # t = k+1 exceeds every self-intersection, so only the builder's own
    # self-bit clearing keeps the diagonal empty there
    for kind, m, k, t in _graph_instances():
        graph = build_graph(kind, m, k, t)
        vertices, adj = pair_loop_graph(kind, m, k, t)
        assert graph.vertices == vertices, (kind, m, k, t)
        assert graph.adj == adj, (kind, m, k, t)
        assert not any(mask >> v & 1 for v, mask in enumerate(graph.adj))


def test_branching_view_is_the_sorted_relabelled_complement():
    # the reference is the path the view replaced: complement the rank-order
    # adjacency, sort by (-degree, rank) and permute every row's bits
    for kind, m, k, t in _graph_instances():
        graph = build_graph(kind, m, k, t)
        view = graph.ordered
        comp = _complement_adj(graph.adj)
        order = sorted(range(len(comp)), key=lambda v: (-comp[v].bit_count(), v))
        assert view.to_old == order, (kind, m, k, t)
        assert view.rows == _relabel(comp, order), (kind, m, k, t)
        assert view.counts == [graph.multiplicities[v] for v in order]
        types: dict[tuple, int] = {}
        for i, row in enumerate(view.counts):
            shape = tuple(sorted(row))
            types[shape] = types.get(shape, 0) | 1 << i
        assert sorted(view.orbits) == sorted(types.values()), (kind, m, k, t)
        assert graph.edge_count() == sum(row.bit_count() for row in graph.adj) // 2


def _count_calls(monkeypatch, name):
    """Record the row count of every call to multifam.graphs.<name>."""
    calls = []
    real = getattr(graphs, name)

    def counting(rows, *args):
        calls.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(graphs, name, counting)
    return calls


def test_build_graph_runs_no_ladder(monkeypatch):
    rows_seen = _count_calls(monkeypatch, "_columns")
    ladder_rows = []
    monkeypatch.setattr(graphs, "_meeting", lambda *args: ladder_rows.append(args))
    for args in (("M_t", 6, 3, 2), ("K", 7, 3), ("M_support_t", 5, 3, 2)):
        build_graph(*args)
    assert rows_seen == [] and ladder_rows == []


def test_one_full_ladder_per_searched_graph(monkeypatch):
    # the MIS proof and the orbit enumeration share one cached view, and
    # nothing on that path reads the rank-order adjacency
    ladders = _count_calls(monkeypatch, "_compatibility")
    report = verify_theorem("T1.4", {"m": 6, "k": 3}, uniqueness=True)
    assert report.status == "ok" and report.uniqueness_verdict == "unique_up_to_iso"
    assert ladders == [56]
    ladders.clear()
    enum = enumerate_maximum_independent_sets(build_graph("M", 5, 3))
    assert enum.complete and len(enum.families) == 5
    assert ladders == [35]


def test_graph_searches_never_relabel(monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph search relabelled its rows")

    monkeypatch.setattr("multifam.search._relabel", refuse)
    graph = build_graph("M_t", 6, 3, 2)
    assert max_independent_set(graph).optimum == 6
    assert enumerate_maximum_independent_sets(graph).complete
    assert enumerate_optimum_orbits(graph, 6).complete
    assert clique_free_search(build_graph("M", 5, 2), 2).proved
    # the G □ K₂ product is not the builder's, so it still sorts its rows
    with pytest.raises(AssertionError, match="relabelled"):
        max_union_two_intersecting(4, 2)


def test_cached_views_stay_out_of_equality_and_repr():
    graph = build_graph("M_t", 5, 3, 2)
    max_independent_set(graph)
    graph.degree(0)  # both views are now cached
    fresh = build_graph("M_t", 5, 3, 2)
    assert graph == fresh
    assert repr(graph) == repr(fresh)
    assert "ordered" not in repr(graph) and "adj" not in repr(graph)


def test_small_core_compat_matches_pairwise_masks(monkeypatch):
    for m in range(1, 7):
        for k in range(1, 5):
            for t in range(1, k + 1):
                graph = build_graph("M_t", m, k, t)
                counts = [a.counts for a in graph.vertices]
                assert _complement_adj(graph.adj) == pairwise_compat_masks(counts, t)

    seen = []

    class Recording(_SmallCoreSolver):
        def __init__(self, counts, compat, core_limit, node_limit):
            seen.append((counts, compat, core_limit))
            super().__init__(counts, compat, core_limit, node_limit)

    monkeypatch.setattr("multifam.search._SmallCoreSolver", Recording)
    max_intersecting_empty_common(5, 3)
    max_t_intersecting_nontrivial(5, 3, 2)
    assert [limit for _c, _m, limit in seen] == [1, 2]
    for (counts, compat, _limit), t in zip(seen, (1, 2)):
        assert compat == pairwise_compat_masks(counts, t)


def test_graph_cap_and_kind_validation():
    with pytest.raises(ScaleExceededError):
        build_graph("M", 20, 10, vertex_cap=100)
    with pytest.raises(ContractError):
        build_graph("Q", 4, 2)
    with pytest.raises(ContractError):
        build_graph("M", 4, 2, t=2)


# -- maximum independent set ---------------------------------------------------

@given(random_adjacency(max_n=12))
def test_mis_matches_bruteforce(adj):
    best, mask = _solve_mis_raw(adj)
    assert best == brute_max_independent_set(adj)
    assert mask.bit_count() == best
    assert all(adj[v] & mask == 0 for v in bits(mask))


@st.composite
def _adjacency_and_order(draw):
    adj = draw(random_adjacency(max_n=12))
    full = (1 << len(adj)) - 1
    adj = [draw(st.sampled_from((mask, 0, full))) for mask in adj]
    return adj, draw(st.permutations(range(len(adj))))


@given(_adjacency_and_order())
def test_relabel_matches_per_bit_loop(case):
    adj, order = case
    assert _relabel(adj, order) == relabel_by_bits(adj, order)


@pytest.mark.parametrize("adj", [[], [0], [1]])
def test_relabel_tiny_graphs(adj):
    order = list(range(len(adj)))
    assert _relabel(adj, order) == relabel_by_bits(adj, order) == adj


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
    free = _CliqueSearch(adj, None).free
    expected = ([order[i] for i in kept], [bounds[i] for i in kept])
    assert _greedy_color(p_mask, free, kmin, cap) == expected
    assert _greedy_color(p_mask, free, min(kmin, 1), cap) == (order, bounds)


def _front_end_colourings(monkeypatch, solver):
    """Record (p_mask, trimmed order) at every colouring the solver makes
    outside the shared loop _expand."""
    seen = []
    in_loop = []
    color, expand = solver._color, solver._expand

    def recording_color(self, p_mask, kmin):
        order, bounds = color(self, p_mask, kmin)
        if not in_loop:
            seen.append((p_mask, order))
        return order, bounds

    def flagged_expand(self, *args):
        in_loop.append(1)
        try:
            expand(self, *args)
        finally:
            in_loop.pop()

    monkeypatch.setattr(solver, "_color", recording_color)
    monkeypatch.setattr(solver, "_expand", flagged_expand)
    return seen


def test_mis_reference_values():
    assert max_independent_set(build_graph("K", 5, 2)).optimum == 4
    assert max_independent_set(build_graph("M", 4, 3)).optimum == 10
    assert max_independent_set(build_graph("M", 5, 3)).optimum == binomial(6, 2)


def test_mis_determinism():
    graph = build_graph("M", 5, 3)
    first = max_independent_set(graph)
    second = max_independent_set(graph)
    assert first.optimum == second.optimum
    assert first.nodes_explored == second.nodes_explored
    assert first.witness == second.witness


def _plain(graph, s=1):
    """The MIS (s = 1) or clique-free search on the plain loop: the solver
    given no multiplicity rows, so no orbital front."""
    view = graph.ordered
    if s == 1:
        solver = _MaxCliqueSolver(view.rows, view.to_old)
    else:
        solver = _CliqueFreeSolver(view.rows, view.to_old, s, None)
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
    # the public searches: the MIS and clique-free ones branch on orbits
    (lambda: max_independent_set(build_graph("M", 5, 3)), 15, 15,
     (*range(10, 20), 26, 27, 28, 29, 33)),
    (lambda: max_independent_set(build_graph("K", 7, 3)), 15, 13, tuple(range(15))),
    (lambda: max_independent_set(build_graph("M", 6, 3)), 21, 21,
     (4, 5, 6, 7, 8, 9, 13, 14, 15, 18, 23, 24, 25, 28, 32, 38, 39, 40, 43, 47, 52)),
    (lambda: max_independent_set(build_graph("K", 10, 4)), 84, 506, tuple(range(84))),
    (lambda: max_intersecting_empty_common(6, 3), 16, 87,
     (1, 2, 4, 5, 6, 7, 8, 11, 13, 14, 21, 23, 24, 36, 38, 39)),
    (lambda: max_intersecting_empty_common(5, 3), 13, 54,
     (1, 2, 4, 5, 6, 7, 8, 11, 13, 14, 21, 23, 24)),
    (lambda: max_t_intersecting_nontrivial(6, 4, 2), 21, 190,
     (6, 7, 10, 16, 17, 19, 20, 21, 22, 23, 26, 28, 29, 40, 46, 48, 49, 75, 81, 83, 84)),
    (lambda: max_t_intersecting_nontrivial(7, 3, 1), 19, 128,
     (1, 2, 4, 5, 6, 7, 8, 11, 13, 14, 21, 23, 24, 36, 38, 39, 57, 59, 60)),
    # the small-core items of the search benchmark, seeded as verify does
    (lambda: max_intersecting_empty_common(7, 3, seed=hm_multiset(7, 3)), 19, 114,
     (48, *range(62, 77), 80, 81, 82)),
    (lambda: max_t_intersecting_nontrivial(8, 3, 2, seed=frankl_multiset(8, 3, 2, 1)), 4, 12,
     (75, 103, 109, 110)),
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
        lambda: max_intersecting_empty_common(4, 2, node_limit=limit),
        lambda: max_t_intersecting_nontrivial(4, 2, 1, node_limit=limit),
        lambda: max_p_s1_family(4, 2, 2, node_limit=limit),
        lambda: max_union_two_intersecting(4, 2, node_limit=limit),
    ):
        with pytest.raises(ContractError, match="node limit"):
            search()


def test_node_limit_on_every_constrained_solver():
    for result in (
        max_intersecting_empty_common(5, 3, node_limit=2),
        max_t_intersecting_nontrivial(5, 3, 2, node_limit=2),
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
    masks, complete, _nodes = recursive_enumerate_cliques(_complement_adj(graph.adj), enum.optimum)
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
    # K(7,3) has nodes of the shared orbital front whose trimmed colour
    # order is empty while candidates remain: the walk must stop at the
    # order's end and leave those candidates to the bound, as the full
    # colouring's walk did
    seen = _front_end_colourings(monkeypatch, _MaxCliqueSolver)
    graph = build_graph("K", 7, 3)
    enum = enumerate_optimum_orbits(graph, 15)
    assert enum.complete
    assert (len(enum.families), enum.nodes_explored) == (1, 30)
    assert any(p_mask and not order for p_mask, order in seen)
    full = enumerate_maximum_independent_sets(graph, optimum=15)
    classes = {canonical_form(f).members for f in full.families}
    assert {canonical_form(f).members for f in enum.families} == classes
    # the MIS search walks the same front
    seen.clear()
    assert max_independent_set(graph).nodes_explored == 13
    assert seen


def test_optimum_orbits_of_a_deep_optimum():
    enum = enumerate_optimum_orbits(build_graph("K", 13, 7), 1716)
    assert enum.complete
    assert len(enum.families) == 1 and len(enum.families[0]) == 1716


# -- empty common intersection ---------------------------------------------------

def test_empty_common_reference_values():
    assert max_intersecting_empty_common(6, 3).optimum == 16
    assert max_intersecting_empty_common(4, 3).optimum == 10
    assert max_intersecting_empty_common(3, 1).optimum == 0


def test_empty_common_seed_equals_unseeded():
    seeded = max_intersecting_empty_common(5, 3, seed=hm_multiset(5, 3))
    plain = max_intersecting_empty_common(5, 3)
    assert seeded.optimum == plain.optimum


def test_empty_common_witness_is_valid():
    result = max_intersecting_empty_common(5, 3)
    assert is_t_intersecting(result.witness, 1)
    assert common_intersection(result.witness).cardinality == 0


def test_empty_common_rejects_invalid_seed():
    with pytest.raises(ContractError):
        max_intersecting_empty_common(4, 3, seed=frankl_multiset(4, 3, 2, 0))


def _small_core_instance(m, k, t):
    graph = build_graph("M_t", m, k, t)
    counts = [a.counts for a in graph.vertices]
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
            searches = [max_t_intersecting_nontrivial(m, k, t, seed=seed)]
            if t == 1:
                searches.append(max_intersecting_empty_common(m, k, seed=seed))
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
        result = max_t_intersecting_nontrivial(m, k, t)
        _assert_small_core_result(result, t)
        assert result.optimum == best, (m, k, t)


class _RecordingSmallCore(_SmallCoreSolver):
    """Keeps every front-end node's chosen members, classes and orbits, as
    (first member, orbit mask) pairs, once `record` stands in for the
    shared orbit helper."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []

    def _dfs(self, r_size, r_mask, core, cls, p_mask):
        self.at = (r_mask, cls)
        super()._dfs(r_size, r_mask, core, cls, p_mask)

    def record(self, cls, rows, vertices):
        vertices = list(vertices)
        orbits = _orbit_masks(cls, rows, vertices)
        pairs = [((o & -o).bit_length() - 1, o) for o in orbits.values()]
        self.seen.append((*self.at, vertices, pairs))
        return orbits


@pytest.mark.parametrize("m", range(2, 6))
def test_small_core_orbits_are_stabiliser_orbits(m, monkeypatch):
    # brute force over the m! permutations: the stabiliser of the chosen
    # members maps each orbit's first member onto exactly the reducers
    # sharing its key, and cls numbers the classes of equal signature
    from itertools import permutations

    perms = list(permutations(range(m)))
    for k in range(1, 5):
        for t in range(1, k + 1):
            _graph, counts, compat = _small_core_instance(m, k, t)
            index = {c: i for i, c in enumerate(counts)}
            solver = _RecordingSmallCore(counts, compat, t, None)
            monkeypatch.setattr("multifam.search._orbit_masks", solver.record)
            assert not solver.solve()[3]
            assert solver.seen, (m, k, t)
            for r_mask, cls, reducers, orbits in solver.seen:
                chosen = [counts[v] for v in bits(r_mask)]
                signature = [tuple(c[e] for c in chosen) for e in range(m)]
                assert all(
                    (cls[e] == cls[f]) == (signature[e] == signature[f])
                    for e in range(m) for f in range(m)
                )
                stab = [p for p in perms
                        if all(tuple(c[p[e]] for e in range(m)) == c for c in chosen)]
                reducer_mask = sum(1 << v for v in reducers)
                covered = 0
                for rep, orbit in orbits:
                    images = {index[tuple(counts[rep][p[e]] for e in range(m))] for p in stab}
                    assert sum(1 << v for v in images) & reducer_mask == orbit, (m, k, t)
                    assert orbit & covered == 0
                    covered |= orbit
                assert covered == reducer_mask


def test_small_core_front_end_prunes_on_an_empty_trimmed_order(monkeypatch):
    # seeded at its optimum, a front-end node whose candidates cannot beat
    # the seed gets an empty trimmed colour order and is pruned
    seed = max_intersecting_empty_common(6, 3).witness
    seen = _front_end_colourings(monkeypatch, _SmallCoreSolver)
    result = max_intersecting_empty_common(6, 3, seed=seed)
    assert result.proved and result.optimum == 16
    assert any(p_mask and not order for p_mask, order in seen)


def test_small_core_symmetry_reduction_guard():
    # the orbital front end proves T3.3(7,4) in 1,851 nodes; the
    # vertex-by-vertex one needs 404,376
    report = verify_theorem("T3.3", {"m": 7, "k": 4}, node_limit=10_000)
    assert report.status == "ok" and report.search_optimum == 75


# -- P(s,1) families --------------------------------------------------------------

def test_p_s1_delegates_for_s_equal_one():
    via_p = max_p_s1_family(4, 2, 1)
    via_mis = max_independent_set(build_graph("M", 4, 2))
    assert via_p.optimum == via_mis.optimum


@given(random_adjacency(max_n=9), st.sampled_from((2, 3)))
def test_clique_free_matches_bruteforce(adj, s):
    rows, to_old = _branching_rows(_complement_adj(adj))
    best, mask, _nodes, limited = _CliqueFreeSolver(rows, to_old, s, None).solve()
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
    best, _mask, _nodes = exclusion_max_clique_free(graph.adj, s)
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
    if s == 1:
        result = max_independent_set(graph)
        if graph.n_vertices <= 16:
            expected = brute_max_independent_set(graph.adj)
        else:
            expected = exclusion_max_clique_free(graph.adj, 1)[0]
        _validate_witness(graph, result.witness)
    else:
        result = clique_free_search(graph, s)
        expected = exclusion_max_clique_free(graph.adj, s)[0]
        assert has_property_p_s1(result.witness, s)
    plain = _plain(graph, s)
    assert result.proved and plain.proved
    assert result.optimum == len(result.witness) == plain.optimum == expected


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
    best, (a_mask, b_mask), _nodes, limited = _max_induced_bipartite(adj, None)
    assert not limited
    assert best == brute_max_induced_bipartite(adj)
    assert (a_mask | b_mask).bit_count() == best
    assert all(adj[v] & a_mask == 0 for v in bits(a_mask))
    assert all(adj[v] & b_mask == 0 for v in bits(b_mask))


def test_bipartite_reference_values():
    assert max_union_two_intersecting(5, 2).optimum == 9
    assert max_union_two_intersecting(4, 1).optimum == 2


@pytest.mark.parametrize("kind, m, k", [("M", 5, 2), ("K", 6, 2), ("K", 7, 2), ("M", 7, 2), ("M", 5, 3)])
def test_product_search_matches_two_sided_reference(kind, m, k):
    graph = build_graph(kind, m, k)
    best, _sides = two_sided_max_induced_bipartite(graph.adj)
    _best, (a_mask, b_mask), _nodes, _limited = _max_induced_bipartite(graph.adj, None)
    assert a_mask & b_mask == 0
    for side in (a_mask, b_mask):
        assert is_t_intersecting(graph.family_from_mask(side), 1)
    result = induced_bipartite_search(graph)
    assert result.proved and result.optimum == len(result.witness) == best
    assert result.witness == graph.family_from_mask(a_mask | b_mask)


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
    result = max_t_intersecting_nontrivial(5, 3, 2)
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
