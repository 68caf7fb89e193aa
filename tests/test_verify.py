from dataclasses import replace

import pytest

from multifam import (
    ContractError,
    ScaleExceededError,
    build_graph,
    families,
    frankl_multiset,
    frankl_set,
    hit_s,
    hit_s_set,
    hm_multiset,
    hm_set,
    hm_t_multiset,
    hm_t_set,
    is_isomorphic,
    star,
    verify_theorem,
)
from multifam import core
from multifam.search import _seed_slots
from multifam.verify import (
    STATUS_HYPOTHESIS,
    STATUS_MISMATCH,
    STATUS_OK,
    THEOREM_IDS,
    MULTIPLE,
    NOT_CHECKED,
    UNIQUE,
)

from bruteforce import multiset_theorem_closed_form
from conftest import refuse_enumeration

QUICK_INSTANCES = {
    "T1.1": {"m": 5, "k": 2},
    "T1.4": {"m": 4, "k": 3},
    "T2.3": {"m": 8, "k": 2, "s": 2},
    "T2.4": {"m": 6, "k": 2},
    "T3.3": {"m": 5, "k": 3},
    "T3.4": {"m": 7, "k": 2, "s": 2},
    "T3.5": {"m": 5, "k": 2},
    "T4.1": {"m": 4, "k": 3, "t": 2},
    "T4.8": {"m": 5, "k": 3, "t": 2},
}


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_every_theorem_verifies_at_a_small_instance(theorem_id):
    report = verify_theorem(theorem_id, QUICK_INSTANCES[theorem_id])
    assert report.status == STATUS_OK, report
    assert report.match
    assert report.analytic_bound == report.search_optimum
    if report.constructed_size is not None:
        assert report.constructed_size == report.analytic_bound


HEAVIER_INSTANCES = [
    # expected value from the closed form, cross-checked by construction+search
    ("T3.3", {"m": 7, "k": 3}, 19),   # C(8,2) - C(5,2) + 1
    ("T3.3", {"m": 6, "k": 4}, 53),   # C(8,3) - C(4,3) + 1
    ("T1.4", {"m": 7, "k": 4}, 84),   # C(9,3)
    ("T4.1", {"m": 6, "k": 4, "t": 2}, 21),  # threshold boundary, C(7,2)
    ("T4.1", {"m": 7, "k": 4, "t": 3}, 7),   # r=0, C(7,1)
]


@pytest.mark.parametrize("theorem_id,params,expected", HEAVIER_INSTANCES)
def test_heavier_reference_instances(theorem_id, params, expected):
    report = verify_theorem(theorem_id, params)
    assert report.status == STATUS_OK
    assert report.analytic_bound == expected
    assert report.constructed_size == expected
    assert report.search_optimum == expected


# the explicit extremal family is the search's first incumbent, so the
# proof is short; unseeded (greedy incumbent) these took 123, 42, 740 and
# 60 nodes.  A change here must be deliberate and logged in CHANGES.md.
SEEDED_NODE_COUNTS = [
    ("T1.4", {"m": 8, "k": 4}, ("M", 8, 4), 5),
    ("T4.1", {"m": 8, "k": 4, "t": 2}, ("M_t", 8, 4, 2), 9),
    ("T1.4", {"m": 10, "k": 5}, ("M", 10, 5), 27),
    ("T4.1", {"m": 10, "k": 4, "t": 2}, ("M_t", 10, 4, 2), 8),
]


@pytest.mark.parametrize("theorem_id, params, graph, nodes", SEEDED_NODE_COUNTS)
def test_construction_seeds_the_search(theorem_id, params, graph, nodes):
    report = verify_theorem(theorem_id, params)
    assert report.status == STATUS_OK
    assert report.nodes_explored == nodes
    # nothing beats the seed, so the witness is the construction itself
    assert report.witness is report.constructed
    graph = build_graph(*graph)
    slots = _seed_slots(graph, report.constructed, graph.is_independent, "")
    to_old = graph.ordered.to_old
    seed_mask = sum(1 << to_old[i] for i in range(graph.n_vertices) if slots >> i & 1)
    assert graph.family_from_mask(seed_mask) == report.constructed


# each theorem whose binding builds its own graph, with its construction by
# the public constructor, which walks the universe itself; T4.1(5,4,2) is
# below its hypothesis m >= 2k-t, and its construction takes r = 1
GRAPH_CONSTRUCTIONS = [
    ("T1.1", {"m": 7, "k": 3}, lambda p: frankl_set(p["m"], p["k"], 1, 0)),
    ("T1.4", {"m": 5, "k": 3}, lambda p: star(p["m"], p["k"], 1)),
    ("T2.3", {"m": 9, "k": 2, "s": 2}, lambda p: hit_s_set(p["m"], p["k"], range(1, p["s"] + 1))),
    ("T2.4", {"m": 6, "k": 2}, lambda p: hit_s_set(p["m"], p["k"], (1, 2))),
    ("T3.4", {"m": 7, "k": 2, "s": 2}, lambda p: hit_s(p["m"], p["k"], range(1, p["s"] + 1))),
    ("T4.1", {"m": 5, "k": 4, "t": 2}, lambda p: frankl_multiset(p["m"], p["k"], p["t"], 1)),
    ("T4.1", {"m": 6, "k": 4, "t": 2}, lambda p: frankl_multiset(p["m"], p["k"], p["t"], 0)),
    ("T3.5", {"m": 7, "k": 2}, lambda p: hit_s(p["m"], p["k"], (1, 2))),
    ("T3.3", {"m": 7, "k": 3}, lambda p: hm_multiset(p["m"], p["k"])),
    ("T4.8", {"m": 8, "k": 3, "t": 2}, lambda p: frankl_multiset(p["m"], p["k"], p["t"], 1)),
]


@pytest.mark.parametrize("theorem_id, params, public", GRAPH_CONSTRUCTIONS)
def test_construction_from_graph_rows_is_the_public_constructors_family(
    theorem_id, params, public
):
    assert verify_theorem(theorem_id, params).constructed == public(params)


def test_filters_on_graph_rows_equal_their_constructors():
    for m in range(1, 8):
        for k in range(0, 5):
            rows = build_graph("M", m, k).multiplicities
            for anchor in ([1], [2, 3], range(1, m + 1)):
                if max(anchor) <= m:
                    assert families.hitting("multiset", m, k, anchor, rows) == hit_s(m, k, anchor)
            if k:
                assert families.hitting("multiset", m, k, (1,), rows) == star(m, k, 1)
            sets = build_graph("K", m, k).multiplicities
            assert families.hitting("set", m, k, (1,), sets) == hit_s_set(m, k, (1,))
            for t in range(1, k + 1):
                for r in range(0, k - t + 1):
                    if t + 2 * r <= m:
                        assert families.frankl("multiset", m, k, t, r, rows) == (
                            frankl_multiset(m, k, t, r)
                        )
                        assert families.frankl("set", m, k, t, r, sets) == frankl_set(m, k, t, r)


def test_hilton_milner_filters_on_graph_rows_equal_their_constructors():
    for m in range(1, 9):
        for k in range(2, 6):
            if m < k + 1:
                continue
            rows = build_graph("M", m, k).multiplicities
            sets = build_graph("K", m, k).multiplicities
            assert families._hm("multiset", m, k, rows) == hm_multiset(m, k)
            assert families._hm("set", m, k, sets) == hm_set(m, k)
            for t in range(2, k):
                assert families._hm_t("multiset", m, k, t, rows) == hm_t_multiset(m, k, t)
                assert families._hm_t("set", m, k, t, sets) == hm_t_set(m, k, t)


def test_m_and_m_t_at_one_share_their_view():
    # the small-core searches take either graph at t = 1: one view, so one
    # search and one node count
    for m in range(1, 9):
        for k in range(0, 6):
            assert build_graph("M", m, k).ordered == build_graph("M_t", m, k, 1).ordered, (m, k)


@pytest.mark.parametrize("theorem_id, params, public", GRAPH_CONSTRUCTIONS)
def test_each_verify_walks_its_universe_once(monkeypatch, theorem_id, params, public):
    # a spy on both walks: count vectors for multisets, combinations for sets
    walks = []
    for name in ("count_vectors", "combinations"):
        def spy(*args, real=getattr(core, name), name=name):
            walks.append(name)
            return real(*args)

        monkeypatch.setattr(core, name, spy)
    verify_theorem(theorem_id, params)
    assert len(walks) == 1, walks


@pytest.mark.parametrize("theorem_id, params", [
    ("T3.3", {"m": 16, "k": 7}),
    ("T4.8", {"m": 16, "k": 7, "t": 3}),
])
def test_small_core_theorems_refuse_a_large_universe_before_any_walk(
    monkeypatch, theorem_id, params
):
    # C(22,7) = 170,544 members: the graph refuses them before a
    # construction could walk them
    walks = []
    real = core.count_vectors
    monkeypatch.setattr(core, "count_vectors", lambda *args: walks.append(args) or real(*args))
    with pytest.raises(ScaleExceededError):
        verify_theorem(theorem_id, params)
    assert walks == []


@pytest.mark.parametrize("theorem_id", ["T1.4", "T3.3", "T3.4", "T3.5"])
def test_multiset_theorems_read_at_n_keep_their_closed_forms_on_m(theorem_id):
    # each is read off its set twin at n = m+k-1; the reference is the
    # theorem's own statement on [m]
    for m in range(2, 10):
        for k in range(1, 5):
            for s in (1, 2, 3) if theorem_id == "T3.4" else (1,):
                if m >= s:
                    params = {"m": m, "k": k, "s": s if theorem_id == "T3.4" else None}
                    report = verify_theorem(theorem_id, params, node_limit=1)
                    assert (report.analytic_bound, report.hypothesis_met) == (
                        multiset_theorem_closed_form(theorem_id, m, k, s)
                    ), (m, k, s)
                    assert report.hypothesis_met or "n = m+k-1" in report.notes[0]


def test_report_json_schema():
    report = verify_theorem("T1.4", {"m": 4, "k": 3})
    payload = report.to_json_dict()
    for key in (
        "theorem",
        "params",
        "analytic_bound",
        "constructed_size",
        "search_optimum",
        "status",
        "uniqueness_verdict",
        "nodes_explored",
        "elapsed_ms",
    ):
        assert key in payload
    assert payload["theorem"] == "T1.4"
    assert payload["analytic_bound"] == 10


def test_uniqueness_above_the_boundary():
    report = verify_theorem("T1.4", {"m": 5, "k": 3}, uniqueness=True)
    assert report.uniqueness_verdict == UNIQUE
    assert report.optimum_classes is not None and len(report.optimum_classes) == 1
    assert is_isomorphic(report.optimum_classes[0], star(5, 3, 1))


@pytest.mark.parametrize(
    "theorem_id, params, extremal",
    [
        ("T1.4", {"m": 10, "k": 3}, lambda: star(10, 3, 1)),
        ("T1.1", {"m": 12, "k": 3}, lambda: frankl_set(12, 3, 1, 0)),
    ],
)
def test_uniqueness_above_nine_elements(theorem_id, params, extremal):
    report = verify_theorem(theorem_id, params, uniqueness=True)
    assert report.uniqueness_verdict == UNIQUE
    assert report.optimum_classes is not None and len(report.optimum_classes) == 1
    assert is_isomorphic(report.optimum_classes[0], extremal())


def test_uniqueness_at_the_boundary_reports_multiple_classes():
    report = verify_theorem("T1.4", {"m": 4, "k": 3}, uniqueness=True)
    assert report.uniqueness_verdict == MULTIPLE
    assert report.to_json_dict()["optimum_class_count"] == len(report.optimum_classes) == 3


@pytest.mark.parametrize("theorem_id, params, verdict, classes", [
    ("T1.1", {"m": 6, "k": 3}, MULTIPLE, 13),  # n = 2k
    ("T1.1", {"m": 9, "k": 3}, UNIQUE, 1),
    ("T4.1", {"m": 6, "k": 3, "t": 2}, MULTIPLE, 2),
    ("T4.1", {"m": 5, "k": 4, "t": 3}, MULTIPLE, 4),
    ("T4.1", {"m": 5, "k": 4, "t": 2}, UNIQUE, 1),  # hypothesis not met
])
def test_uniqueness_class_counts(theorem_id, params, verdict, classes):
    report = verify_theorem(theorem_id, params, uniqueness=True)
    assert report.uniqueness_verdict == verdict
    assert report.to_json_dict()["optimum_class_count"] == classes
    for rep in report.optimum_classes:
        assert len(rep) == report.search_optimum


def test_uniqueness_not_requested_is_not_checked():
    report = verify_theorem("T1.4", {"m": 4, "k": 3})
    assert report.uniqueness_verdict == NOT_CHECKED
    assert report.to_json_dict()["optimum_class_count"] is None


def test_uniqueness_outside_enumeration_reports_no_class_count():
    report = verify_theorem("T3.3", {"m": 5, "k": 3}, uniqueness=True)
    assert report.uniqueness_verdict == NOT_CHECKED
    assert report.to_json_dict()["optimum_class_count"] is None


def test_hypothesis_violation_still_runs_the_search():
    report = verify_theorem("T3.4", {"m": 3, "k": 2, "s": 2})
    assert report.status == STATUS_HYPOTHESIS
    assert not report.hypothesis_met
    assert report.search_optimum is not None
    assert any("hypothesis" in note for note in report.notes)


def test_t41_exploration_outside_the_regime():
    # the bound/search agreement at (5,4,2) holds even though m < 2k-t
    report = verify_theorem("T4.1", {"m": 5, "k": 4, "t": 2})
    assert report.status == STATUS_HYPOTHESIS
    assert report.analytic_bound == 17
    assert report.constructed_size == 17
    assert report.search_optimum == 17
    assert report.match


def test_t41_boundary_note():
    report = verify_theorem("T4.1", {"m": 4, "k": 3, "t": 2})
    assert any("boundary" in note for note in report.notes)


def test_t41_window_beyond_m_has_no_construction():
    # the boundary r = 2 needs the window [t+2r] = [6] on [4]
    report = verify_theorem("T4.1", {"m": 4, "k": 4, "t": 2})
    assert (report.analytic_bound, report.constructed_size, report.search_optimum) == (15, None, 13)
    assert report.status == STATUS_HYPOTHESIS
    assert any("not constructible on [4]" in note for note in report.notes)


def test_t48_case_k_above_2t_plus_1():
    report = verify_theorem("T4.8", {"m": 4, "k": 4, "t": 1})
    assert (report.analytic_bound, report.constructed_size, report.search_optimum) == (22, 22, 22)
    assert any("k > 2t+1" in note for note in report.notes)


def test_t48_bound_is_its_closed_form_where_nothing_is_constructible():
    # the r = 1 window [t+2] = [4] does not fit [3]; the bound is still
    # the r = 1 size at n = m+k-1 = 5
    report = verify_theorem("T4.8", {"m": 3, "k": 3, "t": 2})
    assert (report.analytic_bound, report.constructed_size, report.search_optimum) == (4, None, 3)
    assert report.status == STATUS_HYPOTHESIS
    assert any("not constructible on [3]" in note for note in report.notes)
    # neither candidate family exists at t = k
    assert verify_theorem("T4.8", {"m": 3, "k": 2, "t": 2}).analytic_bound == 0


def test_t48_bound_does_not_read_its_construction(monkeypatch):
    frankl = families.frankl
    monkeypatch.setattr(
        families, "frankl", lambda *args: replace(fam := frankl(*args), members=fam.members[1:])
    )
    report = verify_theorem("T4.8", {"m": 8, "k": 3, "t": 2})
    assert (report.analytic_bound, report.constructed_size, report.search_optimum) == (4, 3, 4)
    assert report.status == STATUS_MISMATCH


def test_uniqueness_cut_by_the_node_limit_is_not_checked():
    # the seeded search proves 21 within 25 nodes; the enumeration does not finish
    report = verify_theorem("T1.4", {"m": 6, "k": 3}, uniqueness=True, node_limit=25)
    assert report.status == STATUS_OK
    assert report.uniqueness_verdict == NOT_CHECKED
    assert len(report.optimum_classes) == 1


def test_t48_records_its_case_split():
    report = verify_theorem("T4.8", {"m": 5, "k": 3, "t": 2})
    assert any("case split" in note for note in report.notes)
    assert any("convention" in note for note in report.notes)


def test_unknown_theorem_and_missing_params():
    with pytest.raises(ContractError):
        verify_theorem("T9.9", {"m": 4, "k": 2})
    with pytest.raises(ContractError):
        verify_theorem("T3.4", {"m": 4, "k": 2})


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_every_theorem_refuses_a_parameter_it_does_not_read(theorem_id, monkeypatch):
    # T1.1 --t 3 used to run and report ok; the refusal comes before any walk
    params = QUICK_INSTANCES[theorem_id]
    unread = "s" if "t" in params else "t"
    refuse_enumeration(monkeypatch)
    with pytest.raises(ContractError, match=f"{theorem_id} does not read '{unread}'"):
        verify_theorem(theorem_id, {**params, unread: 3})
    monkeypatch.undo()
    # a parameter left at None is not given
    assert verify_theorem(theorem_id, {**params, unread: None}).status == STATUS_OK


@pytest.mark.parametrize("theorem_id, m", [("T2.3", 4), ("T3.4", 3)])
def test_p_s1_theorems_reject_k_zero(theorem_id, m):
    with pytest.raises(ContractError, match="k must be >= 1"):
        verify_theorem(theorem_id, {"m": m, "k": 0, "s": 2})


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_every_theorem_rejects_m_or_k_below_one(theorem_id):
    params = {"t": 1, "s": 1}
    with pytest.raises(ContractError, match="m must be >= 1, got 0"):
        verify_theorem(theorem_id, {**params, "m": 0, "k": 2})
    with pytest.raises(ContractError, match="k must be >= 1, got 0"):
        verify_theorem(theorem_id, {**params, "m": 4, "k": 0})


@pytest.mark.parametrize("theorem_id, params, message", [
    ("T2.4", {"m": 1, "k": 1}, "T2.4 needs m >= 2, got m=1"),
    ("T3.3", {"m": 1, "k": 2}, "T3.3 needs m >= 2, got m=1"),
    ("T3.5", {"m": 1, "k": 1}, "T3.5 needs m >= 2, got m=1"),
    ("T2.3", {"m": 2, "k": 1, "s": 3}, "T2.3 needs m >= s, got m=2, s=3"),
    ("T3.4", {"m": 1, "k": 2, "s": 2}, "T3.4 needs m >= s, got m=1, s=2"),
    ("T4.8", {"m": 2, "k": 2, "t": 0}, "need 1 <= t <= k, got t=0, k=2"),
    ("T4.8", {"m": 5, "k": 2, "t": 3}, "need 1 <= t <= k, got t=3, k=2"),
])
def test_closed_forms_name_the_ground_size_they_need(theorem_id, params, message):
    with pytest.raises(ContractError, match=message):
        verify_theorem(theorem_id, params)
