import sys
import time
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifam import (
    ContractError,
    Family,
    KSet,
    Multiset,
    binomial,
    common_intersection,
    enumerate_k_multisets,
    enumerate_k_subsets,
    has_property_p_s1,
    hit_s_set,
    is_support_t_intersecting,
    is_t_intersecting,
    kset_rank,
    kset_unrank,
    multichoose,
    multiset_rank,
    multiset_unrank,
)
from multifam.core import (
    ENUMERATION_CAP,
    ScaleExceededError,
    _clique_free,
    _pair_masks,
    _support_mask,
    count_vectors,
    multiplicity_rows,
    unary_mask,
    universe_rows,
    universe_size,
)

from bruteforce import (
    greedy_t_subfamily,
    has_clique,
    loop_multiset_rank,
    loop_multiset_unrank,
    loop_support_mask,
    loop_unary_mask,
    member_walk_universe,
    pair_loop_is_support_t_intersecting,
    pair_loop_is_t_intersecting,
    pair_size,
    recursive_count_vectors,
    sorted_row_types,
)
from conftest import family_and_t, multiset_family, multiset_pair, refuse_enumeration


def ms(m, *elements):
    return Multiset.from_elements(m, elements)


def fam(m, k, *element_tuples):
    return Family.of_multisets(m, k, (ms(m, *e) for e in element_tuples))


# -- counting ---------------------------------------------------------------

def test_counting_values():
    assert multichoose(5, 4) == 70
    assert multichoose(3, 2) == 6
    assert multichoose(7, 0) == 1
    assert multichoose(1, 3) == 1
    assert binomial(7, 2) == 21
    assert binomial(4, 6) == 0


def test_counting_is_exact_at_width_beyond_64_bits():
    assert multichoose(50, 50) == binomial(99, 50)
    assert multichoose(50, 50) > 2**64


def test_counting_rejects_negatives():
    with pytest.raises(ContractError):
        binomial(-1, 2)
    with pytest.raises(ContractError):
        multichoose(3, -1)


# -- multiset basics --------------------------------------------------------

def test_multiplicity():
    a = ms(3, 1, 1, 3)
    assert a.multiplicity(1) == 2
    assert a.multiplicity(2) == 0
    assert ms(4, 1, 2, 2, 2).multiplicity(2) == 3
    with pytest.raises(ContractError):
        a.multiplicity(4)


def test_cardinality():
    assert Multiset(3, (0, 0, 0)).cardinality == 0
    assert ms(3, 1, 1, 3).cardinality == 3
    assert ms(5, 2, 2, 2, 2).cardinality == 4


def test_intersect():
    assert ms(3, 1, 1, 2).intersect(ms(3, 1, 2, 2)) == ms(3, 1, 2)
    a = ms(3, 1, 1, 3)
    assert a.intersect(a) == a
    assert ms(4, 1, 1, 1, 1).intersect(ms(4, 2, 2, 2, 2)).cardinality == 0
    with pytest.raises(ContractError):
        ms(3, 1).intersect(ms(4, 1))


def test_support():
    assert ms(3, 1, 1, 3).support() == KSet(3, (1, 3))
    assert Multiset(3, (0, 0, 0)).support() == KSet(3, ())
    assert ms(5, 2, 2, 2, 2).support() == KSet(5, (2,))


def test_support_equals_intersection_with_ones_vector():
    ones = Multiset(4, (1, 1, 1, 1))
    for a in enumerate_k_multisets(4, 3):
        assert a.support().members == a.intersect(ones).support().members
        assert a.intersect(ones).counts == tuple(min(c, 1) for c in a.counts)


def test_multiset_validation():
    with pytest.raises(ContractError):
        Multiset(0, ())
    with pytest.raises(ContractError):
        Multiset(2, (1, -1))
    with pytest.raises(ContractError):
        Multiset(2, (1, 1, 1))
    with pytest.raises(ContractError):
        Multiset.from_elements(3, (0,))


# -- family predicates ------------------------------------------------------

def test_is_t_intersecting_examples():
    assert is_t_intersecting(fam(2, 2, (1, 1), (1, 2)), 1)
    assert is_t_intersecting(fam(4, 4, (1, 1, 2, 3), (2, 3, 4, 4)), 2)
    assert not is_t_intersecting(fam(2, 2, (1, 1), (2, 2)), 1)
    # two members sharing two copies of 1: the mask fields need both bits,
    # and a huge t builds no wide mask
    pair = fam(2, 3, (1, 1, 2), (1, 1, 1))
    assert is_t_intersecting(pair, 2)
    assert not is_t_intersecting(pair, 3)
    assert not is_t_intersecting(pair, 10**9)
    assert is_t_intersecting(fam(2, 3, (1, 1, 2)), 10**9)


def test_is_support_t_intersecting_examples():
    assert not is_support_t_intersecting(fam(3, 3, (1, 1, 2), (1, 1, 3)), 2)
    assert is_support_t_intersecting(fam(4, 3, (1, 2, 3), (1, 2, 4)), 2)
    assert is_support_t_intersecting(fam(4, 3, (1, 1, 1)), 3)


@given(multiset_family(), st.integers(2, 4))
def test_t_intersecting_is_monotone_in_t(family, t):
    if is_t_intersecting(family, t):
        assert is_t_intersecting(family, t - 1)


@given(multiset_family(), st.integers(1, 4))
def test_support_intersecting_implies_t_intersecting(family, t):
    if is_support_t_intersecting(family, t):
        assert is_t_intersecting(family, t)


def _thresholds(family, t):
    """t, the small thresholds, one above the largest multiplicity (where
    the mask width stops at that multiplicity) and a huge one."""
    top = max((max(row, default=0) for row in multiplicity_rows(family.members)), default=0)
    return (t, 1, 2, 3, top + 1, 10**9)


@settings(max_examples=300)
@given(family_and_t())
def test_predicates_match_pair_loop_references(case):
    family, t = case
    for sub in (family, greedy_t_subfamily(family, t)):
        for u in _thresholds(family, t):
            assert is_t_intersecting(sub, u) == pair_loop_is_t_intersecting(sub, u)
            assert is_support_t_intersecting(sub, u) == pair_loop_is_support_t_intersecting(sub, u)
    assert is_t_intersecting(greedy_t_subfamily(family, t), t)


def _adjacency(members, fails):
    """Pair-loop adjacency of the members, joined where `fails` holds."""
    adj = [0] * len(members)
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            if i != j and fails(a, b):
                adj[i] |= 1 << j
    return adj


@settings(max_examples=200)
@given(family_and_t(max_members=9), st.integers(1, 3))
def test_p_s1_matches_the_clique_oracle_under_each_rule(case, s):
    # P(s,1) and the graph rules' clique-free check: no s+1 members pairwise
    # fail the pair test, against a subset scan of the pair-loop adjacency
    family, t = case
    members = family.members
    full = (1 << len(members)) - 1

    def support_size(a, b):
        return sum(1 for x, y in zip(*multiplicity_rows([a, b])) if x and y)

    disjoint = _adjacency(members, lambda a, b: pair_size(a, b) == 0)
    assert has_property_p_s1(family, s) == (not has_clique(disjoint, full, s + 1))
    for u in _thresholds(family, t):
        multiplicity = _adjacency(members, lambda a, b: pair_size(a, b) < u)
        support = _adjacency(members, lambda a, b: support_size(a, b) < u)
        assert _clique_free(_pair_masks(members, u), u, s) == (
            not has_clique(multiplicity, full, s + 1))
        assert _clique_free(_pair_masks(members, 1), u, s) == (
            not has_clique(support, full, s + 1))


def _scan_clique_free(masks, t, s):
    """No s+1 masks pairwise share fewer than t bits, by scanning every
    (s+1)-subset."""
    return not any(
        all((a & b).bit_count() < t for a, b in combinations(combo, 2))
        for combo in combinations(masks, s + 1)
    )


@settings(max_examples=200)
@given(st.lists(st.integers(0, 255), max_size=14), st.integers(1, 3), st.integers(1, 4))
def test_clique_free_matches_the_subset_scan(masks, t, s):
    # the colouring bound prunes only frames that hold no (s+1)-clique
    assert _clique_free(masks, t, s) == _scan_clique_free(masks, t, s)


@pytest.mark.parametrize("n, k, s", [(6, 2, 2), (7, 2, 3), (8, 2, 4), (8, 3, 2)])
def test_clique_free_on_hitting_families_matches_the_subset_scan(n, k, s):
    # the k-sets meeting [s] hold s pairwise disjoint members but not s+1,
    # and have many s-cliques of disjoint pairs for the bound to cut
    masks = _pair_masks(hit_s_set(n, k, range(1, s + 1)).members, 1)
    for u in (s - 1, s):
        assert _clique_free(masks, 1, u) == _scan_clique_free(masks, 1, u) == (u == s)


def test_p_s1_searches_deeper_than_the_recursion_limit():
    # 1101 pairwise disjoint singletons: the clique search takes every one
    singletons = Family.universe(1101, 1, "set")
    assert not has_property_p_s1(singletons, 1100)
    assert has_property_p_s1(singletons, 1101)
    assert has_property_p_s1(Family(1101, 1, "set", singletons.members[1:]), 1100)


def test_unary_mask_counts_multiplicities_and_clips():
    a = ms(3, 1, 1, 2, 3, 3, 3).counts
    assert unary_mask(a, 3) == 0b111_001_011
    assert unary_mask(a, 2) == 0b11_01_11
    assert unary_mask(a, 1) == 0b1_1_1
    assert unary_mask(a, 0) == 0
    assert (unary_mask(a, 3) & unary_mask((1, 0, 2), 3)).bit_count() == 3
    assert unary_mask((0, 0), 0) == 0
    assert unary_mask((), 2) == 0


@given(st.lists(st.integers(0, 6), max_size=90), st.lists(st.integers(0, 6), max_size=90),
       st.integers(0, 8))
def test_unary_mask_matches_the_field_loop(a, b, width):
    # rows longer than 64 elements, fields clipped at the width, width 0
    b = (b + [0] * len(a))[:len(a)]
    mask = unary_mask(tuple(a), width)
    assert mask == loop_unary_mask(a, width)
    assert mask >> len(a) * width == 0
    shared = (mask & unary_mask(tuple(b), width)).bit_count()
    assert shared == sum(min(x, y, width) for x, y in zip(a, b))
    assert _support_mask(tuple(a)) == unary_mask(tuple(a), 1) == loop_support_mask(a)


def test_common_intersection():
    assert common_intersection(fam(3, 3, (1, 1, 2), (1, 1, 3))) == ms(3, 1, 1)
    assert common_intersection(fam(4, 2, (1, 2), (3, 4))).cardinality == 0
    single = fam(3, 2, (1, 3))
    assert common_intersection(single) == ms(3, 1, 3)
    assert common_intersection(Family.of_sets(4, 2, [KSet(4, (2, 4))])) == KSet(4, (2, 4))
    assert common_intersection(Family.of_sets(0, 0, [KSet(0, ())])) == KSet(0, ())
    with pytest.raises(ContractError):
        common_intersection(Family.of_multisets(3, 2, ()))


@given(family_and_t(max_members=5))
def test_common_intersection_matches_the_elementwise_minimum(case):
    family, _t = case
    if not family.members:
        return
    # against the members' own pairwise intersect, folded
    assert common_intersection(family) == reduce(lambda a, b: a.intersect(b), family.members)


def test_has_property_p_s1():
    everything = Family.universe(5, 2)
    assert not has_property_p_s1(everything, 2)  # {1,1},{2,2},{3,3} pairwise disjoint
    assert has_property_p_s1(fam(2, 2, (1, 1), (1, 2)), 1)
    hitting = Family.of_multisets(
        7, 2, (a for a in enumerate_k_multisets(7, 2) if a.support_mask() & 0b11)
    )
    assert has_property_p_s1(hitting, 2)
    # exactly s+1 pairwise disjoint members, and one fewer
    family = fam(6, 2, (1, 2), (3, 4), (5, 6), (1, 3))
    assert not has_property_p_s1(family, 2)
    assert has_property_p_s1(family, 3)
    assert has_property_p_s1(Family.of_multisets(6, 2, family.members[1:]), 2)


# -- enumeration ------------------------------------------------------------

def test_enumeration_counts_match_multichoose():
    for m in range(1, 8):
        for k in range(0, 7):
            assert sum(1 for _ in enumerate_k_multisets(m, k)) == multichoose(m, k)


@pytest.mark.parametrize("m, k, message", [(0, 2, "m must be >= 1, got 0"), (3, -1, "k must be >= 0, got -1")])
def test_count_vectors_checks_its_parameters(m, k, message):
    for generate in (count_vectors, enumerate_k_multisets):
        with pytest.raises(ContractError, match=message):
            next(generate(m, k))


@pytest.mark.parametrize("m, k, kind, message", [
    (-1, 2, "multiset", "m must be >= 1, got -1"),
    (3, -1, "multiset", "k must be >= 0, got -1"),
    (-1, 2, "set", r"n, k must be >= 0, got \(-1, 2\)"),
    (2, -1, "set", r"n, k must be >= 0, got \(2, -1\)"),
])
def test_universe_walks_report_the_enumerators_check(m, k, kind, message):
    # the guard's closed-form count does not pre-empt it with the message
    # of binomial or multichoose
    with pytest.raises(ContractError, match=message):
        Family.universe(m, k, kind)
    with pytest.raises(ContractError, match=message):
        list(universe_rows(m, k, kind))


def test_enumeration_examples():
    assert len(list(enumerate_k_multisets(3, 2))) == 6
    assert len(list(enumerate_k_multisets(5, 4))) == 70
    only = list(enumerate_k_multisets(1, 3))
    assert only == [ms(1, 1, 1, 1)]


def test_enumeration_is_lexicographic_on_counts():
    seq = [a.counts for a in enumerate_k_multisets(4, 3)]
    assert seq == sorted(seq)
    assert len(set(seq)) == len(seq)


def test_stars_and_bars_order_matches_the_recursive_reference():
    for m in range(1, 8):
        for k in range(0, 7):
            got = [a.counts for a in enumerate_k_multisets(m, k)]
            assert got == list(recursive_count_vectors(m, k))


# m <= 8, k <= 7, and the corners: one element, a long last count, a wide
# ground set
WALK_CASES = [(m, k) for m in range(1, 9) for k in range(8)] + [
    (1, 0), (1, 5), (2, 300), (3, 60), (1200, 1),
]


def test_successor_walk_matches_the_recursive_reference():
    # the reference nests one generator per element of [m]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        for m, k in WALK_CASES:
            assert list(count_vectors(m, k)) == list(recursive_count_vectors(m, k)), (m, k)
    finally:
        sys.setrecursionlimit(limit)


def test_walk_type_numbers_split_rows_as_their_sorted_rows_do():
    for m, k in WALK_CASES:
        types = []
        rows = list(count_vectors(m, k, types))
        assert tuple(types) == sorted_row_types(rows), (m, k)
        assert rows == list(count_vectors(m, k)), (m, k)
        types = []
        assert list(universe_rows(m, k, "multiset", types=types)) == rows
        assert tuple(types) == sorted_row_types(rows), (m, k)
    # every k-subset has the sorted row (0, ..., 0, 1, ..., 1)
    for n, k in ((0, 0), (3, 4), (6, 3), (9, 9)):
        types = []
        rows = list(universe_rows(n, k, "set", types=types))
        assert types == [0] * len(rows) and tuple(types) == sorted_row_types(rows), (n, k)


def test_enumeration_of_a_wide_ground_set():
    # the recursive count-vector generator ran out of stack near m = 1000
    members = list(enumerate_k_multisets(1200, 1))
    assert len(members) == 1200
    for i, a in enumerate(members):
        assert multiset_rank(a) == i
        assert multiset_unrank(1200, 1, i) == a


def test_subset_enumeration():
    assert len(list(enumerate_k_subsets(4, 2))) == 6
    assert list(enumerate_k_subsets(5, 5)) == [KSet(5, (1, 2, 3, 4, 5))]
    assert len(list(enumerate_k_subsets(8, 4))) == 70
    assert list(enumerate_k_subsets(3, 4)) == []


def test_universe_rows_are_the_enumerated_members_rows():
    # the rows=True walk of each enumerator, with no member built; the
    # universe built from those rows is the enumerators' members
    grid = [("multiset", m, k) for m in range(1, 6) for k in range(5)]
    grid += [("set", n, k) for n in range(7) for k in range(n + 3)]  # k > n: empty
    for kind, m, k in grid:
        reference = member_walk_universe(m, k, kind)
        rows = list(universe_rows(m, k, kind))
        assert rows == multiplicity_rows(reference.members)
        assert len(rows) == universe_size(m, k, kind)
        assert Family.universe(m, k, kind) == reference, (kind, m, k)


def test_universe_refuses_a_universe_above_the_cap_before_walking(monkeypatch):
    # counted in closed form (4.5e23 30-multisets of [60]), never walked
    refuse_enumeration(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ScaleExceededError, match="exceeding the cap of 200000"):
        Family.universe(60, 30)
    with pytest.raises(ScaleExceededError, match="exceeding the cap of 200000"):
        Family.universe(40, 20, "set")
    assert time.perf_counter() - start < 1


def test_universe_rows_refuses_a_universe_above_the_cap_before_walking():
    # the closed-form count is checked when the walk is requested, not when
    # it is first advanced; a universe of exactly `cap` members is walked
    with pytest.raises(ScaleExceededError, match="has 35 members, exceeding the cap of 34"):
        universe_rows(7, 3, "set", cap=34)
    assert len(list(universe_rows(7, 3, "set", cap=35))) == 35
    with pytest.raises(ScaleExceededError, match=f"exceeding the cap of {ENUMERATION_CAP}"):
        universe_rows(40, 20, "multiset")
    assert ENUMERATION_CAP == 200_000


# -- ranking ----------------------------------------------------------------

def test_multiset_rank_roundtrip_exhaustive():
    for i, a in enumerate(enumerate_k_multisets(4, 3)):
        assert multiset_rank(a) == i
        assert multiset_unrank(4, 3, i) == a


def test_stars_and_bars_ranks_match_the_loop_reference():
    for m in range(1, 8):
        for k in range(0, 7):
            for i, counts in enumerate(recursive_count_vectors(m, k)):
                assert multiset_rank(Multiset(m, counts)) == loop_multiset_rank(counts) == i
                assert multiset_unrank(m, k, i).counts == loop_multiset_unrank(m, k, i) == counts


def test_kset_rank_roundtrip_exhaustive():
    for i, b in enumerate(enumerate_k_subsets(8, 4)):
        assert kset_rank(b) == i
        assert kset_unrank(8, 4, i) == b


def test_rank_boundaries():
    first = multiset_unrank(5, 3, 0)
    assert first == next(iter(enumerate_k_multisets(5, 3)))
    last = list(enumerate_k_multisets(5, 3))[-1]
    assert multiset_rank(last) == multichoose(5, 3) - 1
    with pytest.raises(ContractError):
        multiset_unrank(5, 3, multichoose(5, 3))
    with pytest.raises(ContractError):
        kset_unrank(5, 2, -1)


# -- algebraic properties ---------------------------------------------------

@given(multiset_pair())
def test_intersection_cardinality_bound(pair):
    a, b = pair
    assert a.intersect(b).cardinality <= min(a.cardinality, b.cardinality)


@given(multiset_pair())
def test_intersection_commutes_and_support_distributes(pair):
    a, b = pair
    assert a.intersect(b) == b.intersect(a)
    lhs = a.intersect(b).support().members
    rhs = tuple(sorted(set(a.support().members) & set(b.support().members)))
    assert lhs == rhs


@given(st.lists(st.integers(0, 300), min_size=1, max_size=150))
def test_support_mask_matches_the_bit_loop(counts):
    # ground sets past 64 elements extend the table of powers of two
    a = Multiset(len(counts), tuple(counts))
    assert a.support_mask() == loop_support_mask(counts)
    assert a.support_mask() == KSet(a.ground_size, a.support().members).mask()


def test_intersection_associative_exhaustive_small():
    universe = list(enumerate_k_multisets(3, 2))
    for a in universe:
        assert a.intersect(a) == a
        for b in universe:
            assert a.intersect(b) == b.intersect(a)
            for c in universe:
                assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


# -- family canonicalization ------------------------------------------------

def test_family_dedupes_and_orders():
    family = fam(3, 2, (2, 1), (1, 2), (1, 1))
    assert len(family) == 2
    keys = [a.counts for a in family.members]
    assert keys == sorted(keys)


def test_family_validates_members():
    with pytest.raises(ContractError):
        Family.of_multisets(3, 2, [ms(3, 1, 1, 1)])
    with pytest.raises(ContractError):
        Family.of_multisets(3, 2, [ms(4, 1, 2)])
    with pytest.raises(ContractError):
        Family(3, 2, "bag", ())
