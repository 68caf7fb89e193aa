import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multifam import (
    ContractError,
    Family,
    FamilySpec,
    KSet,
    Multiset,
    binomial,
    build_family,
    common_intersection,
    enumerate_k_subsets,
    family_size_formula,
    fixed_multiset,
    frankl_multiset,
    frankl_multiset_size,
    frankl_set,
    frankl_set_size,
    hajnal_rothschild_size,
    has_property_p_s1,
    hit_s,
    hit_s_set,
    hm_multiset,
    hm_multiset_size,
    hm_set,
    hm_set_size,
    hm_t_multiset,
    hm_t_multiset_size,
    hm_t_set,
    hm_t_set_size,
    is_support_t_intersecting,
    is_t_intersecting,
    multichoose,
    star,
)
from multifam.families import (
    FAMILY_NAMES,
    _Canonizer,
    _Orbits,
    apply_permutation,
    canonical_form,
    fixed_multiset_size,
    hajnal_rothschild_family,
    hit_s_size,
    is_isomorphic,
    star_size,
)

from bruteforce import (
    memberwise_apply_permutation,
    scan_canonical_form,
)
from conftest import family_and_t


def ms(m, *elements):
    return Multiset.from_elements(m, elements)


# -- star ---------------------------------------------------------------

def test_star_sizes():
    assert len(star(4, 3, 1)) == star_size(4, 3) == 10
    assert star(2, 1, 1).members == (ms(2, 1),)
    assert len(star(5, 3, 2)) == multichoose(5, 2)


def test_star_membership_and_errors():
    for a in star(5, 3, 2):
        assert a.multiplicity(2) >= 1
    with pytest.raises(ContractError):
        star(4, 3, 5)


# -- fixed_multiset -------------------------------------------------------

def test_fixed_multiset_size_ignores_multiplicities():
    double = fixed_multiset(5, 4, ms(5, 1, 1))
    pair = fixed_multiset(5, 4, ms(5, 1, 2))
    assert len(double) == len(pair) == multichoose(5, 2) == 15
    assert double.members != pair.members


def test_fixed_multiset_edge_cases():
    anchor = ms(4, 1, 2, 2)
    single = fixed_multiset(4, 3, anchor)
    assert single.members == (anchor,)
    with pytest.raises(ContractError):
        fixed_multiset(4, 2, anchor)


def test_fixed_multiset_is_t_intersecting():
    family = fixed_multiset(5, 4, ms(5, 1, 1))
    assert is_t_intersecting(family, 2)


# -- frankl families -------------------------------------------------------

def test_frankl_set_sizes():
    assert frankl_set_size(8, 4, 2, 1) == len(frankl_set(8, 4, 2, 1)) == 17
    assert frankl_set_size(7, 3, 2, 0) == binomial(5, 1)
    assert frankl_set_size(9, 4, 1, 0) == binomial(8, 3)


def test_frankl_multiset_reference_sizes():
    assert frankl_multiset_size(5, 4, 2, 1) == 17
    for m in range(4, 8):
        assert frankl_multiset_size(m, 3, 1, 1) == 3 * m - 2
    for k in (3, 4):
        assert frankl_multiset_size(k + 1, k, 1, 1) == binomial(2 * k - 1, k - 1)


def test_frankl_multiset_formula_matches_enumeration_on_grid():
    for m in range(1, 7):
        for k in range(1, 5):
            for t in range(1, 4):
                for r in range(0, 3):
                    if t > k or t + r > k or r > k - t or t + 2 * r > m:
                        continue
                    family = frankl_multiset(m, k, t, r)
                    assert len(family) == frankl_multiset_size(m, k, t, r)
                    assert is_t_intersecting(family, t)
                    assert is_support_t_intersecting(family, t)


def test_frankl_parameter_errors():
    with pytest.raises(ContractError):
        frankl_multiset(3, 4, 2, 1)  # window exceeds m
    with pytest.raises(ContractError):
        frankl_set(8, 3, 2, 2)  # t + r > k


# -- hilton-milner style families ------------------------------------------

def test_hm_set_size_matches_formula():
    assert len(hm_set(8, 3)) == hm_set_size(8, 3) == binomial(7, 2) - binomial(4, 2) + 1


def test_hm_multiset_reference_values():
    assert len(hm_multiset(6, 3)) == hm_multiset_size(6, 3) == 16
    assert hm_multiset_size(6, 3) == 3 * 6 - 2
    assert len(hm_multiset(6, 4)) == binomial(8, 3) - binomial(4, 3) + 1 == 53


def test_hm_multiset_properties():
    family = hm_multiset(6, 3)
    assert is_t_intersecting(family, 1)
    assert common_intersection(family).cardinality == 0
    with pytest.raises(ContractError):
        hm_multiset(3, 3)


def test_hm_t_families():
    family = hm_t_multiset(5, 3, 2)
    adjoined = ms(5, 2, 3, 4)  # [k+1] minus 1
    assert adjoined in family.members
    assert is_t_intersecting(family, 2)
    assert common_intersection(family).cardinality < 2
    sets_version = hm_t_set(6, 4, 2)
    assert is_t_intersecting(sets_version, 2)
    with pytest.raises(ContractError):
        hm_t_multiset(5, 3, 1)


def test_hm_t_multiset_size_matches_exhaustive_filter():
    family = hm_t_multiset(5, 4, 2)
    head, window = 0b11, 0b11100
    from multifam import enumerate_k_multisets

    expected = {
        a.counts
        for a in enumerate_k_multisets(5, 4)
        if (a.support_mask() & head) == head and (a.support_mask() & window)
    }
    for i in (1, 2):
        expected.add(ms(5, *(x for x in range(1, 6) if x != i)).counts)
    assert {a.counts for a in family.members} == expected


def test_hm_t_closed_forms_count_their_constructions():
    points = 0
    for k in range(3, 7):
        for t in range(2, k):
            for m in range(k + 1, 9):
                assert hm_t_set_size(m, k, t) == len(hm_t_set(m, k, t)), (m, k, t)
                assert hm_t_multiset_size(m, k, t) == len(hm_t_multiset(m, k, t)), (m, k, t)
                points += 1
    assert points == 30
    # the multiset form is the set form at n = m+k-1
    assert hm_t_multiset_size(7, 4, 2) == hm_t_set_size(10, 4, 2) == 20


# -- hitting families and inclusion-exclusion sizes -------------------------

def test_hit_s_values():
    family = hit_s(7, 2, (1, 2))
    assert len(family) == multichoose(7, 2) - multichoose(5, 2) == 13
    assert has_property_p_s1(family, 2)
    everything = hit_s(4, 2, range(1, 5))
    assert len(everything) == multichoose(4, 2)


def test_hit_s_matches_union_identity():
    assert multichoose(7, 1) + multichoose(6, 1) == multichoose(7, 2) - multichoose(5, 2)


def test_hajnal_rothschild_sizes():
    assert hajnal_rothschild_size(8, 2, 1, 2) == binomial(8, 2) - binomial(6, 2) == 13
    assert hajnal_rothschild_size(9, 4, 3, 1) == binomial(6, 1)
    # brute count of 4-subsets of [10] containing {1,2} or {3,4}
    brute = sum(
        1
        for b in enumerate_k_subsets(10, 4)
        if {1, 2} <= set(b.members) or {3, 4} <= set(b.members)
    )
    assert hajnal_rothschild_size(10, 4, 2, 2) == brute == 55


def test_hajnal_rothschild_family_for_every_t():
    # the k-subsets of [n] holding one of the blocks [jt+1, (j+1)t], read
    # off every k-subset, against the construction and the closed form
    rows = 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            subsets = list(enumerate_k_subsets(n, k))
            for t in range(1, k + 1):
                for s in range(1, n // t + 1):
                    blocks = [set(range(j * t + 1, (j + 1) * t + 1)) for j in range(s)]
                    want = [b for b in subsets if any(x <= set(b.members) for x in blocks)]
                    got = hajnal_rothschild_family(n, k, t, s)
                    assert got == Family.of_sets(n, k, want), (n, k, t, s)
                    assert len(got) == hajnal_rothschild_size(n, k, t, s), (n, k, t, s)
                    if t == 1:
                        assert got == hit_s_set(n, k, range(1, s + 1))
                    rows += 1
    assert rows == 358


def test_constructor_sizes_match_formulas_on_the_full_grid():
    for m in range(1, 8):
        for k in range(1, 6):
            assert len(star(m, k, 1)) == star_size(m, k) == multichoose(m, k - 1)
            for s in (1, 2):
                if s <= m:
                    assert len(hit_s(m, k, range(1, s + 1))) == (
                        multichoose(m, k) - multichoose(m - s, k)
                    )
            if k >= 2 and m >= k + 1:
                assert len(hm_multiset(m, k)) == hm_multiset_size(m, k)
                assert len(hm_set(m + k - 1, k)) == hm_set_size(m + k - 1, k)
            for anchor_card in range(1, min(k, 3) + 1):
                anchor = ms(m, *([1] * anchor_card))
                assert len(fixed_multiset(m, k, anchor)) == multichoose(m, k - anchor_card)


def test_multiset_constructors_build_only_the_members_they_keep(monkeypatch):
    # each constructor equals a filter over Family.universe, and builds a
    # Multiset only for a member it keeps
    def support(a):
        return {i + 1 for i, c in enumerate(a.counts) if c}

    def hm_t_keep(a):
        head, window = {1, 2} <= support(a), support(a) & {3, 4, 5}
        return head and window or support(a) in ({2, 3, 4, 5}, {1, 3, 4, 5})

    anchor = ms(6, 1, 1, 3)
    cases = [
        (lambda: star(6, 3, 2), 6, 3, lambda a: 2 in support(a)),
        (lambda: frankl_multiset(9, 4, 3, 0), 9, 4, lambda a: {1, 2, 3} <= support(a)),
        (lambda: frankl_multiset(7, 4, 2, 1), 7, 4, lambda a: len(support(a) & {1, 2, 3, 4}) >= 3),
        (lambda: hm_t_multiset(6, 4, 2), 6, 4, hm_t_keep),
        (lambda: hit_s(7, 3, (1, 5)), 7, 3, lambda a: support(a) & {1, 5}),
        (lambda: fixed_multiset(6, 4, anchor), 6, 4, lambda a: a.contains(anchor)),
    ]
    built = []
    real = Multiset.__post_init__

    def counting(self):
        built.append(self.counts)
        real(self)

    sizes = []
    for construct, m, k, keep in cases:
        universe = Family.universe(m, k).members
        expected = Family(m, k, "multiset", tuple(a for a in universe if keep(a)))
        built.clear()
        monkeypatch.setattr(Multiset, "__post_init__", counting)
        family = construct()
        monkeypatch.undo()
        assert family == expected
        assert built == [a.counts for a in expected.members]
        sizes.append((len(built), len(universe)))
    assert sizes == [(21, 56), (9, 495), (25, 210), (17, 126), (49, 84), (6, 126)]


def test_set_constructors_build_only_the_members_they_keep(monkeypatch):
    # each set constructor equals a filter over Family.universe, and builds
    # a KSet only for a member it keeps (and hit_s_set one for its anchor)
    from multifam.families import hit_s_set

    cases = [
        (lambda: frankl_set(12, 3, 1, 0), 12, 3, lambda b: 1 in b.members),
        (lambda: frankl_set(8, 4, 2, 1), 8, 4, lambda b: len({1, 2, 3, 4} & set(b.members)) >= 3),
        (lambda: hm_set(7, 3), 7, 3,
         lambda b: 1 in b.members and {2, 3, 4} & set(b.members) or b.members == (2, 3, 4)),
        (lambda: hm_t_set(6, 4, 2), 6, 4,
         lambda b: {1, 2} <= set(b.members) and {3, 4, 5} & set(b.members)
         or b.members in ((2, 3, 4, 5), (1, 3, 4, 5))),
    ]
    built = []
    real = KSet.__post_init__

    def counting(self):
        built.append(self.members)
        real(self)

    sizes = []
    for construct, n, k, keep in cases:
        universe = Family.universe(n, k, "set").members
        expected = Family(n, k, "set", tuple(b for b in universe if keep(b)))
        built.clear()
        monkeypatch.setattr(KSet, "__post_init__", counting)
        family = construct()
        monkeypatch.undo()
        assert family == expected
        assert built == [b.members for b in expected.members]
        sizes.append((len(built), len(universe)))
    assert sizes == [(55, 220), (17, 70), (13, 35), (8, 15)]
    monkeypatch.setattr(KSet, "__post_init__", counting)
    built.clear()
    family = hit_s_set(7, 3, (1, 5))
    assert built == [(1, 5)] + [b.members for b in family.members]
    assert len(family) == binomial(7, 3) - binomial(5, 3)


# -- the family registry -----------------------------------------------------

# a small spec of each named family, with the constructor and closed-form
# size it must dispatch to
DIRECT_CALLS = {
    "star": (FamilySpec("star", 5, 3, anchor=(2,)), lambda: star(5, 3, 2), lambda: star_size(5, 3)),
    "fixed_multiset": (FamilySpec("fixed_multiset", 5, 4, anchor=(1, 1, 3)),
                       lambda: fixed_multiset(5, 4, ms(5, 1, 1, 3)),
                       lambda: fixed_multiset_size(5, 4, 3)),
    "frankl_set": (FamilySpec("frankl_set", 8, 4, t=2, r=1),
                   lambda: frankl_set(8, 4, 2, 1), lambda: frankl_set_size(8, 4, 2, 1)),
    "frankl_multiset": (FamilySpec("frankl_multiset", 6, 4, t=2, r=1),
                        lambda: frankl_multiset(6, 4, 2, 1), lambda: frankl_multiset_size(6, 4, 2, 1)),
    "hm_set": (FamilySpec("hm_set", 7, 3), lambda: hm_set(7, 3), lambda: hm_set_size(7, 3)),
    "hm_multiset": (FamilySpec("hm_multiset", 5, 3),
                    lambda: hm_multiset(5, 3), lambda: hm_multiset_size(5, 3)),
    "hm_t_set": (FamilySpec("hm_t_set", 7, 4, t=2),
                 lambda: hm_t_set(7, 4, 2), lambda: hm_t_set_size(7, 4, 2)),
    "hm_t_multiset": (FamilySpec("hm_t_multiset", 6, 4, t=2),
                      lambda: hm_t_multiset(6, 4, 2), lambda: hm_t_multiset_size(6, 4, 2)),
    "hit_s": (FamilySpec("hit_s", 6, 3, s=2), lambda: hit_s(6, 3, (1, 2)), lambda: hit_s_size(6, 3, 2)),
    "hajnal_rothschild": (FamilySpec("hajnal_rothschild", 7, 3, t=1, s=2),
                          lambda: hajnal_rothschild_family(7, 3, 1, 2),
                          lambda: hajnal_rothschild_size(7, 3, 1, 2)),
}


def test_family_names_keep_their_order():
    # the CLI offers them as --family choices in this order
    assert FAMILY_NAMES == (
        "star", "fixed_multiset", "frankl_set", "frankl_multiset", "hm_set", "hm_multiset",
        "hm_t_set", "hm_t_multiset", "hit_s", "hajnal_rothschild",
    )
    assert set(DIRECT_CALLS) == set(FAMILY_NAMES)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_registry_dispatches_to_the_named_functions(name):
    spec, construct, size = DIRECT_CALLS[name]
    assert build_family(spec) == construct()
    assert family_size_formula(spec) == size()


def test_registry_reads_the_constructors_when_called(monkeypatch):
    # a rebound module attribute (as the benchmark tracer installs) is the
    # one the registry calls
    marker = hit_s_set(3, 1, (1,))
    monkeypatch.setattr("multifam.families.star", lambda m, k, x: marker)
    monkeypatch.setattr("multifam.families.star_size", lambda m, k: -1)
    spec = FamilySpec("star", 5, 3)
    assert build_family(spec) is marker
    assert family_size_formula(spec) == -1


# -- isomorphism -------------------------------------------------------------

@given(st.permutations(list(range(1, 6))))
def test_apply_permutation_preserves_isomorphism(perm):
    family = hm_multiset(5, 3)
    relabeled = apply_permutation(family, perm)
    assert len(relabeled) == len(family)
    assert canonical_form(relabeled).members == canonical_form(family).members
    assert is_isomorphic(family, relabeled)


@given(family_and_t(), st.data())
def test_apply_permutation_matches_the_member_wise_reference(case, data):
    # the whole family, member order included, on both member kinds
    fam, _t = case
    perm = data.draw(st.permutations(range(1, fam.m + 1)))
    assert apply_permutation(fam, perm) == memberwise_apply_permutation(fam, perm)


@pytest.mark.parametrize("fam", [hm_set(5, 3), hm_multiset(4, 3)], ids=("set", "multiset"))
def test_apply_permutation_matches_the_reference_on_every_relabelling(fam):
    for perm in itertools.permutations(range(1, fam.m + 1)):
        assert apply_permutation(fam, perm) == memberwise_apply_permutation(fam, perm)


def test_stars_are_isomorphic():
    assert is_isomorphic(star(4, 3, 1), star(4, 3, 2))


def test_different_sizes_are_not_isomorphic(monkeypatch):
    # the sizes decide before any canonical form is computed
    monkeypatch.setattr("multifam.families.canonical_form", None)
    full = star(4, 3, 1)
    assert not is_isomorphic(full, Family.of_multisets(4, 3, full.members[1:]))


def test_equal_sizes_but_not_isomorphic():
    hm = hm_multiset(6, 3)
    frk = frankl_multiset(6, 3, 1, 1)
    assert len(hm) == len(frk) == 16
    assert not is_isomorphic(hm, frk)


def test_canonical_form_above_nine_elements():
    wide = star(10, 2, 1)
    perm = (4, 9, 1, 10, 7, 2, 8, 3, 6, 5)
    assert canonical_form(apply_permutation(wide, perm)).members == canonical_form(wide).members
    assert is_isomorphic(wide, star(10, 2, 7))


def _family(m, k, kind, members):
    if kind == "multiset":
        return Family.of_multisets(m, k, members)
    return Family.of_sets(m, k, members)


@st.composite
def family_pair(draw, max_m=7, max_members=10):
    """A family of 0..max_members members (m <= max_m, k >= 1, either kind)
    and a second family of the same shape: half the time a relabelled copy
    of the first, otherwise drawn independently."""
    m = draw(st.integers(1, max_m))
    kind = draw(st.sampled_from(["multiset", "set"]))
    k = draw(st.integers(1, 3 if kind == "multiset" else m))
    universe = list(Family.universe(m, k, kind).members)
    members = st.sets(st.sampled_from(universe), max_size=max_members)
    first = _family(m, k, kind, draw(members))
    perm = draw(st.permutations(list(range(1, m + 1))))
    if draw(st.booleans()):
        second = apply_permutation(first, perm)
    else:
        second = _family(m, k, kind, draw(members))
    return first, second, perm


@given(family_pair())
def test_canonical_form_matches_the_relabelling_scan(pair):
    first, second, perm = pair
    canon = canonical_form(first)
    scan = scan_canonical_form(first)
    assert (canon.m, canon.k, canon.kind) == (first.m, first.k, first.kind)
    # a ground-set relabelling of the input ...
    assert scan_canonical_form(canon) == scan
    # ... that does not depend on the input's labelling ...
    assert canonical_form(apply_permutation(first, perm)) == canon
    # ... and separates exactly the isomorphism classes
    assert (canonical_form(second) == canon) == (scan_canonical_form(second) == scan)


@pytest.mark.parametrize("kind, m, k", [("multiset", 4, 2), ("set", 6, 3), ("multiset", 5, 1)])
def test_canonical_form_of_empty_family_and_full_universe(kind, m, k):
    empty = _family(m, k, kind, [])
    assert canonical_form(empty) == empty == scan_canonical_form(empty)
    full = Family.universe(m, k, kind)
    assert canonical_form(full) == full == scan_canonical_form(full)


@st.composite
def family_with_untouched_elements(draw, max_m=7):
    """A family on [m] whose members avoid a drawn set of elements, which
    are then twins: every member meets each of them zero times."""
    m = draw(st.integers(2, max_m))
    kind = draw(st.sampled_from(["multiset", "set"]))
    used = draw(st.integers(1, m - 1))
    k = draw(st.integers(1, 3 if kind == "multiset" else used))
    universe = [x for x in Family.universe(m, k, kind).members if x.support_mask() < 1 << used]
    first = _family(m, k, kind, draw(st.sets(st.sampled_from(universe), max_size=8)))
    return first, draw(st.permutations(list(range(1, m + 1))))


@given(family_with_untouched_elements())
def test_canonical_form_with_twin_elements_matches_the_scan(pair):
    fam, perm = pair
    canon = canonical_form(fam)
    assert scan_canonical_form(canon) == scan_canonical_form(fam)
    assert canonical_form(apply_permutation(fam, perm)) == canon


def test_twin_elements_are_split_without_branching(monkeypatch):
    # 38 of the 40 elements meet no member; branching on them one at a
    # time took 780 search nodes
    m = 40
    fam = Family.of_multisets(m, 1, [Multiset.from_elements(m, (1,)), Multiset.from_elements(m, (2,))])
    calls = []
    node = _Canonizer._node
    monkeypatch.setattr(_Canonizer, "_node", lambda self, *args: calls.append(1) or node(self, *args))
    canon = canonical_form(fam)
    assert len(calls) <= 5
    assert canonical_form(apply_permutation(fam, list(range(m, 0, -1)))) == canon
    assert len(canon) == 2 and is_isomorphic(canon, fam)


def test_symmetric_cells_are_split_without_branching(monkeypatch):
    # elements 2..40 of a star each sit in different members, so no two are
    # twins, yet every permutation of them fixes the family; branching on
    # them one at a time took 780 search nodes
    calls = []
    node = _Canonizer._node
    monkeypatch.setattr(_Canonizer, "_node", lambda self, *args: calls.append(1) or node(self, *args))
    canon = canonical_form(star(40, 2, 1))
    assert len(calls) <= 3
    calls.clear()
    assert canonical_form(star(40, 2, 17)) == canon
    assert len(calls) <= 3


def test_a_later_smaller_leaf_becomes_the_canonical_one(monkeypatch):
    # a 4-regular graph on [7] as a family of 2-subsets, labelled so that
    # its first leaf is not its smallest: the search must replace the best
    # leaf (2,160 of its 5,040 relabellings do)
    edges = (12, 15, 16, 17, 23, 24, 27, 35, 36, 37, 45, 46, 47, 56)
    fam = Family.of_sets(7, 2, [KSet(7, divmod(edge, 10)) for edge in edges])
    replaced = []
    leaf = _Canonizer._leaf

    def spy(self, col, path):
        best = self.best
        resume = leaf(self, col, path)
        replaced.append(best is not None and self.best is not best)
        return resume

    monkeypatch.setattr(_Canonizer, "_leaf", spy)
    canon = canonical_form(fam)
    assert any(replaced)
    assert scan_canonical_form(canon) == scan_canonical_form(fam)
    rng = random.Random(7)
    for _ in range(50):
        perm = rng.sample(range(1, 8), 7)
        assert canonical_form(apply_permutation(fam, perm)) == canon


def _structured(draw, kind, m):
    """One of the named extremal families of this kind, with drawn valid
    parameters, built on [g] for a drawn 3 <= g <= m and read on [m]; half
    the time united with a relabelled copy of itself."""
    g = draw(st.sampled_from(range(3, m + 1)))
    k = draw(st.integers(2, 3 if kind == "multiset" else g - 1))
    anchor = draw(st.sets(st.integers(1, g), min_size=1))
    t = draw(st.integers(1, min(k, g)))
    r = draw(st.integers(0, min(k - t, (g - t) // 2)))
    choices = [
        lambda: (hit_s if kind == "multiset" else hit_s_set)(g, k, anchor),
        lambda: (frankl_multiset if kind == "multiset" else frankl_set)(g, k, t, r),
    ]
    if kind == "multiset":
        choices.append(lambda: star(g, k, min(anchor)))
    if g >= k + 1:
        choices.append(lambda: (hm_multiset if kind == "multiset" else hm_set)(g, k))
        if k >= 3:
            u = draw(st.integers(2, k - 1))
            choices.append(lambda: (hm_t_multiset if kind == "multiset" else hm_t_set)(g, k, u))
    fam = draw(st.sampled_from(choices))()
    if kind == "multiset":
        members = [Multiset(m, a.counts + (0,) * (m - g)) for a in fam.members]
    else:
        members = [KSet(m, b.members) for b in fam.members]
    fam = _family(m, k, kind, members)
    if draw(st.booleans()):
        perm = draw(st.permutations(list(range(1, m + 1))))
        fam = _family(m, k, kind, fam.members + apply_permutation(fam, perm).members)
    return fam


@st.composite
def structured_pair(draw, max_m=6):
    """Two structured families of one kind on one [m] (see _structured),
    and a relabelling of [m]."""
    kind = draw(st.sampled_from(["multiset", "set"]))
    m = draw(st.sampled_from(range(3, max_m + 1)))  # not skewed to small m
    return _structured(draw, kind, m), _structured(draw, kind, m), draw(
        st.permutations(list(range(1, m + 1))))


@given(structured_pair())
def test_canonical_form_of_structured_families_matches_the_scan(pair):
    # the extremal families have large symmetric cells, so this is where
    # the one-step split carries the search
    first, second, perm = pair
    canon = canonical_form(first)
    scan = scan_canonical_form(first)
    assert scan_canonical_form(canon) == scan
    assert canonical_form(apply_permutation(first, perm)) == canon
    assert (canonical_form(second) == canon) == (scan_canonical_form(second) == scan)


def test_a_cell_is_split_only_when_every_transposition_is_an_automorphism():
    # two disjoint triangles and the hexagon, as 2-subsets of [6]: colour
    # refinement leaves one cell of all six elements in both, and (1 2)
    # fixes the triangles but (1 4) does not, so the cell must be branched
    # on; splitting it after testing (1 2) alone gave 4 different forms
    triangles = Family.of_sets(6, 2, [KSet(6, e) for e in [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]])
    hexagon = Family.of_sets(6, 2, [KSet(6, e) for e in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]])
    relabellings = list(itertools.permutations(range(1, 7)))
    forms = {canonical_form(apply_permutation(triangles, p)) for p in relabellings}
    hexagon_forms = {canonical_form(apply_permutation(hexagon, p)) for p in relabellings}
    assert len(forms) == len(hexagon_forms) == 1
    assert forms != hexagon_forms
    assert not is_isomorphic(triangles, hexagon)


def test_sibling_orbit_tests_fold_each_automorphism_once_per_node(monkeypatch):
    # 20 disjoint pairs: 439 search nodes, 20 automorphisms; rebuilding the
    # orbits from every stored automorphism at each sibling test examined
    # 10,203 of them
    m = 40
    fam = Family.of_sets(m, 2, [KSet(m, (2 * i + 1, 2 * i + 2)) for i in range(m // 2)])
    examined = []
    absorb = _Orbits.absorb

    def counting(self, automorphisms):
        examined.append(len(automorphisms) - self.seen)
        absorb(self, automorphisms)

    monkeypatch.setattr(_Orbits, "absorb", counting)
    calls = []
    node = _Canonizer._node
    monkeypatch.setattr(_Canonizer, "_node", lambda self, *args: calls.append(1) or node(self, *args))
    canon = canonical_form(fam)
    assert sum(examined) <= 400
    assert len(calls) <= 439  # every automorphism still prunes
    assert canonical_form(apply_permutation(fam, list(range(m, 0, -1)))) == canon
    assert is_isomorphic(canon, fam)


def test_orbits_merge_only_automorphisms_fixing_the_path():
    # on [0, 5) with path [0]: (0 1) moves the path element and is not
    # merged, (2 3) fixes it and is; the later absorb adds only (3 4)
    orbits = _Orbits(5, [0])
    stored = [[1, 0, 2, 3, 4], [0, 1, 3, 2, 4]]
    orbits.absorb(stored)
    assert not orbits.same(1, [0])
    assert orbits.same(3, [2])
    assert not orbits.same(4, [2])
    stored.append([0, 1, 2, 4, 3])
    orbits.absorb(stored)
    assert orbits.same(4, [2])
    assert not orbits.same(1, [0, 2])


def test_apply_permutation_validates():
    with pytest.raises(ContractError):
        apply_permutation(star(4, 2, 1), (1, 2, 3))
    with pytest.raises(ContractError):
        apply_permutation(star(4, 2, 1), (1, 1, 2, 3))
