import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multifam.compression as compression
from multifam import (
    CompressionInvariantError,
    ContractError,
    Family,
    Kernel,
    Multiset,
    ShiftParams,
    common_intersection,
    down_compress_full,
    down_compress_pass,
    fixed_multiset,
    frankl_multiset,
    is_support_t_intersecting,
    is_t_intersecting,
    is_t_kernel,
    shift_family,
    shift_multiset,
    star,
)
from multifam.acceptance import _compression_grid, random_t_intersecting_family

from bruteforce import (
    greedy_random_t_intersecting_family,
    greedy_t_subfamily,
    pair_loop_is_support_t_intersecting,
    pair_loop_is_t_kernel,
    shift_loop_compress_pass,
)
from conftest import family_and_t, multiset_family


def ms(m, *elements):
    return Multiset.from_elements(m, elements)


def fam(m, k, *element_tuples):
    return Family.of_multisets(m, k, (ms(m, *e) for e in element_tuples))


# -- shift params and single shifts -----------------------------------------

def test_shift_params_validation():
    with pytest.raises(ContractError):
        ShiftParams(1, 2, 1)
    with pytest.raises(ContractError):
        ShiftParams(1, 1, 2)


def test_shift_multiset_worked_example():
    a = ms(5, 1, 1, 1, 3, 4)
    assert shift_multiset(a, ShiftParams(1, 2, 2)) == ms(5, 1, 2, 2, 3, 4)


def test_shift_multiset_no_ops():
    a = ms(4, 1, 2, 3)
    assert shift_multiset(a, ShiftParams(1, 2, 4)) is a  # fewer than s copies
    b = ms(4, 1, 1, 2)
    assert shift_multiset(b, ShiftParams(1, 2, 2)) is b  # target already present


def test_shift_preserves_cardinality_and_grows_support():
    a = ms(6, 2, 2, 2, 2, 5)
    shifted = shift_multiset(a, ShiftParams(2, 3, 1))
    assert shifted.cardinality == a.cardinality
    assert shifted == ms(6, 1, 1, 2, 2, 5)
    assert len(shifted.support().members) == len(a.support().members) + 1


# -- family-level shifts ------------------------------------------------------

def test_shift_family_blocked_by_existing_member():
    family = fam(3, 2, (1, 2), (1, 1))
    # {1,1} would shift to {1,2}, which is already present, so nothing moves
    records = []
    assert shift_family(family, ShiftParams(1, 2, 2), records.append) is family
    assert records == []


def test_shift_family_moves_when_target_absent():
    family = fam(3, 2, (1, 1), (2, 3))
    shifted = shift_family(family, ShiftParams(1, 2, 2))
    assert {a.counts for a in shifted.members} == {(1, 1, 0), (0, 1, 1)}


def test_shift_family_no_candidates_is_identity():
    family = fam(4, 2, (1, 2), (1, 3))
    records = []
    assert shift_family(family, ShiftParams(1, 2, 4), records.append) is family
    assert records == []


@given(multiset_family(max_m=4, max_k=3), st.integers(1, 4), st.integers(1, 4), st.integers(2, 3))
def test_shift_family_always_preserves_size(family, i, j, s):
    if i == j or i > family.m or j > family.m:
        return
    records = []
    shifted = shift_family(family, ShiftParams(i, s, j), records.append)
    assert len(shifted) == len(family)
    # the input comes back as the very same object exactly when nothing moved
    assert (shifted is family) == (records == [])


# -- kernels -------------------------------------------------------------------

def test_trivial_kernel_is_a_kernel_for_t_intersecting_families():
    rng = random.Random(5)
    for _ in range(25):
        family = random_t_intersecting_family(5, 3, 2, rng)
        assert is_t_kernel(family, Kernel.trivial(5, 2).T, 2)


def test_ground_set_kernel_iff_supports_intersect():
    family = fam(5, 4, (1, 1, 2, 3), (1, 1, 4, 5))
    assert is_t_intersecting(family, 2)
    assert not is_t_kernel(family, Multiset(5, (1, 1, 1, 1, 1)), 2)
    supported = frankl_multiset(5, 3, 2, 1)
    assert is_t_kernel(supported, Multiset(5, (1, 1, 1, 1, 1)), 2)


@settings(max_examples=300)
@given(family_and_t(kinds=("multiset",)), st.data())
def test_is_t_kernel_matches_pair_loop_reference(case, data):
    family, t = case
    m, k = family.m, family.k
    kernels = [
        Multiset(m, (1,) * m),
        Multiset(m, (k + 1,) * m),  # above every member multiplicity
        Multiset(m, tuple(data.draw(st.lists(st.integers(0, k + 2), min_size=m, max_size=m)))),
    ]
    for sub in (family, greedy_t_subfamily(family, t)):
        for T in kernels:
            assert is_t_kernel(sub, T, t) == pair_loop_is_t_kernel(sub, T, t)


def test_kernel_count_above_the_field_width_does_not_spill():
    # the members share only one copy of 2; T holds 1 three times and 2 never,
    # so an unclipped field for 1 would spill into 2's field and count it
    family = fam(2, 2, (1, 2), (2, 2))
    assert not is_t_kernel(family, Multiset(2, (3, 0)), 1)
    assert is_t_kernel(family, Multiset(2, (0, 3)), 1)


def test_kernel_validation():
    with pytest.raises(ContractError):
        Kernel(Multiset(3, (1, 0, 2)))
    kernel = Kernel.trivial(3, 2)
    assert kernel.surplus_elements() == (1, 2, 3)
    smaller = kernel.remove_copy(2)
    assert smaller.T.counts == (2, 1, 2)
    with pytest.raises(ContractError):
        smaller.remove_copy(2)


# -- compression passes --------------------------------------------------------

def test_single_pass_on_fixed_pair_family():
    family = fixed_multiset(5, 4, ms(5, 1, 1))
    kernel = Kernel.trivial(5, 2)
    result, new_kernel = down_compress_pass(family, kernel, 1, 2, allow_out_of_regime=True)
    assert len(result) == 15
    assert is_t_intersecting(result, 2)
    assert is_t_kernel(result, new_kernel.T, 2)
    assert new_kernel.T.counts == (1, 2, 2, 2, 2)


def _run_pass(run_pass):
    """(result, kernel) or the CompressionInvariantError message, with the
    shift records written before it."""
    records = []
    try:
        return run_pass(records.append), records
    except CompressionInvariantError as exc:
        return str(exc), records


def _assert_pass_matches_reference(family, kernel, i, t):
    got, got_records = _run_pass(
        lambda on_shift: down_compress_pass(
            family, kernel, i, t, allow_out_of_regime=True, on_shift=on_shift
        )
    )
    want, want_records = _run_pass(
        lambda on_shift: shift_loop_compress_pass(family, kernel, i, t, on_shift)
    )
    assert got_records == want_records
    assert got == want
    if isinstance(want, tuple):
        # the input comes back as the very same object exactly when nothing moved
        assert (got[0] is family) == (want[0] is family)
    return want


@st.composite
def pass_input(draw):
    """A t-intersecting multiset family, the family it was cut from, and t;
    m >= 2k-t on about half the draws and m < 2k-t on the others."""
    k = draw(st.integers(1, 5))
    t = draw(st.integers(1, k))
    floor = max(1, 2 * k - t)
    if floor == 1 or draw(st.booleans()):
        m = draw(st.integers(floor, floor + 2))
    else:
        m = draw(st.integers(1, floor - 1))
    universe = list(Family.universe(m, k).members)
    drawn = Family.of_multisets(m, k, draw(st.lists(st.sampled_from(universe), max_size=16)))
    return greedy_t_subfamily(drawn, t), drawn, t


@settings(max_examples=150)
@given(pass_input(), st.data())
def test_pass_matches_shift_loop_reference(case, data):
    family, drawn, t = case
    start, m = family, family.m
    # a chain of passes from the trivial kernel, each element picked at random
    kernel = Kernel.trivial(m, t)
    while kernel.surplus_elements():
        i = data.draw(st.sampled_from(kernel.surplus_elements()))
        outcome = _assert_pass_matches_reference(family, kernel, i, t)
        if not isinstance(outcome, tuple):
            break
        family, kernel = outcome
    # an arbitrary kernel, on the t-intersecting family and on the one it
    # was cut from
    counts = data.draw(st.lists(st.integers(1, drawn.k + 1), min_size=m, max_size=m))
    i = data.draw(st.integers(1, m))
    counts[i - 1] = max(counts[i - 1], 2)
    for family in (start, drawn):
        _assert_pass_matches_reference(family, Kernel(Multiset(m, tuple(counts))), i, t)


def _patched_step(replace):
    """A shift step that moves every candidate onto replace[its counts]
    (onto itself when absent), ignoring the shift."""
    def step(candidates, current, p, on_shift):
        return [], [replace.get(a.counts, a) for a in candidates]
    return step


@pytest.mark.parametrize(
    "replace, message",
    [
        # {1,1,3} becomes {2,3,4}, which shares only the element 2 with {1,1,2}
        ({(2, 0, 1, 0): ms(4, 2, 3, 4)}, "compression pass broke t-intersection"),
        # nothing changes: the pair still shares {1,1}, but T' holds 1 once
        ({}, "shrunken kernel is not a t-kernel for the output"),
    ],
)
def test_pass_postconditions_raise_their_own_message(monkeypatch, replace, message):
    family = fam(4, 3, (1, 1, 2), (1, 1, 3))
    monkeypatch.setattr(compression, "_shift_step", _patched_step(replace))
    with pytest.raises(CompressionInvariantError, match=f"^{re.escape(message)}$"):
        down_compress_pass(family, Kernel.trivial(4, 2), 1, 2)


def _reference_full(family, t, on_shift):
    """down_compress_full as a chain of reference passes, each re-running
    both full pair loops, then the support check as a pair loop."""
    kernel = Kernel.trivial(family.m, t)
    passes = 0
    while kernel.surplus_elements():
        passes += 1

        def traced(record, _pass_no=passes):
            on_shift({"pass": _pass_no, **record})

        i = kernel.surplus_elements()[0]
        family, kernel = shift_loop_compress_pass(family, kernel, i, t, traced)
    if not pair_loop_is_support_t_intersecting(family, t):
        raise CompressionInvariantError("output supports do not pairwise t-intersect")
    return family


@settings(max_examples=200)
@given(pass_input())
def test_full_run_matches_chain_of_reference_passes(case):
    family, _, t = case
    got, got_records = _run_pass(
        lambda on_shift: down_compress_full(
            family, t, allow_out_of_regime=True, on_shift=on_shift
        )
    )
    want, want_records = _run_pass(lambda on_shift: _reference_full(family, t, on_shift))
    assert got_records == want_records
    assert got == want


def _block_every_mover(candidates, current, p, on_shift):
    return list(candidates), []


@pytest.mark.parametrize(
    "step, members, message",
    [
        # {1,1,2} becomes {2,4,4}, which shares only the element 2 with
        # {1,2,3}, a member that did not move
        pytest.param(
            _patched_step({(2, 1, 0, 0): ms(4, 2, 4, 4)}),
            ((1, 1, 2), (1, 2, 3)),
            "compression pass broke t-intersection",
            id="landed-vs-unmoved",
        ),
        # both members land, {1,1,3} as {2,3,4}
        pytest.param(
            _patched_step({(2, 0, 1, 0): ms(4, 2, 3, 4)}),
            ((1, 1, 2), (1, 1, 3)),
            "compression pass broke t-intersection",
            id="landed-pair",
        ),
        # the pair still shares {1,1}, but the first pass's kernel holds 1
        # once: both members land on themselves, or both are blocked
        pytest.param(
            _patched_step({}),
            ((1, 1, 2), (1, 1, 3)),
            "shrunken kernel is not a t-kernel for the output",
            id="landed-in-place",
        ),
        pytest.param(
            _block_every_mover,
            ((1, 1, 2), (1, 1, 3)),
            "shrunken kernel is not a t-kernel for the output",
            id="blocked-pair",
        ),
    ],
)
def test_full_run_checks_raise_their_own_message(monkeypatch, step, members, message):
    family = fam(4, 3, *members)
    monkeypatch.setattr(compression, "_shift_step", step)
    with pytest.raises(CompressionInvariantError, match=f"^{re.escape(message)}$"):
        down_compress_full(family, 2)


def test_full_run_rechecks_only_the_changed_pairs(monkeypatch):
    # each pass of a full run re-checks the pairs it changed; only the
    # public pass, which may be handed any kernel, runs the whole check
    def refuse(*args):
        raise AssertionError("is_t_kernel called")

    family = fixed_multiset(8, 5, ms(8, 4, 4))
    want = down_compress_full(family, 2)
    monkeypatch.setattr(compression, "is_t_kernel", refuse)
    assert down_compress_full(family, 2) == want
    with pytest.raises(AssertionError, match="is_t_kernel called"):
        down_compress_pass(family, Kernel.trivial(8, 2), 4, 2)


def test_passes_shift_only_the_members_that_can_move(monkeypatch):
    # 120 members, 84 moves over 8 passes; a shift_family call per j and
    # pass tried every member: 6,720 shifts
    calls = []
    shifted = compression._shifted_counts
    monkeypatch.setattr(
        compression, "_shifted_counts", lambda a, p: calls.append(1) or shifted(a, p)
    )
    records = []
    down_compress_full(fixed_multiset(8, 5, ms(8, 4, 4)), 2, on_shift=records.append)
    assert len(records) == 84
    assert 84 <= len(calls) <= 800


def test_a_pass_builds_a_multiset_only_for_members_that_land(monkeypatch):
    # 120 members; the pass on 4 tries 336 shifts and lands 84 of them
    built = []

    class Counting(Multiset):
        def __post_init__(self):
            super().__post_init__()
            built.append(self.counts)

    family = fixed_multiset(8, 5, ms(8, 4, 4))
    trivial = Kernel.trivial(8, 2)
    tried = []
    shifted = compression._shifted_counts
    monkeypatch.setattr(
        compression, "_shifted_counts", lambda a, p: tried.append(1) or shifted(a, p)
    )
    monkeypatch.setattr(compression, "Multiset", Counting)
    records = []
    result, kernel = down_compress_pass(family, trivial, 4, 2, on_shift=records.append)
    landed = [ms(8, *map(int, r["member_after"].split())).counts for r in records]
    assert len(landed) < len(tried)
    assert built == landed + [kernel.T.counts]
    assert set(landed) <= {a.counts for a in result.members}


def test_pass_requires_surplus_element():
    family = frankl_multiset(6, 3, 2, 1)
    kernel = Kernel(Multiset(6, (1, 1, 1, 1, 1, 1)))
    with pytest.raises(ContractError):
        down_compress_pass(family, kernel, 1, 2)


def test_single_member_family_compresses():
    family = fam(6, 4, (1, 1, 1, 1))
    out = down_compress_full(family, 2)
    assert len(out) == 1


def test_out_of_regime_refusal_and_opt_in():
    family = fixed_multiset(5, 4, ms(5, 1, 1))
    with pytest.raises(ContractError):
        down_compress_full(family, 2)
    out = down_compress_full(family, 2, allow_out_of_regime=True)
    core = common_intersection(out)
    assert len(out) == 15
    assert core.cardinality == 2 and max(core.counts) == 1
    assert out == fixed_multiset(5, 4, core)


def test_t1_requires_no_passes():
    family = star(5, 2, 1)
    assert down_compress_full(family, 1) == family


def test_rejects_non_t_intersecting_input():
    family = fam(6, 4, (1, 1, 2, 3), (4, 4, 5, 6))
    with pytest.raises(ContractError):
        down_compress_full(family, 2)


def test_structured_families_are_fixed_points():
    for (m, k, t) in ((5, 3, 2), (6, 3, 2), (6, 4, 2), (6, 4, 3)):
        family = frankl_multiset(m, k, t, 1)
        assert down_compress_full(family, t) == family


def test_random_family_generator_matches_reference():
    for seed in range(20):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for m, k, t in _compression_grid():
            assert random_t_intersecting_family(m, k, t, rng) == (
                greedy_random_t_intersecting_family(m, k, t, reference_rng)
            ), (seed, m, k, t)
        assert rng.getstate() == reference_rng.getstate()


def test_random_compression_battery_small():
    rng = random.Random(99)
    for (m, k, t) in ((4, 3, 2), (6, 4, 2), (5, 4, 3), (6, 4, 3)):
        for _ in range(30):
            family = random_t_intersecting_family(m, k, t, rng)
            out = down_compress_full(family, t)
            assert len(out) == len(family)
            assert is_t_intersecting(out, t)
            assert is_support_t_intersecting(out, t)


def test_compressed_size_respects_the_support_mode_optimum():
    # compression feeds the support-intersecting search path, so no
    # compressed family can beat that independence number
    from multifam import max_t_intersecting
    from multifam.search import SUPPORT_INTERSECTION

    rng = random.Random(3)
    for (m, k, t) in ((4, 3, 2), (5, 3, 2)):
        bound = max_t_intersecting(m, k, t, mode=SUPPORT_INTERSECTION).optimum
        for _ in range(10):
            family = random_t_intersecting_family(m, k, t, rng)
            out = down_compress_full(family, t)
            assert len(out) <= bound


def test_trace_records_every_shift():
    family = fixed_multiset(5, 4, ms(5, 1, 1))
    records = []
    down_compress_full(family, 2, allow_out_of_regime=True, on_shift=records.append)
    assert records, "expected at least one shift"
    for record in records:
        assert set(record) == {"pass", "i", "s", "j", "member_before", "member_after"}
        assert record["pass"] >= 1
    # the first pass moves surplus copies of 1 onto 2: recompute one record
    first = records[0]
    assert first["i"] == 1 and first["s"] == 2 and first["j"] == 2
