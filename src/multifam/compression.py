"""t-kernels and the kernel-guided down-compression of multiset families.

A t-kernel for a t-intersecting family is a multiset T with
|F1 ∩ F2 ∩ T| >= t for every pair of members; t copies of every element of
[m] always work.  One compression pass picks an element i that T holds more
than once, sets s = m(i, T), and applies the shift S_(i,s)(j) for j = 1..m
in order: a member with at least s copies of i and no copies of j moves all
but s-1 of those copies onto j, unless the shifted multiset is already
present.  The pass preserves the family size and t-intersection and shrinks
the kernel by one copy of i; running passes until the kernel is exactly [m]
produces an equal-sized t-intersecting family whose member supports
pairwise share at least t elements.

Shifts inside one pass are applied sequentially against the current family
state, members in canonical order.  A shift target always contains j while
members that contain j never move, so this agrees with evaluating
membership against the original family; sequential update keeps the
size-preservation argument local and obvious.  Only members holding at
least s copies of i can move; a moved member keeps s-1 and no member gains
copies of i, so each j walks only the movers not yet moved, against one
membership set, and the family is rebuilt once per pass (or returned
unchanged when nothing moved).  Two distinct movers never shift onto the
same target, so the result and the order of the shift records are those
of a walk over every member.  shift_family applies one shift with the
same step.

|F1 ∩ F2 ∩ T| is the popcount of the AND of three unary masks
(`Multiset.unary_mask`, one field per element as wide as the largest member
multiplicity; T's counts are clipped to that width so none spills over).
Masking by T never raises a pair count, so a pass's kernel check also
proves its output t-intersecting; is_t_intersecting runs only to name a
failed check.

down_compress_full proves each pass's kernel a t-kernel of its output
without the full pair loop.  Base case: the trivial kernel (t copies of
every element) is a t-kernel of any t-intersecting family, because
sum(min(a, b, t)) >= t iff sum(min(a, b)) >= t; the input check proves it.
Step: a pass on i with s = m(i, T) lowers T at i to s-1.  For a pair where
neither member moved, |F1 ∩ F2 ∩ T| changes only in the i term, min(a_i,
b_i, s) against min(a_i, b_i, s-1), and that differs only when both members
hold at least s copies of i: both are movers the pass blocked.  So the
pass re-checks every landed member against every member of the output and
the blocked movers pairwise; every other pair keeps a count already proved
>= t.  No shift raises a multiplicity (j gets m_i-s+1 < m_i, i keeps s-1),
so the masks keep the input's field width for the whole run and are made
once per member.  down_compress_pass can be handed any kernel, so it runs
the full check.

The guarantees are stated for m >= 2k-t.  Below that regime the operation
is still well defined, so callers may opt in with allow_out_of_regime=True;
the postconditions are then verified at runtime and a violation raises
CompressionInvariantError instead of silently returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (
    MULTISET,
    ContractError,
    Family,
    Multiset,
    _all_pairs_share,
    is_support_t_intersecting,
    is_t_intersecting,
)

TraceCallback = Callable[[dict], None]


class CompressionInvariantError(RuntimeError):
    """A compression postcondition failed; inside the proved regime this
    signals an implementation bug."""


@dataclass(frozen=True, slots=True)
class ShiftParams:
    """Shift source element i, kept-copy threshold s >= 2, target element j."""

    i: int
    s: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ContractError(f"shift source and target coincide: {self.i}")
        if self.s < 2:
            raise ContractError(f"shift threshold s must be >= 2, got {self.s}")
        if self.i < 1 or self.j < 1:
            raise ContractError(f"elements must be >= 1, got i={self.i}, j={self.j}")


@dataclass(frozen=True)
class Kernel:
    """A kernel multiset T that contains [m] (every multiplicity >= 1)."""

    T: Multiset

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.T.counts):
            raise ContractError("kernel must contain [m]: every multiplicity >= 1")

    @classmethod
    def trivial(cls, m: int, t: int) -> "Kernel":
        """t copies of every element of [m]; a t-kernel for any
        t-intersecting family."""
        if t < 1:
            raise ContractError(f"t must be >= 1, got {t}")
        return cls(Multiset(m, (t,) * m))

    def surplus_elements(self) -> tuple[int, ...]:
        """Elements held more than once (the support of T minus [m])."""
        return tuple(i + 1 for i, c in enumerate(self.T.counts) if c >= 2)

    def remove_copy(self, i: int) -> "Kernel":
        if self.T.multiplicity(i) < 2:
            raise ContractError(f"kernel holds element {i} only once")
        counts = list(self.T.counts)
        counts[i - 1] -= 1
        return Kernel(Multiset(self.T.ground_size, tuple(counts)))


def is_t_kernel(fam: Family, T: Multiset, t: int) -> bool:
    """True iff every pair of distinct members F1, F2 satisfies
    |F1 ∩ F2 ∩ T| >= t (vacuous for families with fewer than two members)."""
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    if fam.kind != MULTISET:
        raise ContractError("t-kernels are defined for multiset families")
    if T.ground_size != fam.m:
        raise ContractError(f"kernel ground size {T.ground_size} != family ground {fam.m}")
    width = max((max(a.counts) for a in fam.members), default=0)
    kernel = T.unary_mask(width)
    return _all_pairs_share([a.unary_mask(width) & kernel for a in fam.members], t)


def shift_multiset(a: Multiset, p: ShiftParams) -> Multiset:
    """Replace all but s-1 copies of i with j.  No-op when the multiset has
    fewer than s copies of i or already contains j."""
    counts = _shifted_counts(a, p)
    return a if counts is None else Multiset(a.ground_size, counts)


def _shifted_counts(a: Multiset, p: ShiftParams) -> tuple[int, ...] | None:
    """The counts shift_multiset would give a, or None for a no-op."""
    if p.i > a.ground_size or p.j > a.ground_size:
        raise ContractError(f"shift elements outside [1, {a.ground_size}]")
    mi = a.counts[p.i - 1]
    if mi < p.s or a.counts[p.j - 1] != 0:
        return None
    counts = list(a.counts)
    counts[p.i - 1] = p.s - 1
    counts[p.j - 1] = mi - p.s + 1
    return tuple(counts)


def _shift_step(
    candidates: Iterable[Multiset],
    current: set[tuple[int, ...]],
    p: ShiftParams,
    on_shift: TraceCallback | None,
) -> tuple[list[Multiset], list[Multiset]]:
    """Shift each candidate, in order, whose shifted multiset is absent from
    `current` (the member counts of the family state, updated in place).
    Returns the candidates that stayed and the members the others became;
    a Multiset is built only for a member that lands."""
    stayed: list[Multiset] = []
    landed: list[Multiset] = []
    for a in candidates:
        counts = _shifted_counts(a, p)
        if counts is not None and counts not in current:
            current.discard(a.counts)
            current.add(counts)
            b = Multiset(a.ground_size, counts)
            landed.append(b)
            if on_shift is not None:
                on_shift(
                    {
                        "i": p.i,
                        "s": p.s,
                        "j": p.j,
                        "member_before": " ".join(map(str, a.elements())),
                        "member_after": " ".join(map(str, b.elements())),
                    }
                )
        else:
            stayed.append(a)
    return stayed, landed


def shift_family(fam: Family, p: ShiftParams, on_shift: TraceCallback | None = None) -> Family:
    """Apply the shift to every member, blocking a move whenever the target
    is already present in the current family state.  Size is preserved:
    each executed move lands on a multiset that is absent at that moment,
    and targets (which contain j) can never collide with the vacated slots
    (which do not)."""
    if fam.kind != MULTISET:
        raise ContractError("shift_family operates on multiset families")
    stayed, landed = _shift_step(fam.members, {a.counts for a in fam.members}, p, on_shift)
    if not landed:
        return fam
    result = Family.of_multisets(fam.m, fam.k, stayed + landed)
    if len(result) != len(fam):
        raise CompressionInvariantError("shift_family changed the family size")
    return result


def _regime_error(fam: Family, t: int) -> ContractError:
    return ContractError(
        f"m >= 2k-t required (m={fam.m}, k={fam.k}, t={t}); the compression "
        "guarantees are not established below that, so the run is refused "
        "(the Python API can opt in with allow_out_of_regime=True)"
    )


def _pass_failure(result: Family, t: int) -> CompressionInvariantError:
    """Name a failed kernel check: a pair count masked by the kernel never
    exceeds the unmasked one, so the output may also have lost t-intersection."""
    if not is_t_intersecting(result, t):
        return CompressionInvariantError("compression pass broke t-intersection")
    return CompressionInvariantError("shrunken kernel is not a t-kernel for the output")


def _pass_core(
    fam: Family, kernel: Kernel, i: int, on_shift: TraceCallback | None
) -> tuple[Family, Kernel, list[Multiset], list[Multiset]]:
    """The shifts of one pass and the shrunken kernel, with the size check.
    Returns (result, new kernel, movers the pass blocked, members that landed)."""
    s = kernel.T.multiplicity(i)
    movers = [a for a in fam.members if a.counts[i - 1] >= s]
    moved: list[Multiset] = []
    current = {a.counts for a in fam.members}
    for j in range(1, fam.m + 1):
        if not movers:
            break
        if j != i:
            movers, landed = _shift_step(movers, current, ShiftParams(i, s, j), on_shift)
            moved += landed
    result = fam
    if moved:
        fixed = [a for a in fam.members if a.counts[i - 1] < s]
        result = Family.of_multisets(fam.m, fam.k, fixed + movers + moved)
    new_kernel = kernel.remove_copy(i)
    if len(result) != len(fam):
        raise CompressionInvariantError("compression pass changed the family size")
    return result, new_kernel, movers, moved


def down_compress_pass(
    fam: Family,
    kernel: Kernel,
    i: int,
    t: int,
    *,
    allow_out_of_regime: bool = False,
    on_shift: TraceCallback | None = None,
) -> tuple[Family, Kernel]:
    """One compression pass: shift (i, s=m(i,T)) onto every j = 1..m in
    order, then drop one copy of i from the kernel.

    Only members holding at least s copies of i can move, and a moved
    member keeps s-1, so each j walks the movers not yet moved, in
    canonical order, against one membership set; distinct movers have
    distinct targets.  The family is rebuilt once at the end (the input
    itself when nothing moved).

    Postconditions (size preserved, output t-intersecting, shrunken kernel
    still a t-kernel) are asserted; a failure raises
    CompressionInvariantError.  The given kernel need not be a t-kernel of
    the input, so every pair is checked: one kernel check covers the last
    two, since its pair counts never exceed the unmasked ones, and
    is_t_intersecting runs only to name a failure.
    """
    if fam.kind != MULTISET:
        raise ContractError("down-compression operates on multiset families")
    if kernel.T.ground_size != fam.m:
        raise ContractError("kernel ground size does not match the family")
    if i not in kernel.surplus_elements():
        raise ContractError(f"element {i} is not held more than once by the kernel")
    if fam.m < 2 * fam.k - t and not allow_out_of_regime:
        raise _regime_error(fam, t)
    result, new_kernel, _, _ = _pass_core(fam, kernel, i, on_shift)
    if not is_t_kernel(result, new_kernel.T, t):
        raise _pass_failure(result, t)
    return result, new_kernel


def _changed_pairs_share(
    masks: dict[tuple[int, ...], int],
    kernel_mask: int,
    result: Family,
    blocked: list[Multiset],
    moved: list[Multiset],
    t: int,
) -> bool:
    """True iff the pairs a pass can have changed keep |F1 ∩ F2 ∩ T'| >= t:
    every landed member against every member of the result, and the
    blocked movers pairwise."""
    landed = [masks[b.counts] & kernel_mask for b in moved]
    if not _all_pairs_share(landed, t):
        return False
    if not _all_pairs_share([masks[a.counts] & kernel_mask for a in blocked], t):
        return False
    if landed:
        moved_counts = {b.counts for b in moved}
        for a in result.members:
            if a.counts not in moved_counts:
                x = masks[a.counts]
                for y in landed:
                    if (x & y).bit_count() < t:
                        return False
    return True


def down_compress_full(
    fam: Family,
    t: int,
    *,
    allow_out_of_regime: bool = False,
    on_shift: TraceCallback | None = None,
) -> Family:
    """Compress until the kernel is exactly [m]: start from the trivial
    kernel and run one pass per surplus copy, smallest surplus element
    first.  Exactly (t-1)*m passes; for t=1 the family is returned as is.

    Each pass's kernel is proved a t-kernel of its output by re-checking
    only the pairs the pass can have changed (see the module docstring);
    the input check proves the trivial kernel, and the final check covers
    every pair of supports.  The output has the same size, is
    t-intersecting, and its member supports pairwise share at least t
    elements.
    """
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    if not is_t_intersecting(fam, t):
        raise ContractError("input family is not t-intersecting")
    if fam.m < 2 * fam.k - t and not allow_out_of_regime:
        raise _regime_error(fam, t)
    if fam.kind != MULTISET:
        raise ContractError("down-compression operates on multiset families")
    kernel = Kernel.trivial(fam.m, t)
    # no shift raises a multiplicity, so the input's width serves every pass
    width = max((max(a.counts) for a in fam.members), default=0)
    masks = {a.counts: a.unary_mask(width) for a in fam.members}
    result = fam
    passes = 0
    while True:
        surplus = kernel.surplus_elements()
        if not surplus:
            break
        i = surplus[0]
        passes += 1
        traced = None
        if on_shift is not None:
            def traced(record: dict, _pass_no: int = passes) -> None:
                on_shift({"pass": _pass_no, **record})
        result, kernel, blocked, moved = _pass_core(result, kernel, i, traced)
        for b in moved:
            if b.counts not in masks:
                masks[b.counts] = b.unary_mask(width)
        if not _changed_pairs_share(masks, kernel.T.unary_mask(width), result, blocked, moved, t):
            raise _pass_failure(result, t)
    if passes != (t - 1) * fam.m:
        raise CompressionInvariantError(
            f"expected {(t - 1) * fam.m} passes, ran {passes}"
        )
    if not is_support_t_intersecting(result, t):
        raise CompressionInvariantError("output supports do not pairwise t-intersect")
    return result
