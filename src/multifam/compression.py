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

Everything runs on count rows (multiplicity tuples).  One row step,
_shift_rows, applies the shifts of a pass, or of one shift_family call, in
canonical order against one membership set of rows updated in place; a
target contains j and a member holding j never moves, so this agrees with
membership in the original family.  Only rows holding at least s copies of
i can move, and a moved row keeps s-1, so each j walks only the movers not
yet moved.  The output Family is built once, reusing every unmoved member.

|F1 ∩ F2 ∩ T| is the popcount of the AND of three unary masks (core's
unary_mask), one field per element as wide as min(t, the input's largest
multiplicity), T clipped to it.  No shift raises a multiplicity, so one
counts -> mask table, made for the input (its pair check reads it) and
extended by each row that lands, serves the whole run.  Masking by T
never raises a pair count, so a kernel check also proves t-intersection;
the plain check runs only to name a failure.

down_compress_full proves each pass's kernel a t-kernel of its output
without the full pair loop.  The trivial kernel is a t-kernel of any
t-intersecting family (sum(min(a, b, t)) >= t iff sum(min(a, b)) >= t), so
the input check proves it.  A pass on i with s = m(i, T) lowers T at i to
s-1, clearing bit (i-1)*width + s-1 of the kernel mask when s <= width.  A
pair where neither member moved loses a count only if both hold at least s
copies of i, that is, both are movers the pass blocked; so each pass
re-checks the landed rows against every row and the blocked movers
pairwise.  A pass with s above the width has no movers and leaves the
clipped mask as it is, so those passes are counted in closed form and a
run costs at most m*(width-1) passes whatever t is.  down_compress_pass can
be handed any kernel, so it checks every pair.

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
    _unary_width,
    is_t_intersecting,
    multiplicity_rows,
    unary_mask,
)

TraceCallback = Callable[[dict], None]
Row = tuple[int, ...]


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


def is_t_kernel(fam: Family, T: Multiset, t: int) -> bool:
    """True iff every pair of distinct members F1, F2 satisfies
    |F1 ∩ F2 ∩ T| >= t (vacuous for families with fewer than two members)."""
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    if fam.kind != MULTISET:
        raise ContractError("t-kernels are defined for multiset families")
    if T.ground_size != fam.m:
        raise ContractError(f"kernel ground size {T.ground_size} != family ground {fam.m}")
    width = _unary_width([a.counts for a in fam.members], t)
    kernel = unary_mask(T.counts, width)
    return _all_pairs_share([unary_mask(a.counts, width) & kernel for a in fam.members], t)


def shift_multiset(a: Multiset, p: ShiftParams) -> Multiset:
    """Replace all but s-1 copies of i with j.  No-op when the multiset has
    fewer than s copies of i or already contains j."""
    if max(p.i, p.j) > a.ground_size:
        raise ContractError(f"shift elements outside [1, {a.ground_size}]")
    mi = a.counts[p.i - 1]
    if mi < p.s or a.counts[p.j - 1] != 0:
        return a
    counts = list(a.counts)
    counts[p.i - 1] = p.s - 1
    counts[p.j - 1] = mi - p.s + 1
    return Multiset(a.ground_size, tuple(counts))


def _elements(row: Row) -> str:
    return " ".join(str(e) for e, c in enumerate(row, 1) for _ in range(c))


def _shift_rows(
    movers: list[Row],
    current: set[Row],
    i: int,
    s: int,
    targets: Iterable[int],
    on_shift: TraceCallback | None,
) -> tuple[list[Row], list[Row]]:
    """Apply S_(i,s)(j) for each j of `targets` in turn to the movers (rows
    holding at least s copies of i, in canonical order) against `current`,
    the member rows of the family state, updated in place.  A mover with no
    copy of j whose shifted row is absent lands there and leaves the walk.
    Returns the movers no target took and the rows that landed, in landing
    order."""
    src, keep = i - 1, s - 1
    landed: list[Row] = []
    for j in targets:
        if not movers:
            break
        stayed = []
        for a in movers:
            if a[j - 1] == 0:
                row = list(a)
                row[src] = keep
                row[j - 1] = a[src] - keep
                b = tuple(row)
                if b not in current:
                    current.remove(a)
                    current.add(b)
                    landed.append(b)
                    if on_shift is not None:
                        on_shift({
                            "i": i,
                            "s": s,
                            "j": j,
                            "member_before": _elements(a),
                            "member_after": _elements(b),
                        })
                    continue
            stayed.append(a)
        movers = stayed
    return movers, landed


def _family(fam: Family, rows: set[Row]) -> Family:
    """fam with the member rows `rows`, in canonical order; a member whose
    row is already in fam is reused, so a Multiset is built only for a row
    that landed."""
    kept = {a.counts: a for a in fam.members}
    members = (kept.get(row) or Multiset(fam.m, row) for row in sorted(rows))
    return Family(fam.m, fam.k, MULTISET, tuple(members))


def shift_family(fam: Family, p: ShiftParams, on_shift: TraceCallback | None = None) -> Family:
    """Apply the shift to every member, blocking a move whenever the target
    is already present in the current family state.  Size is preserved:
    each executed move lands on a multiset that is absent at that moment,
    and targets (which contain j) can never collide with the vacated slots
    (which do not)."""
    if fam.kind != MULTISET:
        raise ContractError("shift_family operates on multiset families")
    if fam.members and max(p.i, p.j) > fam.m:
        raise ContractError(f"shift elements outside [1, {fam.m}]")
    movers = [a.counts for a in fam.members if a.counts[p.i - 1] >= p.s]
    current = {a.counts for a in fam.members}
    _, landed = _shift_rows(movers, current, p.i, p.s, (p.j,), on_shift)
    if not landed:
        return fam
    if len(current) != len(fam):
        raise CompressionInvariantError("shift_family changed the family size")
    return _family(fam, current)


def _regime_error(fam: Family, t: int) -> ContractError:
    return ContractError(
        f"m >= 2k-t required (m={fam.m}, k={fam.k}, t={t}); the compression "
        "guarantees are not established below that, so the run is refused "
        "(the Python API can opt in with allow_out_of_regime=True)"
    )


def _pass_failure(intersecting: bool) -> CompressionInvariantError:
    """Name a failed kernel check: a pair count masked by the kernel never
    exceeds the unmasked one, so the output may also have lost t-intersection."""
    if not intersecting:
        return CompressionInvariantError("compression pass broke t-intersection")
    return CompressionInvariantError("shrunken kernel is not a t-kernel for the output")


def down_compress_pass(
    fam: Family,
    T: Multiset,
    i: int,
    t: int,
    *,
    allow_out_of_regime: bool = False,
    on_shift: TraceCallback | None = None,
) -> tuple[Family, Multiset]:
    """One compression pass: shift (i, s=m(i,T)) onto every j = 1..m in
    order, then drop one copy of i from the kernel T, which must contain
    [m] (every multiplicity >= 1) and hold i at least twice.  Returns the
    output family and the shrunken kernel.  The shifts are the row step of
    down_compress_full; the family is rebuilt once at the end (the input
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
    if T.ground_size != fam.m:
        raise ContractError("kernel ground size does not match the family")
    if any(c < 1 for c in T.counts):
        raise ContractError("kernel must contain [m]: every multiplicity >= 1")
    if not 1 <= i <= fam.m or T.counts[i - 1] < 2:
        raise ContractError(f"element {i} is not held more than once by the kernel")
    if fam.m < 2 * fam.k - t and not allow_out_of_regime:
        raise _regime_error(fam, t)
    s = T.counts[i - 1]
    movers = [a.counts for a in fam.members if a.counts[i - 1] >= s]
    current = {a.counts for a in fam.members}
    targets = [j for j in range(1, fam.m + 1) if j != i]
    _, landed = _shift_rows(movers, current, i, s, targets, on_shift)
    result = _family(fam, current) if landed else fam
    counts = list(T.counts)
    counts[i - 1] -= 1
    new_kernel = Multiset(fam.m, tuple(counts))
    if len(current) != len(fam):
        raise CompressionInvariantError("compression pass changed the family size")
    if not is_t_kernel(result, new_kernel, t):
        raise _pass_failure(is_t_intersecting(result, t))
    return result, new_kernel


def down_compress_full(
    fam: Family,
    t: int,
    *,
    allow_out_of_regime: bool = False,
    on_shift: TraceCallback | None = None,
) -> Family:
    """Compress until the kernel is exactly [m]: start from the trivial
    kernel and run one pass per surplus copy, smallest surplus element
    first, each element from s = t down to 2.  Exactly (t-1)*m passes; for
    t=1 the family is returned as is.  The passes with s above the input's
    largest multiplicity move nothing and are counted without being run,
    so a large t costs no more than t = that multiplicity.

    Each pass's kernel is proved a t-kernel of its output by re-checking
    only the pairs the pass can have changed (see the module docstring);
    the input check proves the trivial kernel, and the final check covers
    every pair of supports, read off the same mask table.  The output has
    the same size, is t-intersecting, and its member supports pairwise
    share at least t elements.
    """
    if t < 1:
        raise ContractError(f"t must be >= 1, got {t}")
    # a set's 0/1 row in fields of width 1 is its element mask
    rows = multiplicity_rows(fam.members)
    width = _unary_width(rows, t)
    masks = {row: unary_mask(row, width) for row in rows}
    if not _all_pairs_share(list(masks.values()), t):
        raise ContractError("input family is not t-intersecting")
    if fam.m < 2 * fam.k - t and not allow_out_of_regime:
        raise _regime_error(fam, t)
    if fam.kind != MULTISET:
        raise ContractError("down-compression operates on multiset families")
    current = set(rows)
    kernel = unary_mask((t,) * fam.m, width)
    passes = 0
    moved = False
    for i in range(1, fam.m + 1):
        passes += t - max(width, 1)  # the passes with s > width: no movers
        targets = [j for j in range(1, fam.m + 1) if j != i]
        for s in range(width, 1, -1):
            passes += 1
            traced = None
            if on_shift is not None:
                def traced(record: dict, _pass_no: int = passes) -> None:
                    on_shift({"pass": _pass_no, **record})
            movers = sorted(a for a in current if a[i - 1] >= s)
            blocked, landed = _shift_rows(movers, current, i, s, targets, traced)
            if len(current) != len(rows):
                raise CompressionInvariantError("compression pass changed the family size")
            kernel &= ~(1 << ((i - 1) * width + s - 1))
            for b in landed:
                if b not in masks:
                    masks[b] = unary_mask(b, width)
            # the pairs the pass can have changed: each landed row against
            # every row, and the blocked movers pairwise
            news = [masks[b] & kernel for b in landed]
            olds = [masks[a] for a in current.difference(landed)] if news else []
            if not (
                _all_pairs_share(news, t)
                and _all_pairs_share([masks[a] & kernel for a in blocked], t)
                and all((x & y).bit_count() >= t for x in olds for y in news)
            ):
                raise _pass_failure(_all_pairs_share([masks[a] for a in current], t))
            moved = moved or bool(landed)
    if passes != (t - 1) * fam.m:
        raise CompressionInvariantError(f"expected {(t - 1) * fam.m} passes, ran {passes}")
    # bit 0 of every field: a row's mask ANDed with it is its support
    support = unary_mask((1,) * fam.m, width)
    if not _all_pairs_share([masks[a] & support for a in current], t):
        raise CompressionInvariantError("output supports do not pairwise t-intersect")
    return _family(fam, current) if moved else fam

