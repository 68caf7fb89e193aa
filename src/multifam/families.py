"""Named extremal family constructors, closed-form sizes, and isomorphism.

Constructors build the family by filtering the multiplicity rows of the
enumerated universe, so the member order is always canonical, and build a
member only for a row they keep.  A set constructor and its multiset
analogue share one filter on member support masks (a set is its own
support) and one parameter check.  Those shared filters (hitting,
frankl, _hm, _hm_t) also take a given row sequence in place of a walk:
the universe's rows in rank order, as a disjointness graph already holds
them, so a caller that built the graph filters its rows instead of
walking the universe again.  Closed-form sizes are provided where one
exists, and each runs its constructor's parameter check first; hm_t
families have no closed form and are counted by enumeration.  One registry, keyed by family name,
dispatches build_family and family_size_formula.

Isomorphism is relabeling of the ground set.  canonical_form runs an
individualisation-refinement search (McKay & Piperno, "Practical graph
isomorphism, II", 2014) on the element-member incidence structure: colour
refinement to an equitable colouring, branching on the first smallest
non-singleton cell, and pruning of children that an automorphism found
between two equal leaves maps onto an explored sibling.  A symmetric cell,
one whose every permutation maps the family onto itself, is split into
singletons without branching; the test checks the transpositions
(cell[0] e), which generate all of them, on the set of member rows.  Twins
(elements with identical incidence) are the special case, and so are the
interchangeable elements of a star or a Hilton-Milner family, which sit in
different members.  Sets and multisets share the code (a set is its 0/1
count vector).  The representative is a ground-set relabelling of the
input that does not depend on the input's labelling, so two families have
equal canonical forms iff they are isomorphic; it is not, in general, the
lexicographic minimum over all m! relabelings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ge
from typing import Iterable, Sequence

from .core import (
    MULTISET,
    SET,
    ContractError,
    Family,
    KSet,
    Multiset,
    _support_mask,
    binomial,
    is_t_intersecting,
    multichoose,
    multiplicity_rows,
    universe_rows,
)

@dataclass(frozen=True)
class FamilySpec:
    """Name plus parameters for a named family; see build_family."""

    name: str
    m: int
    k: int
    t: int | None = None
    r: int | None = None
    s: int | None = None
    anchor: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.name not in _REGISTRY:
            raise ContractError(f"unknown family name {self.name!r}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _where(kind: str, m: int, k: int, keep, rows=None) -> Family:
    """The members of the (m, k) universe of `kind` whose support mask
    passes `keep`.  `rows` are that universe's multiplicity rows in rank
    order (a graph's `multiplicities`); without them the universe is
    walked, and one above core.ENUMERATION_CAP is refused
    (ScaleExceededError) before any row is.  The rows are in canonical
    order, so the result is.  Members are tested on their multiplicity
    rows, and one is built only when it is kept."""
    if rows is None:
        rows = universe_rows(m, k, kind)
    kept = (row for row in rows if keep(_support_mask(row)))
    return Family.from_rows(m, k, kind, kept)


def hitting(kind: str, m: int, k: int, anchor: Iterable[int], rows=None) -> Family:
    """The members of the (m, k) universe of `kind` whose support meets
    the anchor set, filtered from `rows` when given (see _where).  This is
    the filter of star, hit_s and hit_s_set, without their checks."""
    mask = KSet.from_elements(m, anchor).mask()
    return _where(kind, m, k, lambda support: support & mask, rows)


def _check_star_params(m: int, k: int, x: int) -> None:
    if not 1 <= x <= m:
        raise ContractError(f"anchor element {x} outside [1, {m}]")
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")


def star(m: int, k: int, x: int) -> Family:
    """All k-multisets of [m] that contain the fixed element x.

    Size is multichoose(m, k-1) = C(m+k-2, k-1).
    """
    _check_star_params(m, k, x)
    return hitting(MULTISET, m, k, (x,))


def star_size(m: int, k: int) -> int:
    _check_star_params(m, k, 1)
    return multichoose(m, k - 1)


def _check_fixed_params(m: int, k: int, anchor_cardinality: int) -> None:
    if m < 1:
        raise ContractError(f"ground_size must be >= 1, got {m}")
    if anchor_cardinality > k:
        raise ContractError(f"anchor cardinality {anchor_cardinality} exceeds k={k}")


def fixed_multiset(m: int, k: int, anchor: Multiset) -> Family:
    """All k-multisets containing a fixed multiset (element-wise coverage).

    The size multichoose(m, k - |anchor|) depends only on |anchor|, not on
    its multiplicities.
    """
    if anchor.ground_size != m:
        raise ContractError(f"anchor ground size {anchor.ground_size} != {m}")
    _check_fixed_params(m, k, anchor.cardinality)
    floor = anchor.counts
    kept = (row for row in universe_rows(m, k, MULTISET) if all(map(ge, row, floor)))
    return Family.from_rows(m, k, MULTISET, kept)


def fixed_multiset_size(m: int, k: int, anchor_cardinality: int) -> int:
    _check_fixed_params(m, k, anchor_cardinality)
    return multichoose(m, k - anchor_cardinality)


def _check_frankl_params(ground: int, k: int, t: int, r: int) -> None:
    if t < 1 or r < 0:
        raise ContractError(f"need t >= 1 and r >= 0, got ({t}, {r})")
    if t + 2 * r > ground:
        raise ContractError(f"window [t+2r] = [{t + 2 * r}] exceeds ground [{ground}]")
    if t + r > k:  # equivalently r > k-t
        raise ContractError(f"need t+r <= k, got t+r={t + r}, k={k}")


def frankl(kind: str, ground: int, k: int, t: int, r: int, rows=None) -> Family:
    """The members of the (ground, k) universe of `kind` whose support
    meets [t+2r] in at least t+r elements, filtered from `rows` when given
    (see _where): frankl_set and frankl_multiset, checks included."""
    _check_frankl_params(ground, k, t, r)
    window = (1 << (t + 2 * r)) - 1
    return _where(kind, ground, k, lambda support: (support & window).bit_count() >= t + r, rows)


def frankl_set(n: int, k: int, t: int, r: int) -> Family:
    """All k-subsets of [n] meeting [t+2r] in at least t+r elements."""
    return frankl(SET, n, k, t, r)


def frankl_set_size(n: int, k: int, t: int, r: int) -> int:
    _check_frankl_params(n, k, t, r)
    w = t + 2 * r
    return sum(
        binomial(w, j) * binomial(n - w, k - j) for j in range(t + r, min(w, k) + 1)
    )


def frankl_multiset(m: int, k: int, t: int, r: int) -> Family:
    """All k-multisets of [m] whose support meets [t+2r] in >= t+r elements."""
    return frankl(MULTISET, m, k, t, r)


def frankl_multiset_size(m: int, k: int, t: int, r: int) -> int:
    """Closed form: choose the j window elements of the support, place one
    copy of each, then distribute the remaining k-j copies over those j
    elements and the m-(t+2r) elements outside the window."""
    _check_frankl_params(m, k, t, r)
    w = t + 2 * r
    return sum(
        binomial(w, j) * multichoose(j + m - w, k - j)
        for j in range(t + r, min(w, k) + 1)
    )


def _check_hm_params(kind: str, ground: int, k: int) -> None:
    letter = "n" if kind == SET else "m"
    if k < 2:
        raise ContractError(f"k must be >= 2, got {k}")
    if ground < k + 1:
        raise ContractError(f"need {letter} >= k+1, got {letter}={ground}, k={k}")


def _hm(kind: str, ground: int, k: int, rows=None) -> Family:
    """hm_set and hm_multiset, filtered from `rows` when given (see _where)."""
    _check_hm_params(kind, ground, k)
    window = ((1 << (k + 1)) - 1) & ~1  # elements 2..k+1
    # a k-member with support [2, k+1] is that set itself
    return _where(
        kind, ground, k, lambda support: support & 1 and support & window or support == window,
        rows,
    )


def hm_set(n: int, k: int) -> Family:
    """Maximum intersecting k-set family with no common element: the sets
    through 1 that meet [2, k+1], plus [2, k+1] itself."""
    return _hm(SET, n, k)


def hm_set_size(n: int, k: int) -> int:
    _check_hm_params(SET, n, k)
    return binomial(n - 1, k - 1) - binomial(n - k - 1, k - 1) + 1


def hm_multiset(m: int, k: int) -> Family:
    """Multiset analogue of hm_set: multisets containing 1 whose support
    meets [2, k+1], plus the set [2, k+1] viewed as a multiset."""
    return _hm(MULTISET, m, k)


def hm_multiset_size(m: int, k: int) -> int:
    _check_hm_params(MULTISET, m, k)
    return binomial(m + k - 2, k - 1) - binomial(m - 2, k - 1) + 1


def _check_hm_t_params(kind: str, ground: int, k: int, t: int) -> None:
    if not 1 < t < k:
        raise ContractError(f"need 1 < t < k, got t={t}, k={k}")
    _check_hm_params(kind, ground, k)


def _hm_t(kind: str, ground: int, k: int, t: int, rows=None) -> Family:
    """hm_t_set and hm_t_multiset, filtered from `rows` when given."""
    _check_hm_t_params(kind, ground, k, t)
    full = (1 << (k + 1)) - 1
    head = (1 << t) - 1
    window = full & ~head
    # a k-member with support [k+1] minus i is that set itself
    adjoined = {full ^ (1 << i) for i in range(t)}
    return _where(
        kind,
        ground,
        k,
        lambda support: (support & head) == head and support & window or support in adjoined,
        rows,
    )


def hm_t_set(n: int, k: int, t: int) -> Family:
    """t-intersecting k-set family with no common t-set: sets containing [t]
    that meet [t+1, k+1], plus the k-sets [k+1] minus i for i in [t]."""
    return _hm_t(SET, n, k, t)


def hm_t_multiset(m: int, k: int, t: int) -> Family:
    """Multiset analogue of hm_t_set.  No closed-form size; count by
    enumerating.  The common intersection has cardinality below t."""
    return _hm_t(MULTISET, m, k, t)


def _check_hit_s_params(m: int, k: int, s: int) -> None:
    if m < 1:
        raise ContractError(f"m must be >= 1, got {m}")
    if k < 0:
        raise ContractError(f"k must be >= 0, got {k}")
    if not 0 <= s <= m:
        raise ContractError(f"anchor size {s} outside [0, {m}]")


def hit_s(m: int, k: int, anchor: Iterable[int]) -> Family:
    """All k-multisets of [m] whose support meets the anchor set.

    Size is multichoose(m, k) - multichoose(m - |anchor|, k).
    """
    anchor = set(anchor)
    _check_hit_s_params(m, k, len(anchor))
    return hitting(MULTISET, m, k, anchor)


def hit_s_size(m: int, k: int, s: int) -> int:
    _check_hit_s_params(m, k, s)
    return multichoose(m, k) - multichoose(m - s, k)


def hit_s_set(n: int, k: int, anchor: Iterable[int]) -> Family:
    """All k-subsets of [n] meeting the anchor set (the t=1 fixed family)."""
    return hitting(SET, n, k, anchor)


def _check_hajnal_rothschild_params(n: int, k: int, t: int, s: int) -> None:
    if t < 1 or s < 1:
        raise ContractError(f"need t >= 1 and s >= 1, got ({t}, {s})")
    if s * t > n:
        raise ContractError(f"need s*t <= n, got s*t={s * t}, n={n}")
    if t > k:
        raise ContractError(f"need t <= k, got t={t}, k={k}")


def hajnal_rothschild_size(n: int, k: int, t: int, s: int) -> int:
    """Inclusion-exclusion count of the k-subsets of [n] containing at
    least one of s pairwise disjoint t-subsets.  For t=1 this telescopes to
    C(n, k) - C(n-s, k)."""
    _check_hajnal_rothschild_params(n, k, t, s)
    total = 0
    for j in range(1, s + 1):
        if k - j * t < 0:
            break
        term = binomial(s, j) * binomial(n - j * t, k - j * t)
        total += term if j % 2 == 1 else -term
    return total


def hajnal_rothschild_family(n: int, k: int, t: int, s: int) -> Family:
    """The k-subsets of [n] fixed by the s disjoint t-blocks
    [1..t], [t+1..2t], ...  Constructed only for t = 1 (where it is the
    s-set hitting family); larger t is available as a size formula only."""
    if t != 1:
        raise ContractError("construction is only supported for t=1; use the size formula")
    _check_hajnal_rothschild_params(n, k, t, s)
    return hit_s_set(n, k, range(1, s + 1))


# ---------------------------------------------------------------------------
# maximality
# ---------------------------------------------------------------------------

def extend_to_maximal(fam: Family) -> Family:
    """Greedy closure of an intersecting multiset family: scan the universe
    in enumeration order and add every multiset compatible with the current
    family.  Deterministic; the result is maximal intersecting."""
    if fam.kind != MULTISET:
        raise ContractError("extend_to_maximal operates on multiset families")
    if fam.m < fam.k + 1:
        raise ContractError(f"need m >= k+1, got m={fam.m}, k={fam.k}")
    if not is_t_intersecting(fam, 1):
        raise ContractError("input family is not intersecting")
    chosen = set(multiplicity_rows(fam.members))
    chosen_masks = [_support_mask(row) for row in chosen]
    for row in universe_rows(fam.m, fam.k, MULTISET):
        mask = _support_mask(row)
        if row not in chosen and all(mask & other for other in chosen_masks):
            chosen.add(row)
            chosen_masks.append(mask)
    return Family.from_rows(fam.m, fam.k, MULTISET, sorted(chosen))


# ---------------------------------------------------------------------------
# permutation action and isomorphism
# ---------------------------------------------------------------------------

def _check_permutation(perm: Sequence[int], m: int) -> None:
    if len(perm) != m or sorted(perm) != list(range(1, m + 1)):
        raise ContractError(f"not a permutation of [1, {m}]: {perm}")


def _relabel_counts(counts: tuple[int, ...], perm: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(counts)
    for i, c in enumerate(counts):
        out[perm[i] - 1] = c
    return tuple(out)


def apply_permutation(fam: Family, perm: Sequence[int]) -> Family:
    """Relabel the ground set: element i becomes perm[i-1].  The relabelled
    multiplicity rows are sorted into the canonical member order, ascending
    count vectors for multisets and descending 0/1 rows (element-tuple
    order) for k-sets; a permutation keeps the members valid and distinct,
    so they are not checked again."""
    _check_permutation(perm, fam.m)
    rows = [_relabel_counts(row, perm) for row in multiplicity_rows(fam.members)]
    rows.sort(reverse=fam.kind == SET)
    return Family.from_rows(fam.m, fam.k, fam.kind, rows)


class _Canonizer:
    """Individualisation-refinement search for a canonical relabelling.

    A colouring of the ground elements is a list of dense colours 0..cells-1
    whose order is label-independent, so the search tree depends only on
    the family, not on its labelling.  Each leaf (a discrete colouring) is
    a relabelling; the smallest sorted list of relabelled member codes over
    all leaves is the canonical one.  Two leaves with equal codes give an
    automorphism, used to skip symmetric children and to jump back out of a
    subtree that mirrors one already explored.  A target cell whose every
    permutation is an automorphism is not branched on: it is split into
    singletons in index order in one step (see _symmetric)."""

    def __init__(self, fam: Family):
        self.m = fam.m
        self.rows = multiplicity_rows(fam.members)
        self.row_set = set(self.rows)
        # each member as its (element index, multiplicity) pairs
        self.supports = [[(e, c) for e, c in enumerate(row) if c] for row in self.rows]
        self.base = 1 + max((c for sup in self.supports for _, c in sup), default=0)
        self.incidence: list[list[tuple[int, int]]] = [[] for _ in range(self.m)]
        for i, sup in enumerate(self.supports):
            for e, c in sup:
                self.incidence[e].append((i, c))
        self.weights = [self.base ** (self.m - 1 - p) for p in range(self.m)]
        self.automorphisms: list[list[int]] = []
        self.first = None  # (codes, path, inverse colouring) of the first leaf
        self.best = None  # the same for the smallest leaf so far

    def relabelling(self) -> list[int]:
        """Canonical relabelling: element i becomes perm[i-1]."""
        self._node([0] * self.m, 1 if self.m else 0, [])
        inverse = self.best[2]
        perm = [0] * self.m
        for p, e in enumerate(inverse):
            perm[e] = p + 1
        return perm

    def _refine(self, col: list[int], cells: int) -> tuple[list[int], int]:
        """Recolour until equitable.  A member's colour ranks its sorted
        (element colour, multiplicity) pairs; an element's colour ranks its
        old colour with its sorted (member colour, multiplicity) pairs."""
        base = self.base
        while cells < self.m:
            msig = [tuple(sorted([col[e] * base + c for e, c in sup])) for sup in self.supports]
            rank = {sig: r for r, sig in enumerate(sorted(set(msig)))}
            mcol = [rank[sig] * base for sig in msig]
            esig = [
                (col[e], tuple(sorted([mcol[i] + c for i, c in inc])))
                for e, inc in enumerate(self.incidence)
            ]
            rank = {sig: r for r, sig in enumerate(sorted(set(esig)))}
            if len(rank) == cells:
                break
            col = [rank[sig] for sig in esig]
            cells = len(rank)
        return col, cells

    def _node(self, col: list[int], cells: int, path: list[int]) -> int:
        """Search below one node; returns the depth of the ancestor where
        the search resumes (len(path) - 1 unless a jump back is due)."""
        depth = len(path)
        col, cells = self._refine(col, cells)
        if cells == self.m:
            return self._leaf(col, path)
        by_colour: list[list[int]] = [[] for _ in range(cells)]
        for e, c in enumerate(col):
            by_colour[c].append(e)
        target = min((cell for cell in by_colour if len(cell) > 1), key=len)
        colour = col[target[0]]
        if self._symmetric(target):
            # every order of individualising the cell gives the same codes;
            # take one order
            split = {e: i for i, e in enumerate(target)}
            shift = len(target) - 1
            child = [c + shift if c > colour else c + split.get(e, 0) for e, c in enumerate(col)]
            return self._node(child, cells + shift, path)
        explored: list[int] = []
        orbits = None  # made at the first sibling test, grown at each one after
        for v in target:
            if explored:
                if orbits is None:
                    orbits = _Orbits(self.m, path)
                orbits.absorb(self.automorphisms)
                if orbits.same(v, explored):
                    continue
            # individualise v: it keeps its colour, the rest of its cell moves up
            child = [c + (c > colour or (c == colour and e != v)) for e, c in enumerate(col)]
            resume = self._node(child, cells + 1, path + [v])
            if resume < depth:
                return resume
            explored.append(v)
        return depth - 1

    def _symmetric(self, cell: list[int]) -> bool:
        """Does every transposition (cell[0] e), e another element of the
        cell, map the set of member rows onto itself?  Those transpositions
        generate Sym(cell).  The cell is not a singleton, so it holds no
        element individualised above this node, and each transposition
        fixes the node's colouring: Sym(cell) lies in its stabiliser in the
        automorphism group.  Twins (a transposition fixing every member)
        are the special case.  Only a member meeting a = cell[0] or b with
        different counts moves under (a b), so only those are looked up.
        The cell is in index order, so a < b."""
        a = cell[0]
        rows, row_set, incidence = self.rows, self.row_set, self.incidence
        for b in cell[1:]:
            for i, _ in incidence[a] + incidence[b]:
                row = rows[i]
                if row[a] != row[b]:
                    swapped = row[:a] + (row[b],) + row[a + 1:b] + (row[a],) + row[b + 1:]
                    if swapped not in row_set:
                        return False
        return True

    def _leaf(self, col: list[int], path: list[int]) -> int:
        """Score a discrete colouring.  If its codes repeat the first or the
        best leaf's, the automorphism between the two maps this leaf's
        branch below the node where the paths part onto an explored one, so
        the search resumes at that node."""
        weights = self.weights
        codes = sorted([sum([c * weights[col[e]] for e, c in sup]) for sup in self.supports])
        inverse = [0] * self.m
        for e, c in enumerate(col):
            inverse[c] = e
        leaf = (codes, path, inverse)
        if self.first is None:
            self.first = self.best = leaf
            return len(path) - 1
        for other in (self.first, self.best):
            if codes == other[0]:
                # element e sits where other[2] has the automorphic image of e
                self.automorphisms.append([other[2][c] for c in col])
                common = 0
                while path[common] == other[1][common]:
                    common += 1
                return common
        if codes < self.best[0]:
            self.best = leaf
        return len(path) - 1


class _Orbits:
    """Orbits of the ground elements under the automorphisms found so far
    that fix one node's path pointwise, as a union-find.  The path does not
    change while the node tests its children, so each automorphism is
    folded in once: absorb takes only those stored since its last call."""

    def __init__(self, m: int, path: list[int]):
        self.parent = list(range(m))
        self.path = path
        self.seen = 0

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def absorb(self, automorphisms: list[list[int]]) -> None:
        for gamma in automorphisms[self.seen:]:
            if all(gamma[x] == x for x in self.path):
                for x, y in enumerate(gamma):
                    rx, ry = self.find(x), self.find(y)
                    if rx != ry:
                        self.parent[rx] = ry
        self.seen = len(automorphisms)

    def same(self, v: int, explored: list[int]) -> bool:
        """Is v in the orbit of an explored sibling?"""
        root = self.find(v)
        return any(self.find(u) == root for u in explored)


def canonical_form(fam: Family) -> Family:
    """Canonical representative of the family's isomorphism class.

    The result is a ground-set relabelling of the input; relabelling the
    input does not change it, and two families have equal canonical forms
    iff they are isomorphic.  It is the smallest leaf of an
    individualisation-refinement search, not the lexicographic minimum
    over all m! relabellings."""
    return apply_permutation(fam, _Canonizer(fam).relabelling())


def is_isomorphic(fam1: Family, fam2: Family) -> bool:
    """True iff one family is a ground-set relabeling of the other."""
    if (fam1.m, fam1.k, fam1.kind, len(fam1)) != (fam2.m, fam2.k, fam2.kind, len(fam2)):
        return False
    return canonical_form(fam1).members == canonical_form(fam2).members


# ---------------------------------------------------------------------------
# spec-driven dispatch (CLI surface)
# ---------------------------------------------------------------------------

# name: (constructor, closed-form size or None), both read off a FamilySpec;
# each calls its functions by name when it runs, so it sees a rebound one
_REGISTRY = {
    "star": (lambda spec: star(spec.m, spec.k, spec.anchor[0] if spec.anchor else 1),
             lambda spec: star_size(spec.m, spec.k)),
    "fixed_multiset": (lambda spec: fixed_multiset(spec.m, spec.k, _anchor_multiset(spec)),
                       lambda spec: fixed_multiset_size(spec.m, spec.k, len(spec.anchor))),
    "frankl_set": (lambda spec: frankl_set(spec.m, spec.k, *_params(spec, "t", "r")),
                   lambda spec: frankl_set_size(spec.m, spec.k, *_params(spec, "t", "r"))),
    "frankl_multiset": (
        lambda spec: frankl_multiset(spec.m, spec.k, *_params(spec, "t", "r")),
        lambda spec: frankl_multiset_size(spec.m, spec.k, *_params(spec, "t", "r")),
    ),
    "hm_set": (lambda spec: hm_set(spec.m, spec.k), lambda spec: hm_set_size(spec.m, spec.k)),
    "hm_multiset": (lambda spec: hm_multiset(spec.m, spec.k),
                    lambda spec: hm_multiset_size(spec.m, spec.k)),
    # the hm_t families have no closed form: their size runs the check only
    "hm_t_set": (lambda spec: hm_t_set(spec.m, spec.k, *_params(spec, "t")),
                 lambda spec: _check_hm_t_params(SET, spec.m, spec.k, *_params(spec, "t"))),
    "hm_t_multiset": (
        lambda spec: hm_t_multiset(spec.m, spec.k, *_params(spec, "t")),
        lambda spec: _check_hm_t_params(MULTISET, spec.m, spec.k, *_params(spec, "t")),
    ),
    "hit_s": (lambda spec: hit_s(spec.m, spec.k, _hit_s_anchor(spec)),
              lambda spec: hit_s_size(spec.m, spec.k, len(_hit_s_anchor(spec)))),
    "hajnal_rothschild": (
        lambda spec: hajnal_rothschild_family(spec.m, spec.k, *_params(spec, "t", "s")),
        lambda spec: hajnal_rothschild_size(spec.m, spec.k, *_params(spec, "t", "s")),
    ),
}
FAMILY_NAMES = tuple(_REGISTRY)


def build_family(spec: FamilySpec) -> Family:
    return _REGISTRY[spec.name][0](spec)


def family_size_formula(spec: FamilySpec) -> int | None:
    """Closed-form size for the named family, or None if only enumeration
    is available (the hm_t families)."""
    return _REGISTRY[spec.name][1](spec)


def _anchor_multiset(spec: FamilySpec) -> Multiset:
    if not spec.anchor:
        raise ContractError("fixed_multiset requires an anchor multiset")
    return Multiset.from_elements(spec.m, spec.anchor)


def _hit_s_anchor(spec: FamilySpec) -> set[int]:
    """The anchor set of a hit_s spec: the --anchor elements, else [1, s]."""
    if spec.anchor:
        return set(spec.anchor)
    (s,) = _params(spec, "s")
    _check_hit_s_params(spec.m, spec.k, s)  # a negative s gives an empty [1, s]
    return set(range(1, s + 1))


def _params(spec: FamilySpec, *flags: str) -> list[int]:
    """The spec's values of these parameters, each one required."""
    for flag in flags:
        if getattr(spec, flag) is None:
            raise ContractError(f"missing required parameter --{flag}")
    return [getattr(spec, flag) for flag in flags]
