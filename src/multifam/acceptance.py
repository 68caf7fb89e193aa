"""Acceptance battery: one callable check per criterion, AC-1 .. AC-10.

Each check reproduces a bound / construction / exact-search agreement at
fixed desk-scale parameters, or runs a property sweep.  The CLI `suite`
subcommand and the pytest acceptance module both dispatch through
run_criterion, so the printed matrix and the test suite can never drift
apart.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache

from . import families
from .bijection import BijectionContext, forward, inverse
from .compression import down_compress_full, is_t_kernel
from .core import (
    MULTISET,
    Family,
    Multiset,
    binomial,
    common_intersection,
    enumerate_k_multisets,
    enumerate_k_subsets,
    is_support_t_intersecting,
    is_t_intersecting,
    multichoose,
)
from .families import canonical_form, is_isomorphic
from .graphs import (
    KIND_KNESER,
    KIND_KNESER_T,
    KIND_MULTISET_DISJOINT,
    KIND_MULTISET_T,
    build_graph,
)
from .search import (
    SUPPORT_INTERSECTION,
    ak_threshold_r,
    enumerate_maximum_independent_sets,
    max_independent_set,
    max_t_intersecting,
)
from .verify import STATUS_OK, verify_theorem


@dataclass
class CriterionResult:
    cid: str
    passed: bool
    detail: str
    elapsed_ms: int


class CriterionFailure(AssertionError):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CriterionFailure(message)


# ---------------------------------------------------------------------------
# AC-1: intersecting multiset maximum and star uniqueness for m > k+1
# ---------------------------------------------------------------------------

def _ac1() -> str:
    r43 = max_independent_set(build_graph(KIND_MULTISET_DISJOINT, 4, 3))
    _expect(r43.proved and r43.optimum == 10, f"M(4,3) optimum {r43.optimum} != 10")
    graph53 = build_graph(KIND_MULTISET_DISJOINT, 5, 3)
    r53 = max_independent_set(graph53)
    _expect(r53.proved and r53.optimum == 15, f"M(5,3) optimum {r53.optimum} != 15")
    enum = enumerate_maximum_independent_sets(graph53, cap=10000)
    _expect(enum.complete, "enumeration of M(5,3) optima was truncated")
    classes = {canonical_form(fam).members for fam in enum.families}
    _expect(len(classes) == 1, f"expected one isomorphism class, got {len(classes)}")
    star_key = canonical_form(families.star(5, 3, 1)).members
    _expect(star_key in classes, "the unique maximum class is not the star class")
    return (
        f"alpha(M(4,3))=10, alpha(M(5,3))=15; {len(enum.families)} maximum "
        "families on M(5,3), all isomorphic to a star"
    )


# ---------------------------------------------------------------------------
# AC-2: maximum intersecting family with empty common intersection
# ---------------------------------------------------------------------------

def _ac2() -> str:
    report = verify_theorem("T3.3", {"m": 6, "k": 3})
    _expect(report.status == STATUS_OK, f"status {report.status}")
    _expect(report.analytic_bound == 16, f"bound {report.analytic_bound} != 16")
    _expect(report.constructed_size == 16, f"construction {report.constructed_size} != 16")
    _expect(report.search_optimum == 16, f"search {report.search_optimum} != 16")
    _expect(binomial(7, 2) - binomial(4, 2) + 1 == 16, "binomial identity failed")
    _expect(3 * 6 - 2 == 16, "3m-2 cross identity failed")
    return "empty-common-intersection maximum at (6,3): 16 = bound = construction = search"


# ---------------------------------------------------------------------------
# AC-3: P(2,1) maximum and its extremal witness
# ---------------------------------------------------------------------------

def _ac3() -> str:
    report = verify_theorem("T3.4", {"m": 7, "k": 2, "s": 2})
    _expect(report.status == STATUS_OK, f"status {report.status}")
    _expect(
        (report.analytic_bound, report.constructed_size, report.search_optimum)
        == (13, 13, 13),
        f"expected 13/13/13, got {report.analytic_bound}/"
        f"{report.constructed_size}/{report.search_optimum}",
    )
    hit = families.hit_s(7, 2, (1, 2))
    _expect(report.witness is not None, "no witness returned")
    _expect(
        is_isomorphic(report.witness, hit),
        "P(2,1) witness is not isomorphic to the 2-set hitting family",
    )
    return "P(2,1) maximum at (7,2): 13 everywhere; witness is the 2-set hitting family"


# ---------------------------------------------------------------------------
# AC-4: union of two intersecting families, plus the size identity
# ---------------------------------------------------------------------------

def _ac4() -> str:
    report = verify_theorem("T3.5", {"m": 5, "k": 2})
    _expect(report.status == STATUS_OK, f"status {report.status}")
    _expect(
        (report.analytic_bound, report.search_optimum) == (9, 9),
        f"expected 9/9, got {report.analytic_bound}/{report.search_optimum}",
    )
    _expect(multichoose(5, 1) + multichoose(4, 1) == 9, "bound arithmetic failed")
    for m in range(2, 9):
        for k in range(1, 6):
            lhs = multichoose(m, k - 1) + multichoose(m - 1, k - 1)
            rhs = multichoose(m, k) - multichoose(m - 2, k)
            _expect(lhs == rhs, f"identity failed at m={m}, k={k}: {lhs} != {rhs}")
    return "two-family union maximum at (5,2) is 9; size identity holds on m<=8, k<=5"


# ---------------------------------------------------------------------------
# AC-5: t-intersecting maximum at (5,4,2) and the 13-member kernel family
# ---------------------------------------------------------------------------

def _ac5() -> str:
    threshold = ak_threshold_r(5, 4, 2)
    _expect(threshold.r == 1 and not threshold.boundary, f"threshold {threshold}")
    size_formula = families.frankl_multiset_size(5, 4, 2, 1)
    constructed = families.frankl_multiset(5, 4, 2, 1)
    _expect(size_formula == 17, f"closed form gives {size_formula} != 17")
    _expect(len(constructed) == 17, f"constructed size {len(constructed)} != 17")
    result = max_t_intersecting(5, 4, 2)
    _expect(result.proved and result.optimum == 17, f"search optimum {result.optimum} != 17")

    anchor = Multiset.from_elements(5, (1, 1, 2, 3))
    kernel_family = Family.of_multisets(
        5,
        4,
        (a for a in enumerate_k_multisets(5, 4) if a.intersect(anchor).cardinality >= 3),
    )
    _expect(len(kernel_family) == 13, f"kernel family size {len(kernel_family)} != 13")
    _expect(is_t_intersecting(kernel_family, 2), "kernel family is not 2-intersecting")
    _expect(is_t_kernel(kernel_family, anchor, 2), "anchor is not a 2-kernel for it")
    return "structural r=1 at (5,4,2); 17 = formula = construction = search; kernel family has 13 members"


# ---------------------------------------------------------------------------
# AC-6: bijection and homomorphism properties, exhaustively
# ---------------------------------------------------------------------------

def _ac6() -> str:
    checked_pairs = 0
    for m in range(1, 6):
        for k in range(1, 5):
            ctx = BijectionContext(m, k)
            domain = list(enumerate_k_subsets(ctx.n, k))
            _expect(len(domain) == multichoose(m, k), "universe sizes differ")
            images = [forward(ctx, b) for b in domain]
            _expect(
                len({a.counts for a in images}) == len(domain),
                f"forward not injective at m={m}, k={k}",
            )
            m_mask = (1 << m) - 1
            for b, a in zip(domain, images):
                _expect(
                    a.support_mask() == b.mask() & m_mask,
                    f"support property failed at m={m}, k={k}: {b} -> {a}",
                )
                _expect(inverse(ctx, a) == b, f"roundtrip failed for {b}")
            set_masks = [b.mask() for b in domain]
            supports = [a.support_mask() for a in images]
            counts = [a.counts for a in images]
            for i in range(len(domain)):
                for j in range(i + 1, len(domain)):
                    set_overlap = (set_masks[i] & set_masks[j]).bit_count()
                    supp_overlap = (supports[i] & supports[j]).bit_count()
                    _expect(
                        supp_overlap <= set_overlap,
                        f"homomorphism violated at m={m}, k={k}",
                    )
                    if set_overlap == 0:
                        msum = sum(min(x, y) for x, y in zip(counts[i], counts[j]))
                        _expect(msum == 0, "disjoint sets mapped to intersecting multisets")
                    checked_pairs += 1
    return f"bijection verified exhaustively for m<=5, k<=4 ({checked_pairs} pairs)"


# ---------------------------------------------------------------------------
# AC-7: down-compression battery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _draw_tables(m: int, k: int, t: int):
    """(rows, slot, compat) of M_t(m,k,t): each rank's multiplicity row,
    its branching slot (the inverse of ordered.to_old) and, per slot, the
    bitset of slots compatible with it (ordered.rows).  One entry is
    enough: every caller draws its families one (m, k, t) after another."""
    graph = build_graph(KIND_MULTISET_T, m, k, t)
    view = graph.ordered
    slot = [0] * len(view.to_old)
    for new, old in enumerate(view.to_old):
        slot[old] = new
    return graph.multiplicities, tuple(slot), tuple(view.rows)


def random_t_intersecting_family(m: int, k: int, t: int, rng: random.Random) -> Family:
    """Random greedy t-intersecting family: shuffle the universe's ranks,
    then keep compatible ones with a random acceptance rate up to a random
    size.

    The draw is a random greedy independent set of the M_t(m,k,t) graph.
    `allowed` is the AND of the compatibility rows of the members kept so
    far, so a visited rank is kept iff its slot's bit is set there: one bit
    test and one AND per kept member.  The graph's tables are cached for
    one (m, k, t) at a time.  Like build_graph, the draw refuses t < 1
    (ContractError) and a universe above graphs.DEFAULT_VERTEX_CAP members
    (ScaleExceededError), both before the rng is read."""
    rows, slot, compat = _draw_tables(m, k, t)
    order = list(range(len(rows)))
    rng.shuffle(order)
    target = rng.randint(1, max(2, len(order) // 2))
    rate = rng.uniform(0.4, 1.0)
    chosen: list[int] = []
    allowed = -1
    draw = rng.random
    for v in order:
        if draw() > rate:
            continue
        s = slot[v]
        if allowed >> s & 1:
            chosen.append(v)
            allowed &= compat[s]
            # the next rank would draw nothing before the size check
            if len(chosen) >= target:
                break
    if not chosen:
        chosen = [order[0]]
    # ranks run in canonical member order
    return Family.from_rows(m, k, MULTISET, [rows[v] for v in sorted(chosen)])


def _compression_grid() -> list[tuple[int, int, int]]:
    grid = []
    for t in (1, 2, 3):
        for k in range(t, 6):
            for m in range(max(1, 2 * k - t), 7):
                grid.append((m, k, t))
    return grid


def _ac7(families_per_point: int = 200) -> str:
    rng = random.Random(20240811)
    runs = 0
    for m, k, t in _compression_grid():
        for _ in range(families_per_point):
            fam = random_t_intersecting_family(m, k, t, rng)
            compressed = down_compress_full(fam, t)
            _expect(len(compressed) == len(fam), f"size changed at ({m},{k},{t})")
            _expect(is_t_intersecting(compressed, t), f"t-intersection broken at ({m},{k},{t})")
            _expect(
                is_support_t_intersecting(compressed, t),
                f"support condition missed at ({m},{k},{t})",
            )
            runs += 1

    fixed = families.fixed_multiset(5, 4, Multiset.from_elements(5, (1, 1)))
    _expect(len(fixed) == 15, f"fixed-pair family size {len(fixed)} != 15")
    compressed = down_compress_full(fixed, 2, allow_out_of_regime=True)
    _expect(len(compressed) == 15, "compression changed the fixed-pair family size")
    core = common_intersection(compressed)
    _expect(
        core.cardinality == 2 and max(core.counts) == 1,
        f"compressed core {core} is not a plain 2-set",
    )
    _expect(
        compressed == families.fixed_multiset(5, 4, core),
        "compressed family is not the full fixed-2-set family",
    )

    for m, k, t in ((5, 3, 2), (6, 3, 2), (6, 4, 2), (6, 4, 3)):
        frk = families.frankl_multiset(m, k, t, 1)
        out = down_compress_full(frk, t)
        _expect(out == frk, f"structured family moved under compression at ({m},{k},{t})")
        _expect(is_isomorphic(out, frk), "compressed family not isomorphic to the input")
    return (
        f"{runs} random compressions preserved size, t-intersection and kernel "
        "validity; fixed-pair family compressed to a fixed-2-set family of size 15"
    )


# ---------------------------------------------------------------------------
# AC-8: set-side sanity
# ---------------------------------------------------------------------------

def _ac8() -> str:
    petersen = max_independent_set(build_graph(KIND_KNESER, 5, 2))
    _expect(petersen.proved and petersen.optimum == 4, f"alpha(K(5,2)) = {petersen.optimum} != 4")
    result = max_independent_set(build_graph(KIND_KNESER_T, 6, 3, 2))
    best_construction = max(
        families.frankl_set_size(6, 3, 2, r) for r in range(0, 2)
    )
    _expect(
        result.proved and result.optimum == best_construction,
        f"alpha(K(6,3,2)) = {result.optimum} != max_r size {best_construction}",
    )
    return f"alpha(K(5,2))=4; alpha(K(6,3,2))={result.optimum} matches the best structural family"


# ---------------------------------------------------------------------------
# AC-9: size identities on the full grids
# ---------------------------------------------------------------------------

def _ac9() -> str:
    checked = 0
    for m in range(1, 8):
        for k in range(1, 6):
            for t in range(1, 4):
                for r in range(0, 3):
                    if t > k or t + r > k or r > k - t or t + 2 * r > m:
                        continue
                    set_size = families.frankl_set_size(m + k - 1, k, t, r)
                    multi_size = families.frankl_multiset_size(m, k, t, r)
                    _expect(
                        set_size == multi_size,
                        f"sizes differ at (m={m},k={k},t={t},r={r}): {set_size} != {multi_size}",
                    )
                    checked += 1
    hr_checked = 0
    for n in range(1, 13):
        for k in range(1, 6):
            if k > n:
                continue
            for s in range(1, 4):
                if s > n:
                    continue
                total = families.hajnal_rothschild_size(n, k, 1, s)
                _expect(
                    total == binomial(n, k) - binomial(n - s, k),
                    f"inclusion-exclusion identity failed at (n={n},k={k},s={s})",
                )
                hr_checked += 1
    return f"{checked} set/multiset size equalities and {hr_checked} t=1 fixed-family identities hold"


# ---------------------------------------------------------------------------
# AC-10: open-regime exploration smoke test
# ---------------------------------------------------------------------------

def _ac10() -> str:
    enum = enumerate_maximum_independent_sets(build_graph(KIND_MULTISET_T, 2, 3, 2))
    _expect(enum.complete and enum.families, "optimum enumeration at (2,3,2) failed")
    for fam in enum.families:
        core = common_intersection(fam)
        _expect(
            core.cardinality >= 2,
            f"optimum family {fam.members} lacks a common 2-multiset",
        )

    threshold = ak_threshold_r(4, 4, 2)
    bound = families.frankl_set_size(4 + 4 - 1, 4, 2, threshold.r)
    result = max_t_intersecting(4, 4, 2, mode=SUPPORT_INTERSECTION)
    _expect(result.proved, "support-mode search did not prove its optimum")
    _expect(
        result.optimum <= bound,
        f"support-mode optimum {result.optimum} exceeds the set-side bound {bound}",
    )
    constructible = 2 + 2 * threshold.r <= 4
    attained = result.optimum == bound
    _expect(not constructible, "expected the structural family to be unconstructible here")
    gap = f"bound {bound} vs optimum {result.optimum}" + (
        " (attained)" if attained else " (potentially unattained: window exceeds m)"
    )
    return (
        "every maximum 2-intersecting family at (2,3,2) has a common 2-multiset; "
        f"support-mode at (4,4,2): {gap}"
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CRITERIA = {
    "AC-1": (_ac1, "intersecting multiset maxima and star uniqueness"),
    "AC-2": (_ac2, "empty-common-intersection maximum at (6,3)"),
    "AC-3": (_ac3, "P(2,1) maximum at (7,2) with extremal witness"),
    "AC-4": (_ac4, "two-family union maximum at (5,2) and size identity"),
    "AC-5": (_ac5, "t-intersecting maximum at (5,4,2) and the kernel family"),
    "AC-6": (_ac6, "bijection and homomorphism properties"),
    "AC-7": (_ac7, "down-compression battery"),
    "AC-8": (_ac8, "set-side sanity checks"),
    "AC-9": (_ac9, "size identities on the parameter grids"),
    "AC-10": (_ac10, "open-regime exploration smoke test"),
}

QUICK_PROFILE = ("AC-1", "AC-2", "AC-3", "AC-4", "AC-5", "AC-6")
FULL_PROFILE = tuple(CRITERIA)


def run_criterion(cid: str) -> CriterionResult:
    if cid not in CRITERIA:
        raise KeyError(f"unknown criterion {cid!r}")
    func, _ = CRITERIA[cid]
    start = time.perf_counter()
    try:
        detail = func()
        passed = True
    except CriterionFailure as failure:
        detail = str(failure)
        passed = False
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return CriterionResult(cid, passed, detail, elapsed_ms)


def run_profile(profile: str) -> list[CriterionResult]:
    ids = QUICK_PROFILE if profile == "quick" else FULL_PROFILE
    return [run_criterion(cid) for cid in ids]
