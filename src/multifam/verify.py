"""Theorem verification harness: analytic bound vs. construction vs. search.

Each supported theorem id binds three routes together at desk scale:

  T1.1  largest intersecting k-set family of [n]
  T1.4  largest intersecting k-multiset family of [m]
  T2.3  largest P(s,1) k-set family of [n]
  T2.4  largest union of two intersecting k-set families of [n]
  T3.3  largest intersecting k-multiset family, empty common intersection
  T3.4  largest P(s,1) k-multiset family of [m]
  T3.5  largest union of two intersecting k-multiset families of [m]
  T4.1  largest t-intersecting k-multiset family of [m]
  T4.8  largest t-intersecting k-multiset family, common core below t

The report records the closed-form bound, the size of the constructed
extremal family, and the exact search optimum.  The paper maps K(n, k)
onto M(m, k) at n = m+k-1, so a multiset theorem's bound and hypothesis
are its set twin's read at that n: T1.4, T3.4 and T3.5 run through the
bindings of T1.1, T2.3 and T2.4, and T3.3 reads Hilton-Milner's at n.
Every theorem but the unions T2.4 and T3.5 seeds its clique search with
its construction: the search checks it once against the raw pairwise
predicate, refuses it (ContractError) if it fails, and then only has to
prove that nothing beats it, in which case the construction is the
witness.  Every binding builds its graph first (T3.3 on M(m,k), T4.8 on
M_t(m,k,t)), so a universe above the vertex cap is refused before any
walk, and filters its construction from the graph's rows
(families.hitting, families.frankl, families._hm, families._hm_t), so it
walks its universe once.  A violated hypothesis never hard-fails: the
search still runs (the exploration mode for open parameter regimes) and
the report carries a hypothesis_not_met status instead of a verdict.  For
the ground-size flag, set-system theorems read "m" as the set ground n.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from . import families
from .core import MULTISET, SET, ContractError, Family, binomial
from .families import canonical_form
from .graphs import KIND_KNESER, KIND_MULTISET_DISJOINT, KIND_MULTISET_T, build_graph
from .search import (
    NODE_LIMIT_HIT,
    SearchResult,
    ak_threshold_r,
    clique_free_search,
    enumerate_optimum_orbits,
    induced_bipartite_search,
    max_independent_set,
    max_intersecting_empty_common,
    max_t_intersecting_nontrivial,
)

STATUS_OK = "ok"
STATUS_MISMATCH = "mismatch"
STATUS_HYPOTHESIS = "hypothesis_not_met"
STATUS_NODE_LIMIT = "node_limit_hit"

UNIQUE = "unique_up_to_iso"
MULTIPLE = "multiple_classes"
NOT_CHECKED = "not_checked"

# optima recorded per uniqueness check, at least one from every isomorphism
# class (isomorphic ones may repeat); reaching it leaves a single class
# not_checked
UNIQUENESS_CAP = 2000


@dataclass
class VerifyReport:
    theorem: str
    params: dict
    analytic_bound: int
    constructed_size: int | None
    search_optimum: int | None
    status: str
    uniqueness_verdict: str
    nodes_explored: int
    elapsed_ms: int
    match: bool
    hypothesis_met: bool
    notes: list[str] = field(default_factory=list)
    witness: Family | None = None
    constructed: Family | None = None
    optimum_classes: list[Family] | None = None

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": dict(self.params),
            "analytic_bound": self.analytic_bound,
            "constructed_size": self.constructed_size,
            "search_optimum": self.search_optimum,
            "status": self.status,
            "uniqueness_verdict": self.uniqueness_verdict,
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": self.elapsed_ms,
            "match": self.match,
            "hypothesis_met": self.hypothesis_met,
            "notes": list(self.notes),
            "optimum_class_count": (
                len(self.optimum_classes) if self.optimum_classes is not None else None
            ),
        }


def _require(params: dict, *keys: str) -> list[int]:
    out = []
    for key in keys:
        if key not in params or params[key] is None:
            raise ContractError(f"theorem requires parameter {key!r}")
        out.append(int(params[key]))
    return out


@dataclass
class _Binding:
    bound: int
    constructed: Family | None
    result: SearchResult
    hypothesis_met: bool
    notes: list[str]
    graph_for_uniqueness: object | None = None


def _twin(kind: str, m: int, k: int):
    """The (m, k) graph of `kind` and the ground size n its set theorem is
    read at: n = m on k-sets, n = m+k-1 on k-multisets."""
    graph = build_graph(kind, m, k)
    return graph, m if graph.family_kind == SET else m + k - 1


def _hypothesis(met: bool, rule: str, kind: str, m: int, n: int, **params) -> list[str]:
    """The note of a hypothesis on n that is not met."""
    ground = f"n={n}" if kind == SET else f"n = m+k-1 = {n}, m={m}"
    values = "".join(f", {key}={value}" for key, value in params.items())
    return [] if met else [f"hypothesis {rule} not met ({ground}{values})"]


def _bind_intersecting(kind, params, node_limit) -> _Binding:
    m, k = _require(params, "m", "k")
    graph, n = _twin(kind, m, k)
    hyp = n >= 2 * k
    notes = _hypothesis(hyp, "n >= 2k", graph.family_kind, m, n, k=k)
    bound = binomial(n - 1, k - 1)
    constructed = families.hitting(graph.family_kind, m, k, (1,), graph.multiplicities)
    result = max_independent_set(graph, node_limit, seed=constructed)
    return _Binding(bound, constructed, result, hyp, notes, graph)


def _bind_p_s1(theorem_id, kind, params, node_limit) -> _Binding:
    m, k, s = _require(params, "m", "k", "s")
    if m < s:
        raise ContractError(f"{theorem_id} needs m >= s, got m={m}, s={s}")
    graph, n = _twin(kind, m, k)
    hyp = n >= (2 * s + 1) * k - s
    notes = _hypothesis(hyp, "n >= (2s+1)k-s", graph.family_kind, m, n, k=k, s=s)
    bound = binomial(n, k) - binomial(n - s, k)
    constructed = families.hitting(graph.family_kind, m, k, range(1, s + 1), graph.multiplicities)
    result = clique_free_search(graph, s, node_limit, seed=constructed)
    return _Binding(bound, constructed, result, hyp, notes)


def _bind_union(theorem_id, kind, params, node_limit) -> _Binding:
    m, k = _require(params, "m", "k")
    if m < 2:
        raise ContractError(f"{theorem_id} needs m >= 2, got m={m}")
    graph, n = _twin(kind, m, k)
    # n > (3+sqrt(5))k/2 checked exactly: 2n-3k > 0 and (2n-3k)^2 > 5k^2
    hyp = (2 * n - 3 * k) > 0 and (2 * n - 3 * k) ** 2 > 5 * k * k
    notes = _hypothesis(hyp, "n > (3+sqrt(5))k/2", graph.family_kind, m, n, k=k)
    bound = binomial(n - 1, k - 1) + binomial(n - 2, k - 1)
    constructed = families.hitting(graph.family_kind, m, k, (1, 2), graph.multiplicities)
    result = induced_bipartite_search(graph, node_limit)
    return _Binding(bound, constructed, result, hyp, notes)


def _bind_t33(params, node_limit) -> _Binding:
    m, k = _require(params, "m", "k")
    if m < 2:
        raise ContractError(f"T3.3 needs m >= 2, got m={m}")
    graph, n = _twin(KIND_MULTISET_DISJOINT, m, k)
    hyp = k >= 2 and n >= 2 * k
    notes = _hypothesis(hyp, "k >= 2 and n >= 2k", MULTISET, m, n, k=k)
    # the closed form, evaluated also outside the hypothesis
    bound = binomial(n - 1, k - 1) - binomial(n - k - 1, k - 1) + 1
    constructed = families._hm(MULTISET, m, k, graph.multiplicities) if hyp else None
    result = max_intersecting_empty_common(graph, node_limit, seed=constructed)
    return _Binding(bound, constructed, result, hyp, notes)


def _bind_t41(params, node_limit) -> _Binding:
    m, k, t = _require(params, "m", "k", "t")
    hyp = m >= 2 * k - t
    notes = [] if hyp else [f"hypothesis m >= 2k-t not met (m={m}, k={k}, t={t})"]
    graph = build_graph(KIND_MULTISET_T, m, k, t)
    n = m + k - 1
    if m > k - t + 1:
        threshold = ak_threshold_r(m, k, t)
        r = threshold.r
        bound = families.frankl_set_size(n, k, t, r)
        if threshold.boundary:
            notes.append(f"threshold boundary: r={r} and r={r + 1} tie")
            if t + 2 * (r + 1) <= n and r + 1 <= k - t:
                other = families.frankl_set_size(n, k, t, r + 1)
                if other != bound:
                    raise RuntimeError("internal error: boundary sizes differ")
        candidates = [r, r + 1] if threshold.boundary else [r]
    else:
        # below the classification range every k-set of [n] t-intersects
        bound = binomial(n, k)
        candidates = []
        notes.append("n <= 2k-t: the whole k-set universe is t-intersecting")
    constructed = None
    for cand in candidates:
        if cand <= k - t and t + 2 * cand <= m:
            constructed = families.frankl(MULTISET, m, k, t, cand, graph.multiplicities)
            break
    if constructed is None and candidates:
        notes.append(f"extremal family not constructible on [{m}]: window t+2r exceeds m")
    result = max_independent_set(graph, node_limit, seed=constructed)
    return _Binding(bound, constructed, result, hyp, notes, graph)


def _bind_t48(params, node_limit) -> _Binding:
    m, k, t = _require(params, "m", "k", "t")
    if not 1 <= t <= k:
        raise ContractError(f"need 1 <= t <= k, got t={t}, k={k}")
    hyp = (1 < t < k) and m >= 2 * k - t and m > t * (k - t) + 2
    notes = []
    if not hyp:
        notes.append(
            f"hypothesis (1<t<k, m>=2k-t, m>t(k-t)+2) not met (m={m}, k={k}, t={t})"
        )
    graph = build_graph(KIND_MULTISET_T, m, k, t)
    rows = graph.multiplicities
    # two candidate extremal families; which one wins splits on k vs 2t+1
    f1_size = None
    f1 = None
    if t + 2 <= m and t + 1 <= k:
        f1 = families.frankl(MULTISET, m, k, t, 1, rows)
        f1_size = len(f1)
    hmt = None
    hmt_size = None
    if 1 < t < k and m >= k + 1:
        hmt = families._hm_t(MULTISET, m, k, t, rows)
        hmt_size = len(hmt)
    if k <= 2 * t + 1:
        notes.append("case split: k <= 2t+1, bound is the r=1 family size")
        bound = f1_size if f1_size is not None else 0
        constructed = f1
    else:
        notes.append("case split: k > 2t+1, bound is max(r=1 family, adjoined-core family)")
        sizes = [x for x in (f1_size, hmt_size) if x is not None]
        bound = max(sizes) if sizes else 0
        constructed = f1 if (f1_size or 0) >= (hmt_size or 0) else hmt
    notes.append(
        "case-split convention follows the set-system analogue; "
        "recorded here because the two cases are stated ambiguously upstream"
    )
    result = max_t_intersecting_nontrivial(graph, node_limit, seed=constructed)
    return _Binding(bound, constructed, result, hyp, notes)


# a set theorem and its multiset twin share one body, which reads the set
# theorem at the twin's n
_BINDINGS = {
    "T1.1": partial(_bind_intersecting, KIND_KNESER),
    "T1.4": partial(_bind_intersecting, KIND_MULTISET_DISJOINT),
    "T2.3": partial(_bind_p_s1, "T2.3", KIND_KNESER),
    "T2.4": partial(_bind_union, "T2.4", KIND_KNESER),
    "T3.3": _bind_t33,
    "T3.4": partial(_bind_p_s1, "T3.4", KIND_MULTISET_DISJOINT),
    "T3.5": partial(_bind_union, "T3.5", KIND_MULTISET_DISJOINT),
    "T4.1": _bind_t41,
    "T4.8": _bind_t48,
}
THEOREM_IDS = tuple(_BINDINGS)


def _uniqueness_verdict(binding: _Binding, node_limit) -> tuple[str, list[Family] | None, int]:
    graph = binding.graph_for_uniqueness
    if graph is None or not binding.result.proved:
        return NOT_CHECKED, None, 0
    enum = enumerate_optimum_orbits(
        graph, binding.result.optimum, cap=UNIQUENESS_CAP, node_limit=node_limit
    )
    classes: dict[tuple, Family] = {}
    for fam in enum.families:
        key_fam = canonical_form(fam)
        classes.setdefault(key_fam.members, key_fam)
    reps = list(classes.values())
    if len(reps) > 1:
        return MULTIPLE, reps, enum.nodes_explored
    if enum.complete and len(reps) == 1:
        return UNIQUE, reps, enum.nodes_explored
    return NOT_CHECKED, reps, enum.nodes_explored


def verify_theorem(
    theorem_id: str,
    params: dict,
    node_limit: int | None = None,
    uniqueness: bool = False,
) -> VerifyReport:
    """Run the bound / construction / search pipeline for one theorem."""
    if theorem_id not in _BINDINGS:
        raise ContractError(
            f"unknown theorem id {theorem_id!r}; expected one of {THEOREM_IDS}"
        )
    m, k = _require(params, "m", "k")
    for key, value in (("m", m), ("k", k)):
        if value < 1:
            raise ContractError(f"{key} must be >= 1, got {value}")
    start = time.perf_counter()
    binding = _BINDINGS[theorem_id](params, node_limit)
    constructed_size = len(binding.constructed) if binding.constructed is not None else None
    search_optimum = binding.result.optimum
    nodes = binding.result.nodes_explored

    verdict = NOT_CHECKED
    classes = None
    if uniqueness:
        verdict, classes, extra_nodes = _uniqueness_verdict(binding, node_limit)
        nodes += extra_nodes

    if constructed_size is not None and constructed_size > binding.bound:
        raise RuntimeError(
            "internal error: constructed family exceeds the analytic bound"
        )

    values = [binding.bound]
    if constructed_size is not None:
        values.append(constructed_size)
    if binding.result.proved:
        values.append(search_optimum)
    match = len(set(values)) == 1 and binding.result.proved

    if binding.result.status == NODE_LIMIT_HIT:
        status = STATUS_NODE_LIMIT
    elif not binding.hypothesis_met:
        status = STATUS_HYPOTHESIS
    elif match:
        status = STATUS_OK
    else:
        status = STATUS_MISMATCH

    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerifyReport(
        theorem=theorem_id,
        params=dict(params),
        analytic_bound=binding.bound,
        constructed_size=constructed_size,
        search_optimum=search_optimum,
        status=status,
        uniqueness_verdict=verdict,
        nodes_explored=nodes,
        elapsed_ms=elapsed_ms,
        match=match,
        hypothesis_met=binding.hypothesis_met,
        notes=binding.notes,
        witness=binding.result.witness,
        constructed=binding.constructed,
        optimum_classes=classes,
    )
