"""Exact verification toolkit for intersecting families of k-multisets.

Building blocks: multiset algebra and enumeration (core), the
support-preserving set/multiset bijection (bijection), named extremal
family constructors with closed-form sizes (families), kernel-guided
down-compression (compression), disjointness graphs (graphs), exact
branch-and-bound extremal searches (search), and a theorem verification
harness tying bounds, constructions and searches together (verify).
"""

from .core import (
    ContractError,
    Family,
    KSet,
    Multiset,
    ScaleExceededError,
    binomial,
    common_intersection,
    enumerate_k_multisets,
    enumerate_k_subsets,
    has_property_p_s1,
    is_support_t_intersecting,
    is_t_intersecting,
    kset_rank,
    kset_unrank,
    multichoose,
    multiset_rank,
    multiset_unrank,
)
from .bijection import BijectionContext, forward, inverse
from .compression import (
    CompressionInvariantError,
    ShiftParams,
    down_compress_full,
    down_compress_pass,
    is_t_kernel,
    shift_family,
    shift_multiset,
)
from .families import (
    FamilySpec,
    apply_permutation,
    build_family,
    canonical_form,
    family_size_formula,
    fixed_multiset,
    frankl_multiset,
    frankl_multiset_size,
    frankl_set,
    frankl_set_size,
    hajnal_rothschild_size,
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
    is_isomorphic,
    star,
)
from .family_io import ParseError, emit_family, load_family, parse_family, save_family
from .graphs import DisjointnessGraph, build_graph
from .search import (
    AkThreshold,
    EnumerationResult,
    SearchResult,
    ak_threshold_r,
    clique_free_search,
    enumerate_maximum_independent_sets,
    enumerate_optimum_orbits,
    induced_bipartite_search,
    max_independent_set,
    max_intersecting_empty_common,
    max_p_s1_family,
    max_t_intersecting,
    max_t_intersecting_nontrivial,
    max_union_two_intersecting,
)
from .verify import VerifyReport, verify_theorem
