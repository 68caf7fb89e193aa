from collections import Counter

import pytest

from multifam import (
    BijectionContext,
    ContractError,
    KSet,
    Multiset,
    binomial,
    enumerate_k_multisets,
    enumerate_k_subsets,
    forward,
    inverse,
    multichoose,
)


def test_forward_examples():
    ctx = BijectionContext(3, 2)
    assert forward(ctx, KSet(4, (1, 2))) == Multiset.from_elements(3, (1, 2))
    assert forward(ctx, KSet(4, (1, 4))) == Multiset.from_elements(3, (1, 1))


def test_full_support_class_is_identity():
    ctx = BijectionContext(5, 3)
    for b in enumerate_k_subsets(ctx.n, 3):
        if all(x <= ctx.m for x in b.members):
            image = forward(ctx, b)
            assert image.support().members == b.members
            assert max(image.counts) == 1


def test_inverse_examples():
    ctx = BijectionContext(3, 2)
    assert inverse(ctx, Multiset.from_elements(3, (2, 2))) == KSet(4, (2, 4))
    assert inverse(ctx, Multiset.from_elements(3, (1, 3))) == KSet(4, (1, 3))


def test_roundtrip_exhaustive_grid():
    for m in range(1, 7):
        for k in range(1, 7):
            ctx = BijectionContext(m, k)
            seen = set()
            for b in enumerate_k_subsets(ctx.n, k):
                a = forward(ctx, b)
                assert a.cardinality == k
                assert inverse(ctx, a) == b
                seen.add(a.counts)
            assert len(seen) == binomial(ctx.n, k) == multichoose(m, k)
            for a in enumerate_k_multisets(m, k):
                assert forward(ctx, inverse(ctx, a)) == a


def test_support_property():
    ctx = BijectionContext(4, 3)
    m_mask = (1 << ctx.m) - 1
    for b in enumerate_k_subsets(ctx.n, 3):
        assert forward(ctx, b).support_mask() == b.mask() & m_mask


def test_per_class_counts_agree_on_both_sides():
    for m in range(1, 6):
        for k in range(1, 6):
            ctx = BijectionContext(m, k)
            set_classes = Counter()
            for b in enumerate_k_subsets(ctx.n, k):
                set_classes[tuple(x for x in b.members if x <= m)] += 1
            multi_classes = Counter()
            for a in enumerate_k_multisets(m, k):
                multi_classes[a.support().members] += 1
            assert set_classes == multi_classes
            for support, count in set_classes.items():
                assert count == binomial(k - 1, k - len(support))


def test_homomorphism_thresholds():
    ctx = BijectionContext(4, 3)
    domain = list(enumerate_k_subsets(ctx.n, 3))
    for i, b1 in enumerate(domain):
        a1 = forward(ctx, b1)
        for b2 in domain[i + 1 :]:
            a2 = forward(ctx, b2)
            set_overlap = len(set(b1.members) & set(b2.members))
            support_overlap = (a1.support_mask() & a2.support_mask()).bit_count()
            assert support_overlap <= set_overlap
            if set_overlap == 0:
                assert a1.intersect(a2).cardinality == 0


def test_contract_errors():
    ctx = BijectionContext(3, 2)
    with pytest.raises(ContractError):
        forward(ctx, KSet(4, (1, 2, 3)))
    with pytest.raises(ContractError):
        forward(ctx, KSet(5, (1, 2)))
    with pytest.raises(ContractError):
        inverse(ctx, Multiset.from_elements(3, (1, 1, 1)))
