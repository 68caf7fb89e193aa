import random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def plain_view(rows):
    """Raw compatibility rows as a branching view in identity order, with
    no multiplicity rows, orbits or count columns: the plain loop."""
    from multifam.graphs import BranchingView

    return BranchingView(rows, range(len(rows)), [], [], [])


@st.composite
def multiset_pair(draw, max_m=5, max_k=5):
    """Two multisets over the same ground set."""
    from multifam import Multiset

    m = draw(st.integers(1, max_m))
    k = draw(st.integers(0, max_k))
    first = draw(st.lists(st.integers(1, m), min_size=k, max_size=k))
    second = draw(st.lists(st.integers(1, m), min_size=k, max_size=k))
    return Multiset.from_elements(m, first), Multiset.from_elements(m, second)


@st.composite
def multiset_family(draw, max_m=5, max_k=4, max_members=8):
    from multifam import Family, Multiset

    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, max_k))
    count = draw(st.integers(1, max_members))
    members = [
        Multiset.from_elements(
            m, draw(st.lists(st.integers(1, m), min_size=k, max_size=k))
        )
        for _ in range(count)
    ]
    return Family.of_multisets(m, k, members)


@st.composite
def random_adjacency(draw, max_n=12):
    """Random undirected graph as per-vertex bitmasks."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(st.floats(0.1, 0.9))
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@st.composite
def family_and_t(draw, max_m=7, max_k=4, max_members=6, kinds=("multiset", "set")):
    """A multiset or set family with m <= max_m, k <= max_k (0 included) and
    0..max_members members before deduplication, plus a t in 1..k+1."""
    from multifam import Family, KSet, Multiset

    m = draw(st.integers(1, max_m))
    count = draw(st.integers(0, max_members))
    if draw(st.sampled_from(kinds)) == "multiset":
        k = draw(st.integers(0, max_k))
        members = [
            Multiset.from_elements(m, draw(st.lists(st.integers(1, m), min_size=k, max_size=k)))
            for _ in range(count)
        ]
        family = Family.of_multisets(m, k, members)
    else:
        k = draw(st.integers(0, min(max_k, m)))
        members = [
            KSet.from_elements(
                m, draw(st.lists(st.integers(1, m), min_size=k, max_size=k, unique=True))
            )
            for _ in range(count)
        ]
        family = Family.of_sets(m, k, members)
    return family, draw(st.integers(1, k + 1))


def refuse_enumeration(monkeypatch):
    """Make every universe enumeration in the package raise."""
    import multifam

    def refuse(*args):
        raise AssertionError("a universe was enumerated")

    for module in vars(multifam).values():
        if getattr(module, "__name__", "").startswith("multifam."):
            for name in ("count_vectors", "combinations"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
