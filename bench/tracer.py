"""Outside-in span tracer for the benchmark.

The tracer wraps the public functions of each multifam layer from the
outside: no file under src/ knows it exists.  A wrapper replaces the
function object at its defining module and at every multifam module or
package attribute that holds the same object, so calls made through
`from .graphs import build_graph`, through `families.frankl_multiset`, or
through an import done inside a function body all land in the wrapper.
References held elsewhere (a tuple or dict of functions, a closure) are not
rewritten; the layers traced here hold none.

Each call records a span: id, name, layer, start, end and the id of the
span that was open when it started.  Spans stay in memory and are written
out once, at the end of the traced run.  A span's self time is its duration
minus the durations of its direct children.

Generator functions (the universe enumerators) are timed from their first
resume until they are exhausted or closed; the span is on the stack only
while the generator body runs, so an abandoned generator cannot corrupt the
parent links.  The consumer's work between two items falls inside the
generator's span; the library's consumers are `tuple(...)`, `list(...)` or
a filter expression, so that share is small.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "multifam"

SEARCH_LAYERS = (
    "search.mis",
    "search.small_core",
    "search.clique_free",
    "search.bipartite",
    "search.enum",
)

_CONSTRUCTORS = (
    "star",
    "fixed_multiset",
    "frankl_set",
    "frankl_multiset",
    "hm_set",
    "hm_multiset",
    "hm_t_set",
    "hm_t_multiset",
    "hit_s",
    "hit_s_set",
    "hajnal_rothschild_family",
)

# "module.function" (relative to the package) -> layer
LAYER_OF = {
    "verify.verify_theorem": "verify",
    "graphs.build_graph": "graphs.build",
    "core.enumerate_k_multisets": "core.enumerate",
    "core.enumerate_k_subsets": "core.enumerate",
    "core.is_t_intersecting": "core.predicate",
    "core.is_support_t_intersecting": "core.predicate",
    "core.has_property_p_s1": "core.predicate",
    "search.max_independent_set": "search.mis",
    "search.max_t_intersecting": "search.mis",
    "search.max_intersecting_empty_common": "search.small_core",
    "search.max_t_intersecting_nontrivial": "search.small_core",
    "search.clique_free_search": "search.clique_free",
    "search.max_p_s1_family": "search.clique_free",
    "search.induced_bipartite_search": "search.bipartite",
    "search.max_union_two_intersecting": "search.bipartite",
    "search.enumerate_maximum_independent_sets": "search.enum",
    "families.canonical_form": "families.canonical",
    **{f"families.{name}": "families.construct" for name in _CONSTRUCTORS},
    "compression.down_compress_full": "compression.full",
    "compression.down_compress_pass": "compression.pass",
    "compression.shift_family": "compression.shift",
    "compression.is_t_kernel": "compression.check",
}

# layer -> (self-time quantity, call-count quantity or None)
LAYER_QUANTITIES = {
    "verify": ("verify.self_ms", None),
    "graphs.build": ("graphs.build_ms", "graphs.build_calls"),
    "core.enumerate": ("core.enumerate_ms", None),
    "core.predicate": ("core.predicate_ms", "core.predicate_calls"),
    **{layer: (f"{layer}.ms", None) for layer in SEARCH_LAYERS},
    "families.canonical": ("families.canonical_ms", "families.canonical_calls"),
    "families.construct": ("families.construct_ms", None),
    "compression.full": ("compression.full_ms", None),
    "compression.pass": ("compression.pass_ms", "compression.passes"),
    "compression.shift": ("compression.shift_ms", None),
    "compression.check": ("compression.check_ms", None),
}

# layers whose arguments and result are kept until the item ends, so the
# counts derived from them are computed outside every span
_OBSERVED = {"graphs.build", "families.canonical", "compression.shift", *SEARCH_LAYERS}

# the per-layer metrics the traced run reports, in order, with units
PER_LAYER_UNITS = {
    "graphs.build_ms": "ms",
    "graphs.build_calls": "count",
    "graphs.vertices": "count",
    "graphs.edges": "count",
    "graphs.ns_per_pair": "ns",
    "core.enumerate_ms": "ms",
    **{
        f"search.{s}.{field}": unit
        for s in ("mis", "small_core", "clique_free", "bipartite")
        for field, unit in (("ms", "ms"), ("nodes", "count"), ("us_per_node", "us"))
    },
    "search.enum.ms": "ms",
    "search.enum.nodes": "count",
    "search.enum.optima": "count",
    "search_nodes": "count",
    "families.canonical_ms": "ms",
    "families.canonical_calls": "count",
    "families.class_ratio": "ratio",
    "families.construct_ms": "ms",
    "compression.full_ms": "ms",
    "compression.passes": "count",
    "compression.pass_ms": "ms",
    "compression.shift_ms": "ms",
    "compression.moves": "count",
    "compression.move_ratio": "ratio",
    "compression.check_ms": "ms",
    "core.predicate_calls": "count",
    "core.predicate_ms": "ms",
    "verify.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "start", "end", "data")

    def __init__(self, sid: int, name: str, layer: str, parent: int, start: float):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.data = None


class Tracer:
    """Holds the spans of one traced process; `install` patches multifam."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.missing: list[str] = []

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for qualname, layer in LAYER_OF.items():
            modname, _, attr = qualname.rpartition(".")
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(qualname)
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(original, qualname, layer)
            else:
                wrapper = self._wrap(original, qualname, layer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _open(self, name: str, layer: str) -> Span:
        parent = self.stack[-1].sid if self.stack else -1
        span = Span(len(self.spans), name, layer, parent, perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        observed = layer in _OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
            if observed:
                span.data = (args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = None
            while True:
                if span is None:
                    span = tracer._open(name, layer)
                else:
                    tracer.stack.append(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    span.end = perf_counter()
                    tracer.stack.pop()
                yield item

        return traced

    def mark(self) -> int:
        return len(self.spans)

    def quantities(self, first: int) -> dict[str, float]:
        """Additive per-layer quantities of the spans recorded since
        `first` (one item execution); drops the kept arguments/results."""
        spans = self.spans[first:]
        child_time: dict[int, float] = defaultdict(float)
        child_nodes: dict[int, int] = defaultdict(int)
        for span in spans:
            if span.parent >= first:
                child_time[span.parent] += span.end - span.start
                if span.layer in SEARCH_LAYERS and span.data is not None:
                    child_nodes[span.parent] += span.data[1].nodes_explored
        q: dict[str, float] = defaultdict(float)
        classes = set()
        for span in spans:
            ms_key, calls_key = LAYER_QUANTITIES[span.layer]
            q[ms_key] += (span.end - span.start - child_time[span.sid]) * 1000.0
            if calls_key:
                q[calls_key] += 1
            if span.data is None:
                continue
            args, result = span.data
            span.data = None
            if span.layer == "graphs.build":
                n = result.n_vertices
                q["graphs.vertices"] += n
                q["graphs.edges"] += result.edge_count()
                q["graphs.pairs"] += n * (n - 1) // 2
            elif span.layer in SEARCH_LAYERS:
                own = result.nodes_explored - child_nodes[span.sid]
                q[f"{span.layer}.nodes"] += own
                q["search_nodes"] += own
                if span.layer == "search.enum":
                    q["search.enum.optima"] += len(result.families)
            elif span.layer == "families.canonical":
                classes.add((result.m, result.k, result.kind, tuple(map(repr, result.members))))
            elif span.layer == "compression.shift":
                before = {a.counts for a in args[0].members}
                after = {a.counts for a in result.members}
                q["compression.moves"] += len(before - after)
                q["compression.shift_members"] += len(before)
        q["families.canonical_classes"] = len(classes)
        return dict(q)

    def write(self, path, origin: float) -> None:
        """Write every span as one JSON line, times in ms from `origin`."""
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.sid,
                    "name": s.name,
                    "layer": s.layer,
                    "parent": s.parent,
                    "start_ms": round((s.start - origin) * 1000.0, 4),
                    "end_ms": round((s.end - origin) * 1000.0, 4),
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, float], traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one batch from the summed per-item quantities.
    A ratio whose base is 0 (the layer does not run on this workload)
    reads 0."""
    t = defaultdict(float, totals)
    values = {key: t[key] for key in PER_LAYER_UNITS}
    values["graphs.ns_per_pair"] = _ratio(t["graphs.build_ms"] * 1e6, t["graphs.pairs"])
    for s in ("mis", "small_core", "clique_free", "bipartite"):
        values[f"search.{s}.us_per_node"] = _ratio(
            t[f"search.{s}.ms"] * 1000.0, t[f"search.{s}.nodes"]
        )
    values["families.class_ratio"] = _ratio(
        t["families.canonical_classes"], t["families.canonical_calls"]
    )
    values["compression.move_ratio"] = _ratio(
        t["compression.moves"], t["compression.shift_members"]
    )
    values["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    return {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER_UNITS.items()}


# the layers each workload was chosen to stress; their share of the traced
# batch time is reported next to the 0.75 target
STRESSED = {
    "search": [f"{layer}.ms" for layer in SEARCH_LAYERS],
    "graph-build": ["graphs.build_ms"],
    "uniqueness": ["families.canonical_ms"],
    "compression": [
        "compression.full_ms",
        "compression.pass_ms",
        "compression.shift_ms",
        "compression.check_ms",
        "core.predicate_ms",
    ],
}
STRESS_TARGET = 0.75
