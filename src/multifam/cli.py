"""Command-line front end.

Subcommands: size, construct, map, compress, search, verify, isomorphic,
suite.  Data goes to stdout, diagnostics to stderr.  Exit codes:

  0  success / verified
  1  verification mismatch, failed criterion, or isomorphism false
  2  usage or contract error (including malformed family files)
  3  scale guard or node limit exceeded

Text output contains no timings, so identical inputs give byte-identical
tables; JSON reports additionally carry elapsed_ms and nodes_explored.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import acceptance, families
from .bijection import BijectionContext, forward, inverse
from .compression import CompressionInvariantError, down_compress_full
from .core import MULTISET, SET, ContractError, Family, ScaleExceededError
from .family_io import ParseError, load_family, save_family
from .families import FamilySpec, build_family, family_size_formula, is_isomorphic
from .graphs import GRAPH_KINDS, KIND_MULTISET_DISJOINT, KIND_MULTISET_T, build_graph
from .search import (
    NODE_LIMIT_HIT,
    SearchResult,
    clique_free_search,
    induced_bipartite_search,
    max_independent_set,
    max_intersecting_empty_common,
    max_t_intersecting_nontrivial,
)
from .verify import STATUS_MISMATCH, STATUS_NODE_LIMIT, verify_theorem


def _print_table(rows: list[tuple[str, object]]) -> None:
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


def _parse_anchor(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ContractError(f"anchor must be a list of integers, got {text!r}") from None


def _family_spec(args) -> FamilySpec:
    return FamilySpec(
        name=args.family,
        m=args.m,
        k=args.k,
        t=args.t,
        r=args.r,
        s=args.s,
        anchor=_parse_anchor(args.anchor),
    )


def _cmd_size(args) -> int:
    spec = _family_spec(args)
    formula = family_size_formula(spec)
    enumerated: object = "-"
    try:
        enumerated = len(build_family(spec))
    except ScaleExceededError:
        pass  # too large a universe to walk: the closed form only
    else:
        if enumerated != formula:
            print(
                f"error: closed form {formula} disagrees with enumeration {enumerated}",
                file=sys.stderr,
            )
            return 1
    _print_table(
        [
            ("family", spec.name),
            ("params", _params_string(spec)),
            ("closed_form", formula),
            ("enumerated", enumerated),
        ]
    )
    return 0


def _params_string(spec: FamilySpec) -> str:
    parts = [f"m={spec.m}", f"k={spec.k}"]
    for flag, value in (("t", spec.t), ("r", spec.r), ("s", spec.s)):
        if value is not None:
            parts.append(f"{flag}={value}")
    if spec.anchor:
        parts.append("anchor=" + ",".join(map(str, spec.anchor)))
    return " ".join(parts)


def _cmd_construct(args) -> int:
    fam = build_family(_family_spec(args))
    save_family(fam, args.output)
    print(f"wrote {len(fam)} members to {args.output}", file=sys.stderr)
    return 0


def _cmd_map(args) -> int:
    fam = load_family(args.input)
    if args.direction == "forward":
        if fam.kind != SET:
            raise ContractError("forward mapping expects a kind=set family file")
        m = fam.m - fam.k + 1
        if m < 1:
            raise ContractError(f"n={fam.m} is too small for k={fam.k}: need n >= k")
        ctx = BijectionContext(m, fam.k)
        mapped = Family.of_multisets(m, fam.k, (forward(ctx, b) for b in fam.members))
    else:
        if fam.kind != MULTISET:
            raise ContractError("inverse mapping expects a kind=multiset family file")
        ctx = BijectionContext(fam.m, fam.k)
        mapped = Family.of_sets(ctx.n, fam.k, (inverse(ctx, a) for a in fam.members))
    if len(mapped) != len(fam):
        raise RuntimeError("internal error: mapping collapsed members")
    save_family(mapped, args.output)
    print(f"wrote {len(mapped)} members to {args.output}", file=sys.stderr)
    return 0


def _cmd_compress(args) -> int:
    fam = load_family(args.input)
    if fam.kind != MULTISET:
        raise ContractError("compression expects a kind=multiset family file")
    trace_records: list[dict] = []
    on_shift = trace_records.append if args.trace else None
    compressed = down_compress_full(fam, args.t, on_shift=on_shift)
    # the trace goes first, so an unusable --trace path leaves no output file
    if args.trace:
        with open(args.trace, "w") as handle:
            for record in trace_records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"wrote {len(trace_records)} shift records to {args.trace}", file=sys.stderr)
    save_family(compressed, args.output)
    print(f"wrote {len(compressed)} members to {args.output}", file=sys.stderr)
    return 0


def _search_result_rows(label: str, vertices: int, result: SearchResult) -> list[tuple[str, object]]:
    return [
        ("graph", label),
        ("vertices", vertices),
        ("optimum", result.optimum),
        ("status", result.status),
        ("nodes_explored", result.nodes_explored),
    ]


def _cmd_search(args) -> int:
    constraint = args.constraint
    if args.s is not None and constraint != "clique-free":
        raise ContractError("--s is read by --constraint clique-free only")
    kind, t = args.kind, 1 if args.t is None else args.t
    if constraint in ("empty-common", "nontrivial-t"):
        if kind not in (KIND_MULTISET_DISJOINT, KIND_MULTISET_T):
            # the small-core searches run on k-multisets only: another kind is another question
            raise ContractError(
                f"--constraint {constraint} searches k-multisets (--kind M or M_t), "
                f"got --kind {kind}"
            )
        if constraint == "empty-common" and t != 1:
            raise ContractError(f"--constraint empty-common is the t = 1 search, got --t {t}")
        if constraint == "nontrivial-t" and args.t is None:
            raise ContractError("--constraint nontrivial-t requires --t")
        kind = KIND_MULTISET_DISJOINT if constraint == "empty-common" else KIND_MULTISET_T
    graph = build_graph(kind, args.m, args.k, t)
    label = graph.label()
    if constraint == "empty-common":
        result = max_intersecting_empty_common(graph, args.node_limit)
        label += "+empty-common"
    elif constraint == "nontrivial-t":
        result = max_t_intersecting_nontrivial(graph, args.node_limit)
        label += "+nontrivial"
    elif constraint == "bipartite":
        result = induced_bipartite_search(graph, args.node_limit)
        label += "+bipartite"
    elif constraint == "clique-free":
        if args.s is None:
            raise ContractError("--constraint clique-free requires --s")
        result = clique_free_search(graph, args.s, args.node_limit)
        label += f"+P({args.s},1)"
    else:
        result = max_independent_set(graph, args.node_limit)

    rows = _search_result_rows(label, graph.n_vertices, result)
    # the files go first, so an unusable path leaves stdout empty
    if args.witness:
        save_family(result.witness, args.witness)
        print(f"wrote witness to {args.witness}", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(dict(rows), indent=2, sort_keys=True) + "\n")
    _print_table(rows)
    return 3 if result.status == NODE_LIMIT_HIT else 0


def _cmd_verify(args) -> int:
    params = {"m": args.m, "k": args.k}
    if args.t is not None:
        params["t"] = args.t
    if args.s is not None:
        params["s"] = args.s
    report = verify_theorem(
        args.theorem, params, node_limit=args.node_limit, uniqueness=args.uniqueness
    )
    # the report file goes first, so an unusable path leaves stdout empty
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
    _print_table(
        [
            ("theorem", report.theorem),
            ("params", " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))),
            ("analytic_bound", report.analytic_bound),
            ("constructed_size", report.constructed_size if report.constructed_size is not None else "-"),
            ("search_optimum", report.search_optimum),
            ("status", report.status),
            ("uniqueness", report.uniqueness_verdict),
            ("match", str(report.match).lower()),
        ]
    )
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    if report.status == STATUS_NODE_LIMIT:
        return 3
    if report.status == STATUS_MISMATCH:
        return 1
    return 0


def _cmd_isomorphic(args) -> int:
    fam1 = load_family(args.family1)
    fam2 = load_family(args.family2)
    verdict = is_isomorphic(fam1, fam2)
    print("isomorphic" if verdict else "not-isomorphic")
    return 0 if verdict else 1


def _cmd_suite(args) -> int:
    results = acceptance.run_profile(args.profile)
    # the report file goes first, so an unusable path leaves stdout empty
    if args.json:
        Path(args.json).write_text(
            json.dumps([asdict(res) for res in results], indent=2, sort_keys=True) + "\n"
        )
    failures = 0
    for res in results:
        mark = "pass" if res.passed else "FAIL"
        print(f"{res.cid:<6} {mark}  {res.detail}")
        print(f"{res.cid} finished in {res.elapsed_ms} ms", file=sys.stderr)
        if not res.passed:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 1 if failures else 0


def _add_family_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=families.FAMILY_NAMES)
    parser.add_argument("--m", type=int, required=True, help="ground size (n for set families)")
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--t", type=int)
    parser.add_argument("--r", type=int)
    parser.add_argument("--s", type=int)
    parser.add_argument("--anchor", help="comma-separated elements, e.g. 1,1 or 1,2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multifam",
        description="Exact verification of intersection bounds for multiset families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_size = sub.add_parser("size", help="closed-form and enumerated family sizes")
    _add_family_params(p_size)
    p_size.set_defaults(func=_cmd_size)

    p_construct = sub.add_parser("construct", help="write a named family to a file")
    _add_family_params(p_construct)
    p_construct.add_argument("-o", "--output", required=True)
    p_construct.set_defaults(func=_cmd_construct)

    p_map = sub.add_parser("map", help="apply the set/multiset bijection to a family file")
    p_map.add_argument("--direction", choices=("forward", "inverse"), required=True)
    p_map.add_argument("-i", "--input", required=True)
    p_map.add_argument("-o", "--output", required=True)
    p_map.set_defaults(func=_cmd_map)

    p_compress = sub.add_parser("compress", help="down-compress a t-intersecting family")
    p_compress.add_argument("-i", "--input", required=True)
    p_compress.add_argument("-t", type=int, required=True)
    p_compress.add_argument("-o", "--output", required=True)
    p_compress.add_argument("--trace", help="write one JSON record per shift to this path")
    p_compress.set_defaults(func=_cmd_compress)

    p_search = sub.add_parser("search", help="exact extremal search")
    p_search.add_argument("--kind", choices=GRAPH_KINDS, default=KIND_MULTISET_DISJOINT)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--t", type=int)
    p_search.add_argument("--s", type=int)
    p_search.add_argument(
        "--constraint",
        choices=("empty-common", "nontrivial-t", "bipartite", "clique-free"),
    )
    p_search.add_argument("--node-limit", type=int)
    p_search.add_argument("--json")
    p_search.add_argument("--witness", help="write the witness family to this path")
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="bound vs construction vs search for one theorem")
    p_verify.add_argument("--theorem", required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--t", type=int)
    p_verify.add_argument("--s", type=int)
    p_verify.add_argument("--uniqueness", action="store_true")
    p_verify.add_argument("--node-limit", type=int)
    p_verify.add_argument("--json")
    p_verify.set_defaults(func=_cmd_verify)

    p_iso = sub.add_parser("isomorphic", help="exit 0 iff two family files are isomorphic")
    p_iso.add_argument("family1")
    p_iso.add_argument("family2")
    p_iso.set_defaults(func=_cmd_isomorphic)

    p_suite = sub.add_parser("suite", help="run the acceptance criteria")
    p_suite.add_argument("--profile", choices=("quick", "full"), default="quick")
    p_suite.add_argument("--json")
    p_suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_info:
        return int(exit_info.code or 0)
    try:
        return args.func(args)
    except (ContractError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ScaleExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except CompressionInvariantError as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
