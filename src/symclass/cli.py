"""Command-line entry point.

Subcommands: construct, classify, autgroup, iso, verify-paper, report.
JSON is the contract format (sorted keys, no timestamps in report bodies;
per-claim runtime_ms is a sidecar field excluded from determinism checks).
Errors exit nonzero with a machine-readable code on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import families
from .autgroup import automorphism_group, is_isomorphic
from .claims import CLAIM_DESCRIPTIONS, CLAIM_IDS, Budget, table_row_reports, verify_claim
from .classify import classify_pair
from .errors import DegreeMismatch, ParameterError, ParseError, SymclassError
from .graph6 import decode_graph6, decode_graph6_lines, encode_graph6
from .graphs import Graph
from .group import PermutationGroup, format_generator_file, parse_generator_file
from .subgroups import SUBGROUP_ORDER_CAP

_BUDGET_ENV = "SYMCLASS_BUDGET"

# family-aware group aliases: the natural action on the family's vertices when
# the abstract degree does not match the vertex count
_CONTEXT_GROUPS = {
    ("icosahedron", "alt5"): families.icosahedral_rotations,
    ("icosahedron", "sym2xalt5"): families.icosahedral,
    ("octahedron", "sym2wrsym3"): families.octahedral,
    ("petersen", "sym5"): families.petersen_sym5,
}


def _budget_from_args(args) -> Budget:
    text, source = args.budget, "--budget"
    if text is None:
        text, source = os.environ.get(_BUDGET_ENV), _BUDGET_ENV
        if not text:
            return Budget()
    try:
        cap = int(text)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ParameterError(f"{source} must be a positive integer, got {text!r}")
    return Budget(subgroup_order_cap=cap)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def parse_edge_list(text: str) -> Graph:
    """Edge-list format: an optional ``vertices N`` header, then one
    ``u v`` pair per 0-indexed line; blank lines and ``#`` comments ignored."""
    n = None
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None and not edges and parts[0] == "vertices":
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(f"line {lineno}: expected 'vertices N', got {raw!r}")
            n = int(parts[1])
            continue
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ParseError(f"line {lineno}: expected an edge 'u v', got {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        top = max(top, u, v)
        edges.append((u, v))
    return Graph(top + 1 if n is None else n, edges)


def _load_graph(args) -> tuple[Graph, str, object]:
    """Resolve the graph source; returns (graph, description, family_or_None)."""
    if getattr(args, "family", None):
        key = args.family.strip().lower()
        _, names = families.GRAPH_FAMILIES.get(key, (None, ()))
        params = []
        for flag in names:
            value = getattr(args, flag, None)
            if value is None:
                raise ParameterError(f"family {key!r} needs --{flag}")
            params.append(value)
        fam = families.build_graph(args.family, *params)
        return fam.graph, fam.name, fam
    if getattr(args, "graph6", None):
        return decode_graph6(args.graph6), "graph6 input", None
    if getattr(args, "graph_file", None):
        with open(args.graph_file, "r", encoding="utf-8") as handle:
            graphs = decode_graph6_lines(handle.read())
        if len(graphs) != 1:
            raise ParameterError(
                f"{args.graph_file} holds {len(graphs)} graphs; classify needs exactly one")
        return graphs[0], args.graph_file, None
    if getattr(args, "edge_file", None):
        with open(args.edge_file, "r", encoding="utf-8") as handle:
            return parse_edge_list(handle.read()), args.edge_file, None
    raise ParameterError(
        "no graph source given (use --family, --graph6, --graph-file or --edge-file)")


def _load_group(args, graph: Graph, family) -> tuple[PermutationGroup, str]:
    if getattr(args, "group_file", None):
        with open(args.group_file, "r", encoding="utf-8") as handle:
            group = parse_generator_file(handle.read())
        return group, args.group_file
    spec = getattr(args, "group", None)
    if spec is None:
        raise ParameterError("no group source given (use --group or --group-file)")
    key = spec.strip().lower().replace(" ", "")
    if family is not None and (family.name.split("(")[0], key) in _CONTEXT_GROUPS:
        return _CONTEXT_GROUPS[(family.name.split("(")[0], key)](), spec
    group = families.build_group(spec)
    if group.degree != graph.n:
        raise DegreeMismatch(
            f"group {spec!r} has degree {group.degree} but the graph has "
            f"{graph.n} vertices")
    return group, spec


# -- subcommands -------------------------------------------------------------


def _cmd_construct(args) -> int:
    fam = families.build_graph(args.family, *(args.params or []))
    if args.with_group:
        # the family's group is order-checked by its first chain; build it
        # before anything is printed
        fam.symmetry_group().order()
    if args.format == "graph6":
        print(encode_graph6(fam.graph))
    elif args.format == "edges":
        print(f"vertices {fam.graph.n}")
        for u, v in fam.graph.edges():
            print(f"{u} {v}")
    else:
        _emit({
            "name": fam.name,
            "vertices": fam.graph.n,
            "edges": fam.graph.edges(),
            "labels": [str(label) for label in fam.labels],
            "graph6": encode_graph6(fam.graph),
        })
    if args.with_group:
        sys.stdout.write(format_generator_file(fam.symmetry_group()))
    return 0


def _human_report(report_dict: dict, graph_name: str, group_name: str) -> str:
    graph = report_dict["graph"]
    lines = [
        f"graph: {graph_name}  vertices: {graph['vertices']}  "
        f"valency: {graph['valency']}  girth: {graph['girth']}  "
        f"diameter: {graph['diameter']}",
        f"group: {group_name} (order {report_dict['group']['order']})",
        f"vertex-transitive: {'yes' if report_dict['vertex_transitive'] else 'no'}",
    ]
    for s in ("1", "2"):
        flag = report_dict["distance_transitive"][s]
        lines.append(f"(G,{s})-distance transitive: {'yes' if flag else 'no'}"
                     + ("" if flag else f"  (not (G,{s})-distance transitive)"))
    for s in ("1", "2"):
        flag = report_dict["arc_transitive"][s]
        lines.append(f"(G,{s})-arc transitive: {'yes' if flag else 'no'}")
    gt = report_dict["two_geodesic_transitive"]
    lines.append("2-geodesic transitive: "
                 + ("n/a (complete graph)" if gt is None else ("yes" if gt else "no")))
    row = report_dict["matched_row"]
    lines.append(f"catalog row: {row if row else '-'}")
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    graph, graph_name, family = _load_graph(args)
    if graph.n == 0:
        raise ParameterError("classification needs at least one vertex")
    group, group_name = _load_group(args, graph, family)
    report = classify_pair(graph, group).to_dict()
    if args.human:
        print(_human_report(report, graph_name, group_name))
    else:
        _emit(report)
    return 0


def _cmd_autgroup(args) -> int:
    graph = decode_graph6(args.graph6)
    group = automorphism_group(graph)
    _emit({
        "order": group.order(),
        "generators": [g.cycle_string() for g in group.generators],
        "vertices": graph.n,
    })
    return 0


def _cmd_iso(args) -> int:
    g1 = decode_graph6(args.graph6_a)
    g2 = decode_graph6(args.graph6_b)
    result = is_isomorphic(g1, g2)
    _emit({
        "isomorphic": result.isomorphic,
        "witness": list(result.mapping) if result.mapping is not None else None,
    })
    return 0


def _timed_claims(claims, budget: Budget, describe: bool) -> list:
    """One entry per claim, in catalog order: the verdict, its description
    when ``describe`` is set, and the ``runtime_ms`` sidecar."""
    results = []
    for claim in claims:
        started = time.perf_counter()
        verdict = verify_claim(claim, budget)
        entry = verdict.to_dict()
        entry["runtime_ms"] = int((time.perf_counter() - started) * 1000)
        if describe:
            entry["description"] = CLAIM_DESCRIPTIONS[verdict.claim]
        results.append(entry)
    results.sort(key=lambda e: CLAIM_IDS.index(e["claim"]))
    return results


def _claims_hold(results: list) -> bool:
    return all(e["status"] in ("verified", "skipped") for e in results)


def _cmd_verify_paper(args) -> int:
    claims = list(CLAIM_IDS) if args.all or not args.claims else args.claims
    results = _timed_claims(claims, _budget_from_args(args), describe=True)
    _emit({"claims": results})
    return 0 if _claims_hold(results) else 1


def _cmd_report(args) -> int:
    claims = _timed_claims(CLAIM_IDS, _budget_from_args(args), describe=False)
    rows = [{"row": name, "valency": valency, "girth": girth_expected,
             "matched": report.matched_row == name}
            for name, valency, girth_expected, report in table_row_reports()]
    _emit({"claims": claims, "table_rows": rows})
    return 0 if _claims_hold(claims) and all(r["matched"] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symclass",
        description="Classify (graph, group) pairs by 2-distance/2-arc/2-geodesic "
                    "transitivity and verify the built-in claim catalog.")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="emit a named graph family")
    construct.add_argument("family")
    construct.add_argument("params", nargs="*", type=int)
    construct.add_argument("--format", choices=("graph6", "edges", "json"),
                           default="graph6")
    construct.add_argument("--with-group", action="store_true",
                           help="also emit the canonical symmetry generators")
    construct.set_defaults(func=_cmd_construct)

    classify = sub.add_parser("classify", help="classify a (graph, group) pair")
    classify.add_argument("--family")
    classify.add_argument("--n", type=int)
    classify.add_argument("--m", type=int)
    classify.add_argument("--d", type=int)
    classify.add_argument("--q", type=int)
    classify.add_argument("--graph6")
    classify.add_argument("--graph-file")
    classify.add_argument("--edge-file")
    classify.add_argument("--group")
    classify.add_argument("--group-file")
    classify.add_argument("--human", action="store_true",
                          help="print the table-style summary instead of JSON")
    classify.set_defaults(func=_cmd_classify)

    aut = sub.add_parser("autgroup", help="automorphism group of a graph6 graph")
    aut.add_argument("graph6")
    aut.set_defaults(func=_cmd_autgroup)

    iso = sub.add_parser("iso", help="isomorphism test for two graph6 graphs")
    iso.add_argument("graph6_a")
    iso.add_argument("graph6_b")
    iso.set_defaults(func=_cmd_iso)

    verify = sub.add_parser("verify-paper",
                            help="run claim verifiers from the built-in catalog")
    verify.add_argument("claims", nargs="*")
    verify.add_argument("--all", action="store_true")
    verify.add_argument("--budget",
                        help="subgroup-enumeration order cap (default "
                             f"{SUBGROUP_ORDER_CAP}, or ${_BUDGET_ENV})")
    verify.set_defaults(func=_cmd_verify_paper)

    report = sub.add_parser("report",
                            help="full verdict suite plus the catalog row checks")
    report.add_argument("--budget")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SymclassError as exc:
        json.dump({"error": {"code": exc.code, "message": str(exc)}},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1
    except OSError as exc:
        json.dump({"error": {"code": "io-error", "message": str(exc)}},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
