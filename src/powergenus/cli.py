"""Command-line surface: build groups, export power graphs, run the genus
search, classify, and reproduce the summary tables and lemma checks.

Exit codes: 0 success/exact, 2 bounds-only, 1 error (usage errors included).
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone

from . import catalog as cat
from . import classifier as cls
from .embed import certificate_to_text, verify_certificate
from .errors import PowerGenusError
from .genus import Budget, crosscap_exact, genus_exact
from .groups import (FiniteGroup, center, count_involutions, order_spectrum,
                     six_profile)
from .powergraph import from_edge_list, power_graph, to_dot, to_edge_list

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUNDS = 2


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _shared_flags():
    """Parent parsers for the flags that more than one command reads: search
    budgets, output style, catalog override and timestamp header."""
    budget, style, catalog, stamp = (argparse.ArgumentParser(add_help=False)
                                     for _ in range(4))
    budget.add_argument("--budget-nodes", type=int, default=100_000_000,
                        metavar="N", help="search node cap")
    budget.add_argument("--budget-seconds", type=float, default=math.inf,
                        metavar="S", help="search time cap (default: none)")
    style.add_argument("--format", choices=("text", "records"), default="text",
                       help="output style")
    catalog.add_argument("--catalog", metavar="PATH",
                         help="override the built-in group catalog")
    stamp.add_argument("--no-timestamp", action="store_true",
                       help="omit the generated-at header")
    return budget, style, catalog, stamp


def _budget(args) -> Budget:
    if args.budget_nodes < 1 or args.budget_seconds <= 0:
        raise PowerGenusError("budget caps must be positive")
    return Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)


def _entries(args):
    if args.catalog:
        with open(args.catalog) as fh:
            return cat.from_text(fh.read())
    return cat.entries()


def _catalog_groups(args):
    """The active catalog's groups by order, then label; the built-in ones
    come through ``catalog.get``, as the classifier's catalog matches do,
    so each is built once."""
    ents = _entries(args)
    return (cat.build_recipe(e.label, ents)
            for e in sorted(ents, key=lambda e: (e.expected_order, e.label)))


def _emit(args, lines) -> None:
    if not args.no_timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        print(f"# generated {stamp}")
    for ln in lines:
        print(ln)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_group_info(args) -> int:
    g = cat.build_recipe(args.group, _entries(args))
    spectrum = order_spectrum(g)
    six = six_profile(g)
    label = g.label or args.group
    if args.format == "records":
        _emit(args, [f"label={label} order={g.order} spectrum={spectrum} "
                     f"six={six} involutions={count_involutions(g)} "
                     f"center={len(center(g))}"])
    else:
        _emit(args, [f"group:        {label}",
                     f"order:        {g.order}",
                     f"spectrum:     {spectrum}",
                     f"six-profile:  {six}",
                     f"involutions:  {count_involutions(g)}",
                     f"center size:  {len(center(g))}"])
    return EXIT_OK


def cmd_powergraph(args) -> int:
    g = cat.build_recipe(args.group, _entries(args))
    graph = power_graph(g)
    text = to_dot(graph) if args.dot else to_edge_list(graph)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        _emit(args, [f"wrote {graph.n} vertices / {graph.m} edges "
                     f"to {args.output}"])
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_genus(args) -> int:
    with open(args.edgefile) as fh:
        graph = from_edge_list(fh.read())
    run = crosscap_exact if args.nonorientable else genus_exact
    res = run(graph, _budget(args))
    name = "crosscap" if args.nonorientable else "genus"
    lines = []
    if res.kind == "exact":
        lines.append(f"{name} exact {res.value}")
    else:
        lines.append(f"{name} bounds {res.lower} {res.upper}")
    lc = res.lower_certificate
    lines.append(f"lower: {lc.get('method')} = {lc.get('value')}")
    uc = res.upper_certificate
    if args.certificate and uc.get("method") == "embedding" \
            and uc.get("trace") is not None:
        with open(args.certificate, "w") as fh:
            fh.write(certificate_to_text(graph, uc["rotation"], uc["trace"]))
        lines.append(f"certificate: {args.certificate}")
    _emit(args, lines)
    return EXIT_OK if res.kind == "exact" else EXIT_BOUNDS


def _verdict_lines(args, label: str, g: FiniteGroup, v) -> list[str]:
    if args.format == "records":
        return [cls.verdict_record(label, g, v)]
    lines = [f"group: {label} (order {g.order})"]
    extra = f" (Table 1 label {v.table1_label})" if v.table1_label else ""
    why = [f" ({r})" if r else "" for r in (v.orientable_reason, v.nonorientable_reason)]
    lines.append(f"orientable:    {v.orientable}{extra}{why[0]}")
    lines.append(f"nonorientable: {v.nonorientable}{why[1]}")
    lines.append("trail:")
    lines.extend(f"  {s.rule_id}: {s.conclusion}" for s in v.trail)
    return lines


def cmd_classify(args) -> int:
    if args.all_catalog:
        lines = []
        for g in _catalog_groups(args):
            v = cls.classify(g)
            if args.format == "records":
                lines.append(cls.verdict_record(g.label, g, v))
            else:
                extra = f" [{v.table1_label}]" if v.table1_label else ""
                lines.append(f"{g.label:12s} order {g.order:3d}  "
                             f"orientable={v.orientable}{extra}  "
                             f"nonorientable={v.nonorientable}")
        _emit(args, lines)
        return EXIT_OK
    g = cat.build_recipe(args.group, _entries(args))
    v = cls.classify(g)
    _emit(args, _verdict_lines(args, g.label or args.group, g, v))
    return EXIT_OK


def cmd_report(args) -> int:
    if args.target == "lemma":
        if not args.rule:
            raise PowerGenusError("report lemma requires a rule id")
        r = cls.verify_lemma(args.rule)
        status = "PASS" if r.passed else "FAIL"
        _emit(args, [f"{status}: {len(r.witnesses)} witnesses in {r.scanned} "
                     f"groups scanned",
                     f"check: {r.detail}"]
                    + [f"witness: {w}" for w in r.witnesses])
        return EXIT_OK if r.passed else EXIT_ERROR

    rows = []
    for g in _catalog_groups(args):
        spectrum = str(order_spectrum(g))
        if args.target == "table1":
            if cls.classify(g).orientable == "two":
                rows.append(f"{g.label:10s} {g.order:3d}  {spectrum}")
        elif cls.satisfies_table2(g):  # table2: the three-subgroup condition
            rows.append(f"{g.label:10s} {g.order:3d}  {spectrum:14s} "
                        "six=3 pairwise3=yes")
    _emit(args, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.certfile) as fh:
        ok, msg = verify_certificate(fh.read())
    _emit(args, [msg])
    return EXIT_OK if ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    budget, style, catalog, stamp = _shared_flags()
    p = argparse.ArgumentParser(prog="powergenus",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("group-info", parents=[style, catalog, stamp],
                       help="order, spectrum, six-profile of a group")
    s.add_argument("group", help="catalog label or recipe expression")
    s.set_defaults(func=cmd_group_info)

    s = sub.add_parser("powergraph", parents=[catalog, stamp],
                       help="export a power graph")
    s.add_argument("group")
    s.add_argument("--dot", action="store_true",
                   help="DOT output (default: edge list)")
    s.add_argument("--output", "-o", metavar="PATH")
    s.set_defaults(func=cmd_powergraph)

    s = sub.add_parser("genus", parents=[budget, stamp],
                       help="exact genus search on an edge-list file")
    s.add_argument("edgefile")
    s.add_argument("--nonorientable", action="store_true",
                   help="nonorientable genus (crosscap; default: orientable)")
    s.add_argument("--certificate", metavar="PATH",
                   help="write the embedding certificate here")
    s.set_defaults(func=cmd_genus)

    s = sub.add_parser("classify", parents=[style, catalog, stamp],
                       help="genus verdict with certificate trail")
    s.add_argument("group", nargs="?")
    s.add_argument("--all-catalog", action="store_true")
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("report", parents=[catalog, stamp],
                       help="reproduce the result tables and lemma checks")
    s.add_argument("target", choices=("table1", "table2", "lemma"))
    s.add_argument("rule", nargs="?", help="rule id for 'lemma'")
    s.set_defaults(func=cmd_report)

    s = sub.add_parser("verify", parents=[stamp],
                       help="re-trace an embedding certificate")
    s.add_argument("certfile")
    s.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_ERROR if exc.code else EXIT_OK
    if args.command == "classify" and not args.all_catalog and not args.group:
        print("error: classify needs a group or --all-catalog", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except (PowerGenusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
