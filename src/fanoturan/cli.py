"""Command line front end.

Verbs: construct (named families), check (pattern containment in a file),
search (extremal boundary values), verify (registered claims with
certificates), multigraph (layer-multigraph tools).  Exit codes: 0 pass or
found, 1 fail or not found, 2 bad usage or malformed input, 3 a request
beyond configured capability limits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import CapabilityError, FormatError, ParameterError, VerificationError
from .fano import DetectionMethod, find_clique, find_fano_edges
from .hypergraph import FAMILIES, Hypergraph, construct, format_text, from_json_dict, parse_text, to_json_dict
from .multigraph import (
    PMultigraph,
    extremal_4multigraph,
    f4_formula,
    f5_lower_constructions,
    has_three_crossing_pairs,
    max_edges_no_crossing,
)
from .search import CLAIM_ORDER, CLAIMS, LONG_RUN_CLAIMS, max_fano_free_edges, run_claim


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def _load_hypergraph(path: str) -> Hypergraph:
    text = _read_input(path)
    if text.lstrip().startswith("{"):
        return from_json_dict(_parse_json(text))
    return parse_text(text)


def _emit(fmt: str, payload: object, text_lines: list[str]) -> str:
    """A command's report: payload as indented JSON, or its text lines.

    The one place the command line chooses between its two formats.
    """
    if fmt == "json":
        return json.dumps(payload, indent=2)
    return "\n".join(text_lines)


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _cmd_construct(args: argparse.Namespace) -> int:
    h = construct(args.family, args.n)
    _write_output(_emit(args.format, to_json_dict(h), [format_text(h)]), args.output)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args: argparse.Namespace) -> int:
    h = _load_hypergraph(args.file)
    pattern = args.pattern
    results: dict[str, dict] = {}
    if pattern == "fano":
        methods = list(DetectionMethod) if args.method == "all" else [DetectionMethod(args.method)]
        verdicts = set()
        for m in methods:
            edges = find_fano_edges(h, m)
            found = edges is not None
            verdicts.add(found)
            witness = list(map(list, edges)) if found else None
            results[m.value] = {"found": found, "witness": witness}
        if len(verdicts) != 1:
            print("error: detection methods disagree", file=sys.stderr)
            print(json.dumps(results, indent=2), file=sys.stderr)
            return 1
        found = verdicts.pop()
    else:
        k = int(pattern[1])
        clique = find_clique(h, k)
        found = clique is not None
        results[pattern] = {"found": found, "witness": list(clique) if clique else None}
    payload = {"pattern": pattern, "n": h.n, "edges": h.edge_count, "found": found,
               "methods": results}
    lines = [f"pattern={pattern} found={str(found).lower()}"]
    lines += [f"  {name}: {res['witness'] if res['found'] else 'no witness'}"
              for name, res in results.items()]
    print(_emit(args.format, payload, lines))
    return 0 if found else 1


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _cmd_search(args: argparse.Namespace) -> int:
    value, classes = max_fano_free_edges(args.n, long_run=args.long_run)
    payload = {
        "n": args.n,
        "max_edges": value,
        "extremal_classes": [to_json_dict(f) for f in classes],
    }
    lines = [f"n={args.n} max_edges={value} classes={len(classes)}"]
    for f in classes:
        lines += [format_text(f).rstrip(), ""]
    print(_emit(args.format, payload, lines))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def emit_report(certs: list[dict], fmt: str) -> str:
    """Render a list of certificate dicts as a text table or JSON array."""
    lines = [f"{'claim':<16} {'verdict':<8} {'space':>12} {'visited':>12} {'elapsed':>10}"]
    for c in certs:
        lines.append(
            f"{c['claim']:<16} {c['verdict']:<8} {c['space']:>12} {c['visited']:>12}"
            f" {c['elapsed_ms']:>8}ms"
        )
        if c["verdict"] == "fail":
            lines.append(f"  witness: {json.dumps(c['witnesses'][0])}")
    npass = sum(1 for c in certs if c["verdict"] == "pass")
    lines.append(f"summary: {npass} passed, {len(certs) - npass} failed")
    return _emit(fmt, certs, lines if certs else ["no claims run"])


def _cmd_verify(args: argparse.Namespace) -> int:
    requested: list[str] = []
    for name in args.claims:
        if name == "all":
            requested.extend(c.id for c in CLAIMS if args.long_run or not c.long_run)
        elif name in CLAIM_ORDER:
            requested.append(name)
        else:
            print(
                f"error: unknown claim {name!r}; valid ids: {', '.join(CLAIM_ORDER)} (or all)",
                file=sys.stderr,
            )
            return 2
    claims = list(dict.fromkeys(requested))

    # jobs is an upper bound on worker processes; the claims run in this one
    # process, which meets every bound, so it is only checked
    jobs = args.jobs
    if jobs is None:
        env = os.environ.get("FANOTURAN_JOBS", "1")
        try:
            jobs = int(env)
        except ValueError:
            raise ParameterError(f"FANOTURAN_JOBS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")
    if args.checkpoint is not None and LONG_RUN_CLAIMS.isdisjoint(claims):
        print(
            f"note: --checkpoint is unused: only {', '.join(sorted(LONG_RUN_CLAIMS))} writes one",
            file=sys.stderr,
        )
    gated = [c for c in claims if c in LONG_RUN_CLAIMS and not args.long_run]
    certs = []
    # a long-run claim refuses before any work without long_run, so running
    # it alone stops the run before any other claim starts
    for claim in gated[:1] or claims:
        try:
            cert = run_claim(claim, seed=args.seed, long_run=args.long_run, checkpoint_path=args.checkpoint)
        except VerificationError as exc:
            cert = exc.certificate
        except CapabilityError as exc:
            print(f"capability: {claim}: {exc}", file=sys.stderr)
            return 3
        certs.append(cert.to_json_dict())
    print(emit_report(certs, args.format))
    return 0 if all(c["verdict"] == "pass" for c in certs) else 1


# ---------------------------------------------------------------------------
# multigraph
# ---------------------------------------------------------------------------

def _emit_multigraph(fmt: str, fields: dict, g: PMultigraph) -> str:
    """fields as key=value lines, then g's JSON on one line; or all as one object."""
    graph = g.to_json_dict()
    lines = [f"{k}={v}" for k, v in fields.items()] + [json.dumps(graph)]
    return _emit(fmt, {**fields, "multigraph": graph}, lines)


def _cmd_extremal4(args: argparse.Namespace) -> int:
    g = extremal_4multigraph(args.n)
    fields = {"edge_total": g.edge_total(), "formula": f4_formula(args.n)}
    print(_emit_multigraph(args.format, fields, g))
    return 0


def _cmd_constructions(args: argparse.Namespace) -> int:
    built = f5_lower_constructions(args.n)
    constructions = [{"total": total, "multigraph": g.to_json_dict()} for g, total in built]
    lines = [f"n={args.n} totals={tuple(c['total'] for c in constructions)}"]
    lines += [json.dumps(c["multigraph"]) for c in constructions]
    print(_emit(args.format, {"n": args.n, "constructions": constructions}, lines))
    return 0


def _cmd_multigraph_search(args: argparse.Namespace) -> int:
    value, g = max_edges_no_crossing(
        args.p, args.n, node_budget=args.node_budget, long_run=args.long_run
    )
    print(_emit_multigraph(args.format, {"p": args.p, "n": args.n, "max_edges": value}, g))
    return 0


def _cmd_multigraph_check(args: argparse.Namespace) -> int:
    g = PMultigraph.from_json_dict(_parse_json(_read_input(args.file)))
    w = has_three_crossing_pairs(g)
    if w is None:
        print("crossing=none")
        return 1
    print(f"crossing quad={list(w.quad)} layers={list(w.layers)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanoturan",
        description="Exact verification toolkit for plane-free hypergraph extremal facts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named hypergraph family member")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="test a hypergraph file for a pattern")
    p.add_argument("file", help="input path, or - for stdin")
    p.add_argument("--pattern", choices=("fano", "k4", "k5", "k6"), default="fano")
    p.add_argument(
        "--method",
        choices=(*(m.value for m in DetectionMethod), "all"),
        default="embedding",
        help="plane detection method (fano pattern only)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="exact extremal boundary search")
    searchsub = p.add_subparsers(dest="target", required=True)
    pe = searchsub.add_parser("ex", help="maximum plane-free edge count")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--long-run", action="store_true")
    pe.add_argument("--format", choices=("text", "json"), default="text")
    pe.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run registered claims and report certificates")
    p.add_argument("claims", nargs="+", metavar="claim", help="claim ids, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None, help="upper bound on worker processes (env FANOTURAN_JOBS)")
    p.add_argument("--long-run", action="store_true", help="include budget-gated claims")
    p.add_argument("--format", choices=("text", "json"), default="text")
    long_runs = ", ".join(c.id for c in CLAIMS if c.long_run)
    p.add_argument("--checkpoint", default=None, help=f"checkpoint file for the {long_runs} scan")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("multigraph", help="layer multigraph tools")
    msub = p.add_subparsers(dest="action", required=True)
    pm = msub.add_parser("extremal4", help="the extremal 4-layer construction")
    pm.add_argument("n", type=int)
    pm.add_argument("--format", choices=("text", "json"), default="text")
    pm.set_defaults(func=_cmd_extremal4)
    pm = msub.add_parser("constructions", help="the two 5-layer lower bound constructions")
    pm.add_argument("n", type=int)
    pm.add_argument("--format", choices=("text", "json"), default="text")
    pm.set_defaults(func=_cmd_constructions)
    pm = msub.add_parser("search", help="exact crossing-free maximum")
    pm.add_argument("--p", type=int, required=True)
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--node-budget", type=int, default=200_000_000)
    pm.add_argument("--long-run", action="store_true")
    pm.add_argument("--format", choices=("text", "json"), default="text")
    pm.set_defaults(func=_cmd_multigraph_search)
    pm = msub.add_parser("check", help="report a three-crossing-pair witness")
    pm.add_argument("file", help="multigraph JSON path, or - for stdin")
    pm.set_defaults(func=_cmd_multigraph_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, OSError) as exc:  # an unreadable or unwritable path is bad usage
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        note = f" (best_found={exc.best_found})" if exc.best_found is not None else ""
        print(f"capability: {exc}{note}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
