"""Command-line front end.

Subcommands: ``gen`` (emit a family member in graph6/DOT/edge-list/JSON),
``spectrum`` (exact Laplacian spectrum report), ``dimension`` (exact
resolving-set search), ``verify`` (the full self-check battery).

Family specs use the grammar ``g:d,c`` and ``gplus:d,c[:construction]``
with construction one of direct, iterative, indexed (the latter two are
defined for d = 2 only).  Commands that accept a graph also take a file
path holding graph6 or csv edge-list data.

Exit codes: 0 success, 1 verification failure, 2 usage error or an input
too large for memory.  Unbounded integers in JSON output (characteristic
polynomial coefficients, eigenvalues) are decimal strings so exactness
survives serialization.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .families import (
    combination_graph,
    resolver_graph,
    resolver_graph_indexed,
    resolver_graph_iterative,
)
from .formats import read_graph_auto, write_dot, write_edgelist, write_graph6
from .graphs import Graph
from .metric import SEARCH_VERTEX_LIMIT, SearchExhausted, dimension_search
from .spectra import integral_spectrum, laplacian
from .verify import run_verify

_CONSTRUCTIONS = ("direct", "iterative", "indexed")


@dataclass(frozen=True)
class FamilySpec:
    family: str  # "g" | "gplus"
    d: int
    c: int
    construction: str = "direct"

    def __post_init__(self):
        if self.family not in ("g", "gplus"):
            raise ValueError(f"family must be g or gplus: {self.family!r}")
        if self.d < 1 or self.c < 1:
            raise ValueError(f"d and c must be positive: d={self.d}, c={self.c}")
        if self.construction not in _CONSTRUCTIONS:
            raise ValueError(f"construction must be one of {_CONSTRUCTIONS}")
        if self.construction != "direct" and (self.family != "gplus" or self.d != 2):
            raise ValueError(
                f"construction {self.construction!r} is defined only for gplus with d=2"
            )


def parse_family_spec(text: str) -> FamilySpec:
    """Parse ``g:d,c`` or ``gplus:d,c[:construction]``."""
    parts = text.strip().split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad family spec {text!r}: want g:d,c or gplus:d,c[:construction]")
    family = parts[0].lower()
    numbers = parts[1].split(",")
    if len(numbers) != 2:
        raise ValueError(f"bad family spec {text!r}: want two comma-separated integers")
    try:
        d, c = (int(p) for p in numbers)
    except ValueError:
        raise ValueError(f"bad family spec {text!r}: d and c must be integers") from None
    construction = parts[2].lower() if len(parts) == 3 else "direct"
    return FamilySpec(family, d, c, construction)


def build_graph(spec: FamilySpec) -> Graph:
    if spec.family == "g":
        return combination_graph(spec.d, spec.c)
    if spec.construction == "iterative":
        return resolver_graph_iterative(spec.c)
    if spec.construction == "indexed":
        return resolver_graph_indexed(spec.c)
    return resolver_graph(spec.d, spec.c)


def _load_graph(text: str) -> Graph:
    """A family spec, or a path to a graph6 / edge-list file."""
    try:
        return build_graph(parse_family_spec(text))
    except ValueError as spec_err:
        path = Path(text)
        if path.is_file():
            return read_graph_auto(path.read_text())
        raise ValueError(f"{spec_err}; and no file named {text!r} exists") from None


def _graph_json(g: Graph) -> str:
    labels = g.labels
    payload = {
        "n": g.n,
        "edges": [[u + 1, v + 1] for u, v in g.edges()],
        "labels": None
        if labels is None
        else [None if lab is None else str(lab) for lab in labels],
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_gen(args: argparse.Namespace) -> int:
    g = build_graph(parse_family_spec(args.spec))
    if args.format == "graph6":
        text = write_graph6(g) + "\n"
    elif args.format == "dot":
        text = write_dot(g)
    elif args.format == "edgelist":
        text = write_edgelist(g)
    else:
        text = _graph_json(g)
    _emit(text, args.out)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    spec = integral_spectrum(laplacian(g))
    payload = {
        "n": g.n,
        "edges": g.edge_count,
        "charpoly": [str(coeff) for coeff in spec.charpoly],
        "eigenvalues": [
            {"value": str(lam), "multiplicity": mult} for lam, mult in spec.pairs
        ],
        "integral": spec.integral,
        "distinct": spec.distinct,
        "realizes_S": spec.gap,
        "residual_degree": spec.residual_degree,
        "moduli": spec.moduli,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_dimension(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    start = time.perf_counter()
    # The result and the exhaustion error both carry the work counters.
    try:
        outcome = dimension_search(
            g, args.kind, args.max_size, allow_large=args.allow_large
        )
        size, witness = outcome
    except SearchExhausted as exc:
        outcome, size, witness = exc, None, None
    elapsed = time.perf_counter() - start
    labels = g.labels
    payload = {
        "kind": args.kind,
        "n": g.n,
        "dimension": size,
        "witness": None if witness is None else [v + 1 for v in witness],
        "witness_labels": None
        if witness is None or labels is None
        else [str(labels[v]) if labels[v] is not None else None for v in witness],
        "exhausted": witness is None,
        "max_size": args.max_size,
        "subsets_tested": outcome.subsets_tested,
        "pruned": outcome.pruned,
        "elapsed": round(elapsed, 6),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(cmax=args.cmax, dmax=args.dmax)
    if args.json:
        payload = {
            "ok": report.ok,
            "cmax": args.cmax,
            "dmax": args.dmax,
            "checks": [
                {
                    "name": check.name,
                    "status": check.status,
                    "details": check.details,
                    "elapsed": round(check.elapsed, 6),
                }
                for check in report.checks
            ],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(report.render() + "\n")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapfam",
        description="Exact spectra and resolving sets of combination graphs.",
    )
    parser.add_argument("--seed", type=int, default=None, help="reserved; ignored")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a family member")
    gen.add_argument("spec", help="family spec, e.g. g:4,3 or gplus:2,3:indexed")
    gen.add_argument(
        "--format",
        choices=("graph6", "dot", "edgelist", "json"),
        default="graph6",
    )
    gen.add_argument("--out", default=None, help="output file (default stdout)")
    gen.set_defaults(func=cmd_gen)

    spectrum = sub.add_parser("spectrum", help="exact Laplacian spectrum report")
    spectrum.add_argument("input", help="family spec or graph file")
    spectrum.add_argument("--out", default=None)
    spectrum.set_defaults(func=cmd_spectrum)

    dimension = sub.add_parser("dimension", help="smallest resolving set, by exact search")
    dimension.add_argument("input", help="family spec or graph file")
    dimension.add_argument(
        "--kind", choices=("outer", "multiset", "vector"), default="outer"
    )
    dimension.add_argument("--max-size", type=int, default=None)
    dimension.add_argument(
        "--allow-large",
        action="store_true",
        help=f"search graphs past the {SEARCH_VERTEX_LIMIT}-vertex safety cap",
    )
    dimension.add_argument("--out", default=None)
    dimension.set_defaults(func=cmd_dimension)

    verify = sub.add_parser("verify", help="run the self-check battery")
    verify.add_argument("--cmax", type=int, default=8)
    verify.add_argument("--dmax", type=int, default=4)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"lapfam: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("lapfam: error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
