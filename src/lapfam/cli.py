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
from typing import Callable

from .families import (
    combination_graph,
    expected_orders,
    resolver_graph,
    resolver_graph_indexed,
    resolver_graph_iterative,
)
from .formats import read_graph_auto, write_dot, write_edgelist, write_graph6
from .graphs import Graph
from .metric import SEARCH_VERTEX_LIMIT, SearchExhausted, dimension_search
from .metric import _KINDS, _check_search
from .spectra import integral_spectrum, laplacian
from .verify import run_verify

# gplus builders by construction, "direct" (the default) the only one for
# d != 2.  Like _WRITERS, each looks its function up by name when called,
# so a patched binding (a test's, or perfbench's tracer) is the one that runs.
_BUILDERS = {
    "direct": lambda d, c: resolver_graph(d, c),
    "iterative": lambda d, c: resolver_graph_iterative(c),
    "indexed": lambda d, c: resolver_graph_indexed(c),
}
_CONSTRUCTIONS = tuple(_BUILDERS)


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
    return _BUILDERS[spec.construction](spec.d, spec.c)


def _load_graph(text: str, admit: Callable[[int], None] | None = None) -> Graph:
    """A family spec, or a path to a graph6 / edge-list file.  ``admit``
    sees a family member's closed-form order before the member is built."""
    try:
        spec = parse_family_spec(text)
    except ValueError as spec_err:
        path = Path(text)
        if path.is_file():
            return read_graph_auto(path.read_text())
        raise ValueError(f"{spec_err}; and no file named {text!r} exists") from None
    if admit is not None:
        base, extended = expected_orders(spec.d, spec.c)
        admit(extended if spec.family == "gplus" else base)
    return build_graph(spec)


def _graph_json(g: Graph) -> dict:
    labels = g.labels
    return {
        "n": g.n,
        "edges": [[u + 1, v + 1] for u, v in g.edges()],
        "labels": None
        if labels is None
        else [None if lab is None else str(lab) for lab in labels],
    }


# gen's output formats
_WRITERS = {
    "graph6": lambda g: write_graph6(g) + "\n",
    "dot": lambda g: write_dot(g),
    "edgelist": lambda g: write_edgelist(g),
    "json": _graph_json,
}


def _emit(report: str | dict, out: str | None = None) -> None:
    """Write text, or a JSON report, to ``out`` (stdout when None)."""
    text = report if isinstance(report, str) else json.dumps(report, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_gen(args: argparse.Namespace) -> int:
    g = build_graph(parse_family_spec(args.spec))
    _emit(_WRITERS[args.format](g), args.out)
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
    _emit(payload, args.out)
    return 0


def cmd_dimension(args: argparse.Namespace) -> int:
    # A family spec past the search cap is refused before it is built.
    g = _load_graph(
        args.input, lambda n: _check_search(n, args.max_size, args.allow_large)
    )
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
    _emit(payload, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(cmax=args.cmax, dmax=args.dmax)
    if args.json:
        checks = [
            {
                "name": check.name,
                "status": check.status,
                "details": check.details,
                "elapsed": round(check.elapsed, 6),
            }
            for check in report.checks
        ]
        _emit({"ok": report.ok, "cmax": args.cmax, "dmax": args.dmax, "checks": checks})
    else:
        _emit(report.render() + "\n")
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
    gen.add_argument("--format", choices=tuple(_WRITERS), default="graph6")
    gen.add_argument("--out", default=None, help="output file (default stdout)")

    spectrum = sub.add_parser("spectrum", help="exact Laplacian spectrum report")
    spectrum.add_argument("input", help="family spec or graph file")
    spectrum.add_argument("--out", default=None)

    dimension = sub.add_parser("dimension", help="smallest resolving set, by exact search")
    dimension.add_argument("input", help="family spec or graph file")
    dimension.add_argument("--kind", choices=_KINDS, default="outer")
    dimension.add_argument("--max-size", type=int, default=None)
    dimension.add_argument(
        "--allow-large",
        action="store_true",
        help=f"search graphs past the {SEARCH_VERTEX_LIMIT}-vertex safety cap",
    )
    dimension.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="run the self-check battery")
    verify.add_argument("--cmax", type=int, default=8)
    verify.add_argument("--dmax", type=int, default=4)
    verify.add_argument("--json", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # looked up when it runs, so a patched handler is the one called
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"lapfam: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("lapfam: error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
