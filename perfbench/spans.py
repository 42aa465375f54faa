"""Layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of each lapfam layer module
and rebinds the wrapper under every name a lapfam module resolves it
through (``metric.all_pairs_distances``, ``spectra.linalg.nullity`` via the
module object, ``cli.integral_spectrum`` imported by name, ...).
``restore`` puts the originals back.  Spans live in memory as
[name, start, end, parent, job, raised, value] and are aggregated into the
per-layer metrics by ``layer_metrics``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from math import comb
from pathlib import Path

LAYERS = ("cli", "families", "formats", "graphs", "linalg", "spectra", "metric", "verify")

# verify.py check names, in battery order.
VERIFY_CHECKS = (
    "order-formula",
    "distance-law",
    "diameter-radius",
    "extended-diameter",
    "star-case",
    "construction-agreement",
    "step-recursion",
    "step-needs-join",
    "eigenpairs",
    "spectrum-gap",
    "realizability-chain",
    "rayleigh-identities",
    "worked-example",
    "kernel-support",
    "outer-resolving",
    "resolver-shortcut",
    "dimension-search",
    "outer-non-monotone",
    "large-alphabet-spectra",
)

WRITES = ("formats.write_graph6", "formats.write_dot", "formats.write_edgelist")
READS = ("formats.read_graph6", "formats.read_edgelist", "formats.read_graph_auto")


def _lex_rank(n: int, subset: tuple[int, ...]) -> int:
    """Position of a sorted k-subset of range(n) in lexicographic order."""
    k = len(subset)
    rank, prev = 0, -1
    for i, w in enumerate(subset):
        for v in range(prev + 1, w):
            rank += comb(n - 1 - v, k - 1 - i)
        prev = w
    return rank


def _search_space(args, kwargs, result, raised):
    """Subsets a size-ascending lexicographic search visits up to its answer."""
    g = args[0]
    max_size = args[2] if len(args) > 2 else kwargs.get("max_size")
    if raised:
        cap = g.n if max_size is None else min(max_size, g.n)
        return sum(comb(g.n, s) for s in range(cap + 1))
    size, witness = result
    return sum(comb(g.n, s) for s in range(size)) + _lex_rank(g.n, witness) + 1


def _text_bytes(args, kwargs, result, raised):
    return 0 if raised else len(result)


def _read_bytes(args, kwargs, result, raised):
    return len(args[0] if args else kwargs["text"])


# Work counted at a span boundary: function name -> value(args, kwargs, result, raised).
OBSERVERS = {
    "linalg.char_poly": lambda args, kwargs, result, raised: len(args[0]),
    "linalg.nullity": lambda args, kwargs, result, raised: 0 if raised else result,
    "metric.dimension_search": _search_space,
    **{name: _text_bytes for name in WRITES},
    **{name: _read_bytes for name in READS},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, False, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if observe is not None:
                    rec[6] = observe(args, kwargs, result, rec[5])

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"lapfam.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "lapfam" and not modname.startswith("lapfam."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "job", "raised", "value")
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _outermost(spans, members) -> list[list]:
    """Spans in ``members`` with no ancestor that is also in ``members``."""
    out = []
    for rec in spans:
        if not members(rec[0]):
            continue
        parent = rec[3]
        while parent >= 0 and not members(spans[parent][0]):
            parent = spans[parent][3]
        if parent < 0:
            out.append(rec)
    return out


def _busy(spans, members) -> float:
    return sum(rec[2] - rec[1] for rec in _outermost(spans, members))


def layer_metrics(spans: list[list], passes: int, verify_elapsed: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics, as totals per traced pass of the job list."""
    children = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]] += rec[2] - rec[1]
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, rec in enumerate(spans):
        self_time[rec[0]] = self_time.get(rec[0], 0.0) + rec[2] - rec[1] - children[i]
        calls[rec[0]] = calls.get(rec[0], 0) + 1

    def of_layer(layer):
        return lambda name: name.split(".", 1)[0] == layer

    def named(*names):
        return lambda name: name in names

    def values(name):
        return [rec[6] for rec in spans if rec[0] == name]

    out: dict[str, float] = {}
    for layer in LAYERS:
        members = of_layer(layer)
        out[f"{layer}.calls"] = sum(c for name, c in calls.items() if members(name))
        out[f"{layer}.busy_s"] = _busy(spans, members)
        out[f"{layer}.self_s"] = sum(t for name, t in self_time.items() if members(name))
        out[f"{layer}.errors"] = sum(1 for rec in _outermost(spans, members) if rec[5])

    nullities = values("linalg.nullity")
    searches = [rec for rec in spans if rec[0] == "metric.dimension_search"]
    out["linalg.char_poly.busy_s"] = _busy(spans, named("linalg.char_poly"))
    out["linalg.char_poly.order"] = sum(values("linalg.char_poly"))
    out["linalg.nullity.calls"] = len(nullities)
    out["linalg.nullity.busy_s"] = _busy(spans, named("linalg.nullity"))
    out["spectra.integral_spectrum.self_s"] = self_time.get("spectra.integral_spectrum", 0.0)
    out["spectra.laplacian.busy_s"] = _busy(spans, named("spectra.laplacian"))
    out["metric.dimension_search.busy_s"] = _busy(spans, named("metric.dimension_search"))
    out["metric.dimension_search.calls"] = len(searches)
    out["metric.search_space"] = sum(rec[6] for rec in searches)
    out["graphs.all_pairs_distances.calls"] = calls.get("graphs.all_pairs_distances", 0)
    out["graphs.all_pairs_distances.busy_s"] = _busy(spans, named("graphs.all_pairs_distances"))
    out["graphs.bfs_distances.calls"] = calls.get("graphs.bfs_distances", 0)
    out["families.combination_graph.busy_s"] = _busy(spans, named("families.combination_graph"))
    out["families.resolver_graph.busy_s"] = _busy(spans, named("families.resolver_graph"))
    out["formats.write.busy_s"] = _busy(spans, named(*WRITES))
    out["formats.read.busy_s"] = _busy(spans, named(*READS))
    out["formats.bytes"] = sum(
        rec[6] for rec in _outermost(spans, named(*WRITES, *READS))
    )
    for check in VERIFY_CHECKS:
        out[f"verify.check.{check}.elapsed_s"] = verify_elapsed.get(check, 0.0)
    out = {name: value / passes for name, value in out.items()}
    # Ratios are not per pass.
    out["linalg.nullity.useful_ratio"] = (
        sum(1 for v in nullities if v) / len(nullities) if nullities else 0.0
    )
    out["metric.found_ratio"] = (
        sum(1 for rec in searches if not rec[5]) / len(searches) if searches else 0.0
    )
    return out
