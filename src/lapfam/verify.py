"""Self-check battery over the two graph families.

Every claim the library is built around is re-verified here from scratch:
closed-form distances against BFS, diameter and radius formulas, agreement
of the three constructions of the d = 2 extended family, the eigenvalue
and eigenvector closed forms, gap-spectrum realization with its two-vertex
growth step, Rayleigh quotient identities, and resolving-set properties.
A condition a library function enforces itself (``Spectrum.gap``,
``realizability_step``, ``verify_eigenpairs``) is left to it.

Checks are "pass"/"fail"; probes outside the proven scope (large alphabets,
boundary cases, non-monotonicity examples) report as "info" so a battery
run distinguishes broken claims from merely unproven territory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate
from operator import and_, getitem, sub
from typing import Callable

from . import families
from .families import (
    aligned,
    expected_orders,
    resolver_graph_iterative,
    resolver_graph_step,
)
from .graphs import (
    Graph,
    _row,
    are_adjacency_equal,
    diameter,
    disjoint_union,
    eccentricities,
    radius,
)
from .linalg import _apply, _gather
from .metric import (
    SEARCH_VERTEX_LIMIT,
    is_outer_multiset_resolving,
    multiset_rep,
    outer_multiset_dimension,
)
from .spectra import (
    _band_sums,
    _eigenpairs,
    _quadratic_form,
    edge_partition_sums,
    eigenvalue_of_class,
    eigenvector_family,
    graph_spectrum,
    laplacian,
    rayleigh,
    realizability_step,
    realizes_gap_spectrum,
)

# c = 3 member of the extended family: Laplacian and eigenvector columns,
# frozen as regression constants.
_WORKED_LAPLACIAN = [
    [6, -1, -1, -1, -1, -1, -1],
    [-1, 5, -1, -1, -1, -1, 0],
    [-1, -1, 4, -1, -1, 0, 0],
    [-1, -1, -1, 3, 0, 0, 0],
    [-1, -1, -1, 0, 3, 0, 0],
    [-1, -1, 0, 0, 0, 2, 0],
    [-1, 0, 0, 0, 0, 0, 1],
]
_WORKED_EIGENVECTORS = [
    [-6, 0, 0, 0, 0, 0, 1],
    [1, -4, 0, 0, 0, -1, 1],
    [1, 1, -2, 0, -1, -1, 1],
    [1, 1, 1, -1, -1, -1, 1],
    [1, 1, 1, 1, -1, -1, 1],
    [1, 1, 0, 0, 3, -1, 1],
    [1, 0, 0, 0, 0, 5, 1],
]
# (rayleigh quotient, band sums) per eigenvector column, same order.
_WORKED_BANDS = [
    (7, (294, 0, 0)),
    (6, (20, 100, 0)),
    (5, (6, 6, 18)),
    (3, (2, 2, 2)),
    (2, (12, 12, 0)),
    (1, (30, 0, 0)),
    (0, (0, 0, 0)),
]


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass" | "fail" | "info"
    details: str
    elapsed: float


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(check.status != "fail" for check in self.checks)

    def render(self) -> str:
        width = max(len(check.name) for check in self.checks)
        lines = []
        for check in self.checks:
            lines.append(
                f"{check.status.upper():<4}  {check.name:<{width}}  "
                f"{check.elapsed:7.3f}s  {check.details}"
            )
        verdict = "all checks passed" if self.ok else "FAILURES PRESENT"
        lines.append(f"{len(self.checks)} checks: {verdict}")
        return "\n".join(lines)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run_verify(cmax: int = 8, dmax: int = 4) -> VerifyReport:
    if cmax < 1 or dmax < 1:
        raise ValueError(f"cmax and dmax must be positive: {cmax}, {dmax}")
    checks: list[Check] = []
    # One build per family member per run, so the checks share each graph,
    # its BFS levels and G+(2, c)'s gathered Laplacian rows; nothing outlives the call.
    combination_graph = cache(families.combination_graph)
    resolver_graph = cache(lambda d, c: families._with_resolvers(combination_graph(d, c), c))
    resolver_graph_indexed = cache(families.resolver_graph_indexed)
    laplacian_rows = cache(lambda c: _gather(laplacian(resolver_graph_indexed(c))))

    def run(name: str, fn: Callable[[], str], status: str = "pass") -> None:
        start = time.perf_counter()
        try:
            details = fn()
        except Exception as exc:
            status, details = "fail", f"{type(exc).__name__}: {exc}"
        checks.append(Check(name, status, details, time.perf_counter() - start))

    def order_formula() -> str:
        for d in range(1, dmax + 1):
            for c in range(1, cmax + 1):
                base, extended = expected_orders(d, c)
                _require(combination_graph(d, c).n == base, f"base order d={d} c={c}")
                _require(resolver_graph(d, c).n == extended, f"extended order d={d} c={c}")
        return f"orders match binomial counts for d<={dmax}, c<={cmax}"

    def distance_law() -> str:
        # Ball k of u (BFS levels 0..k) must be the AND over entries i of
        # near[k][i][t], the vertices whose entry i lies within k of u's entry
        # t.  Balls equal for k = 0..d-1, past every gap, make distances equal.
        pairs = 0
        for d in range(2, dmax + 1):
            for c in range(1, cmax + 1):
                g = combination_graph(d, c)
                labels = g.labels
                near = families._near(labels, d, range(d))
                for u, levels in enumerate(g.levels()):
                    ball = wrong = 0  # wrong: the vertices at a wrong distance from u
                    for k in range(d):
                        ball |= levels[k] if k < len(levels) else 0
                        wrong |= ball ^ reduce(and_, map(getitem, near[k], labels[u].seq))
                    if later := wrong >> (u + 1):  # name the first pair u < v
                        v = u + (later & -later).bit_length()
                        gap = max(map(abs, map(sub, labels[u].seq, labels[v].seq)))
                        raise AssertionError(
                            f"d={d} c={c}: dist({labels[u]},{labels[v]}) = "
                            f"{_row(levels, g.n)[v]} != {gap}"
                        )
                pairs += g.n * (g.n - 1) // 2
        return f"BFS distance equals max coordinate gap on {pairs} pairs"

    def diameter_radius() -> str:
        for d in range(1, dmax + 1):
            for c in range(1, cmax + 1):
                g = combination_graph(d, c)
                _require(diameter(g) == d - 1, f"diameter d={d} c={c}")
                _require(radius(g) == d // 2, f"radius d={d} c={c}")
        return f"diameter d-1 and radius floor(d/2) for d<={dmax}, c<={cmax}"

    def extended_diameter() -> str:
        for d in range(2, dmax + 1):
            for c in range(1, cmax + 1):
                _require(diameter(resolver_graph(d, c)) == d, f"d={d} c={c}")
        return f"extended family diameter is d for 2<=d<={dmax}, c<={cmax}"

    def star_case() -> str:
        for c in range(1, cmax + 1):
            g = resolver_graph(1, c)
            _require(g.edge_count == c, f"edge count c={c}")
            _require(g.degree(0) == c, f"hub degree c={c}")
            _require(diameter(g) == (1 if c == 1 else 2), f"diameter c={c}")
        return "alphabet-1 extended graphs are stars; diameter 2 (or 1), not d"

    def construction_agreement() -> str:
        # resolver_graph_iterative(c) is one step from resolver_graph_iterative(c - 1)
        chain = accumulate(
            range(cmax - 1), lambda g, _: resolver_graph_step(g), initial=resolver_graph_iterative(1)
        )
        for c, grown in enumerate(chain, 1):
            direct = aligned(resolver_graph(2, c))
            indexed = resolver_graph_indexed(c)
            iterative = aligned(grown)
            _require(direct.labels == indexed.labels, f"direct labels c={c}")
            _require(iterative.labels == indexed.labels, f"iterative labels c={c}")
            _require(are_adjacency_equal(direct, indexed), f"direct adjacency c={c}")
            _require(
                are_adjacency_equal(iterative, indexed), f"iterative adjacency c={c}"
            )
        return f"direct, indexed, and iterative constructions agree for c<={cmax}"

    def step_recursion() -> str:
        for c in range(2, cmax + 1):
            grown = aligned(resolver_graph_step(resolver_graph(2, c - 1)))
            _require(
                are_adjacency_equal(grown, resolver_graph_indexed(c)),
                f"step from c={c - 1}",
            )
        return f"two-vertex growth step reproduces each member up to c={cmax}"

    def step_needs_join() -> str:
        prev = resolver_graph(2, 1)
        loose = disjoint_union(Graph(1), disjoint_union(Graph(1), prev))
        try:
            eccentricities(loose)
        except Exception:
            return (
                "growth step must join the new degree-2c vertex to everything; "
                "a plain disjoint union is disconnected"
            )
        raise AssertionError("disjoint-union variant is unexpectedly connected")

    def eigenpairs() -> str:
        orders = [_eigenpairs(laplacian_rows(c), c).n for c in range(1, cmax + 1)]
        return f"exact eigenpairs and full-rank bases for n in {orders}"

    def spectrum_gap() -> str:
        for c in range(1, cmax + 1):
            spec = graph_spectrum(resolver_graph_indexed(c))
            _require(spec.gap == c + 1, f"spectrum c={c}: {spec.pairs}")
        return f"spectrum is 0..2c+1 minus c+1, all simple, for c<={cmax}"

    def realizability_chain() -> str:
        # each step checks that its input realizes the gap: check the last graph
        h = resolver_graph_indexed(1)
        for c in range(2, cmax + 1):
            h = realizability_step(h, c, 2 * c - 1)
        _require(realizes_gap_spectrum(h, cmax + 1), f"chain step to c={cmax}")
        return f"growth step carries the spectrum gap from 2 up to {cmax + 1}"

    def rayleigh_identities() -> str:
        for c in range(1, cmax + 1):
            rows = laplacian_rows(c)
            for r, x in enumerate(zip(*eigenvector_family(c))):
                lam = eigenvalue_of_class(c, r)
                quad, norm2 = _quadratic_form(rows, x)
                if quad != lam * norm2:
                    raise AssertionError(f"quotient c={c} r={r}")
                if sum(_band_sums(c, x)) != lam * norm2:
                    raise AssertionError(f"band total c={c} r={r}: {edge_partition_sums(c, x)}")
        return f"rayleigh quotients and band sums match eigenvalues for c<={cmax}"

    def worked_example() -> str:
        g = resolver_graph_indexed(3)
        _require(laplacian(g) == _WORKED_LAPLACIAN, "laplacian mismatch")
        _require(eigenvector_family(3) == _WORKED_EIGENVECTORS, "eigenvectors mismatch")
        for r, (rho, bands) in enumerate(_WORKED_BANDS):
            x = [_WORKED_EIGENVECTORS[i][r] for i in range(7)]
            _require(rayleigh(_WORKED_LAPLACIAN, x) == rho, f"quotient r={r}")
            got = tuple(edge_partition_sums(3, x))
            _require(got == bands, f"bands r={r}: {got}")
        return "7-vertex member reproduces frozen matrices, quotients, band sums"

    def kernel_support() -> str:
        for c in range(1, cmax + 1):
            _require(any(_apply(laplacian_rows(c), [1] * (2 * c) + [0])), f"truncated vector c={c}")
        return (
            "kernel is spanned by the constant vector on all 2c+1 vertices; "
            "a vector constant on all but one vertex is not in it"
        )

    def outer_resolving() -> str:
        # The designed set fails for d >= 4 with c >= 2 (see resolver-shortcut
        # below), so assert only where the property actually holds.
        dtop = min(dmax, 4)
        ctop = min(cmax, 4)
        points = []
        for d in range(2, dtop + 1):
            for c in range(1, ctop + 1):
                if d >= 4 and c >= 2:
                    continue
                g = resolver_graph(d, c)
                resolvers = tuple(range(g.n - c, g.n))
                _require(
                    is_outer_multiset_resolving(g, resolvers),
                    f"resolver set d={d} c={c}",
                )
                points.append((d, c))
        return (
            "appended resolver vertices outer-resolve at "
            + ", ".join(f"({d},{c})" for d, c in points)
        )

    def resolver_shortcut() -> str:
        g = resolver_graph(4, 2)
        labels = [str(lab) for lab in g.labels]
        x, y = labels.index("13"), labels.index("14")
        resolvers = tuple(range(g.n - 2, g.n))
        mx = multiset_rep(g, x, resolvers)
        my = multiset_rep(g, y, resolvers)
        _require(mx == my == (1, 3), f"expected colliding (1,3), got {mx} and {my}")
        _require(
            not is_outer_multiset_resolving(g, resolvers),
            "designed set unexpectedly resolves d=4 c=2",
        )
        return (
            "for alphabet 4, length 2 the designed set stops resolving: "
            "13 and 14 share multiset {1,3} because every vertex with a 1 "
            "reaches any resolver in at most 3 hops through the first one"
        )

    def dimension_search_check() -> str:
        dims = []
        for d in range(2, min(dmax, 4) + 1):
            for c in range(1, min(cmax, 4) + 1):
                g = resolver_graph(d, c)
                if g.n > SEARCH_VERTEX_LIMIT:
                    continue
                size, witness = outer_multiset_dimension(g)
                _require(
                    is_outer_multiset_resolving(g, witness),
                    f"witness fails d={d} c={c}",
                )
                dims.append((d, c, size))
        return "minimal outer sets found and re-verified: " + ", ".join(
            f"dim(d={d},c={c})={s}" for d, c, s in dims
        )

    def outer_non_monotone() -> str:
        p4 = Graph.path(4)
        _require(is_outer_multiset_resolving(p4, (0,)), "endpoint set on P4")
        _require(
            not is_outer_multiset_resolving(p4, (0, 3)),
            "both endpoints on P4 unexpectedly resolve",
        )
        return (
            "outer resolution is not superset-monotone: on the 4-path one "
            "endpoint resolves but both endpoints together do not"
        )

    def large_alphabet_spectra() -> str:
        outcomes = []
        for d, c in ((3, 1), (3, 2), (3, 3), (4, 2)):
            spec = graph_spectrum(resolver_graph(d, c))
            verdict = "integral" if spec.integral else f"{spec.residual_degree} non-integral"
            outcomes.append(f"(d={d},c={c}): {verdict}")
        return "alphabets above 2 stay out of scope; " + "; ".join(outcomes)

    run("order-formula", order_formula)
    run("distance-law", distance_law)
    run("diameter-radius", diameter_radius)
    # No later check reads G(d, c): free those graphs and their BFS levels
    # before the extended family's are computed (lower peak memory).
    combination_graph.cache_clear()
    run("extended-diameter", extended_diameter)
    run("star-case", star_case, status="info")
    run("construction-agreement", construction_agreement)
    run("step-recursion", step_recursion)
    run("step-needs-join", step_needs_join, status="info")
    run("eigenpairs", eigenpairs)
    run("spectrum-gap", spectrum_gap)
    run("realizability-chain", realizability_chain)
    run("rayleigh-identities", rayleigh_identities)
    run("worked-example", worked_example)
    run("kernel-support", kernel_support, status="info")
    run("outer-resolving", outer_resolving)
    if dmax >= 4:
        run("resolver-shortcut", resolver_shortcut, status="info")
    run("dimension-search", dimension_search_check)
    run("outer-non-monotone", outer_non_monotone, status="info")
    run("large-alphabet-spectra", large_alphabet_spectra, status="info")
    return VerifyReport(tuple(checks))
