"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  All checks
are exact integer or rational comparisons (zero tolerance); the only
tolerances anywhere are the wall-clock budgets in criteria 1, 2 and 7.

Criterion 9 asserts the boundary of the designed resolver set w1..wc over
its full range d in {2,3,4}, c in {1..4}.  Take a graph of diameter D with
C(D+c-1, c) + c vertices and an outer multiset resolving set S of c >= 2
vertices.  The outer vertices then carry every size-c multiset over {1..D}
exactly once, so:

1. the vertex with multiset {1,...,1} is adjacent to all of S, so the
   members of S are pairwise at distance at most 2;
2. by the triangle inequality, any vertex's distances to two members of S
   differ by at most 2;
3. the vertex with multiset {1, D,...,D} has distances differing by D-1,
   so D - 1 <= 2 and D <= 3.

gplus(d,c) has diameter d (criterion 7), so w1..wc outer-resolves exactly
where d <= 3 or c = 1, and the outer multiset dimension is c there and
larger than c at d = 4, c >= 2.  In gplus(4,2), every vertex with a one is
within 3 of both resolvers, which are at distance 2 from each other, and
the sequences 13 and 14 both have resolver multiset {1, 3}.  See also the
regression tests in test_metric.py.
"""

import time
from contextlib import contextmanager

from conftest import CORPUS
from helpers import cofactor_charpoly
from lapfam import (
    Graph,
    all_pairs_distances,
    aligned,
    are_adjacency_equal,
    char_poly,
    combination_graph,
    combination_labels,
    diameter,
    dimension_search,
    disjoint_union,
    edge_partition_sums,
    eigenvalue_of_class,
    eigenvector_family,
    expected_orders,
    integral_spectrum,
    is_outer_multiset_resolving,
    join,
    laplacian,
    multiset_rep,
    radius,
    rayleigh,
    realizability_step,
    realizes_gap_spectrum,
    resolver_graph,
    resolver_graph_indexed,
    resolver_graph_iterative,
    resolver_graph_step,
    verify_eigenpairs,
)


@contextmanager
def criterion(label):
    info = {}
    try:
        yield info
    except BaseException:
        note = f" ({info['note']})" if "note" in info else ""
        print(f"{label}: FAIL{note}")
        raise
    note = f" ({info['note']})" if "note" in info else ""
    print(f"{label}: PASS{note}")


def gap_pairs(c):
    return tuple((lam, 1) for lam in range(2 * c + 1, -1, -1) if lam != c + 1)


GOLD_LAPLACIAN_C3 = [
    [6, -1, -1, -1, -1, -1, -1],
    [-1, 5, -1, -1, -1, -1, 0],
    [-1, -1, 4, -1, -1, 0, 0],
    [-1, -1, -1, 3, 0, 0, 0],
    [-1, -1, -1, 0, 3, 0, 0],
    [-1, -1, 0, 0, 0, 2, 0],
    [-1, 0, 0, 0, 0, 0, 1],
]
GOLD_EIGENVECTORS_C3 = [
    [-6, 0, 0, 0, 0, 0, 1],
    [1, -4, 0, 0, 0, -1, 1],
    [1, 1, -2, 0, -1, -1, 1],
    [1, 1, 1, -1, -1, -1, 1],
    [1, 1, 1, 1, -1, -1, 1],
    [1, 1, 0, 0, 3, -1, 1],
    [1, 0, 0, 0, 0, 5, 1],
]
GOLD_RAYLEIGH_C3 = [
    (7, [294, 0, 0]),
    (6, [20, 100, 0]),
    (5, [6, 6, 18]),
    (3, [2, 2, 2]),
    (2, [12, 12, 0]),
    (1, [30, 0, 0]),
    (0, [0, 0, 0]),
]


def test_criterion_01_small_member_spectrum():
    with criterion("criterion-01 small-member-spectrum") as info:
        start = time.perf_counter()
        spec = integral_spectrum(laplacian(resolver_graph(2, 3)))
        elapsed = time.perf_counter() - start
        assert spec.integral
        assert spec.pairs == ((7, 1), (6, 1), (5, 1), (3, 1), (2, 1), (1, 1), (0, 1))
        info["note"] = f"{elapsed:.3f}s, budget 1s"
        assert elapsed < 1.0


def test_criterion_02_spectrum_range():
    with criterion("criterion-02 spectrum-range") as info:
        start = time.perf_counter()
        for c in range(1, 13):
            spec = integral_spectrum(laplacian(resolver_graph(2, c)))
            assert spec.integral, f"c={c} not fully integral"
            assert spec.pairs == gap_pairs(c), f"c={c} spectrum mismatch"
            assert spec.distinct
        elapsed = time.perf_counter() - start
        info["note"] = f"c=1..12, {elapsed:.2f}s, budget 30s"
        assert elapsed < 30.0


def test_criterion_03_eigenpair_verification():
    with criterion("criterion-03 eigenpair-verification") as info:
        for c in range(1, 13):
            report = verify_eigenpairs(c)
            assert report.n == 2 * c + 1
            assert report.rank == report.n
            assert report.eigenvalues == tuple(
                eigenvalue_of_class(c, r) for r in range(report.n)
            )
        info["note"] = "c=1..12, exact L x = lambda x and full rank"


def test_criterion_04_worked_matrices():
    with criterion("criterion-04 worked-matrices"):
        assert laplacian(resolver_graph_indexed(3)) == GOLD_LAPLACIAN_C3
        assert eigenvector_family(3) == GOLD_EIGENVECTORS_C3


def test_criterion_05_rayleigh_table():
    with criterion("criterion-05 rayleigh-table"):
        lap = laplacian(resolver_graph_indexed(3))
        for r, (rho, bands) in enumerate(GOLD_RAYLEIGH_C3):
            x = [GOLD_EIGENVECTORS_C3[i][r] for i in range(7)]
            if rho == 0:
                assert rayleigh(lap, x) == 0
            else:
                assert rayleigh(lap, x) == rho
            assert edge_partition_sums(3, x) == bands


def test_criterion_06_order_formulas():
    with criterion("criterion-06 order-formulas"):
        for d in range(1, 7):
            for c in range(1, 7):
                base, extended = expected_orders(d, c)
                assert combination_graph(d, c).n == base
                assert len(combination_labels(d, c)) == base
                assert resolver_graph(d, c).n == extended
        assert expected_orders(4, 3) == (20, 23)
        assert expected_orders(2, 6) == (7, 13)


def test_criterion_07_metric_laws():
    with criterion("criterion-07 metric-laws") as info:
        start = time.perf_counter()
        for d in range(2, 6):
            for c in range(1, 5):
                g = combination_graph(d, c)
                dist = all_pairs_distances(g)
                for u in range(g.n):
                    for v in range(g.n):
                        law = max(
                            abs(a - b)
                            for a, b in zip(g.labels[u].seq, g.labels[v].seq)
                        ) if u != v else 0
                        assert dist[u][v] == law, (d, c, u, v)
                assert diameter(g) == d - 1, (d, c)
                assert radius(g) == d // 2, (d, c)
                assert diameter(resolver_graph(d, c)) == d, (d, c)
        elapsed = time.perf_counter() - start
        info["note"] = f"d=2..5, c=1..4, {elapsed:.2f}s, budget 60s"
        assert elapsed < 60.0


def test_criterion_08_construction_agreement():
    with criterion("criterion-08 construction-agreement"):
        for c in range(1, 11):
            direct = aligned(resolver_graph(2, c))
            indexed = resolver_graph_indexed(c)
            iterative = aligned(resolver_graph_iterative(c))
            assert direct.labels == indexed.labels == iterative.labels
            assert are_adjacency_equal(direct, indexed)
            assert are_adjacency_equal(iterative, indexed)
        for c in range(2, 11):
            prev = resolver_graph(2, c - 1)
            bare = join(Graph(1), disjoint_union(Graph(1), prev))
            stepped = resolver_graph_step(prev)
            assert are_adjacency_equal(bare, stepped)
            assert aligned(stepped).labels == resolver_graph_indexed(c).labels
            assert are_adjacency_equal(aligned(stepped), resolver_graph_indexed(c))


def test_criterion_09_resolver_sets():
    with criterion("criterion-09 resolver-sets") as info:
        members = [(d, c) for d in (2, 3, 4) for c in (1, 2, 3, 4)]
        # the counting argument in the module docstring rules w1..wc out as
        # an outer multiset resolving set exactly at d >= 4 with c >= 2
        proven_failures = [(d, c) for d, c in members if d >= 4 and c >= 2]
        # search clause: every member within the search cap terminates with
        # a witness that re-verifies, of size c exactly where the designed
        # set resolves (the order C(d+c-1, c) + c leaves no room for fewer)
        for d, c in members:
            g = resolver_graph(d, c)
            if g.n > 24:
                continue
            size, witness = dimension_search(g, kind="outer")
            assert is_outer_multiset_resolving(g, witness), (d, c)
            assert size == len(witness)
            if (d, c) in proven_failures:
                assert size > c, (d, c, size)
            else:
                assert size == c, (d, c, size)
        # designed-set clause: asserted over the full stated range
        failures = []
        for d, c in members:
            g = resolver_graph(d, c)
            resolvers = tuple(range(g.n - c, g.n))
            if not is_outer_multiset_resolving(g, resolvers):
                failures.append((d, c))
        g = resolver_graph(4, 2)
        resolvers = tuple(range(g.n - 2, g.n))
        names = {str(lab): v for v, lab in enumerate(g.labels)}
        reps = [multiset_rep(g, names[s], resolvers) for s in ("13", "14")]
        info["note"] = (
            f"designed set fails at {failures}; e.g. in gplus(4,2) the "
            "sequences 13 and 14 have resolver multisets "
            + " and ".join("{" + ", ".join(map(str, r)) + "}" for r in reps)
        )
        assert failures == proven_failures, info["note"]
        assert reps == [(1, 3), (1, 3)], info["note"]


def test_criterion_10_gap_spectrum_chain():
    with criterion("criterion-10 gap-spectrum-chain"):
        for c in range(1, 11):
            assert realizes_gap_spectrum(resolver_graph(2, c), c + 1), c
        for c in range(2, 9):
            prev = resolver_graph(2, c - 1)
            grown = realizability_step(prev, c, 2 * c - 1)
            assert realizes_gap_spectrum(grown, c + 1), c
            spec = integral_spectrum(laplacian(grown))
            want = integral_spectrum(laplacian(resolver_graph_indexed(c)))
            assert spec.pairs == want.pairs, c


def test_criterion_11_charpoly_oracle():
    with criterion("criterion-11 charpoly-oracle") as info:
        count = 0
        for name in sorted(CORPUS):
            lap = laplacian(CORPUS[name])
            assert char_poly(lap) == cofactor_charpoly(lap), name
            count += 1
        info["note"] = f"{count} graphs, n <= 6"
