import sys
from collections import Counter
from dataclasses import replace

import pytest

from helpers import masks
from lapfam import (
    Check,
    Graph,
    VerifyReport,
    eigenvector_family,
    laplacian,
    resolver_graph_indexed,
    run_verify,
)
from lapfam import families, graphs, linalg, spectra
from lapfam import verify as verify_module

EXPECTED_AT_SMALL_RANGE = [
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
    "dimension-search",
    "outer-non-monotone",
    "large-alphabet-spectra",
]


# Every check's (name, status, details) at two ranges, frozen so that a
# change to the battery that should not alter its output is seen to keep it.
PINNED_OUTPUT = {
    (8, 4): [
        ("order-formula", "pass", "orders match binomial counts for d<=4, c<=8"),
        ("distance-law", "pass", "BFS distance equals max coordinate gap on 29028 pairs"),
        ("diameter-radius", "pass", "diameter d-1 and radius floor(d/2) for d<=4, c<=8"),
        ("extended-diameter", "pass", "extended family diameter is d for 2<=d<=4, c<=8"),
        ("star-case", "info", "alphabet-1 extended graphs are stars; diameter 2 (or 1), not d"),
        ("construction-agreement", "pass", "direct, indexed, and iterative constructions agree for c<=8"),
        ("step-recursion", "pass", "two-vertex growth step reproduces each member up to c=8"),
        ("step-needs-join", "info", "growth step must join the new degree-2c vertex to everything; a plain disjoint union is disconnected"),
        ("eigenpairs", "pass", "exact eigenpairs and full-rank bases for n in [3, 5, 7, 9, 11, 13, 15, 17]"),
        ("spectrum-gap", "pass", "spectrum is 0..2c+1 minus c+1, all simple, for c<=8"),
        ("realizability-chain", "pass", "growth step carries the spectrum gap from 2 up to 9"),
        ("rayleigh-identities", "pass", "rayleigh quotients and band sums match eigenvalues for c<=8"),
        ("worked-example", "pass", "7-vertex member reproduces frozen matrices, quotients, band sums"),
        ("kernel-support", "info", "kernel is spanned by the constant vector on all 2c+1 vertices; a vector constant on all but one vertex is not in it"),
        ("outer-resolving", "pass", "appended resolver vertices outer-resolve at (2,1), (2,2), (2,3), (2,4), (3,1), (3,2), (3,3), (3,4), (4,1)"),
        ("resolver-shortcut", "info", "for alphabet 4, length 2 the designed set stops resolving: 13 and 14 share multiset {1,3} because every vertex with a 1 reaches any resolver in at most 3 hops through the first one"),
        ("dimension-search", "pass", "minimal outer sets found and re-verified: dim(d=2,c=1)=1, dim(d=2,c=2)=2, dim(d=2,c=3)=3, dim(d=2,c=4)=4, dim(d=3,c=1)=1, dim(d=3,c=2)=2, dim(d=3,c=3)=3, dim(d=3,c=4)=4, dim(d=4,c=1)=1, dim(d=4,c=2)=3, dim(d=4,c=3)=7"),
        ("outer-non-monotone", "info", "outer resolution is not superset-monotone: on the 4-path one endpoint resolves but both endpoints together do not"),
        ("large-alphabet-spectra", "info", "alphabets above 2 stay out of scope; (d=3,c=1): 2 non-integral; (d=3,c=2): 7 non-integral; (d=3,c=3): 12 non-integral; (d=4,c=2): 11 non-integral"),
    ],
    (2, 2): [
        ("order-formula", "pass", "orders match binomial counts for d<=2, c<=2"),
        ("distance-law", "pass", "BFS distance equals max coordinate gap on 4 pairs"),
        ("diameter-radius", "pass", "diameter d-1 and radius floor(d/2) for d<=2, c<=2"),
        ("extended-diameter", "pass", "extended family diameter is d for 2<=d<=2, c<=2"),
        ("star-case", "info", "alphabet-1 extended graphs are stars; diameter 2 (or 1), not d"),
        ("construction-agreement", "pass", "direct, indexed, and iterative constructions agree for c<=2"),
        ("step-recursion", "pass", "two-vertex growth step reproduces each member up to c=2"),
        ("step-needs-join", "info", "growth step must join the new degree-2c vertex to everything; a plain disjoint union is disconnected"),
        ("eigenpairs", "pass", "exact eigenpairs and full-rank bases for n in [3, 5]"),
        ("spectrum-gap", "pass", "spectrum is 0..2c+1 minus c+1, all simple, for c<=2"),
        ("realizability-chain", "pass", "growth step carries the spectrum gap from 2 up to 3"),
        ("rayleigh-identities", "pass", "rayleigh quotients and band sums match eigenvalues for c<=2"),
        ("worked-example", "pass", "7-vertex member reproduces frozen matrices, quotients, band sums"),
        ("kernel-support", "info", "kernel is spanned by the constant vector on all 2c+1 vertices; a vector constant on all but one vertex is not in it"),
        ("outer-resolving", "pass", "appended resolver vertices outer-resolve at (2,1), (2,2)"),
        ("dimension-search", "pass", "minimal outer sets found and re-verified: dim(d=2,c=1)=1, dim(d=2,c=2)=2"),
        ("outer-non-monotone", "info", "outer resolution is not superset-monotone: on the 4-path one endpoint resolves but both endpoints together do not"),
        ("large-alphabet-spectra", "info", "alphabets above 2 stay out of scope; (d=3,c=1): 2 non-integral; (d=3,c=2): 7 non-integral; (d=3,c=3): 12 non-integral; (d=4,c=2): 11 non-integral"),
    ],
}


class TestRunVerify:
    def test_small_range_passes(self):
        report = run_verify(cmax=2, dmax=2)
        assert report.ok
        assert [c.name for c in report.checks] == EXPECTED_AT_SMALL_RANGE
        assert all(c.status in ("pass", "info") for c in report.checks)
        assert all(c.elapsed >= 0 for c in report.checks)
        assert all(c.details for c in report.checks)

    def test_wide_alphabet_adds_shortcut_probe(self):
        report = run_verify(cmax=2, dmax=4)
        assert report.ok
        names = [c.name for c in report.checks]
        assert "resolver-shortcut" in names
        shortcut = next(c for c in report.checks if c.name == "resolver-shortcut")
        assert shortcut.status == "info"

    @pytest.mark.parametrize("cmax, dmax", sorted(PINNED_OUTPUT))
    def test_output_is_pinned(self, cmax, dmax):
        report = run_verify(cmax=cmax, dmax=dmax)
        assert report.ok
        got = [(c.name, c.status, c.details) for c in report.checks]
        assert got == PINNED_OUTPUT[cmax, dmax]

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            run_verify(cmax=0)
        with pytest.raises(ValueError):
            run_verify(dmax=0)


def check_named(report, name):
    return next(c for c in report.checks if c.name == name)


class TestFailurePaths:
    def test_wrong_distance_is_named(self, monkeypatch):
        real = graphs._walk
        target = masks(families.combination_graph(3, 2))
        moved = []

        def off_by_one(adj, start, within):
            levels = real(adj, start, within)
            if start == 0 and list(adj) == target:
                # G(3, 2): dist(11, 33) is 2; the walk reports 3
                levels[2] ^= 1 << 5
                levels.append(1 << 5)
                moved.append(start)
            return levels

        monkeypatch.setattr(graphs, "_walk", off_by_one)
        report = run_verify(cmax=2, dmax=3)
        check = check_named(report, "distance-law")
        assert check.status == "fail"
        assert check.details == "AssertionError: d=3 c=2: dist(11,33) = 3 != 2"
        assert not report.ok
        assert moved

    def test_wrong_quotient_is_named(self, monkeypatch):
        # x^T L x one too large for c = 2, r = 3 (eigenvalue 1, x^T x = 12)
        real = spectra._quadratic_form
        column = [row[3] for row in eigenvector_family(2)]

        def skewed(rows, x):
            quad, norm2 = real(rows, x)
            return quad + (list(x) == column), norm2

        monkeypatch.setattr(verify_module, "_quadratic_form", skewed)
        report = run_verify(cmax=2, dmax=2)
        check = check_named(report, "rayleigh-identities")
        assert check.status == "fail"
        assert check.details == "AssertionError: quotient c=2 r=3"
        assert not report.ok

    def test_wrong_band_total_is_named(self, monkeypatch):
        # band 1 one too large for c = 2, r = 3: the band total reads 13, not 12
        real = spectra._band_sums
        column = [row[3] for row in eigenvector_family(2)]

        def skewed(c, x):
            bands = real(c, x)
            bands[0] += list(x) == column
            return bands

        monkeypatch.setattr(verify_module, "_band_sums", skewed)
        report = run_verify(cmax=2, dmax=2)
        check = check_named(report, "rayleigh-identities")
        assert check.details == (
            "AssertionError: band total c=2 r=3: [Fraction(12, 1), Fraction(0, 1)]"
        )
        assert [c.name for c in report.checks if c.status == "fail"] == ["rayleigh-identities"]

    def test_wrong_spectrum_fails_gap(self, monkeypatch):
        # c = 2 has spectrum {5, 4, 2, 1, 0}; report 3 in place of 2
        real = spectra.graph_spectrum
        target = laplacian(resolver_graph_indexed(2))
        wrong = ((5, 1), (4, 1), (3, 1), (1, 1), (0, 1))

        def skewed(g):
            spec = real(g)
            return replace(spec, pairs=wrong) if laplacian(g) == target else spec

        monkeypatch.setattr(verify_module, "graph_spectrum", skewed)
        report = run_verify(cmax=2, dmax=2)
        check = check_named(report, "spectrum-gap")
        assert check.status == "fail"
        assert check.details == f"AssertionError: spectrum c=2: {wrong}"
        assert [c.name for c in report.checks if c.status == "fail"] == ["spectrum-gap"]

    @pytest.mark.parametrize(
        "cmax, details",
        [
            (3, "AssertionError: chain step to c=3"),
            (
                5,
                "ValueError: input graph does not realize the gap spectrum at 4 "
                "on 7 vertices",
            ),
        ],
    )
    def test_broken_chain_step_fails_chain(self, monkeypatch, cmax, details):
        # The c = 3 graph loses an edge: the last graph's own check catches
        # it at cmax 3, the next step's precondition at cmax 5.
        real = spectra.realizability_step

        def lossy(h, i_prev, n_prev):
            grown = real(h, i_prev, n_prev)
            return Graph(grown.n, list(grown.edges())[1:]) if i_prev == 3 else grown

        monkeypatch.setattr(verify_module, "realizability_step", lossy)
        report = run_verify(cmax=cmax, dmax=1)
        check = check_named(report, "realizability-chain")
        assert check.status == "fail"
        assert check.details == details

    def test_rank_deficient_basis_fails_eigenpairs(self, monkeypatch):
        # A zero column 0 at c = 1 still passes L x = lambda x, but leaves
        # rank 2; verify_eigenpairs raises on it and the battery reports it.
        real = spectra.eigenvector_family

        def zeroed(c):
            return [[0, *row[1:]] if c == 1 else row for row in real(c)]

        assert linalg.rank(zeroed(1)) == 2
        monkeypatch.setattr(spectra, "eigenvector_family", zeroed)
        report = run_verify(cmax=2, dmax=1)
        check = check_named(report, "eigenpairs")
        assert check.status == "fail"
        assert check.details == "VerificationError: eigenvector matrix rank 2 != 3"


class TestSharing:
    def test_one_bfs_per_vertex_per_graph(self, monkeypatch):
        # Keyed by the graph's own mask tuple, held for the run so that no
        # id is reused; test_one_base_build_per_member rules out rebuilt
        # copies of a member.
        real = graphs._walk

        def run_counted():
            calls = Counter()
            held = []

            def counted(adj, start, within):
                held.append(adj)
                calls[id(adj), start] += 1
                return real(adj, start, within)

            monkeypatch.setattr(graphs, "_walk", counted)
            assert run_verify(cmax=4, dmax=4).ok
            return calls

        first = run_counted()
        assert first and set(first.values()) == {1}
        second = run_counted()
        assert sum(second.values()) == sum(first.values())

    @pytest.mark.parametrize("cmax, dmax", [(8, 4), (1, 4), (2, 2)])
    def test_one_base_build_per_member(self, monkeypatch, cmax, dmax):
        # resolver_graph extends the battery's own G(d, c) rather than
        # building a second copy (64 builds for 32 members at 8, 4).
        real = families.combination_graph
        calls = Counter()

        def counted(d, c):
            calls[d, c] += 1
            return real(d, c)

        monkeypatch.setattr(families, "combination_graph", counted)
        assert run_verify(cmax=cmax, dmax=dmax).ok
        assert set(calls.values()) == {1}
        assert len(calls) >= cmax * dmax

    @pytest.mark.parametrize("cmax, dmax", [(8, 4), (1, 4), (2, 2)])
    def test_one_indexed_build_per_member(self, monkeypatch, cmax, dmax):
        # Seven checks read the banded-index G+(2, c) through the run's memo
        # (41 builds at 8, 4 when each built its own; 2 per member when
        # eigenpairs built its own through spectra's binding); worked-example
        # adds c = 3 at any cmax.  Every module's binding is spied.
        real = families.resolver_graph_indexed
        calls = Counter()

        def counted(c):
            calls[c] += 1
            return real(c)

        bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "lapfam"]
        bound = [m for m in bound if getattr(m, "resolver_graph_indexed", None) is real]
        assert {families, spectra} <= set(bound)
        for module in bound:
            monkeypatch.setattr(module, "resolver_graph_indexed", counted)
        assert run_verify(cmax=cmax, dmax=dmax).ok
        assert set(calls.values()) == {1}
        assert set(calls) == {*range(1, cmax + 1), 3}

    def test_one_growth_chain(self, monkeypatch):
        # construction-agreement and step-recursion take 7 steps each at
        # cmax 8 (35 when every iterative member was regrown from c = 1)
        real = families.resolver_graph_step
        calls = Counter()

        def counted(prev):
            calls[prev.n] += 1
            return real(prev)

        bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "lapfam"]
        bound = [m for m in bound if getattr(m, "resolver_graph_step", None) is real]
        assert {families, verify_module} <= set(bound)
        for module in bound:
            monkeypatch.setattr(module, "resolver_graph_step", counted)
        assert run_verify(cmax=8, dmax=2).ok
        assert sum(calls.values()) == 14
        assert calls == {n: 2 for n in range(3, 17, 2)}

    @pytest.mark.parametrize("cmax, dmax", [(8, 4), (1, 4), (2, 2)])
    def test_one_row_set_per_member(self, monkeypatch, cmax, dmax):
        # eigenpairs, rayleigh-identities and kernel-support share each
        # G+(2, c)'s gathered Laplacian rows (3 builds per member when each
        # built its own); every binding of _gather is watched, Lanczos' too,
        # and only worked-example's frozen matrix is left out of the count
        real = linalg._gather
        calls = Counter()

        def counted(a):
            member = len(a) >= 3 and len(a) % 2 and laplacian(resolver_graph_indexed(len(a) // 2))
            if a is not verify_module._WORKED_LAPLACIAN and a == member:
                calls[len(a)] += 1
            return real(a)

        bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "lapfam"]
        bound = [m for m in bound if getattr(m, "_gather", None) is real]
        assert {linalg, verify_module} <= set(bound)
        for module in bound:
            monkeypatch.setattr(module, "_gather", counted)
        assert run_verify(cmax=cmax, dmax=dmax).ok
        assert calls == {2 * c + 1: 1 for c in range(1, cmax + 1)}

    def test_no_elimination_for_full_rank(self, monkeypatch):
        # Full rank is the count of non-zero eigenvectors; the Bareiss rank
        # (one call per member, 8 at cmax 8) is left to the tests as oracle.
        calls = []
        real = linalg.rank
        bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "lapfam"]
        bound = [m for m in bound if getattr(m, "rank", None) is real]
        assert linalg in bound
        for module in bound:
            monkeypatch.setattr(module, "rank", lambda a: calls.append(len(a)) or real(a))
        assert run_verify(cmax=8, dmax=2).ok
        assert spectra.verify_eigenpairs(5).rank == 11
        assert calls == []

    def test_rayleigh_identities_walk_no_edge_list(self, monkeypatch):
        # x^T L x is held to the band sums, which are the indexed member's
        # edges term by term (one g.edges() walk per c when it was also
        # held to an edge sum over them)
        real = Graph.edges
        calls = Counter()

        def counted(g):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] != verify_module.__name__:
                frame = frame.f_back
            calls[frame.f_code.co_name] += 1
            return real(g)

        monkeypatch.setattr(Graph, "edges", counted)
        assert run_verify(cmax=8, dmax=2).ok
        assert calls
        assert "rayleigh_identities" not in calls

    def test_one_char_poly_per_matrix_per_check(self, monkeypatch):
        # Only the 4 prime large-alphabet members take a pass: the gap
        # spectra and the chain's graphs are cographs (20 passes when every
        # spectrum took one, 35 when the battery re-checked what
        # Spectrum.gap and realizability_step already check).
        real = linalg.char_poly
        calls = Counter()

        def counted(lap):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] != verify_module.__name__:
                frame = frame.f_back
            calls[frame.f_code.co_name, tuple(map(tuple, lap))] += 1
            return real(lap)

        monkeypatch.setattr(linalg, "char_poly", counted)
        assert run_verify(cmax=8, dmax=4).ok
        assert sum(calls.values()) == 4
        assert set(calls.values()) == {1}
        assert Counter(check for check, _ in calls) == {"large_alphabet_spectra": 4}


class TestVerifyReport:
    def test_failure_flips_ok(self):
        report = VerifyReport(
            (
                Check("good", "pass", "fine", 0.0),
                Check("bad", "fail", "broken", 0.0),
            )
        )
        assert not report.ok
        assert "FAILURES PRESENT" in report.render()
        assert "FAIL" in report.render()

    def test_info_does_not_flip_ok(self):
        report = VerifyReport((Check("note", "info", "observed", 0.0),))
        assert report.ok
        assert "all checks passed" in report.render()

    def test_render_lists_every_check(self):
        report = run_verify(cmax=1, dmax=1)
        text = report.render()
        for check in report.checks:
            assert check.name in text
        assert "PASS" in text
