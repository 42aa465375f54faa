import sys
from collections import Counter
from dataclasses import replace

import pytest

from lapfam import (
    Check,
    Combination,
    Graph,
    VerifyReport,
    eigenvector_family,
    laplacian,
    resolver_graph_indexed,
    run_verify,
)
from lapfam import graphs, linalg, spectra
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

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            run_verify(cmax=0)
        with pytest.raises(ValueError):
            run_verify(dmax=0)


def check_named(report, name):
    return next(c for c in report.checks if c.name == name)


class TestFailurePaths:
    def test_wrong_distance_is_named(self, monkeypatch):
        real = verify_module.all_pairs_distances

        def off_by_one(g):
            dist = real(g)
            if g.labels[0] == Combination((1, 1)) and g.n == 6:  # G(3, 2)
                dist[0][5] += 1  # dist(11, 33) is 2
            return dist

        monkeypatch.setattr(verify_module, "all_pairs_distances", off_by_one)
        report = run_verify(cmax=2, dmax=3)
        check = check_named(report, "distance-law")
        assert check.status == "fail"
        assert check.details == "AssertionError: d=3 c=2: dist(11,33) = 3 != 2"
        assert not report.ok

    def test_wrong_quotient_is_named(self, monkeypatch):
        real = spectra.rayleigh
        column = [row[3] for row in eigenvector_family(2)]

        def skewed(lap, x):
            return real(lap, x) + (list(x) == column)

        monkeypatch.setattr(verify_module, "rayleigh", skewed)
        report = run_verify(cmax=2, dmax=2)
        check = check_named(report, "rayleigh-identities")
        assert check.status == "fail"
        assert check.details == "AssertionError: quotient c=2 r=3"
        assert not report.ok

    def test_wrong_spectrum_fails_gap(self, monkeypatch):
        # c = 2 has spectrum {5, 4, 2, 1, 0}; report 3 in place of 2
        real = spectra.integral_spectrum
        target = laplacian(resolver_graph_indexed(2))
        wrong = ((5, 1), (4, 1), (3, 1), (1, 1), (0, 1))

        def skewed(lap):
            spec = real(lap)
            return replace(spec, pairs=wrong) if lap == target else spec

        monkeypatch.setattr(verify_module, "integral_spectrum", skewed)
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
        # verify_eigenpairs raises on a short rank; the battery reports it
        real = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda a: real(a) - 1)
        report = run_verify(cmax=2, dmax=1)
        check = check_named(report, "eigenpairs")
        assert check.status == "fail"
        assert check.details == "VerificationError: eigenvector matrix rank 2 != 3"


class TestSharing:
    def test_one_bfs_per_vertex_per_graph(self, monkeypatch):
        # Keyed by content, so a rebuilt copy of a family member counts
        # against the same budget as the first build.
        real = graphs.bfs_distances

        def run_counted():
            calls = Counter()

            def counted(g, source):
                key = (g.labels, tuple(g.neighbor_mask(v) for v in range(g.n)))
                calls[key] += 1
                return real(g, source)

            monkeypatch.setattr(graphs, "bfs_distances", counted)
            assert run_verify(cmax=4, dmax=4).ok
            return calls

        first = run_counted()
        assert all(count <= len(key[1]) for key, count in first.items())
        second = run_counted()
        assert sum(second.values()) == sum(first.values())

    def test_one_char_poly_per_matrix_per_check(self, monkeypatch):
        # 8 gap spectra, 7 chain steps plus the last chain graph, and 4
        # large-alphabet spectra (35 when the battery re-checked what
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
        assert sum(calls.values()) == 20
        assert set(calls.values()) == {1}
        assert Counter(check for check, _ in calls) == {
            "spectrum_gap": 8,
            "realizability_chain": 8,
            "large_alphabet_spectra": 4,
        }


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
