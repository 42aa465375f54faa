from collections import Counter

import pytest

from lapfam import Check, Combination, VerifyReport, eigenvector_family, run_verify
from lapfam import graphs, spectra
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
