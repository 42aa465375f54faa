import random
import re
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapfam import (
    Graph,
    VerificationError,
    char_poly,
    combination_graph,
    disjoint_union,
    edge_partition_sums,
    eigenvalue_of_class,
    eigenvector_family,
    graph_spectrum,
    integral_spectrum,
    join,
    laplacian,
    rayleigh,
    realizability_step,
    realizes_gap_spectrum,
    resolver_graph,
    resolver_graph_indexed,
    resolver_graph_iterative,
    verify_eigenpairs,
)
from lapfam import linalg, spectra
from lapfam.linalg import poly_eval
from helpers import (
    adjacency_laplacian,
    comprehension_band_sums,
    component_count,
    connected_graphs,
    fraction_edge_partition_sums,
    fraction_rank,
    fraction_rayleigh,
    graphs,
    nullity_sweep_spectrum,
    threshold_spectrum,
)

# Exact rationals with assorted denominators, mixed with plain ints.
rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


class TestLaplacian:
    def test_single_vertex(self):
        assert laplacian(Graph(1)) == [[0]]

    def test_edge(self):
        assert laplacian(Graph.complete(2)) == [[1, -1], [-1, 1]]

    def test_entries(self, corpus_graph):
        lap = laplacian(corpus_graph)
        n = corpus_graph.n
        for i in range(n):
            assert lap[i][i] == corpus_graph.degree(i)
            assert sum(lap[i]) == 0
            for j in range(n):
                assert lap[i][j] == lap[j][i]
                if i != j:
                    assert lap[i][j] == -int(corpus_graph.adjacent(i, j))


    @settings(max_examples=60, deadline=None)
    @given(g=graphs(max_n=12))
    def test_matches_adjacency_tests(self, g):
        assert laplacian(g) == adjacency_laplacian(g)


class TestIntegralSpectrum:
    def test_path_three(self):
        spec = integral_spectrum(laplacian(Graph.path(3)))
        assert spec.integral
        assert spec.pairs == ((3, 1), (1, 1), (0, 1))
        assert spec.eigenvalues == (3, 1, 0)
        assert spec.distinct

    def test_triangle_multiplicity(self):
        spec = integral_spectrum(laplacian(Graph.complete(3)))
        assert spec.pairs == ((3, 2), (0, 1))
        assert spec.eigenvalues == (3, 3, 0)
        assert not spec.distinct

    def test_path_four_residue(self):
        # eigenvalues are 0, 2, 2 +- sqrt(2)
        spec = integral_spectrum(laplacian(Graph.path(4)))
        assert not spec.integral
        assert spec.residual_degree == 2
        assert spec.pairs == ((2, 1), (0, 1))
        assert not spec.distinct and spec.gap is None

    def test_no_edges(self):
        spec = integral_spectrum(laplacian(Graph(2)))
        assert spec.pairs == ((0, 2),)

    def test_kernel_counts_components(self, corpus_graph):
        spec = integral_spectrum(laplacian(corpus_graph))
        mult0 = dict(spec.pairs).get(0, 0)
        assert mult0 == component_count(corpus_graph)

    def test_trace_identity(self, corpus_graph):
        spec = integral_spectrum(laplacian(corpus_graph))
        if spec.integral:
            total = sum(lam * mult for lam, mult in spec.pairs)
            assert total == 2 * corpus_graph.edge_count

    def test_charpoly_vanishes_at_found_eigenvalues(self, corpus_graph):
        spec = integral_spectrum(laplacian(corpus_graph))
        for lam, _ in spec.pairs:
            assert poly_eval(list(spec.charpoly), lam) == 0
        for lam in range(corpus_graph.n + 1):
            if lam not in dict(spec.pairs):
                assert poly_eval(list(spec.charpoly), lam) != 0

    def test_charpoly_shape(self, corpus_graph):
        lap = laplacian(corpus_graph)
        spec = integral_spectrum(lap)
        n = corpus_graph.n
        assert len(spec.charpoly) == n + 1
        assert spec.charpoly[n] == 1
        assert spec.charpoly[0] == 0  # 0 is always a Laplacian eigenvalue
        assert list(spec.charpoly) == char_poly(lap)
        assert spec.moduli == char_poly(lap).moduli


def pairs_and_residual(spec):
    return spec.pairs, spec.residual_degree


class TestAgainstNullitySweep:
    """The polynomial route must match the nullity of L - lam*I for every lam."""

    def test_corpus(self, corpus_graph):
        lap = laplacian(corpus_graph)
        assert pairs_and_residual(integral_spectrum(lap)) == nullity_sweep_spectrum(lap)

    @settings(max_examples=60, deadline=None)
    @given(g=graphs(max_n=8))
    def test_random_graphs(self, g):
        lap = laplacian(g)
        assert pairs_and_residual(integral_spectrum(lap)) == nullity_sweep_spectrum(lap)

    def test_complete_graphs(self):
        for n in range(1, 9):
            lap = laplacian(Graph.complete(n))
            spec = integral_spectrum(lap)
            want = ((n, n - 1), (0, 1)) if n > 1 else ((0, 1),)
            assert spec.pairs == want
            assert pairs_and_residual(spec) == nullity_sweep_spectrum(lap)

    def test_one_char_poly_and_no_nullity(self, monkeypatch):
        calls = []
        real = spectra.linalg.char_poly

        def counting(mat):
            calls.append(mat)
            return real(mat)

        monkeypatch.setattr(spectra.linalg, "char_poly", counting)
        integral_spectrum(laplacian(resolver_graph(2, 3)))
        assert len(calls) == 1


C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])

# Every family member the tests build, as (spec, graph).
FAMILY = [
    *((f"gplus:{d},{c}", lambda d=d, c=c: resolver_graph(d, c))
      for d, cs in ((1, range(1, 9)), (2, range(1, 25)), (3, range(1, 5)), (4, range(1, 4)))
      for c in cs),
    *((f"g:{d},{c}", lambda d=d, c=c: combination_graph(d, c))
      for d, cs in ((1, range(1, 4)), (2, range(1, 9)), (3, range(1, 6)), (4, range(1, 4)))
      for c in cs),
    *((f"gplus:2,{c}:indexed", lambda c=c: resolver_graph_indexed(c)) for c in range(1, 9)),
    *((f"gplus:2,{c}:iterative", lambda c=c: resolver_graph_iterative(c)) for c in range(1, 9)),
]


@st.composite
def cographs(draw, max_leaves=5):
    """Random joins and unions of drawn graphs on up to 4 vertices (which
    may be prime, such as the 4-path): at most 20 vertices."""
    return draw(
        st.recursive(
            graphs(max_n=4),
            lambda parts: st.tuples(st.sampled_from([join, disjoint_union]), parts, parts).map(
                lambda t: t[0](t[1], t[2])
            ),
            max_leaves=max_leaves,
        )
    )


def spy_char_poly(monkeypatch):
    """The orders of the matrices ``char_poly`` is called on."""
    orders = []
    real = spectra.linalg.char_poly

    def counting(mat):
        orders.append(len(mat))
        return real(mat)

    monkeypatch.setattr(spectra.linalg, "char_poly", counting)
    return orders


class TestGraphSpectrum:
    """The cotree route must return the matrix route's whole Spectrum,
    ``charpoly`` and ``moduli`` included."""

    def test_corpus(self, corpus_graph):
        assert graph_spectrum(corpus_graph) == integral_spectrum(laplacian(corpus_graph))

    def test_empty_graph(self):
        assert graph_spectrum(Graph(0)) == integral_spectrum([])

    @settings(max_examples=80, deadline=None)
    @given(g=graphs(max_n=8))
    def test_random_graphs(self, g):
        assert graph_spectrum(g) == integral_spectrum(laplacian(g))

    @settings(max_examples=60, deadline=None)
    @given(g=cographs())
    def test_cographs(self, g):
        assert graph_spectrum(g) == integral_spectrum(laplacian(g))

    @pytest.mark.parametrize("build", [b for _, b in FAMILY], ids=[s for s, _ in FAMILY])
    def test_family_members(self, build):
        g = build()
        assert graph_spectrum(g) == integral_spectrum(laplacian(g))

    @pytest.mark.parametrize(
        "g, prime_orders",
        [
            (join(Graph.path(4), Graph(1)), [4]),
            (join(Graph(1), Graph.path(4)), [4]),
            (disjoint_union(C5, join(Graph.path(4), Graph.complete(2))), [4, 5]),
            (join(join(Graph.path(4), C5), disjoint_union(Graph.path(4), Graph(2))), [4, 4, 5]),
            (join(C5, C5), [5, 5]),
        ],
        ids=["P4+K1", "K1+P4", "C5|(P4+K2)", "(P4+C5)+(P4|2K1)", "C5+C5"],
    )
    def test_prime_parts_under_joins(self, monkeypatch, g, prime_orders):
        # Each prime part's non-integral factor is shifted by its joins.
        want = integral_spectrum(laplacian(g))
        orders = spy_char_poly(monkeypatch)
        spec = graph_spectrum(g)
        assert spec == want and not spec.integral
        assert sorted(orders) == prime_orders

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_prime_part_factor_taylor_shifted(self, monkeypatch, k):
        # K_k + P4: P4 is the one prime part, at shift k; its factor
        # x^2 - 4x + 2 (eigenvalues 2 +- sqrt 2) goes through poly_shift
        g = join(Graph.complete(k), Graph.path(4))
        real, calls = linalg.poly_shift, []

        def spy(p, s):
            calls.append((list(p), s))
            return real(p, s)

        monkeypatch.setattr(linalg, "poly_shift", spy)
        spec = graph_spectrum(g)
        assert spec == integral_spectrum(laplacian(g))
        assert calls == [([2, -4, 1], k)]
        assert spec.residual_degree == 2
        assert spec.pairs == ((k + 4, k), (k + 2, 1), (0, 1))

    @pytest.mark.parametrize(
        "build",
        [
            *(lambda c=c: resolver_graph(2, c) for c in (1, 2, 7, 24, 48)),
            *(lambda c=c: resolver_graph(1, c) for c in (1, 5, 29)),  # stars
            *(lambda c=c: combination_graph(2, c) for c in (1, 5, 24)),  # complete
        ],
    )
    def test_no_char_poly_for_cographs(self, monkeypatch, build):
        g = build()
        orders = spy_char_poly(monkeypatch)
        spec = graph_spectrum(g)
        assert orders == [] and spec.integral

    @pytest.mark.parametrize("d, c", [(3, 1), (3, 2), (3, 4), (4, 2)])
    def test_one_char_poly_for_a_prime_graph(self, monkeypatch, d, c):
        g = resolver_graph(d, c)
        orders = spy_char_poly(monkeypatch)
        graph_spectrum(g)
        assert orders == [g.n]

    def test_one_hadamard_bound_for_a_prime_graph(self, monkeypatch):
        # moduli is read off the whole graph's char_poly, not bounded again
        g = resolver_graph(3, 3)
        real, calls = linalg.hadamard_bound, []
        monkeypatch.setattr(linalg, "hadamard_bound", lambda a: calls.append(len(a)) or real(a))
        spec = graph_spectrum(g)
        assert calls == [g.n]
        assert spec == integral_spectrum(laplacian(g))

    def test_large_gap_member(self):
        g = resolver_graph(2, 128)
        spec = graph_spectrum(g)
        assert (spec.gap, spec.distinct, spec.moduli) == (129, True, 22)
        assert spec.eigenvalues == threshold_spectrum(g)


class TestGapProperty:
    def test_family_members(self):
        for c in range(1, 6):
            assert integral_spectrum(laplacian(resolver_graph(2, c))).gap == c + 1

    def test_single_vertex(self):
        assert integral_spectrum(laplacian(Graph(1))).gap == 1

    def test_repeated_eigenvalue(self):
        assert integral_spectrum(laplacian(Graph.complete(3))).gap is None

    @settings(max_examples=60, deadline=None)
    @given(g=graphs(max_n=7))
    def test_matches_explicit_rule(self, g):
        spec = integral_spectrum(laplacian(g))
        if not spec.integral:
            assert spec.gap is None
            assert not spec.distinct
            for i in range(g.n + 1):
                assert not realizes_gap_spectrum(g, i)
            return
        simple_gaps = [
            i
            for i in range(g.n + 1)
            if spec.pairs == tuple((lam, 1) for lam in range(g.n, -1, -1) if lam != i)
        ]
        assert spec.gap == (simple_gaps[0] if simple_gaps else None)
        for i in range(g.n + 1):
            assert realizes_gap_spectrum(g, i) == (i in simple_gaps)


class TestClosedFormEigenpairs:
    def test_eigenvalue_map_c3(self):
        values = [eigenvalue_of_class(3, r) for r in range(7)]
        assert values == [7, 6, 5, 3, 2, 1, 0]

    def test_eigenvalue_map_skips_c_plus_one(self):
        for c in range(1, 9):
            values = {eigenvalue_of_class(c, r) for r in range(2 * c + 1)}
            assert values == set(range(2 * c + 2)) - {c + 1}

    def test_eigenvalue_range_errors(self):
        with pytest.raises(ValueError):
            eigenvalue_of_class(2, -1)
        with pytest.raises(ValueError):
            eigenvalue_of_class(2, 5)
        with pytest.raises(ValueError, match="^c must be positive: 0$"):
            eigenvalue_of_class(0, 0)

    def test_family_c1(self):
        assert eigenvector_family(1) == [[-2, 0, 1], [1, -1, 1], [1, 1, 1]]

    def test_family_c2_columns(self):
        vecs = eigenvector_family(2)
        cols = [[vecs[i][r] for i in range(5)] for r in range(5)]
        assert cols[0] == [-4, 1, 1, 1, 1]
        assert cols[1] == [0, -2, 1, 1, 0]
        assert cols[2] == [0, 0, -1, 1, 0]
        assert cols[3] == [0, -1, -1, -1, 3]
        assert cols[4] == [1, 1, 1, 1, 1]

    def test_family_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            eigenvector_family(0)

    @pytest.mark.parametrize("c", range(1, 6))
    def test_verify_eigenpairs(self, c):
        report = verify_eigenpairs(c)
        assert report.n == 2 * c + 1
        assert report.rank == report.n
        assert report.eigenvalues == tuple(
            eigenvalue_of_class(c, r) for r in range(report.n)
        )

    @pytest.mark.parametrize("c", range(1, 13))
    def test_rank_matches_elimination(self, monkeypatch, c):
        # The reported (or raised) rank of a basis with 0-3 columns zeroed
        # equals the Bareiss rank and the Fraction rank.
        n, rng = 2 * c + 1, random.Random(c)
        rows = linalg._gather(laplacian(resolver_graph_indexed(c)))
        family = eigenvector_family(c)
        for k in range(4):
            zero = set(rng.sample(range(n), k))
            basis = [[0 if r in zero else v for r, v in enumerate(row)] for row in family]
            monkeypatch.setattr(spectra, "eigenvector_family", lambda _: basis)
            try:
                rank = spectra._eigenpairs(rows, c).rank
            except VerificationError as exc:
                rank = int(re.fullmatch(rf"eigenvector matrix rank (\d+) != {n}", str(exc))[1])
            assert rank == linalg.rank(basis) == fraction_rank(basis) == n - k

    def test_verification_error_pinpoints_class(self, monkeypatch):
        monkeypatch.setattr(spectra, "eigenvalue_of_class", lambda c, r: 99)
        with pytest.raises(VerificationError) as exc:
            verify_eigenpairs(1)
        assert exc.value.r == 0
        assert exc.value.row >= 0


class TestRayleigh:
    def test_edge_graph(self):
        lap = laplacian(Graph.complete(2))
        assert rayleigh(lap, (1, -1)) == 2
        assert rayleigh(lap, (1, 1)) == 0

    def test_fraction_input(self):
        lap = laplacian(Graph.complete(2))
        assert rayleigh(lap, (Fraction(1, 2), Fraction(-1, 2))) == 2

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="^Rayleigh quotient of the zero vector is undefined$"):
            rayleigh(laplacian(Graph.complete(2)), (0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^vector length 1 != 2$"):
            rayleigh(laplacian(Graph.complete(2)), (1,))

    @pytest.mark.parametrize("first", [[1, -1, 0], [1]])
    def test_first_row_length_mismatch(self, first):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            rayleigh([first, [-1, 1]], (1, 2))

    @pytest.mark.parametrize("second", [[-1, 1, 5], [-1]])
    def test_later_row_length_mismatch(self, second):
        # the dense product read only the first row's length; gathered rows need all
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            rayleigh([[1, -1], second], (1, 2))

    def test_top_eigenvector_c3(self):
        lap = laplacian(resolver_graph_indexed(3))
        x = [-6, 1, 1, 1, 1, 1, 1]
        assert rayleigh(lap, x) == 7
        assert edge_partition_sums(3, x) == [294, 0, 0]

    @settings(max_examples=30, deadline=None)
    @given(
        g=connected_graphs(max_n=6),
        data=st.data(),
    )
    def test_bounds(self, g, data):
        x = data.draw(
            st.lists(st.integers(-4, 4), min_size=g.n, max_size=g.n).filter(
                lambda v: any(v)
            )
        )
        rho = rayleigh(laplacian(g), x)
        assert 0 <= rho <= g.n

    def test_non_laplacian_routes_disagree(self):
        # x^T I x = 2 while the off-diagonal edge sum is 0
        with pytest.raises(ArithmeticError, match="quadratic form 2 != edge sum 0"):
            rayleigh([[1, 0], [0, 1]], (1, 1))

    def test_routes_must_agree(self):
        # the path 0-1-2 with its first diagonal entry one too large:
        # x^T L x is 11, the edge sum of its off-diagonal entries 10
        lap = [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]
        with pytest.raises(ArithmeticError, match="quadratic form 11 != edge sum 10"):
            rayleigh(lap, [1, 0, 3])

    def test_disagreement_reported_unscaled(self):
        with pytest.raises(ArithmeticError, match="quadratic form 1/2 != edge sum 0"):
            rayleigh([[1, 0], [0, 1]], (Fraction(1, 2), Fraction(1, 2)))

    @settings(max_examples=80, deadline=None)
    @given(g=graphs(max_n=8), data=st.data())
    def test_matches_fraction_oracle(self, g, data):
        x = data.draw(
            st.lists(rationals, min_size=g.n, max_size=g.n).filter(lambda v: any(v))
        )
        lap = laplacian(g)
        assert rayleigh(lap, x) == fraction_rayleigh(lap, x)

    @settings(max_examples=80, deadline=None)
    @given(g=graphs(max_n=8), data=st.data())
    def test_weighted_laplacian_matches_fraction_oracle(self, g, data):
        # several off-diagonal values per row: one gathered getter each
        lap = [[0] * g.n for _ in range(g.n)]
        for u, v in g.edges():
            w = data.draw(st.integers(1, 3))
            lap[u][v] = lap[v][u] = -w
            lap[u][u] += w
            lap[v][v] += w
        x = data.draw(
            st.lists(rationals, min_size=g.n, max_size=g.n).filter(lambda v: any(v))
        )
        assert rayleigh(lap, x) == fraction_rayleigh(lap, x)


class TestEdgePartition:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            edge_partition_sums(2, (1, 2, 3))

    def test_rejects_nonpositive(self):
        # G+(2, 0) would have one vertex and no bands; there is no such member
        with pytest.raises(ValueError, match="^c must be positive: 0$"):
            edge_partition_sums(0, [5])

    @pytest.mark.parametrize("c", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bands_total_quadratic_form(self, c, data):
        n = 2 * c + 1
        x = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        lap = laplacian(resolver_graph_indexed(c))
        xs = [Fraction(v) for v in x]
        quad = sum(xs[i] * lap[i][j] * xs[j] for i in range(n) for j in range(n))
        assert sum(edge_partition_sums(c, x)) == quad

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_oracle(self, c, data):
        n = 2 * c + 1
        x = data.draw(st.lists(rationals, min_size=n, max_size=n))
        got = edge_partition_sums(c, x)
        assert got == fraction_edge_partition_sums(c, x)
        assert all(type(band) is Fraction for band in got)


class TestMaskIdentities:
    """L x and x^T L x on the Laplacian's gathered rows, against the dense forms."""

    @settings(max_examples=80, deadline=None)
    @given(g=graphs(max_n=10), data=st.data())
    def test_product_matches_dense_mat_vec(self, g, data):
        x = data.draw(st.lists(st.integers(-(10**12), 10**12), min_size=g.n, max_size=g.n))
        assert linalg._apply(linalg._gather(laplacian(g)), x) == linalg.mat_vec(laplacian(g), x)

    @settings(max_examples=80, deadline=None)
    @given(g=graphs(max_n=10), data=st.data())
    def test_quadratic_form_matches_rayleigh(self, g, data):
        x = data.draw(
            st.lists(st.integers(-50, 50), min_size=g.n, max_size=g.n).filter(any)
        )
        quad, norm2 = spectra._quadratic_form(linalg._gather(laplacian(g)), x)
        assert norm2 == sum(v * v for v in x)
        assert Fraction(quad, norm2) == fraction_rayleigh(laplacian(g), x)

    def test_isolated_vertex_row_is_its_zero_degree(self):
        g = disjoint_union(Graph(1), Graph.path(2))
        rows = linalg._gather(laplacian(g))
        assert rows[0] == (0, ())
        assert linalg._apply(rows, [7, 1, 4]) == [0, -3, 3]

    def test_zero_vector_is_refused(self):
        g = Graph.path(3)
        with pytest.raises(ValueError, match="zero vector"):
            spectra._quadratic_form(linalg._gather(laplacian(g)), [0, 0, 0])

    @pytest.mark.parametrize("c", [1, 2, 5])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_integer_band_sums_match_fraction_bands(self, c, data):
        x = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=2 * c + 1, max_size=2 * c + 1))
        assert spectra._band_sums(c, x) == fraction_edge_partition_sums(c, x)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_prefix_band_sums_match_the_comprehension(self, data):
        c = data.draw(st.integers(1, 64))
        x = data.draw(st.lists(st.integers(-(10**9), 10**9), min_size=2 * c + 1, max_size=2 * c + 1))
        assert spectra._band_sums(c, x) == comprehension_band_sums(c, x)

    @pytest.mark.parametrize("c", [1, 4, 8])
    def test_eigenpairs_check_reads_the_member_it_is_given(self, c):
        g = resolver_graph_indexed(c)
        assert spectra._eigenpairs(linalg._gather(laplacian(g)), c) == verify_eigenpairs(c)
        with pytest.raises(VerificationError):  # G+(2, c) less one edge
            spectra._eigenpairs(linalg._gather(laplacian(Graph(g.n, list(g.edges())[1:]))), c)


class TestGapSpectrum:
    def test_edge_realizes_one(self):
        assert realizes_gap_spectrum(Graph.complete(2), 1)
        assert not realizes_gap_spectrum(Graph.complete(2), 0)

    def test_path_three_realizes_two(self):
        assert realizes_gap_spectrum(Graph.path(3), 2)
        assert not realizes_gap_spectrum(Graph.path(3), 1)

    def test_repeated_eigenvalue_never_realizes(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not any(realizes_gap_spectrum(c4, i) for i in range(5))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            realizes_gap_spectrum(Graph.complete(2), 3)
        with pytest.raises(ValueError):
            realizes_gap_spectrum(Graph.complete(2), -1)

    def test_family_members_realize(self):
        for c in range(1, 5):
            assert realizes_gap_spectrum(resolver_graph(2, c), c + 1)

    def test_step_from_edge(self):
        grown = realizability_step(Graph.complete(2), 1, 2)
        assert grown.n == 4
        assert realizes_gap_spectrum(grown, 2)

    def test_step_matches_family_spectrum(self):
        grown = realizability_step(resolver_graph(2, 1), 2, 3)
        spec = integral_spectrum(laplacian(grown))
        want = integral_spectrum(laplacian(resolver_graph_indexed(2)))
        assert spec.pairs == want.pairs

    def test_step_validates_order(self):
        with pytest.raises(ValueError):
            realizability_step(Graph.complete(2), 1, 3)

    def test_step_validates_spectrum(self):
        with pytest.raises(ValueError):
            realizability_step(Graph.path(4), 2, 4)


@cache
def cograph_spectra(n):
    """Every Laplacian spectrum (ascending) of a cograph on n vertices, each
    with one cotree that has it: None for K1, else (op, left, right).  A
    cograph on n >= 2 vertices is a union or a join of two smaller ones; a
    union's spectrum is its parts' together, and a join of orders n1 and n2
    has 0, n and each part's spectrum less one 0, shifted by the other's
    order.  Graphs are never built."""
    if n == 1:
        return {(0,): None}
    out = {}
    for n1 in range(1, n // 2 + 1):
        n2 = n - n1
        for a, left in cograph_spectra(n1).items():
            for b, right in cograph_spectra(n2).items():
                out.setdefault(tuple(sorted(a + b)), ("union", left, right))
                shifted = [x + n2 for x in a[1:]] + [x + n1 for x in b[1:]]
                out.setdefault(tuple(sorted([0, n] + shifted)), ("join", left, right))
    return out


def cotree_graph(tree):
    if tree is None:
        return Graph(1)
    op, left, right = tree
    return (join if op == "join" else disjoint_union)(cotree_graph(left), cotree_graph(right))


class TestCographGapTable:
    """Which S_{i,n} = {0..n} \\ {i}, all simple, some cograph realizes."""

    @staticmethod
    def realized(n):
        """(i, a cotree realizing S_{i,n}) for each realized i; n >= 2."""
        found = cograph_spectra(n)
        for i in range(n + 1):
            tree = found.get(tuple(x for x in range(n + 1) if x != i))
            if tree is not None:
                yield i, tree

    @pytest.mark.parametrize("n", range(2, 13))
    def test_realized_exactly_where_the_trace_is_even(self, n):
        # the trace 2m = n(n+1)/2 - i is even for any graph
        want = [i for i in range(1, n) if (n * (n + 1) // 2 - i) % 2 == 0]
        assert [i for i, _ in self.realized(n)] == want

    @pytest.mark.parametrize("n", range(2, 13))
    def test_each_cotree_realizes_its_gap(self, n):
        for i, tree in self.realized(n):
            g = cotree_graph(tree)
            assert g.n == n
            assert graph_spectrum(g).gap == integral_spectrum(laplacian(g)).gap == i


class TestThresholdOracle:
    """Every graph here is a threshold graph, so its Laplacian spectrum is
    the conjugate partition of its degree sequence."""

    @pytest.mark.parametrize("c", range(1, 25))
    @pytest.mark.parametrize(
        "build",
        [
            lambda c: resolver_graph(2, c),
            lambda c: resolver_graph(1, c),  # the star K_{1,c}
            lambda c: combination_graph(2, c),  # the complete graph K_{c+1}
        ],
        ids=["gplus:2", "gplus:1", "g:2"],
    )
    def test_family_members(self, build, c):
        g = build(c)
        assert integral_spectrum(laplacian(g)).eigenvalues == threshold_spectrum(g)
        assert graph_spectrum(g).eigenvalues == threshold_spectrum(g)

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.booleans(), max_size=15))
    def test_creation_sequences(self, steps):
        # True joins the next vertex to everything so far; False adds it isolated.
        g = Graph(1)
        for dominating in steps:
            g = join(g, Graph(1)) if dominating else disjoint_union(g, Graph(1))
        assert integral_spectrum(laplacian(g)).eigenvalues == threshold_spectrum(g)
        assert graph_spectrum(g).eigenvalues == threshold_spectrum(g)
