import pytest
from itertools import combinations_with_replacement
from math import comb

from lapfam import (
    Combination,
    Graph,
    Resolver,
    aligned,
    are_adjacency_equal,
    canonical_order,
    combination_graph,
    combination_labels,
    degree_sequence,
    expected_orders,
    label_sort_key,
    resolver_graph,
    resolver_graph_indexed,
    resolver_graph_iterative,
    resolver_graph_step,
)
from helpers import edge_resolver_graph, masks, pairwise_combination_graph


class TestLabelsAndOrders:
    def test_labels_are_lexicographic(self):
        labels = combination_labels(3, 2)
        assert [str(lab) for lab in labels] == ["11", "12", "13", "22", "23", "33"]

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("c", range(1, 6))
    def test_order_formula(self, d, c):
        base, extended = expected_orders(d, c)
        assert base == comb(d + c - 1, d - 1)
        assert extended == base + c
        assert len(combination_labels(d, c)) == base

    def test_invalid_parameters(self):
        for bad in ((0, 1), (1, 0), (-2, 3)):
            with pytest.raises(ValueError):
                expected_orders(*bad)
            with pytest.raises(ValueError):
                combination_graph(*bad)

    def test_lex_order_equals_canonical_order(self):
        """Lexicographic generation already sorts by (ones descending, lex):
        a sequence starting with more ones is lexicographically smaller."""
        for d in range(1, 6):
            for c in range(1, 6):
                g = combination_graph(d, c)
                assert canonical_order(g) == list(range(g.n))


class TestBaseGraph:
    def test_alphabet_one_is_single_vertex(self):
        g = combination_graph(1, 4)
        assert g.n == 1 and g.edge_count == 0

    def test_alphabet_two_is_complete(self):
        # any two nondecreasing {1,2}-sequences differ by at most 1 everywhere
        for c in range(1, 6):
            g = combination_graph(2, c)
            assert g.edge_count == g.n * (g.n - 1) // 2

    def test_small_case_by_hand(self):
        g = combination_graph(3, 2)
        names = {str(lab): v for v, lab in enumerate(g.labels)}
        assert g.edge_count == 10
        assert g.adjacent(names["11"], names["22"])
        assert not g.adjacent(names["11"], names["13"])
        assert g.adjacent(names["13"], names["22"])
        assert not g.adjacent(names["12"], names["33"])

    def test_adjacency_matches_coordinate_rule(self):
        g = combination_graph(4, 3)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                want = all(
                    abs(a - b) <= 1 for a, b in zip(g.labels[u].seq, g.labels[v].seq)
                )
                assert g.adjacent(u, v) == want

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("c", range(1, 7))
    def test_matches_pairwise_oracle(self, d, c):
        g = combination_graph(d, c)
        want = pairwise_combination_graph(d, c)
        assert g.labels == want.labels
        assert [g.neighbor_mask(v) for v in range(g.n)] == [
            want.neighbor_mask(v) for v in range(want.n)
        ]


class TestResolverGraph:
    def test_orders(self):
        for d, c in ((2, 3), (3, 2), (4, 3), (1, 5)):
            assert resolver_graph(d, c).n == expected_orders(d, c)[1]

    def test_resolver_degrees(self):
        g = resolver_graph(2, 3)
        base = g.n - 3
        assert [g.degree(base + i) for i in range(3)] == [3, 2, 1]

    def test_resolvers_pairwise_nonadjacent(self):
        g = resolver_graph(3, 3)
        base = g.n - 3
        for i in range(base, g.n):
            for j in range(i + 1, g.n):
                assert not g.adjacent(i, j)

    def test_resolver_edge_rule(self):
        g = resolver_graph(3, 2)
        base = g.n - 2
        for i in range(2):
            for v in range(base):
                assert g.adjacent(v, base + i) == (g.labels[v].ones >= i + 1)

    def test_labels(self):
        g = resolver_graph(2, 2)
        assert [str(lab) for lab in g.labels] == ["11", "12", "22", "w1", "w2"]

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("c", range(1, 7))
    def test_matches_edge_oracle(self, d, c):
        g, want = resolver_graph(d, c), edge_resolver_graph(d, c)
        assert (masks(g), g.labels, g.edge_count) == (masks(want), want.labels, want.edge_count)


class TestIndexedConstruction:
    def test_edge_count(self):
        # band h contributes 2c+2-2h edges, summing to c(c+1)
        for c in range(1, 8):
            assert resolver_graph_indexed(c).edge_count == c * (c + 1)

    def test_degrees_c3(self):
        g = resolver_graph_indexed(3)
        assert [g.degree(v) for v in range(g.n)] == [6, 5, 4, 3, 3, 2, 1]

    def test_labels_c2(self):
        g = resolver_graph_indexed(2)
        assert [str(lab) for lab in g.labels] == ["11", "12", "22", "w1", "w2"]

    def test_matches_direct(self):
        for c in range(1, 7):
            direct = aligned(resolver_graph(2, c))
            indexed = resolver_graph_indexed(c)
            assert direct.labels == indexed.labels
            assert are_adjacency_equal(direct, indexed)


class TestIterativeConstruction:
    def test_base_case(self):
        g = resolver_graph_iterative(1)
        assert [str(lab) for lab in g.labels] == ["2", "1", "w1"]
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_one_step_by_hand(self):
        g = resolver_graph_iterative(2)
        assert [str(lab) for lab in g.labels] == ["11", "w2", "22", "12", "w1"]
        assert [g.degree(v) for v in range(5)] == [4, 1, 2, 3, 2]
        assert degree_sequence(g) == [4, 3, 2, 2, 1]

    def test_matches_direct(self):
        for c in range(1, 7):
            assert are_adjacency_equal(
                aligned(resolver_graph_iterative(c)), aligned(resolver_graph(2, c))
            )

    def test_each_member_is_one_step_from_the_last(self):
        # run_verify grows one chain of steps for every c on this identity
        grown = resolver_graph_iterative(1)
        for c in range(2, 9):
            grown = resolver_graph_step(grown)
            g = resolver_graph_iterative(c)
            assert (g.labels, masks(g)) == (grown.labels, masks(grown))

    def test_step_validates_labeling(self):
        with pytest.raises(ValueError):
            resolver_graph_step(Graph.path(3))  # unlabeled
        with pytest.raises(ValueError):
            resolver_graph_step(resolver_graph(3, 1))  # even vertex count

    def test_step_grows_by_two(self):
        prev = resolver_graph(2, 3)
        grown = resolver_graph_step(prev)
        assert grown.n == prev.n + 2
        assert are_adjacency_equal(aligned(grown), resolver_graph_indexed(4))


class TestCanonicalOrder:
    def test_sort_key_shape(self):
        assert label_sort_key(Combination((1, 2))) < label_sort_key(Combination((2, 2)))
        assert label_sort_key(Combination((2, 2))) < label_sort_key(Resolver(1))
        assert label_sort_key(Resolver(1)) < label_sort_key(Resolver(2))

    def test_requires_full_labeling(self):
        with pytest.raises(ValueError):
            canonical_order(Graph(2, [(0, 1)]))

    def test_aligned_is_canonical(self):
        g = aligned(resolver_graph_iterative(3))
        keys = [label_sort_key(lab) for lab in g.labels]
        assert keys == sorted(keys)

    def test_generation_order_backwards_example(self):
        # ones count breaks before lex does: 113 has two ones, 122 has one
        seqs = [s for s in combinations_with_replacement((1, 2, 3), 3)]
        assert seqs.index((1, 1, 3)) < seqs.index((1, 2, 2))
        assert Combination((1, 1, 3)).ones > Combination((1, 2, 2)).ones
