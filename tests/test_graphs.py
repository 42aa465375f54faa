import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    component_count,
    edge_disjoint_union,
    edge_join,
    graphs,
    labeled_graphs,
    masks,
    naive_distances,
)
from lapfam import (
    Combination,
    DisconnectedGraphError,
    Graph,
    Resolver,
    all_pairs_distances,
    are_adjacency_equal,
    bfs_distances,
    degree_sequence,
    diameter,
    disjoint_union,
    eccentricities,
    join,
    permuted,
    radius,
)


class TestConstruction:
    def test_basic(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.edge_count == 2
        assert g.adjacent(0, 1) and g.adjacent(1, 0)
        assert not g.adjacent(0, 2)

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            Graph(2, [], [Combination((1,))])

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            Graph(2, [], [Resolver(1), Resolver(1)])

    def test_partial_labels_allowed(self):
        g = Graph(2, [], [Resolver(1), None])
        assert g.labels == (Resolver(1), None)

    def test_complete(self):
        k4 = Graph.complete(4)
        assert k4.edge_count == 6
        assert all(k4.degree(v) == 3 for v in range(4))

    def test_path(self):
        p4 = Graph.path(4)
        assert p4.edge_count == 3
        assert degree_sequence(p4) == [2, 2, 1, 1]

    def test_edges_sorted(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 2)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]


class TestFromMasks:
    def test_builds_the_graph(self):
        g = Graph._from_masks([0b110, 0b101, 0b011])
        assert g.n == 3 and g.edge_count == 3
        assert list(g.edges()) == list(Graph.complete(3).edges())

    def test_empty(self):
        assert Graph._from_masks([]).n == 0

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph._from_masks([0b10, 0b11])

    def test_bit_at_n(self):
        with pytest.raises(ValueError, match="range"):
            Graph._from_masks([0b100, 0b000])

    def test_negative_mask(self):
        # Caught before any bit is iterated: iterating the bits of -2 never ends.
        with pytest.raises(ValueError, match="range"):
            Graph._from_masks([-2, 0b01])

    def test_asymmetric_above_diagonal(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph._from_masks([0b10, 0b00])

    def test_asymmetric_below_diagonal(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph._from_masks([0b000, 0b001, 0b001])

    def test_asymmetric_with_balanced_counts(self):
        # 0 lists 1 and 2 lists 0: one pair above, one below, neither mirrored
        with pytest.raises(ValueError, match="asymmetric"):
            Graph._from_masks([0b010, 0b000, 0b001])

    def test_label_count(self):
        with pytest.raises(ValueError, match="labels"):
            Graph._from_masks([0b10, 0b01], [Resolver(1)])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            Graph._from_masks([0b10, 0b01], [Resolver(1), Resolver(1)])

    def test_edge_input_shares_the_validator(self):
        assert Graph(3, [(0, 1), (1, 0), (0, 1)]).edge_count == 1
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(0, 0)])

    @settings(max_examples=80, deadline=None)
    @given(g=labeled_graphs(max_n=10), data=st.data())
    def test_edge_input_equals_the_walked_masks(self, g, data):
        # Graph(n, edges) packs its edges and walks them like any masks;
        # duplicate and reversed edges collapse into the same masks.
        edges = list(g.edges())
        edges += data.draw(st.lists(st.sampled_from(edges))) if edges else []
        edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
        built = Graph(g.n, edges, g.labels)
        walked = Graph._from_masks(masks(g), g.labels)
        assert masks(built) == masks(walked)
        assert (built.edge_count, built.labels) == (walked.edge_count, walked.labels)


class TestLabels:
    def test_combination_str(self):
        assert str(Combination((1, 1, 2))) == "112"
        assert str(Combination((2, 10))) == "2-10"

    def test_combination_ones(self):
        assert Combination((1, 1, 3)).ones == 2
        assert Combination((2, 2)).ones == 0

    def test_combination_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            Combination((2, 1))

    def test_combination_entries_positive(self):
        with pytest.raises(ValueError):
            Combination((0, 1))

    def test_resolver(self):
        assert str(Resolver(3)) == "w3"
        with pytest.raises(ValueError):
            Resolver(0)


class TestDistances:
    def test_path_distances(self):
        assert bfs_distances(Graph.path(4), 0) == [0, 1, 2, 3]

    def test_unreachable_is_none(self):
        assert bfs_distances(Graph(3, [(0, 1)]), 0) == [0, 1, None]

    def test_bad_source(self):
        with pytest.raises(IndexError):
            bfs_distances(Graph(2), 5)

    @given(graphs(), st.data())
    @settings(max_examples=60)
    def test_matches_queue_bfs(self, g, data):
        """Bitset BFS agrees with a plain deque BFS on arbitrary graphs."""
        source = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        assert bfs_distances(g, source) == naive_distances(g, source)

    def test_all_pairs_returns_fresh_lists(self):
        g = Graph.path(3)
        first = all_pairs_distances(g)
        first[0][2] = 99
        assert all_pairs_distances(g) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        assert all_pairs_distances(g) is not all_pairs_distances(g)

    def test_distances_computed_once_per_graph(self, monkeypatch):
        import lapfam.graphs as graphs_module
        from lapfam import (
            dimension_search,
            is_multiset_resolving,
            is_outer_multiset_resolving,
            is_resolving,
            multiset_rep,
            radius,
            resolver_graph,
            vector_rep,
        )

        sources = []
        real = graphs_module._walk
        monkeypatch.setattr(
            graphs_module,
            "_walk",
            lambda adj, start, within: sources.append(start) or real(adj, start, within),
        )
        g = resolver_graph(2, 3)
        for _ in range(2):
            eccentricities(g), diameter(g), radius(g), all_pairs_distances(g)
            vector_rep(g, 0, (1, 2)), multiset_rep(g, 0, (1, 2))
            is_resolving(g, (0,)), is_multiset_resolving(g, (0,))
            is_outer_multiset_resolving(g, (0,)), dimension_search(g)
        assert sources == list(range(g.n))
        # the cache belongs to the graph: an equal graph computes its own
        eccentricities(g.with_labels(None))
        assert sources == list(range(g.n)) * 2

    @given(graphs(max_n=8))
    @settings(max_examples=100)
    def test_levels_match_queue_bfs(self, g):
        """Each vertex's levels are disjoint, cover exactly its component
        and agree with a deque BFS; eccentricities, diameter and radius
        agree with the rows, or the graph is disconnected."""
        rows = [naive_distances(g, u) for u in range(g.n)]
        for u, levels in enumerate(g.levels()):
            union = 0
            for level in levels:
                assert level and not level & union
                union |= level
            assert union == sum(1 << v for v in range(g.n) if rows[u][v] is not None)
            assert [[v for v in range(g.n) if level >> v & 1] for level in levels] == [
                [v for v in range(g.n) if rows[u][v] == k] for k in range(len(levels))
            ]
        if any(None in row for row in rows):
            for fn in (eccentricities, diameter, radius):
                with pytest.raises(DisconnectedGraphError):
                    fn(g)
            return
        ecc = [max(row) for row in rows]
        assert (eccentricities(g), diameter(g), radius(g)) == (ecc, max(ecc), min(ecc))

    @given(graphs(max_n=6))
    @settings(max_examples=40)
    def test_all_pairs_symmetric(self, g):
        dist = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dist[u][v] == dist[v][u]


class TestEccentricity:
    def test_path(self):
        p5 = Graph.path(5)
        assert eccentricities(p5) == [4, 3, 2, 3, 4]
        assert diameter(p5) == 4
        assert radius(p5) == 2

    def test_complete(self):
        assert diameter(Graph.complete(4)) == 1
        assert radius(Graph.complete(4)) == 1

    def test_single_vertex(self):
        assert diameter(Graph(1)) == 0

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            eccentricities(Graph(2))

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            eccentricities(Graph(0))


class TestUnionJoin:
    def test_union_shifts_second(self):
        g = disjoint_union(Graph.path(2), Graph.path(3))
        assert g.n == 5
        assert list(g.edges()) == [(0, 1), (2, 3), (3, 4)]

    def test_join_adds_cross_edges(self):
        g = join(Graph(1), Graph.path(2))
        assert g.n == 3
        assert g.edge_count == 3  # triangle

    def test_union_keeps_labels(self):
        a = Graph(1, (), (Combination((1,)),))
        b = Graph(1, (), (Resolver(1),))
        assert disjoint_union(a, b).labels == (Combination((1,)), Resolver(1))

    def test_union_drops_duplicate_label(self):
        # collision keeps the first copy, second vertex becomes unlabeled
        a = Graph(1, (), (Resolver(1),))
        b = Graph(1, (), (Resolver(1),))
        assert disjoint_union(a, b).labels == (Resolver(1), None)

    @given(graphs(max_n=5), graphs(max_n=5))
    @settings(max_examples=40)
    def test_join_counts(self, a, b):
        g = join(a, b)
        assert g.n == a.n + b.n
        assert g.edge_count == a.edge_count + b.edge_count + a.n * b.n

    @given(graphs(max_n=5), graphs(max_n=5))
    @settings(max_examples=40)
    def test_union_component_count(self, a, b):
        u = disjoint_union(a, b)
        assert component_count(u) == component_count(a) + component_count(b)


    @given(labeled_graphs(max_n=10), labeled_graphs(max_n=10))
    @settings(max_examples=60)
    def test_union_matches_edge_oracle(self, a, b):
        g, want = disjoint_union(a, b), edge_disjoint_union(a, b)
        assert (masks(g), g.labels, g.edge_count) == (masks(want), want.labels, want.edge_count)

    @given(labeled_graphs(max_n=10), labeled_graphs(max_n=10))
    @settings(max_examples=60)
    def test_join_matches_edge_oracle(self, a, b):
        g, want = join(a, b), edge_join(a, b)
        assert (masks(g), g.labels, g.edge_count) == (masks(want), want.labels, want.edge_count)

    def test_with_labels_keeps_adjacency(self):
        g = Graph.path(3).with_labels([Resolver(1), None, Resolver(2)])
        assert list(g.edges()) == [(0, 1), (1, 2)] and g.edge_count == 2
        assert g.labels == (Resolver(1), None, Resolver(2))


class TestPermuted:
    def test_reverse_path(self):
        g = permuted(Graph.path(3), [2, 1, 0])
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_labels_follow(self):
        g = Graph(2, [(0, 1)], (Combination((1,)), Combination((2,))))
        h = permuted(g, [1, 0])
        assert h.labels == (Combination((2,)), Combination((1,)))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permuted(Graph(2), [0, 0])

    @given(graphs(max_n=6), st.randoms())
    @settings(max_examples=40)
    def test_roundtrip(self, g, rng):
        order = list(range(g.n))
        rng.shuffle(order)
        h = permuted(g, order)
        assert degree_sequence(h) == degree_sequence(g)
        inverse = [0] * g.n
        for new, old in enumerate(order):
            inverse[old] = new
        assert are_adjacency_equal(permuted(h, inverse), g)


def test_adjacency_equal_size_mismatch():
    with pytest.raises(ValueError):
        are_adjacency_equal(Graph(2), Graph(3))


def test_adjacency_equal_ignores_labels():
    a = Graph(2, [(0, 1)], (Resolver(1), Resolver(2)))
    b = Graph(2, [(0, 1)])
    assert are_adjacency_equal(a, b)
