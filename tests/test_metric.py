from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapfam import (
    DisconnectedGraphError,
    Graph,
    SearchExhausted,
    combination_graph,
    diameter,
    dimension_search,
    is_multiset_resolving,
    is_outer_multiset_resolving,
    is_resolving,
    multiset_rep,
    outer_multiset_dimension,
    resolver_graph,
    vector_rep,
)
from lapfam.metric import _search, _separators
from helpers import (
    connected_graphs,
    naive_dimension,
    naive_distance_matrix,
    naive_outer_dimension,
    naive_resolves,
    unfiltered_search,
)

KINDS = ("outer", "multiset", "vector")


def brute_force_count(g, kind, max_size):
    """Subsets a size-ascending lexicographic enumeration tests before it
    stops, at its witness or after the last subset within the cap."""
    cap = g.n if max_size is None else min(max_size, g.n)
    found = naive_dimension(g, kind, max_size)
    if found is None:
        return sum(comb(g.n, s) for s in range(cap + 1))
    size, witness = found
    rank = list(combinations(range(g.n), size)).index(witness)
    return sum(comb(g.n, s) for s in range(size)) + rank + 1


def resolver_indices(g, c):
    return tuple(range(g.n - c, g.n))


class TestRepresentations:
    def test_vector_rep_small(self):
        g = resolver_graph(2, 3)
        w1, w2, w3 = resolver_indices(g, 3)
        assert vector_rep(g, w3, (w1, w2)) == (2, 2)

    def test_multiset_rep_sorts(self):
        g = resolver_graph(2, 3)
        all_twos = 3  # the sequence 222
        assert multiset_rep(g, all_twos, resolver_indices(g, 3)) == (2, 2, 2)

    def test_rep_errors(self):
        g = Graph.path(3)
        with pytest.raises(ValueError):
            vector_rep(g, 0, (1, 1))
        with pytest.raises(IndexError):
            vector_rep(g, 0, (5,))
        with pytest.raises(DisconnectedGraphError):
            vector_rep(Graph(2), 0, (1,))

    @pytest.mark.parametrize("u", [-1, 3, 7])
    def test_source_vertex_has_the_set_vertex_message(self, u):
        g = Graph.path(3)
        with pytest.raises(IndexError, match=rf"^vertex {u} out of range 0\.\.2$"):
            vector_rep(g, u, (1,))
        with pytest.raises(IndexError, match=rf"^vertex {u} out of range 0\.\.2$"):
            multiset_rep(g, u, (0, 2))
        with pytest.raises(IndexError, match=r"^vertex 5 out of range 0\.\.2$"):
            vector_rep(g, u, (5,))  # the set is checked first


class TestResolvingPredicates:
    def test_resolver_set_distinguishes_vectors(self):
        g = resolver_graph(2, 3)
        ws = resolver_indices(g, 3)
        assert is_resolving(g, ws)
        # w1 and w2 both see the multiset {0, 2, 2}
        assert not is_multiset_resolving(g, ws)
        assert is_outer_multiset_resolving(g, ws)

    def test_star_leaves(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not is_multiset_resolving(star, (1, 2))
        assert is_outer_multiset_resolving(star, (1, 2))

    def test_triangle_has_no_small_multiset_set(self):
        k3 = Graph.complete(3)
        singletons = [(v,) for v in range(3)]
        pairs = [(0, 1), (0, 2), (1, 2)]
        assert not any(is_multiset_resolving(k3, w) for w in singletons + pairs)
        assert is_resolving(k3, (0, 1))

    def test_whole_vertex_set_is_vacuously_outer(self):
        k3 = Graph.complete(3)
        assert is_outer_multiset_resolving(k3, (0, 1, 2))

    def test_outer_is_not_monotone(self):
        p4 = Graph.path(4)
        assert is_outer_multiset_resolving(p4, (0,))
        # adding the far endpoint merges the two middle vertices
        assert not is_outer_multiset_resolving(p4, (0, 3))


PREDICATES = {
    "outer": is_outer_multiset_resolving,
    "multiset": is_multiset_resolving,
    "vector": is_resolving,
}


class TestPredicateOracle:
    @settings(max_examples=40, deadline=None)
    @given(g=connected_graphs(max_n=7))
    def test_every_subset_matches_the_naive_rule(self, g):
        for size in range(g.n + 1):
            for ws in combinations(range(g.n), size):
                for kind, predicate in PREDICATES.items():
                    assert predicate(g, ws) == naive_resolves(g, ws, kind), (kind, ws)

    # Family members up to 24 vertices, where the codes are widest: the
    # vector kind's digits reach B**(n-1), the outer self term B**n * n.
    MEMBERS = {
        "gplus:4,3": resolver_graph(4, 3),
        "gplus:3,4": resolver_graph(3, 4),
        "g:4,3": combination_graph(4, 3),
        "g:3,4": combination_graph(3, 4),
        "gplus:2,11": resolver_graph(2, 11),
    }

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), spec=st.sampled_from(sorted(MEMBERS)))
    def test_family_members_match_the_naive_rule(self, data, spec):
        g = self.MEMBERS[spec]
        size = data.draw(st.integers(0, g.n), label="size")
        ws = tuple(data.draw(st.permutations(range(g.n)), label="order")[:size])
        for kind, predicate in PREDICATES.items():
            assert predicate(g, ws) == naive_resolves(g, ws, kind), (spec, kind, ws)


class TestResolverSetProperty:
    """The designed resolver set w1..wc seen from outside, per alphabet size."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_holds_for_small_alphabets(self, d, c):
        g = resolver_graph(d, c)
        assert is_outer_multiset_resolving(g, resolver_indices(g, c))

    @pytest.mark.parametrize("d", [4, 5])
    def test_single_resolver_any_alphabet(self, d):
        g = resolver_graph(d, 1)
        assert is_outer_multiset_resolving(g, resolver_indices(g, 1))

    def test_fails_at_alphabet_four_regression(self):
        # w1 is adjacent to every sequence containing a one and w2 is at
        # distance 2 from w1, so such a sequence is within 3 of both
        # resolvers; the sequences 13 and 14 then both see {1, 3}.
        g = resolver_graph(4, 2)
        ws = resolver_indices(g, 2)
        names = {str(lab): v for v, lab in enumerate(g.labels)}
        x, y = names["13"], names["14"]
        assert multiset_rep(g, x, ws) == (1, 3)
        assert multiset_rep(g, y, ws) == (1, 3)
        assert not is_outer_multiset_resolving(g, ws)

    @pytest.mark.parametrize("c", [2, 3])
    def test_fails_for_larger_alphabets_too(self, c):
        for d in (4, 5):
            g = resolver_graph(d, c)
            assert not is_outer_multiset_resolving(g, resolver_indices(g, c))


def delete_vertex(g, x):
    """g without vertex x; the later vertices shift down by one."""
    keep = [v for v in range(g.n) if v != x]
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if x not in (u, v)]
    return Graph(g.n - 1, edges, [g.labels[v] for v in keep])


def two_point_capacity(d):
    """The most distinct outer multisets {a1, a2} a pair S = {s1, s2} can
    see in a graph of diameter at most d: a1, a2 in 1..d, and the triangle
    inequality |a1 - a2| <= delta <= a1 + a2 for delta = dist(s1, s2)."""
    return max(
        len(
            {
                tuple(sorted((a1, a2)))
                for a1 in range(1, d + 1)
                for a2 in range(1, d + 1)
                if abs(a1 - a2) <= delta <= a1 + a2
            }
        )
        for delta in range(1, d + 1)
    )


class TestExtremalOrder:
    """f(4, 2) = 11: the most vertices of a graph with diameter 4 and outer
    multiset dimension 2, where gplus:4,2's 12 are out of reach."""

    def test_capacity_bounds_the_order_by_eleven(self):
        # the n - 2 outer vertices need distinct multisets
        assert two_point_capacity(4) == 9
        assert [two_point_capacity(d) for d in (2, 3, 5)] == [3, 6, 13]

    @pytest.mark.parametrize("label", ["13", "14"])
    def test_deleting_a_colliding_sequence_attains_it(self, label):
        g = resolver_graph(4, 2)
        h = delete_vertex(g, [str(lab) for lab in g.labels].index(label))
        assert (h.n, diameter(h)) == (11, 4)
        assert dimension_search(h) == (2, (9, 10))
        assert [str(h.labels[v]) for v in (9, 10)] == ["w1", "w2"]
        assert naive_outer_dimension(h) == (2, (9, 10))


class TestDimensionSearch:
    def test_single_vertex(self):
        assert dimension_search(Graph(1)) == (0, ())

    def test_path_three(self):
        assert dimension_search(Graph.path(3)) == (1, (0,))

    def test_path_four_all_kinds(self):
        # Every pair collides before a vertex joins, and W = {0} separates
        # the pairs (0, v) by 0 joining itself; for the outer kind the
        # endpoint resolves although both endpoints together do not.
        p4 = Graph.path(4)
        assert dimension_search(p4, kind="vector") == (1, (0,))
        assert dimension_search(p4, kind="multiset") == (1, (0,))
        assert dimension_search(p4, kind="outer") == (1, (0,))

    def test_known_family_dimensions(self):
        for d, c, want in ((2, 2, 2), (2, 3, 3), (3, 2, 2), (4, 2, 3)):
            g = resolver_graph(d, c)
            size, witness = dimension_search(g)
            assert size == want
            assert is_outer_multiset_resolving(g, witness)

    def test_wrapper(self):
        g = resolver_graph(2, 2)
        assert outer_multiset_dimension(g) == dimension_search(g, kind="outer")

    def test_exhaustion_by_cap(self):
        with pytest.raises(SearchExhausted) as exc:
            dimension_search(Graph.complete(2), kind="multiset", max_size=0)
        assert exc.value.max_size == 0
        assert exc.value.kind == "multiset"

    def test_negative_cap_rejected(self):
        for kind in ("outer", "multiset", "vector"):
            with pytest.raises(ValueError, match="non-negative"):
                dimension_search(resolver_graph(2, 2), kind=kind, max_size=-1)

    def test_triangle_exhausts_multiset_search(self):
        # every vertex of K3 sees the same distance multiset {0, 1, 1}
        with pytest.raises(SearchExhausted):
            dimension_search(Graph.complete(3), kind="multiset")

    def test_size_guard(self):
        big = Graph.path(25)
        with pytest.raises(ValueError):
            dimension_search(big)
        assert dimension_search(big, allow_large=True) == (1, (0,))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            dimension_search(Graph(1), kind="metric")

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            dimension_search(Graph(2))

    @settings(max_examples=40, deadline=None)
    @given(g=connected_graphs(max_n=7))
    def test_matches_brute_force_oracle(self, g):
        assert dimension_search(g, kind="outer") == naive_outer_dimension(g)

    @settings(max_examples=200, deadline=None)
    @given(
        g=connected_graphs(max_n=8),
        kind=st.sampled_from(KINDS),
        max_size=st.sampled_from([None, 0, 1, 2, 3]),
    )
    def test_matches_brute_force_all_kinds(self, g, kind, max_size):
        want = naive_dimension(g, kind, max_size)
        if want is None:
            with pytest.raises(SearchExhausted) as exc:
                dimension_search(g, kind, max_size)
            counters = exc.value
        else:
            counters = dimension_search(g, kind, max_size)
            assert counters == want
        # every subset the brute force tests is either tested or pruned
        assert counters.subsets_tested + counters.pruned == brute_force_count(
            g, kind, max_size
        )

    @settings(max_examples=40, deadline=None)
    @given(g=connected_graphs(max_n=6))
    def test_multiset_implies_vector_and_outer(self, g):
        for size in range(1, g.n + 1):
            for ws in combinations(range(g.n), size):
                if is_multiset_resolving(g, ws):
                    assert is_resolving(g, ws)
                    assert is_outer_multiset_resolving(g, ws)


class TestPruning:
    """Cases the pair-pruning rule and the code encoding must get right."""

    def test_outer_dimension_of_gplus_4_3(self):
        # the lex-first minimal set: seven vertices, not the three resolvers
        g = resolver_graph(4, 3)
        found = dimension_search(g, kind="outer")
        assert found == (7, (0, 1, 4, 10, 12, 20, 21))
        # README's "53573 of 156663"
        assert (found.subsets_tested, found.pruned) == (53573, 103090)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_complete_graph_multiset(self, k):
        # every vertex of K_k sees one 0 and its other distances are all 1,
        # so counts reach k - 1 and only K_1 and K_2 have a multiset
        # resolving set
        g = Graph.complete(k)
        want = naive_dimension(g, "multiset")
        assert want == {1: (0, ()), 2: (1, (0,))}.get(k)
        if want is None:
            with pytest.raises(SearchExhausted):
                dimension_search(g, kind="multiset")
        else:
            assert dimension_search(g, kind="multiset") == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_counters_are_deterministic(self, kind):
        g = resolver_graph(3, 3)
        first = dimension_search(g, kind=kind)
        again = dimension_search(g, kind=kind)
        assert first.subsets_tested + first.pruned > 0
        assert (first.subsets_tested, first.pruned) == (
            again.subsets_tested,
            again.pruned,
        )
        assert first.subsets_tested + first.pruned == brute_force_count(g, kind, None)


class TestLastPick:
    """The last pick is tested by codes only where it separates every pair
    of equal codes; the search must still report what the unfiltered
    search reports, counters included."""

    @settings(max_examples=300, deadline=None)
    @given(
        g=connected_graphs(max_n=9),
        kind=st.sampled_from(KINDS),
        max_size=st.sampled_from([None, 0, 1, 2, 3]),
    )
    def test_matches_the_unfiltered_search(self, g, kind, max_size):
        cap = g.n if max_size is None else min(max_size, g.n)
        assert _search(g, kind, cap) == unfiltered_search(g, kind, cap)

    @settings(max_examples=100, deadline=None)
    @given(g=connected_graphs(max_n=9).filter(lambda g: g.n >= 2))
    def test_separator_tables(self, g):
        dist = naive_distance_matrix(g)
        n = g.n
        sep, lasts, keeps = _separators(g.levels())
        for u in range(n):
            for v in range(n):
                assert sep[u][v] == sum(
                    1 << w for w in range(n) if dist[u][w] != dist[v][w]
                )
        pairs = sorted(
            (max(w for w in range(n) if dist[u][w] != dist[v][w]), u, v)
            for u in range(n)
            for v in range(u + 1, n)
        )
        assert lasts == [last for last, _, _ in pairs]
        for w in range(n):
            assert keeps[w] == sum(
                1 << i for i, (_, u, v) in enumerate(pairs) if dist[w][u] == dist[w][v]
            )


# (spec, kind, max_size, dimension, witness, subsets_tested, pruned) for the
# perfbench ``dimension`` family jobs; dimension and witness None: the
# search is exhausted within the cap.
PINNED_SEARCHES = (
    ("g:3,3", "outer", None, 5, (0, 1, 2, 3, 9), 6, 386),
    ("g:3,3", "multiset", None, None, None, 525, 499),
    ("g:3,3", "vector", None, 4, (0, 1, 2, 9), 45, 138),
    ("g:3,4", "outer", None, 8, (0, 1, 2, 3, 4, 5, 6, 14), 2771, 13621),
    ("g:3,4", "multiset", None, None, None, 15082, 17686),
    ("g:3,4", "vector", None, 5, (0, 1, 4, 9, 14), 286, 1811),
    ("g:4,2", "outer", None, 4, (0, 5, 7, 8), 161, 93),
    ("g:4,2", "multiset", None, 5, (0, 1, 3, 4, 7), 288, 122),
    ("g:4,2", "vector", None, 2, (0, 9), 9, 11),
    ("g:4,3", "vector", None, 4, (0, 1, 9, 19), 387, 1072),
    ("g:5,2", "outer", None, 4, (0, 1, 2, 14), 294, 294),
    ("g:5,2", "multiset", None, 4, (0, 2, 6, 14), 398, 294),
    ("g:5,2", "vector", None, 2, (0, 14), 14, 16),
    ("g:6,2", "outer", None, 4, (0, 1, 2, 18), 789, 789),
    ("g:6,2", "multiset", None, 4, (0, 2, 6, 19), 1005, 789),
    ("g:6,2", "vector", None, 2, (0, 20), 20, 22),
    ("gplus:2,5", "outer", None, 5, (1, 2, 3, 4, 5), 57, 716),
    ("gplus:2,5", "multiset", None, None, None, 844, 1204),
    ("gplus:2,5", "vector", None, 5, (1, 2, 3, 4, 5), 196, 577),
    ("gplus:2,6", "outer", None, 6, (1, 2, 3, 4, 5, 6), 153, 3020),
    ("gplus:2,6", "vector", None, 6, (1, 2, 3, 4, 5, 6), 533, 2640),
    ("gplus:2,7", "outer", None, 7, (1, 2, 3, 4, 5, 6, 7), 419, 12534),
    ("gplus:2,7", "vector", None, 7, (1, 2, 3, 4, 5, 6, 7), 1670, 11283),
    ("gplus:2,8", "outer", None, 8, (1, 2, 3, 4, 5, 6, 7, 8), 1160, 51507),
    ("gplus:3,3", "outer", None, 3, (10, 11, 12), 186, 192),
    ("gplus:3,3", "multiset", None, 5, (1, 4, 10, 11, 12), 1141, 707),
    ("gplus:3,3", "vector", None, 3, (9, 11, 12), 185, 192),
    ("gplus:3,4", "outer", None, 4, (15, 16, 17, 18), 2065, 2971),
    ("gplus:3,4", "vector", None, 4, (14, 16, 17, 18), 2655, 2380),
    ("gplus:4,2", "outer", None, 3, (3, 10, 11), 159, 84),
    ("gplus:4,2", "multiset", None, 3, (3, 10, 11), 159, 84),
    ("gplus:4,2", "vector", None, 3, (0, 1, 8), 41, 45),
    ("gplus:5,2", "outer", None, 4, (0, 1, 2, 6), 357, 481),
    ("gplus:5,2", "multiset", None, 4, (1, 2, 9, 16), 689, 775),
    ("gplus:5,2", "vector", None, 3, (0, 2, 4), 53, 118),
    ("gplus:6,2", "outer", None, 4, (0, 1, 2, 7), 591, 1462),
    ("gplus:6,2", "multiset", None, 4, (1, 2, 11, 22), 1144, 2579),
    ("gplus:6,2", "vector", None, 3, (0, 2, 4), 80, 220),
    ("gplus:4,2", "outer", 2, None, None, 34, 45),
    ("gplus:3,4", "outer", 3, None, None, 0, 1160),
    ("g:4,3", "vector", 3, None, None, 295, 1056),
    ("g:6,2", "outer", 3, None, None, 773, 789),
    ("gplus:5,2", "vector", 2, None, None, 46, 108),
    ("gplus:6,2", "multiset", 3, None, None, 586, 1462),
)


class TestPinnedCounters:
    """The work counters are outputs too: pruning reads distance rows, so a
    change to the code encoding must leave every counter as it is."""

    @pytest.mark.parametrize(
        "spec, kind, max_size, size, witness, tested, pruned",
        PINNED_SEARCHES,
        ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in PINNED_SEARCHES],
    )
    def test_search_outputs(self, spec, kind, max_size, size, witness, tested, pruned):
        family, numbers = spec.split(":")
        builder = {"g": combination_graph, "gplus": resolver_graph}[family]
        g = builder(*map(int, numbers.split(",")))
        try:
            found = dimension_search(g, kind, max_size)
        except SearchExhausted as exc:
            found = exc
            assert size is None
        else:
            assert tuple(found) == (size, witness)
        assert (found.subsets_tested, found.pruned) == (tested, pruned)
