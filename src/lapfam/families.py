"""Constructors for the combination graph family and its resolver extension.

The base family on parameters (d, c): vertices are the nondecreasing
length-c sequences over {1..d} (combinations with repetition), adjacent
when every coordinate differs by at most 1.  The extended family appends
resolver vertices w_1..w_c, with w_i adjacent to exactly the combination
vertices whose label contains at least i entries equal to 1.

For d = 2 the extended graph has two further, independent constructions
used for cross-validation: an explicit banded edge list on 2c+1 vertices
(``resolver_graph_indexed``) and a grow-by-two recipe
(``resolver_graph_iterative``).
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement
from math import comb
from operator import and_, getitem
from typing import Sequence

from .graphs import Combination, Graph, Label, Resolver, disjoint_union, join, permuted


def _check_params(d: int, c: int) -> None:
    if d < 1 or c < 1:
        raise ValueError(f"parameters must be positive: d={d}, c={c}")


def combination_labels(d: int, c: int) -> list[Combination]:
    """All nondecreasing length-c sequences over {1..d}, lexicographic order."""
    _check_params(d, c)
    return [Combination(seq) for seq in combinations_with_replacement(range(1, d + 1), c)]


def expected_orders(d: int, c: int) -> tuple[int, int]:
    """Closed-form vertex counts (base graph, extended graph)."""
    _check_params(d, c)
    base = comb(d + c - 1, d - 1)
    return base, base + c


def combination_graph(d: int, c: int) -> Graph:
    """Base family member: labels in lexicographic order, edges by |x_i - y_i| <= 1.

    A vertex's neighbourhood is the AND of its c masks "entry i within 1 of
    t" (``_near``) less itself: O(n*c) big-int operations, not O(n^2*c).
    """
    labels = combination_labels(d, c)
    (near,) = _near(labels, d, [1])
    masks = [reduce(and_, map(getitem, near, lab.seq)) & ~(1 << v) for v, lab in enumerate(labels)]
    return Graph._from_masks(masks, labels)


def _near(labels: Sequence[Combination], d: int, radii: Sequence[int]) -> list[list[list[int]]]:
    """One near[i][t] per radius k in ``radii``: the vertices whose entry i lies
    within k of t (t = 0..d), a sum of the disjoint masks "entry i is s"."""
    exact = [[0] * (d + 1) for _ in labels[0].seq]
    for v, label in enumerate(labels):
        for i, t in enumerate(label.seq):
            exact[i][t] |= 1 << v
    return [
        [[sum(row[max(t - k, 1) : t + k + 1]) for t in range(d + 1)] for row in exact]
        for k in radii
    ]


def resolver_graph(d: int, c: int) -> Graph:
    """Extended family member: base graph plus resolver vertices w_1..w_c.

    Resolver w_i is adjacent to the combination vertices with at least i
    ones; resolvers are pairwise nonadjacent.  Vertex order: combination
    labels in lexicographic order, then w_1..w_c.
    """
    return _with_resolvers(combination_graph(d, c), c)


def _with_resolvers(base: Graph, c: int) -> Graph:
    """``resolver_graph(d, c)`` from its base ``combination_graph(d, c)``."""
    nb = base.n
    ones = [label.ones for label in base.labels]
    masks = [base.neighbor_mask(v) | ((1 << k) - 1) << nb for v, k in enumerate(ones)]
    masks += [sum(1 << v for v, k in enumerate(ones) if k >= i) for i in range(1, c + 1)]
    labels = list(base.labels) + [Resolver(i) for i in range(1, c + 1)]
    return Graph._from_masks(masks, labels)


def resolver_graph_indexed(c: int) -> Graph:
    """d = 2 extended graph from its banded edge list on vertices 1..2c+1.

    Band h (h = 1..c) joins vertex h to every vertex j with
    h+1 <= j <= 2c+2-h; indices here are 0-based internally.  Vertex h
    (1-based, h <= c+1) carries the label with c+1-h ones; the last c
    vertices are w_1..w_c.
    """
    _check_params(2, c)
    edges = [
        (h - 1, j - 1)
        for h in range(1, c + 1)
        for j in range(h + 1, 2 * c + 2 - h + 1)
    ]
    labels: list[Label] = [
        Combination((1,) * (c - k) + (2,) * k) for k in range(c + 1)
    ]
    labels += [Resolver(i) for i in range(1, c + 1)]
    return Graph(2 * c + 1, edges, labels)


def resolver_graph_step(prev: Graph) -> Graph:
    """One growth step of the d = 2 recipe.

    Given the extended graph for c-1 (labeled, 2c-1 vertices): append a 2
    to every combination label, add an isolated vertex labeled w_c, then
    join a new vertex labeled 1^c to all of them.
    """
    if prev.n % 2 == 0 or prev.labels is None or None in prev.labels:
        raise ValueError("step input must be a fully labeled graph on an odd vertex count")
    c = (prev.n - 1) // 2 + 1
    relabeled = prev.with_labels(
        [
            Combination(lab.seq + (2,)) if isinstance(lab, Combination) else lab
            for lab in prev.labels
        ]
    )
    new_resolver = Graph(1, (), (Resolver(c),))
    all_ones = Graph(1, (), (Combination((1,) * c),))
    return join(all_ones, disjoint_union(new_resolver, relabeled))


def resolver_graph_iterative(c: int) -> Graph:
    """d = 2 extended graph grown from the 3-vertex path by repeated steps.

    The base case is the path on labels 2, 1, w_1 (in that vertex order);
    each step is ``resolver_graph_step``.  The result is adjacency-equal to
    ``resolver_graph(2, c)`` after ``aligned``.
    """
    _check_params(2, c)
    g = Graph(
        3,
        [(0, 1), (1, 2)],
        (Combination((2,)), Combination((1,)), Resolver(1)),
    )
    for _ in range(c - 1):
        g = resolver_graph_step(g)
    return g


def label_sort_key(label: Label) -> tuple:
    """Canonical vertex order: combinations by decreasing ones count then
    lexicographic sequence, then resolvers by index."""
    if isinstance(label, Combination):
        return (0, -label.ones, label.seq)
    return (1, label.index)


def canonical_order(g: Graph) -> list[int]:
    if g.labels is None or None in g.labels:
        raise ValueError("canonical order requires a fully labeled graph")
    return sorted(range(g.n), key=lambda v: label_sort_key(g.labels[v]))


def aligned(g: Graph) -> Graph:
    """Reindex a labeled graph into canonical label order."""
    return permuted(g, canonical_order(g))
