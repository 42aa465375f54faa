"""Distance representations and resolving-set search.

Three notions of a resolving set W, in decreasing strength of the
representation attached to each vertex u:

* vector: the tuple of distances from u to W in a fixed order,
* multiset: the same distances with order forgotten,
* outer multiset: multiset representations, but only vertices outside W
  need to be distinguished.

Search goes size-ascending through subsets in lexicographic order, so the
reported dimension is minimal and the witness is the lexicographically
first one of that size.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .graphs import DisconnectedGraphError, Graph, all_pairs_distances

# A subset search over more than this many vertices will not finish in
# reasonable time; callers must opt in explicitly.
SEARCH_VERTEX_LIMIT = 24

_KINDS = ("outer", "multiset", "vector")


class SearchExhausted(Exception):
    """No subset up to the requested size resolves the graph."""

    def __init__(self, kind: str, max_size: int):
        super().__init__(f"no {kind} resolving set of size <= {max_size}")
        self.kind = kind
        self.max_size = max_size


def _distance_matrix(g: Graph) -> list[list[int]]:
    rows = all_pairs_distances(g)
    for row in rows:
        if any(dist is None for dist in row):
            raise DisconnectedGraphError(
                "distance representations need a connected graph"
            )
    return rows  # type: ignore[return-value]


def _check_vertices(g: Graph, vertices: Sequence[int]) -> tuple[int, ...]:
    vs = tuple(vertices)
    for v in vs:
        if not 0 <= v < g.n:
            raise IndexError(f"vertex {v} out of range 0..{g.n - 1}")
    if len(set(vs)) != len(vs):
        raise ValueError(f"repeated vertices in {vs}")
    return vs


def vector_rep(g: Graph, u: int, order: Sequence[int]) -> tuple[int, ...]:
    """Distances from u to each vertex of ``order``, in that order."""
    order = _check_vertices(g, order)
    if not 0 <= u < g.n:
        raise IndexError(f"vertex {u} out of range 0..{g.n - 1}")
    dist = _distance_matrix(g)
    return tuple(dist[u][w] for w in order)


def multiset_rep(g: Graph, u: int, vertices: Sequence[int]) -> tuple[int, ...]:
    """Distances from u to ``vertices``, sorted ascending (multiset as tuple)."""
    return tuple(sorted(vector_rep(g, u, vertices)))


def _injective(reps: list[tuple[int, ...]]) -> bool:
    return len(set(reps)) == len(reps)


def is_resolving(g: Graph, vertices: Sequence[int]) -> bool:
    """True iff distance vectors to ``vertices`` are distinct over all of V."""
    vs = _check_vertices(g, vertices)
    dist = _distance_matrix(g)
    return _injective([tuple(dist[u][w] for w in vs) for u in range(g.n)])


def is_multiset_resolving(g: Graph, vertices: Sequence[int]) -> bool:
    """True iff distance multisets to ``vertices`` are distinct over all of V."""
    vs = _check_vertices(g, vertices)
    dist = _distance_matrix(g)
    return _injective([tuple(sorted(dist[u][w] for w in vs)) for u in range(g.n)])


def is_outer_multiset_resolving(g: Graph, vertices: Sequence[int]) -> bool:
    """True iff distance multisets to ``vertices`` are distinct over V minus
    the set itself."""
    vs = _check_vertices(g, vertices)
    dist = _distance_matrix(g)
    inside = set(vs)
    return _injective(
        [tuple(sorted(dist[u][w] for w in vs)) for u in range(g.n) if u not in inside]
    )


def dimension_search(
    g: Graph,
    kind: str = "outer",
    max_size: int | None = None,
    *,
    allow_large: bool = False,
) -> tuple[int, tuple[int, ...]]:
    """Smallest resolving set of the requested kind, with its first witness.

    Returns (size, witness).  Raises SearchExhausted when no subset of size
    up to ``max_size`` (default: all of V) works, and ValueError on a negative
    ``max_size``, or on graphs past SEARCH_VERTEX_LIMIT without ``allow_large``.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}: {kind!r}")
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be non-negative: {max_size}")
    if g.n > SEARCH_VERTEX_LIMIT and not allow_large:
        raise ValueError(
            f"subset search over {g.n} > {SEARCH_VERTEX_LIMIT} vertices; "
            "pass allow_large=True to force"
        )
    dist = _distance_matrix(g)
    cap = g.n if max_size is None else min(max_size, g.n)

    def resolves(vs: tuple[int, ...]) -> bool:
        if kind == "vector":
            reps = [tuple(dist[u][w] for w in vs) for u in range(g.n)]
        elif kind == "multiset":
            reps = [tuple(sorted(dist[u][w] for w in vs)) for u in range(g.n)]
        else:
            inside = set(vs)
            reps = [
                tuple(sorted(dist[u][w] for w in vs))
                for u in range(g.n)
                if u not in inside
            ]
        return _injective(reps)

    for size in range(cap + 1):
        for vs in combinations(range(g.n), size):
            if resolves(vs):
                return size, vs
    raise SearchExhausted(kind, cap)


def outer_multiset_dimension(
    g: Graph, max_size: int | None = None, *, allow_large: bool = False
) -> tuple[int, tuple[int, ...]]:
    """Convenience wrapper: dimension_search with kind="outer"."""
    return dimension_search(g, "outer", max_size, allow_large=allow_large)
