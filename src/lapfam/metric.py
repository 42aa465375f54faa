"""Distance representations and resolving-set search.

Three notions of a resolving set W, in decreasing strength of the
representation attached to each vertex u:

* vector: the tuple of distances from u to W in a fixed order,
* multiset: the same distances with order forgotten,
* outer multiset: multiset representations, but only vertices outside W
  need to be distinguished.

One representation rule serves the predicates and the search.  Every
vertex u gets one integer code for its representation, built as the
vertices of W join one at a time, with base B = n + 1:

* vector: ``code = code * B + dist(w, u)``, the distance vector read as
  base-B digits (every distance is at most n - 1 < B);
* multiset and outer: ``code = code + B ** dist(w, u)``, the count of each
  distance read as a base-B digit (every count is at most |W| <= n < B).

Both encodings are injective, so W resolves exactly when the compared
vertices (all of V, or V minus W for the outer kind) have pairwise
distinct codes.

The search goes size-ascending, and within a size depth-first through
the subsets in lexicographic order, updating the codes as each vertex
joins, so the reported dimension is minimal and the witness is the
lexicographically first one of that size.  Two rules skip work without
losing an answer:

* Counting bound.  The vertices outside a k-set need distinct codes, and
  over {1..D}, D the diameter, there are only D**k distance vectors
  (Khuller, Raghavachari and Rosenfeld, "Landmarks in graphs", 1996) and
  C(D+k-1, k) distance multisets; smaller sizes are not searched.
* Pair pruning.  For each pair u, v the last vertex w with
  dist(u, w) != dist(v, w) is precomputed.  A partial set is dropped when
  two compared vertices collide and no vertex at or after the next
  candidate separates them, since a vertex that does not separate them
  keeps their codes equal.  This is sound for the outer kind too, where adding a
  vertex can break resolution and a pair stops counting once one of its
  vertices joins W: w = u and w = v always separate u and v, so a pair
  whose separators have all passed can no longer lose a vertex to W
  either.  The colliding pairs are a bitmask that only shrinks as
  vertices join.  In the multiset kinds two vertices with different
  multisets can come to collide; such pairs are not tracked, which
  prunes less but never wrongly, and the final check by codes sees them.

``subsets_tested`` counts the full-size subsets the search checked, and
``pruned`` the ones it skipped by either rule.  Their sum is exactly the
number of subsets a brute-force search tests before it stops.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .graphs import DisconnectedGraphError, Graph

# A subset search over more than this many vertices will not finish in
# reasonable time; callers must opt in explicitly.
SEARCH_VERTEX_LIMIT = 24

_KINDS = ("outer", "multiset", "vector")


class SearchExhausted(Exception):
    """No subset up to the requested size resolves the graph.

    ``subsets_tested`` and ``pruned`` are the search's work counters.
    """

    def __init__(
        self, kind: str, max_size: int, subsets_tested: int = 0, pruned: int = 0
    ):
        super().__init__(f"no {kind} resolving set of size <= {max_size}")
        self.kind = kind
        self.max_size = max_size
        self.subsets_tested = subsets_tested
        self.pruned = pruned


class SearchResult(tuple):
    """``(size, witness)`` as returned by ``dimension_search``, with the
    search's work counters as the attributes ``subsets_tested`` and
    ``pruned`` (in the manner of ``os.stat_result``)."""

    subsets_tested: int
    pruned: int

    def __new__(
        cls, size: int, witness: tuple[int, ...], subsets_tested: int, pruned: int
    ) -> "SearchResult":
        self = super().__new__(cls, (size, witness))
        self.subsets_tested = subsets_tested
        self.pruned = pruned
        return self


def _distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    rows = g.distances()
    # vertex 0 reaches every vertex exactly when the graph is connected
    if rows and None in rows[0]:
        raise DisconnectedGraphError("distance representations need a connected graph")
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
    row = _distance_matrix(g)[u]
    return tuple(row[w] for w in order)


def multiset_rep(g: Graph, u: int, vertices: Sequence[int]) -> tuple[int, ...]:
    """Distances from u to ``vertices``, sorted ascending (multiset as tuple)."""
    return tuple(sorted(vector_rep(g, u, vertices)))


def _code_terms(row: Sequence[int], kind: str) -> tuple[int, list[int]]:
    """(scale, terms) for the vertex w with distance row ``row`` joining W:
    each code c[u] becomes ``c[u] * scale + terms[u]``."""
    base = len(row) + 1
    if kind == "vector":
        return base, list(row)
    return 1, [base**x for x in row]


def _distinct(codes: Sequence[int], vs: Sequence[int], kind: str) -> bool:
    """True iff the compared vertices have pairwise distinct codes."""
    if kind == "outer":
        inside = set(vs)
        codes = [c for u, c in enumerate(codes) if u not in inside]
    return len(set(codes)) == len(codes)


def _resolves(g: Graph, vertices: Sequence[int], kind: str) -> bool:
    vs = _check_vertices(g, vertices)
    dist = _distance_matrix(g)
    codes = [0] * g.n
    for w in vs:
        scale, terms = _code_terms(dist[w], kind)
        codes = [c * scale + t for c, t in zip(codes, terms)]
    return _distinct(codes, vs, kind)


def is_resolving(g: Graph, vertices: Sequence[int]) -> bool:
    """True iff distance vectors to ``vertices`` are distinct over all of V."""
    return _resolves(g, vertices, "vector")


def is_multiset_resolving(g: Graph, vertices: Sequence[int]) -> bool:
    """True iff distance multisets to ``vertices`` are distinct over all of V."""
    return _resolves(g, vertices, "multiset")


def is_outer_multiset_resolving(g: Graph, vertices: Sequence[int]) -> bool:
    """True iff distance multisets to ``vertices`` are distinct over V minus
    the set itself."""
    return _resolves(g, vertices, "outer")


def _size_floor(kind: str, n: int, diameter: int) -> int:
    """Smallest k for which the n - k vertices outside a k-set can have
    distinct codes: D**k distance vectors, or C(D+k-1, k) distance
    multisets, over {1..D}."""
    if diameter == 0:
        return 0
    k = 0
    while n - k > (diameter**k if kind == "vector" else comb(diameter + k - 1, k)):
        k += 1
    return k


def _search(g: Graph, kind: str, cap: int) -> tuple[tuple[int, ...] | None, int, int]:
    """(witness or None, subsets_tested, pruned) of the search up to ``cap``."""
    n = g.n
    dist = _distance_matrix(g)
    encoded = [_code_terms(row, kind) for row in dist]
    # Pairs by ascending last separator: the lowest set bit of a mask of
    # colliding pairs is then the pair that runs out of separators first.
    pairs = []
    for u in range(n):
        du = dist[u]
        for v in range(u + 1, n):
            dv = dist[v]
            last = next(w for w in range(n - 1, -1, -1) if du[w] != dv[w])
            pairs.append((last, u, v))
    pairs.sort()
    lasts = [last for last, _, _ in pairs]
    # keeps[w]: the pairs that w joining W leaves colliding
    keeps = [
        int("".join("1" if row[u] == row[v] else "0" for _, u, v in reversed(pairs)) or "0", 2)
        for row in dist
    ]
    tested = pruned = 0
    chosen: list[int] = []

    def step(codes: list[int], w: int) -> list[int]:
        scale, terms = encoded[w]
        return [c * scale + t for c, t in zip(codes, terms)]

    def visit(start: int, left: int, colliding: int, codes: list[int]) -> bool:
        # Pick ``left`` more vertices from start..n-1 to follow ``chosen``,
        # whose last vertex is not yet in ``codes``.  Every colliding pair
        # needs a separator among the picks, so the next pick can go no
        # further than the earliest last separator.
        nonlocal tested, pruned
        stop = n - left
        if colliding:
            stop = min(stop, lasts[(colliding & -colliding).bit_length() - 1])
        if stop >= start:
            if chosen:
                codes = step(codes, chosen[-1])
            for w in range(start, stop + 1):
                chosen.append(w)
                if left > 1:
                    if visit(w + 1, left - 1, colliding & keeps[w], codes):
                        return True
                else:
                    tested += 1
                    if not colliding & keeps[w] and _distinct(step(codes, w), chosen, kind):
                        return True
                chosen.pop()
        # the subsets whose next pick lies past ``stop``
        pruned += comb(n - max(stop + 1, start), left)
        return False

    floor = _size_floor(kind, n, max(map(max, dist), default=0))
    if floor == 0:  # at most one vertex: the empty set resolves
        return (), 1, 0
    floor = min(floor, cap + 1)
    pruned += sum(comb(n, size) for size in range(floor))
    everything = (1 << len(pairs)) - 1
    for size in range(floor, cap + 1):
        if visit(0, size, everything, [0] * n):
            return tuple(chosen), tested, pruned
    return None, tested, pruned


def _check_search(n: int, max_size: int | None, allow_large: bool) -> None:
    """The search's size policy for n vertices; raises ValueError to refuse."""
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be non-negative: {max_size}")
    if n > SEARCH_VERTEX_LIMIT and not allow_large:
        raise ValueError(
            f"subset search over {n} > {SEARCH_VERTEX_LIMIT} vertices; "
            "pass allow_large=True to force"
        )


def dimension_search(
    g: Graph,
    kind: str = "outer",
    max_size: int | None = None,
    *,
    allow_large: bool = False,
) -> SearchResult:
    """Smallest resolving set of the requested kind, with its first witness.

    Returns (size, witness) as a SearchResult that also carries the work
    counters.  Raises SearchExhausted when no subset of size up to
    ``max_size`` (default: all of V) works, and ValueError on a negative
    ``max_size``, or on graphs past SEARCH_VERTEX_LIMIT without
    ``allow_large``.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}: {kind!r}")
    _check_search(g.n, max_size, allow_large)
    cap = g.n if max_size is None else min(max_size, g.n)
    witness, tested, pruned = _search(g, kind, cap)
    if witness is None:
        raise SearchExhausted(kind, cap, tested, pruned)
    return SearchResult(len(witness), witness, tested, pruned)


def outer_multiset_dimension(
    g: Graph, max_size: int | None = None, *, allow_large: bool = False
) -> SearchResult:
    """Convenience wrapper: dimension_search with kind="outer"."""
    return dimension_search(g, "outer", max_size, allow_large=allow_large)
