"""Distance representations and resolving-set search.

Three notions of a resolving set W, in decreasing strength of the
representation attached to each vertex u:

* vector: the tuple of distances from u to W in a fixed order,
* multiset: the same distances with order forgotten,
* outer multiset: multiset representations, but only vertices outside W
  need to be distinguished.

One representation rule serves the predicates and the search.  Every
vertex u gets one integer code, and when w joins W each code gains one
term read off w's BFS levels, ``code + terms[u]``, with base B = n + 1:

* vector: ``dist(w, u) * B**w``, the distance as base-B digit w (every
  distance is at most n - 1 < B, and members of W are distinct);
* multiset and outer: ``B ** dist(w, u)``, the count of each distance as
  a base-B digit (every count is at most |W| <= n < B), except that in
  the outer kind w's own term is ``B**n * (w + 1)``.

W resolves exactly when all n codes are distinct, the one question the
predicates ask and the search asks of every full-size subset that its
rules below leave open.  Both encodings are injective, and the outer
self term leaves W out of the comparison: a non-member's code is a sum
of at most n terms B**d with d <= n - 1, below n * B**(n-1) < B**n,
while member w's code lies in [B**n * (w + 1), B**n * (w + 2)), so
members (W has no repeats) collide with nothing.

The search goes size-ascending, and within a size depth-first through
the subsets in lexicographic order, updating the codes as each vertex
joins, so the reported dimension is minimal and the witness is the
lexicographically first one of that size.  Two rules skip subsets and
a third skips code tests, none losing an answer:

* Counting bound.  The vertices outside a k-set need distinct codes, and
  over {1..D}, D the diameter, there are only D**k distance vectors
  (Khuller, Raghavachari and Rosenfeld, "Landmarks in graphs", 1996) and
  C(D+k-1, k) distance multisets; smaller sizes are not searched.
* Pair pruning.  For each pair u, v the last vertex w with
  dist(u, w) != dist(v, w) is precomputed.  A partial set is dropped when
  two vertices collide and no vertex at or after the next candidate
  separates them, since a vertex that does not separate them keeps their
  codes equal (the outer self term goes only to w, which separates
  itself from every other vertex).  The colliding pairs are a bitmask
  that only shrinks as vertices join.  In the multiset kinds two vertices
  with different multisets can come to collide; such pairs are not
  tracked, which prunes less but never wrongly; the last pick sees them.
* Last pick.  With one vertex left to pick, the n codes are grouped into
  classes of equal codes, and only the candidates that separate every
  pair within a class get the distinct-codes test, in ascending order: a
  last pick that does not separate two equal codes adds the same term to
  both.

``subsets_tested`` counts the full-size subsets the search reached, that
is, the ones neither rule skipped, whether or not the last-pick filter
spared their codes the test; ``pruned`` counts the ones the counting
bound or pair pruning skipped.  Their sum is exactly the number of
subsets a brute-force search tests before it stops.
"""

from __future__ import annotations

from math import comb
from operator import add, and_
from typing import Sequence

from .graphs import Graph, _connected_levels, _iter_bits, _row

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
    row = _row(_connected_levels(g)[u], g.n)
    return tuple(row[w] for w in order)


def multiset_rep(g: Graph, u: int, vertices: Sequence[int]) -> tuple[int, ...]:
    """Distances from u to ``vertices``, sorted ascending (multiset as tuple)."""
    return tuple(sorted(vector_rep(g, u, vertices)))


def _code_terms(w: int, levels: Sequence[int], n: int, kind: str) -> list[int]:
    """What w, with BFS levels ``levels`` in a connected graph on n vertices,
    adds to each code on joining W (c[u] becomes ``c[u] + terms[u]``)."""
    base = n + 1
    terms = [0] * n
    for x, level in enumerate(levels):
        term = x * base**w if kind == "vector" else base**x
        for u in _iter_bits(level):
            terms[u] = term
    if kind == "outer":
        terms[w] = base**n * (w + 1)
    return terms


def _resolves(g: Graph, vertices: Sequence[int], kind: str) -> bool:
    vs = _check_vertices(g, vertices)
    levels = _connected_levels(g)
    codes = [0] * g.n
    for w in vs:
        codes = [c + t for c, t in zip(codes, _code_terms(w, levels[w], g.n, kind))]
    return len(set(codes)) == g.n


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


def _separators(
    levels: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[int], list[int]]:
    """The search's pair tables for the BFS levels ``levels`` (as
    ``Graph.levels``) of a connected graph on at least two vertices.

    ``sep[u][v]`` is the mask of the vertices w with dist(u, w) != dist(v, w).
    The pairs u < v are ordered by ascending last separator (then u, then
    v), so the lowest set bit of a mask of colliding pairs is the pair that
    runs out of separators first; ``lasts[i]`` is pair i's last separator
    and bit i of ``keeps[w]`` is set when w does not separate pair i.
    """
    n = len(levels)
    full = (1 << n) - 1
    # a vertex's levels are disjoint, so summing the levelwise ANDs ORs them
    sep = [[0] * n for _ in range(n)]
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            mask = sep[u][v] = sep[v][u] = full ^ sum(map(and_, levels[u], levels[v]))
            pairs.append((mask.bit_length() - 1, u, v))
    pairs.sort()
    # keeps[w] is column w of the pairs' non-separator masks written in binary
    rows = [format(full ^ sep[u][v], f"0{n}b") for _, u, v in reversed(pairs)]
    keeps = [int("".join(column), 2) for column in zip(*rows)][::-1]
    return sep, [last for last, _, _ in pairs], keeps


def _search(g: Graph, kind: str, cap: int) -> tuple[tuple[int, ...] | None, int, int]:
    """(witness or None, subsets_tested, pruned) of the search up to ``cap``."""
    n = g.n
    levels = _connected_levels(g)
    floor = _size_floor(kind, n, max(map(len, levels), default=1) - 1)
    if floor == 0:  # at most one vertex: the empty set resolves
        return (), 1, 0
    encoded = [_code_terms(w, lv, n, kind) for w, lv in enumerate(levels)]
    sep, lasts, keeps = _separators(levels)
    tested = pruned = 0
    chosen: list[int] = []

    def visit(start: int, left: int, colliding: int, codes: list[int]) -> bool:
        # Pick ``left`` more vertices from start..n-1 to follow the picks
        # so far, whose codes are ``codes``; on success the picks are pushed
        # onto ``chosen`` last first.  Every colliding pair needs a
        # separator among the picks, so the next pick can go no further
        # than the earliest last separator.
        nonlocal tested, pruned
        stop = n - left
        if colliding:
            last = lasts[(colliding & -colliding).bit_length() - 1]
            if last < stop:
                stop = last
        # stop >= start: stop >= 0 at the root, and pairs w leaves colliding separate after w
        if left > 1:
            for w in range(start, stop + 1):
                step = list(map(add, codes, encoded[w]))
                if visit(w + 1, left - 1, colliding & keeps[w], step):
                    chosen.append(w)
                    return True
            # the subsets whose next pick lies past ``stop``
            pruned += comb(n - stop - 1, left)
            return False
        # The last pick must separate every pair of equal codes, since it
        # adds the same term to both codes of a pair it does not separate;
        # only the candidates that do are tested by codes.  Every pick in
        # start..stop still counts as a subset tested.
        candidates = (2 << stop) - (1 << start)
        classes: dict[int, list[int]] = {}
        for u, code in enumerate(codes):
            same = classes.get(code)
            if same is None:
                classes[code] = [u]
                continue
            row = sep[u]
            for v in same:
                candidates &= row[v]
            if not candidates:
                break
            same.append(u)
        while candidates:
            low = candidates & -candidates
            w = low.bit_length() - 1
            if len(set(map(add, codes, encoded[w]))) == n:
                chosen.append(w)
                tested += w - start + 1
                return True
            candidates ^= low
        tested += stop - start + 1
        pruned += n - stop - 1  # the last picks past ``stop``
        return False

    floor = min(floor, cap + 1)
    pruned += sum(comb(n, size) for size in range(floor))
    everything = (1 << len(lasts)) - 1
    for size in range(floor, cap + 1):
        if visit(0, size, everything, [0] * n):
            return tuple(reversed(chosen)), tested, pruned
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
