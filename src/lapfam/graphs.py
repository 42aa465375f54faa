"""Simple undirected graphs with exact integer distances.

Vertices are 0-based indices.  Each vertex's neighbourhood is stored as a
Python int used as a bitset, so BFS frontiers expand with wordwise OR.
Every builder, ``Graph(n, edges)`` included, hands these masks to one
validator (``Graph._init_masks``).
Graphs are immutable after construction and safe for concurrent reads.
Distances are kept in one form, BFS levels (``Graph.levels``), which each
graph walks at most once, on first use, and keeps for its own lifetime
(two threads racing to fill the cache store equal values).
External reports (CLI, file formats) print 1-based vertex numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class DisconnectedGraphError(ValueError):
    """Raised when an operation requires a connected graph."""


@dataclass(frozen=True)
class Combination:
    """Vertex label: a nondecreasing integer sequence over {1..d}."""

    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.seq, self.seq[1:])):
            raise ValueError(f"combination label must be nondecreasing: {self.seq}")
        if self.seq and self.seq[0] < 1:
            raise ValueError(f"combination entries must be >= 1: {self.seq}")

    @property
    def ones(self) -> int:
        """Number of entries equal to 1 (the initial run, since nondecreasing)."""
        return sum(1 for v in self.seq if v == 1)

    def __str__(self) -> str:
        if all(v <= 9 for v in self.seq):
            return "".join(str(v) for v in self.seq)
        return "-".join(str(v) for v in self.seq)


@dataclass(frozen=True)
class Resolver:
    """Vertex label: the i-th landmark vertex of a resolving set, written w_i."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"resolver index must be >= 1: {self.index}")

    def __str__(self) -> str:
        return f"w{self.index}"


Label = Combination | Resolver


class Graph:
    """Immutable simple undirected graph with optional vertex labels.

    ``labels`` is either None (unlabeled graph) or a length-n tuple whose
    entries are Label instances or None; present labels must be pairwise
    distinct.
    """

    __slots__ = ("_n", "_m", "_adj", "_labels", "_levels")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[Label | None] | None = None,
    ) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative: {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._init_masks(adj, labels)

    @classmethod
    def _from_masks(
        cls, masks: Sequence[int], labels: Sequence[Label | None] | None = None
    ) -> "Graph":
        """Graph whose vertex v has neighbourhood bitset ``masks[v]``."""
        g = cls.__new__(cls)
        g._init_masks(masks, labels)
        return g

    def _init_masks(self, masks: Sequence[int], labels: Sequence[Label | None] | None) -> None:
        """The one validator: every mask within range(n), no loops, symmetric."""
        adj = tuple(masks)
        n = len(adj)
        # Range first: bit iteration never ends on a negative int.
        if any(mask < 0 or mask >> n for mask in adj):
            raise ValueError(f"neighbourhood masks must lie within range({n})")
        m = 0
        for v, mask in enumerate(adj):
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in _iter_bits(mask >> (v + 1) << (v + 1)):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric pair ({v},{u}): {u} does not list {v}")
                m += 1
        # Every pair above the diagonal has its mirror, so equal counts leave none below.
        if 2 * m != sum(mask.bit_count() for mask in adj):
            raise ValueError("asymmetric pair below the diagonal")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            present = [lab for lab in labels if lab is not None]
            if len(set(present)) != len(present):
                raise ValueError("vertex labels must be pairwise distinct")
        self._n = n
        self._m = m
        self._adj = adj
        self._labels = labels
        self._levels: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, ((i, j) for i in range(n) for j in range(i + 1, n)))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, ((i, i + 1) for i in range(n - 1)))

    @property
    def n(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return self._m

    @property
    def labels(self) -> tuple[Label | None, ...] | None:
        return self._labels

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def neighbor_mask(self, v: int) -> int:
        return self._adj[v]

    def neighbors(self, v: int) -> Iterator[int]:
        return _iter_bits(self._adj[v])

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self._n):
            for v in _iter_bits(self._adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def levels(self) -> tuple[tuple[int, ...], ...]:
        """BFS levels: ``levels()[u][k]`` is the mask of the vertices at
        distance k from u, computed on first use and cached on the graph.
        The rows are shared, hence tuples."""
        if self._levels is None:
            self._levels = tuple(tuple(_walk(self._adj, v, -1)) for v in range(self._n))
        return self._levels

    def with_labels(self, labels: Sequence[Label | None] | None) -> "Graph":
        """Same adjacency, different labels."""
        return Graph._from_masks(self._adj, labels)

    def __repr__(self) -> str:
        tag = ", labeled" if self._labels is not None else ""
        return f"Graph(n={self._n}, m={self._m}{tag})"


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _walk(adj: Sequence[int], start: int, within: int) -> list[int]:
    """The one BFS walk: levels from vertex ``start`` inside the vertex set
    ``within`` (-1 for all), entry k the mask of the vertices k steps away,
    where ``adj[v]`` holds v's neighbours."""
    levels = []
    seen = frontier = 1 << start
    while frontier:
        levels.append(frontier)
        reach = 0
        for v in _iter_bits(frontier):
            reach |= adj[v]
        frontier = reach & within & ~seen
        seen |= frontier
    return levels


def _row(levels: Sequence[int], n: int) -> list[int | None]:
    """The distance row of one vertex's levels (None = unreachable)."""
    dist: list[int | None] = [None] * n
    for k, level in enumerate(levels):
        for v in _iter_bits(level):
            dist[v] = k
    return dist


def bfs_distances(g: Graph, source: int) -> list[int | None]:
    """Shortest-path distance from ``source`` to every vertex (None = unreachable)."""
    if not 0 <= source < g.n:
        raise IndexError(f"source {source} out of range for n={g.n}")
    return _row(_walk(g._adj, source, -1), g.n)


def all_pairs_distances(g: Graph) -> list[list[int | None]]:
    """All-pairs distances as fresh, mutable rows of ``g.levels()``."""
    return [_row(levels, g.n) for levels in g.levels()]


def _connected_levels(g: Graph) -> tuple[tuple[int, ...], ...]:
    """``g.levels()``; raises DisconnectedGraphError on any unreachable pair."""
    levels = g.levels()
    # connected exactly when vertex 0's levels (disjoint, so a sum ORs) hold all
    if levels and sum(levels[0]) != (1 << g.n) - 1:
        raise DisconnectedGraphError("the graph is not connected")
    return levels


def eccentricities(g: Graph) -> list[int]:
    """Eccentricity of every vertex; raises DisconnectedGraphError on any unreachable pair."""
    if g.n == 0:
        raise ValueError("eccentricities of the empty graph are undefined")
    return [len(levels) - 1 for levels in _connected_levels(g)]


def diameter(g: Graph) -> int:
    return max(eccentricities(g))


def radius(g: Graph) -> int:
    return min(eccentricities(g))


def _concat_labels(g1: Graph, g2: Graph) -> tuple[Label | None, ...] | None:
    # Duplicate labels across the two parts keep the first occurrence; the
    # later copy becomes an unlabeled vertex (keeps labels pairwise distinct).
    if g1.labels is None and g2.labels is None:
        return None
    seen: set[Label | None] = set()
    out: list[Label | None] = []
    for lab in (g1.labels or (None,) * g1.n) + (g2.labels or (None,) * g2.n):
        out.append(None if lab in seen else lab)
        seen.add(lab)
    return tuple(out)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g1's vertices come first, g2's are shifted by g1.n."""
    masks = list(g1._adj) + [mask << g1.n for mask in g2._adj]
    return Graph._from_masks(masks, _concat_labels(g1, g2))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two parts (g1 first)."""
    first = (1 << g1.n) - 1
    second = ((1 << g2.n) - 1) << g1.n
    masks = [mask | second for mask in g1._adj] + [mask << g1.n | first for mask in g2._adj]
    return Graph._from_masks(masks, _concat_labels(g1, g2))


def degree_sequence(g: Graph) -> list[int]:
    """Vertex degrees in nonincreasing order."""
    return sorted((g.degree(v) for v in range(g.n)), reverse=True)


def are_adjacency_equal(g1: Graph, g2: Graph) -> bool:
    """True iff both graphs have identical adjacency under the identity vertex map.

    Labels are ignored.  This is not an isomorphism test.
    """
    if g1.n != g2.n:
        raise ValueError(f"size mismatch: {g1.n} != {g2.n}")
    return all(g1.neighbor_mask(v) == g2.neighbor_mask(v) for v in range(g1.n))


def permuted(g: Graph, order: Sequence[int]) -> Graph:
    """Reindex so that new vertex k is old vertex order[k]."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of range(n)")
    pos = [0] * g.n
    for new, old in enumerate(order):
        pos[old] = new
    edges = [(pos[u], pos[v]) for u, v in g.edges()]
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[old] for old in order)
    return Graph(g.n, edges, labels)
