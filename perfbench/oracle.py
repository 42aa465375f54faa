"""Reference answers computed without the lapfam package.

Everything here is rebuilt from the definitions by a separate route: the
family graphs from their adjacency rule, distances by list-based BFS,
graph6 by its own encoder, and resolving sets by brute force over
integer-encoded representations.  None of it is timed as program work.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, combinations_with_replacement

# Outer multiset dimensions found by brute force.  The designed resolver
# set w1..wc is not minimal (or not resolving) here, so a reference must
# never be taken from it.
KNOWN_OUTER_DIMENSIONS = {"gplus:4,2": 3, "gplus:4,3": 7}


def family_graph(family: str, d: int, c: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of g:d,c or gplus:d,c in lapfam's vertex order:
    combinations in lexicographic order, then w1..wc."""
    labels = list(combinations_with_replacement(range(1, d + 1), c))
    nb = len(labels)
    edges = [
        (i, j)
        for i in range(nb)
        for j in range(i + 1, nb)
        if max(abs(a - b) for a, b in zip(labels[i], labels[j])) <= 1
    ]
    if family == "g":
        return nb, edges
    for i in range(1, c + 1):
        edges += [(v, nb + i - 1) for v in range(nb) if labels[v].count(1) >= i]
    return nb + c, edges


def parse_spec(spec: str) -> tuple[str, int, int]:
    family, params = spec.split(":")
    d, c = (int(p) for p in params.split(","))
    return family, d, c


def random_connected(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A connected graph on n vertices with m edges: a random recursive tree
    plus uniformly chosen extra edges."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph has {n} vertices and {m} edges")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 text (no header, no newline) for n < 2**18 vertices."""
    size = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    present = set(edges)
    bits = [int((i, j) in present) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return size + body


def family_labels(family: str, d: int, c: int) -> list[str]:
    """Vertex labels as lapfam prints them: digits of the combination, then w1..wc."""
    labels = [
        "".join(map(str, seq)) if d <= 9 else "-".join(map(str, seq))
        for seq in combinations_with_replacement(range(1, d + 1), c)
    ]
    return labels + ([f"w{i}" for i in range(1, c + 1)] if family == "gplus" else [])


def distances(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if min(dist) < 0:
            raise ValueError("reference graph is disconnected")
        rows.append(dist)
    return rows


def dimension(
    dist: list[list[int]], kind: str, cap: int | None = None
) -> tuple[int | None, tuple[int, ...] | None]:
    """Smallest resolving set of the kind and its lexicographically first
    witness, or (None, None) when no subset of at most ``cap`` vertices
    (default: all of V) resolves.

    A multiset of distances from u is encoded as sum(B**dist) with B = n + 1,
    which is injective for multisets of at most n entries; vector
    representations stay tuples.
    """
    n = len(dist)
    base = n + 1
    power = [[base ** x for x in row] for row in dist]
    for size in range(n + 1 if cap is None else min(cap, n) + 1):
        for ws in combinations(range(n), size):
            if kind == "vector":
                reps = [tuple(dist[u][w] for w in ws) for u in range(n)]
            else:
                us = range(n) if kind == "multiset" else [u for u in range(n) if u not in ws]
                reps = [sum(power[u][w] for w in ws) for u in us]
            if len(set(reps)) == len(reps):
                return size, ws
    return None, None


def poly_from_roots(pairs: list[tuple[int, int]]) -> list[int]:
    """Ascending coefficients of prod (x - lam)^mult."""
    coeffs = [1]
    for lam, mult in pairs:
        for _ in range(mult):
            shifted = [0] + coeffs
            for i, c in enumerate(coeffs):
                shifted[i] -= lam * c
            coeffs = shifted
    return coeffs


def poly_eval(coeffs: list[int], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def root_multiplicity(coeffs: list[int], r: int) -> int:
    """How many times (x - r) divides the polynomial, by exact synthetic division."""
    mult = 0
    while len(coeffs) > 1:
        quotient = [0] * (len(coeffs) - 1)
        carry = 0
        for i in range(len(coeffs) - 1, 0, -1):
            carry = coeffs[i] + carry * r
            quotient[i - 1] = carry
        if coeffs[0] + carry * r:
            break
        coeffs = quotient
        mult += 1
    return mult
