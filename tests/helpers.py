"""Independent oracle implementations for the test suite.

Everything here recomputes library results by a deliberately different
route (deque BFS instead of bitset BFS; cofactor expansion and the
Faddeev-LeVerrier trace recurrence over the integers, or one Hessenberg
pass per prime, instead of one Hessenberg pass modulo the product of the
primes; adjacency tests instead of neighbourhood masks; rational Gaussian
elimination instead of fraction-free; Fraction sums instead of
denominator-cleared integer sums; pairwise label comparison instead of
bitset intersection; edge lists and bit lists instead of neighbourhood
masks; for threshold graphs, the conjugate degree partition instead of
any characteristic polynomial; for the subset search, the distinct-codes
test on every last pick the carried pairs allow instead of only on those
that separate every pair of equal codes), so exact agreement between the
two is meaningful evidence.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb

from hypothesis import strategies as st

from lapfam import Graph, Resolver, combination_graph, combination_labels, linalg
from lapfam.formats import _decode_n, _encode_n
from lapfam.metric import _size_floor


def naive_distances(g, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return [dist.get(v) for v in range(g.n)]


def naive_distance_matrix(g):
    return [naive_distances(g, s) for s in range(g.n)]


def component_count(g):
    seen = set()
    count = 0
    for start in range(g.n):
        if start in seen:
            continue
        count += 1
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return count


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_det(m):
    """Determinant of a matrix of polynomials (coefficient lists), by
    cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = [0]
    for j, entry in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = poly_mul(entry, poly_det(minor))
        if j % 2:
            term = [-t for t in term]
        total = poly_add(total, term)
    return total


def cofactor_charpoly(mat):
    """det(xI - mat) as ascending coefficients, degree n exactly."""
    n = len(mat)
    if n == 0:
        return [1]
    entries = [
        [[-mat[i][j], 1] if i == j else [-mat[i][j]] for j in range(n)]
        for i in range(n)
    ]
    out = poly_det(entries)
    return out + [0] * (n + 1 - len(out))


def faddeev_leverrier_charpoly(mat):
    """det(xI - mat) as ascending coefficients, by the Faddeev-LeVerrier
    trace recurrence: with M_1 = I and M_{k+1} = mat M_k + c_{n-k} I, the
    coefficient c_{n-k} = -tr(mat M_k) / k, a division exact over the
    integers (asserted).  O(n^4) on growing integers."""
    n = len(mat)
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        t = sum(mat[i][j] * m[j][i] for i in range(n) for j in range(n))
        assert t % k == 0, (t, k)
        coeffs[n - k] = -t // k
        if k < n:
            m = [
                [sum(mat[i][s] * m[s][j] for s in range(n)) for j in range(n)]
                for i in range(n)
            ]
            for i in range(n):
                m[i][i] += coeffs[n - k]
    return coeffs


def per_prime_charpoly(mat):
    """det(xI - mat) as a ``CharPoly``, by one Hessenberg pass modulo each
    certified prime below 2**78 in turn (every non-zero pivot a unit),
    joined by CRT until the product M exceeds twice the Hadamard bound, and
    lifted to (-M/2, M/2]."""
    n = len(mat)
    bound = linalg.hadamard_bound(mat)
    coeffs, modulus, k, p = [0] * (n + 1), 1, 0, (1 << 78) + 1
    while modulus <= 2 * bound:
        p -= 2
        while not linalg.is_prime(p):
            p -= 2
        residues = linalg._char_poly_mod(mat, p)
        assert isinstance(residues, list), (p, residues)
        inv = pow(modulus, -1, p)
        coeffs = [x + modulus * ((r - x) * inv % p) for x, r in zip(coeffs, residues)]
        modulus, k = modulus * p, k + 1
    return linalg.CharPoly([x - modulus if 2 * x > modulus else x for x in coeffs], k)


def threshold_spectrum(g):
    """Laplacian eigenvalues of a threshold graph, descending with repetition:
    the conjugate partition of its degree sequence, whose k-th part counts
    the vertices of degree at least k (Merris, Linear Algebra Appl. 199,
    1994).  Valid only for threshold graphs, i.e. graphs grown from one
    vertex by joins and disjoint unions with a single vertex."""
    degrees = [sum(g.adjacent(u, v) for v in range(g.n)) for u in range(g.n)]
    return tuple(sum(1 for deg in degrees if deg >= k) for k in range(1, g.n + 1))


def adjacency_laplacian(g):
    """Degree matrix minus adjacency matrix, one ``adjacent`` test per entry."""
    return [
        [g.degree(i) if i == j else -int(g.adjacent(i, j)) for j in range(g.n)]
        for i in range(g.n)
    ]


def fraction_rank(mat):
    rows = [[Fraction(x) for x in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def nullity_sweep_spectrum(lap):
    """Integral eigenvalues of a Laplacian as (eigenvalue, multiplicity)
    pairs, descending, plus the degree left unaccounted for.  Each candidate
    0..n gets the nullity n - rank(L - lam*I), by rational elimination."""
    n = len(lap)
    pairs = []
    for lam in range(n, -1, -1):
        shifted = [
            [x - (lam if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(lap)
        ]
        mult = n - fraction_rank(shifted)
        if mult:
            pairs.append((lam, mult))
    return tuple(pairs), n - sum(mult for _, mult in pairs)


def _naive_reps_distinct(dist, ws, kind):
    if kind == "vector":
        reps = [tuple(dist[u][w] for w in ws) for u in range(len(dist))]
    else:
        us = [u for u in range(len(dist)) if kind == "multiset" or u not in ws]
        reps = [tuple(sorted(dist[u][w] for w in ws)) for u in us]
    return len(set(reps)) == len(reps)


def naive_resolves(g, ws, kind):
    """Whether ``ws`` resolves g in the kind ("vector", "multiset" or
    "outer"), by comparing distance tuples and sorted-tuple multisets over
    the vertices the kind compares (all of V, or V minus ws for outer)."""
    return _naive_reps_distinct(naive_distance_matrix(g), ws, kind)


def naive_dimension(g, kind, max_size=None):
    """Smallest resolving set of the kind and its lexicographically first
    witness, by full enumeration of the subsets up to ``max_size`` with the
    rule of ``naive_resolves``; None when none of them resolves."""
    dist = naive_distance_matrix(g)
    cap = g.n if max_size is None else min(max_size, g.n)
    for size in range(cap + 1):
        for ws in combinations(range(g.n), size):
            if _naive_reps_distinct(dist, ws, kind):
                return size, ws
    return None


def naive_outer_dimension(g):
    """Smallest outer multiset resolving set by full enumeration."""
    return naive_dimension(g, "outer")


def row_code_terms(w, row, kind):
    """What the vertex w with distance row ``row`` adds to each resolving
    code when it joins W, as ``metric`` defines the terms."""
    base = len(row) + 1
    if kind == "vector":
        return [x * base**w for x in row]
    terms = [base**x for x in row]
    if kind == "outer":
        terms[w] = base ** len(row) * (w + 1)
    return terms


def unfiltered_search(g, kind, cap):
    """``metric._search`` with no filter on the last pick: every candidate
    for it that no carried pair rules out gets the distinct-codes test.
    The distances come from deque BFS rows, the code terms from one power
    per row entry, and the pair tables from a scan of each distance row
    pair and one string per vertex row, instead of BFS level masks.
    Returns the same (witness or None, subsets_tested, pruned) on a
    connected graph."""
    n = g.n
    dist = naive_distance_matrix(g)
    floor = _size_floor(kind, n, max(map(max, dist), default=0))
    if floor == 0:
        return (), 1, 0
    encoded = [row_code_terms(w, row, kind) for w, row in enumerate(dist)]
    pairs = []
    for u in range(n):
        du = dist[u]
        for v in range(u + 1, n):
            dv = dist[v]
            last = next(w for w in range(n - 1, -1, -1) if du[w] != dv[w])
            pairs.append((last, u, v))
    pairs.sort()
    lasts = [last for last, _, _ in pairs]
    keeps = [
        int("".join("1" if row[u] == row[v] else "0" for _, u, v in reversed(pairs)), 2)
        for row in dist
    ]
    tested = pruned = 0
    chosen = []

    def step(codes, w):
        return [c + t for c, t in zip(codes, encoded[w])]

    def visit(start, left, colliding, codes):
        nonlocal tested, pruned
        stop = n - left
        if colliding:
            stop = min(stop, lasts[(colliding & -colliding).bit_length() - 1])
        for w in range(start, stop + 1):
            chosen.append(w)
            if left > 1:
                if visit(w + 1, left - 1, colliding & keeps[w], step(codes, w)):
                    return True
            else:
                tested += 1
                if not colliding & keeps[w] and len(set(step(codes, w))) == n:
                    return True
            chosen.pop()
        pruned += comb(n - stop - 1, left)
        return False

    floor = min(floor, cap + 1)
    pruned += sum(comb(n, size) for size in range(floor))
    everything = (1 << len(pairs)) - 1
    for size in range(floor, cap + 1):
        if visit(0, size, everything, [0] * n):
            return tuple(chosen), tested, pruned
    return None, tested, pruned


def fraction_rayleigh(lap, x):
    """(x^T L x) / (x^T x) in Fraction arithmetic over the dense form, with
    the edge-sum route required to agree (ArithmeticError otherwise)."""
    n = len(lap)
    if len(x) != n:
        raise ValueError(f"vector length {len(x)} != {n}")
    xs = [Fraction(v) for v in x]
    norm2 = sum(v * v for v in xs)
    if norm2 == 0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    quad = sum(xs[i] * lap[i][j] * xs[j] for i in range(n) for j in range(n))
    edge_sum = sum(
        -lap[i][j] * (xs[i] - xs[j]) ** 2 for i in range(n) for j in range(i + 1, n)
    )
    if quad != edge_sum:
        raise ArithmeticError(f"quadratic form {quad} != edge sum {edge_sum}")
    return Fraction(quad, norm2)


def fraction_edge_partition_sums(c, x):
    """Band sums N_h = sum over j = h+1..2c+2-h of (x_h - x_j)^2, 1-based, in
    Fraction arithmetic."""
    n = 2 * c + 1
    if len(x) != n:
        raise ValueError(f"vector length {len(x)} != {n}")
    xs = [Fraction(v) for v in x]
    return [
        sum((xs[h - 1] - xs[j - 1]) ** 2 for j in range(h + 1, 2 * c + 2 - h + 1))
        for h in range(1, c + 1)
    ]


def pairwise_combination_graph(d, c):
    """G(d, c) by testing every label pair against |x_i - y_i| <= 1."""
    labels = combination_labels(d, c)
    edges = [
        (i, j)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if all(abs(a - b) <= 1 for a, b in zip(labels[i].seq, labels[j].seq))
    ]
    return Graph(len(labels), edges, labels)


def edge_concat_labels(g1, g2):
    """Labels of g1 then g2; a label already used in g1 becomes None."""
    if g1.labels is None and g2.labels is None:
        return None
    first = g1.labels if g1.labels is not None else (None,) * g1.n
    second = g2.labels if g2.labels is not None else (None,) * g2.n
    out = list(first)
    seen = {lab for lab in first if lab is not None}
    for lab in second:
        if lab is not None and lab in seen:
            out.append(None)
        else:
            out.append(lab)
            if lab is not None:
                seen.add(lab)
    return tuple(out)


def edge_disjoint_union(g1, g2):
    """Disjoint union through an edge list, g2's vertices shifted by g1.n."""
    off = g1.n
    edges = list(g1.edges()) + [(u + off, v + off) for u, v in g2.edges()]
    return Graph(g1.n + g2.n, edges, edge_concat_labels(g1, g2))


def edge_join(g1, g2):
    """Join through an edge list: the disjoint union plus every cross pair."""
    off = g1.n
    edges = list(g1.edges())
    edges += [(u + off, v + off) for u, v in g2.edges()]
    edges += [(u, v + off) for u in range(g1.n) for v in range(g2.n)]
    return Graph(g1.n + g2.n, edges, edge_concat_labels(g1, g2))


def edge_resolver_graph(d, c):
    """G+(d, c) through an edge list: resolver w_i joins every base vertex
    with at least i ones."""
    base = combination_graph(d, c)
    nb = base.n
    edges = list(base.edges())
    for i in range(1, c + 1):
        w = nb + i - 1
        edges += [(v, w) for v in range(nb) if base.labels[v].ones >= i]
    labels = list(base.labels) + [Resolver(i) for i in range(1, c + 1)]
    return Graph(nb + c, edges, labels)


def bitlist_write_graph6(g, header=False):
    """graph6 from a list of 0/1 entries, one ``adjacent`` test per pair."""
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.adjacent(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = (value << 1) | b
        chars.append(chr(value + 63))
    prefix = ">>graph6<<" if header else ""
    return prefix + _encode_n(g.n) + "".join(chars)


def bitlist_read_graph6(text):
    """Inverse of ``bitlist_write_graph6`` for well-formed input, via an edge list."""
    line = text.strip().removeprefix(">>graph6<<")
    n, consumed = _decode_n(line)
    bits = []
    for ch in line[consumed:]:
        value = ord(ch) - 63
        bits.extend((value >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def masks(g):
    return [g.neighbor_mask(v) for v in range(g.n)]


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, max_n=8):
    # random spanning tree plus extra edges, so no rejection sampling
    n = draw(st.integers(min_value=1, max_value=max_n))
    tree = [
        (draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)
    ]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tree + extra)


@st.composite
def labeled_graphs(draw, max_n=8):
    """Graphs whose vertices carry resolver labels w1..w6 or none, so two
    drawn graphs often share a label."""
    g = draw(graphs(max_n=max_n))
    if draw(st.booleans()):
        return g
    indices = draw(st.lists(st.none() | st.integers(1, 6), min_size=g.n, max_size=g.n))
    labels = [
        None if i is None or i in indices[:k] else Resolver(i) for k, i in enumerate(indices)
    ]
    return Graph(g.n, g.edges(), labels)
