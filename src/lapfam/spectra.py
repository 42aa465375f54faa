"""Exact Laplacian spectra, the d = 2 extended family's eigenpairs, and
gap-spectrum checks.

``graph_spectrum`` splits a graph along its cotree.  A disconnected part
is the union of its components, whose spectra add up as multisets.  A
part with a disconnected complement is the join of the complement's
components: on parts of n_1..n_k vertices, n in all, it has the
eigenvalues 0 and n (k - 1 times), and each part's spectrum less one 0,
shifted up by n - n_i (Mohar, "The Laplacian spectrum of graphs", 1991;
Merris, "Laplacian graph eigenvectors", Linear Algebra Appl. 278, 1998).
Components come from the BFS walk of ``graphs``, kept inside the part.
Only a prime part, neither, takes a ``linalg.char_poly`` pass, on its
dense Laplacian (``integral_spectrum`` always takes one), and
``linalg.poly_shift`` moves the factor it leaves to the part's shift.

The extended graph on 2c+1 vertices has Laplacian spectrum
{0, 1, ..., 2c+1} \\ {c+1}, every eigenvalue simple, with closed-form
integer eigenvectors falling into four classes indexed by r = 0..2c.
Their identities take L x in integers as ``linalg._apply`` on the gathered
rows of the dense ``laplacian`` (``linalg._gather``), and x^T L x by the
body of ``rayleigh``, which alone checks it against the weighted edge sum;
``verify`` holds it to lambda |x|^2 and to the band total, the indexed
member's edge sum term by term.  ``linalg.mat_vec`` and the tests'
``fraction_rayleigh`` stay as their oracles.
A graph on n vertices *realizes the gap spectrum at i* when its Laplacian
spectrum is exactly {0..n} \\ {i} with every eigenvalue simple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Sequence

from . import linalg
from .families import resolver_graph_indexed
from .graphs import Graph, _iter_bits, _walk, disjoint_union, join
from .linalg import IntMatrix


class VerificationError(Exception):
    """An exact eigenpair identity failed; pinpoints the first bad entry."""

    def __init__(self, r: int, row: int, message: str):
        super().__init__(message)
        self.r = r
        self.row = row


@dataclass(frozen=True)
class Spectrum:
    """Integral part of a Laplacian spectrum: (eigenvalue, multiplicity)
    pairs, eigenvalues descending; the degree of the non-integral factor
    left over (0 when the spectrum is integral); the monic characteristic
    polynomial (coefficients by ascending degree) and the number of primes
    it took."""

    pairs: tuple[tuple[int, int], ...]
    residual_degree: int
    charpoly: tuple[int, ...]
    moduli: int

    @property
    def integral(self) -> bool:
        return self.residual_degree == 0

    @property
    def eigenvalues(self) -> tuple[int, ...]:
        """Integral eigenvalues with repetition, descending."""
        return tuple(lam for lam, mult in self.pairs for _ in range(mult))

    @property
    def distinct(self) -> bool:
        """Integral, with every eigenvalue simple."""
        return self.integral and all(mult == 1 for _, mult in self.pairs)

    @property
    def gap(self) -> int | None:
        """i if the spectrum is {0..n} \\ {i}, all simple; else None."""
        missing = set(range(len(self.charpoly))) - set(self.eigenvalues)
        return missing.pop() if self.distinct else None


@dataclass(frozen=True)
class EigenpairReport:
    c: int
    n: int
    eigenvalues: tuple[int, ...]
    rank: int


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency matrix, one row per neighbourhood mask."""
    return _laplacian([g.neighbor_mask(v) for v in range(g.n)], (1 << g.n) - 1)


def _laplacian(adj: Sequence[int], part: int) -> IntMatrix:
    """Laplacian of the subgraph induced on the vertex set ``part``."""
    vertices = list(_iter_bits(part))
    out = []
    for i, v in enumerate(vertices):
        mask = adj[v]
        row = [-(mask >> u & 1) for u in vertices]
        row[i] = (mask & part).bit_count()
        out.append(row)
    return out


def _integer_roots(cp: Sequence[int], n: int) -> tuple[Counter, list[int]]:
    """Multiplicities of the roots n..0 of a Laplacian's characteristic
    polynomial (its only possible integer roots), and the factor left after
    dividing them off."""
    roots, rest = Counter(), list(cp)
    for lam in range(n, -1, -1):
        while linalg.poly_eval(rest, lam) == 0:
            rest = linalg.poly_deflate(rest, lam)
            roots[lam] += 1
    return roots, rest


def _spectrum(roots: Counter, rest: Sequence[int], cp: Sequence[int], moduli: int) -> Spectrum:
    pairs = sorted((+roots).items(), reverse=True)
    return Spectrum(tuple(pairs), len(rest) - 1, tuple(cp), moduli)


def integral_spectrum(lap: Sequence[Sequence[int]]) -> Spectrum:
    """Integral eigenvalues of a Laplacian with exact multiplicities.

    The multiplicity of each candidate lam in n..0 is the number of times
    x - lam divides the characteristic polynomial; L is symmetric, so this
    equals dim ker(L - lam*I).  The degree of what is left after the
    divisions is the residual degree.
    """
    cp = linalg.char_poly(lap)
    return _spectrum(*_integer_roots(cp, len(lap)), cp, cp.moduli)


def _parts(part: int, adj: Sequence[int]) -> list[int]:
    """Vertex sets of the components of the subgraph on ``part``, each the
    sum of its lowest vertex's BFS levels, where ``adj[v]`` holds v's neighbours."""
    out = []
    while part:
        seen = sum(_walk(adj, (part & -part).bit_length() - 1, part))
        out.append(seen)
        part &= ~seen
    return out


def graph_spectrum(g: Graph) -> Spectrum:
    """``integral_spectrum(laplacian(g))``, computed along g's cotree.

    Each part is walked at a shift, the sum of n - n_i over the joins above
    it.  A join adds 0 and n (k - 1 times) at its shift and takes back one
    0 from each part, which is that part's shift; the count of every value
    ends non-negative.  A prime part's integer roots are counted at its
    shift, and the factor left is shifted to match.  ``moduli`` is the
    number of primes ``char_poly`` takes, or would take, for all of L.
    """
    adj = [g.neighbor_mask(v) for v in range(g.n)]
    co = [~mask for mask in adj]  # the complement's neighbourhoods
    roots: Counter = Counter()
    rest, moduli = [1], None
    # (vertex set, shift, the neighbourhoods whose walk may split it): a
    # union's parts are connected and a join's parts co-connected, so only
    # the whole graph needs two walks.
    work = [((1 << g.n) - 1, 0, (adj, co))] if g.n else []
    while work:
        part, shift, walks = work.pop()
        size = part.bit_count()
        if size == 1:
            roots[shift] += 1
            continue
        for nbrs in walks:
            if len(parts := _parts(part, nbrs)) > 1:
                break
        else:  # a prime part
            cp = linalg.char_poly(_laplacian(adj, part))
            if size == g.n:  # all of L
                moduli = cp.moduli
            found, left = _integer_roots(cp, size)
            for lam, mult in found.items():
                roots[shift + lam] += mult
            rest = linalg.poly_mul(linalg.poly_shift(left, shift), rest)
            continue
        if nbrs is adj:  # a union
            work += [(p, shift, (co,)) for p in parts]
            continue
        # a join: 0 and n (k - 1 times), and each part less its own 0
        roots[shift] += 1
        roots[shift + size] += len(parts) - 1
        for p in parts:
            at = shift + size - p.bit_count()
            roots[at] -= 1
            work.append((p, at, (adj,)))
    cp = rest
    for lam, mult in roots.items():
        for _ in range(mult):
            cp = linalg.poly_mul(cp, (-lam, 1))
    assert len(cp) == g.n + 1  # every count taken back was added
    if moduli is None:
        # A Laplacian row of degree d > 0 has norm sqrt(d*d + d), whose ceiling
        # d + 1 is the norm of the row [d + 1]; hadamard_bound reads only norms.
        bound = linalg.hadamard_bound([[deg + 1] for deg in map(int.bit_count, adj) if deg])
        moduli = linalg.prime_count(bound)
    return _spectrum(roots, rest, cp, moduli)


def eigenvalue_of_class(c: int, r: int) -> int:
    """Eigenvalue attached to eigenvector index r of the 2c+1 family member."""
    if c < 1:
        raise ValueError(f"c must be positive: {c}")
    if not 0 <= r <= 2 * c:
        raise ValueError(f"r={r} out of range 0..{2 * c}")
    if r < c:
        return 2 * c - r + 1
    if r == c:
        return c
    if r < 2 * c:
        return 2 * c - r
    return 0


def eigenvector_family(c: int) -> IntMatrix:
    """The 2c+1 closed-form eigenvectors, as columns of a (2c+1) x (2c+1) matrix.

    Column r (with k = 2(r-c)+1 in the third class):
      r = 0..c-1:    r zeros, -2(c-r), then 2(c-r) ones, then r zeros
      r = c:         c zeros, -1, 1, then c-1 zeros
      r = c+1..2c-1: 2c-r zeros, k copies of -1, then k, then 2c-r-1 zeros
      r = 2c:        all ones
    """
    if c < 1:
        raise ValueError(f"c must be positive: {c}")
    n = 2 * c + 1
    cols = []
    for r in range(c):
        cols.append([0] * r + [-2 * (c - r)] + [1] * (2 * (c - r)) + [0] * r)
    cols.append([0] * c + [-1, 1] + [0] * (c - 1))
    for r in range(c + 1, 2 * c):
        k = 2 * (r - c) + 1
        cols.append([0] * (2 * c - r) + [-1] * k + [k] + [0] * (2 * c - r - 1))
    cols.append([1] * n)
    return [[cols[r][i] for r in range(n)] for i in range(n)]


def verify_eigenpairs(c: int) -> EigenpairReport:
    """Check L x = lambda x entrywise in integer arithmetic for every class,
    plus distinctness of the eigenvalues and full rank of the eigenvectors;
    L x is ``linalg._apply`` on the gathered rows of G+(2, c)'s Laplacian."""
    return _eigenpairs(linalg._gather(laplacian(resolver_graph_indexed(c))), c)


def _eigenpairs(rows: list[tuple], c: int) -> EigenpairReport:
    """``verify_eigenpairs(c)`` on rows, ``linalg._gather`` of G+(2, c)'s Laplacian."""
    cols, n = list(zip(*eigenvector_family(c))), len(rows)
    eigenvalues = [eigenvalue_of_class(c, r) for r in range(n)]
    for r, (x, lam) in enumerate(zip(cols, eigenvalues)):
        for i, (y, v) in enumerate(zip(linalg._apply(rows, x), x)):
            if y != lam * v:
                raise VerificationError(r, i, f"(L x)[{i}] = {y} != {lam} * {v} for column {r}")
    if len(set(eigenvalues)) != n:
        raise VerificationError(-1, -1, f"eigenvalues not pairwise distinct: {eigenvalues}")
    # eigenvectors of distinct eigenvalues, both checked above, are independent if non-zero
    rk = sum(map(any, cols))
    if rk != n:
        raise VerificationError(-1, -1, f"eigenvector matrix rank {rk} != {n}")
    return EigenpairReport(c=c, n=n, eigenvalues=tuple(eigenvalues), rank=rk)


def _cleared(x: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """x scaled by the lcm of its denominators, as ints, and that scale
    (1 for integer input, which skips Fraction)."""
    if all(isinstance(v, int) for v in x):
        return list(x), 1
    fracs = [Fraction(v) for v in x]
    scale = lcm(*(v.denominator for v in fracs))
    return [v.numerator * (scale // v.denominator) for v in fracs], scale


def rayleigh(lap: Sequence[Sequence[int]], x: Sequence[int | Fraction]) -> Fraction:
    """Exact Rayleigh quotient (x^T L x) / (x^T x), x^T L x required to equal
    the weighted edge sum of w (x_u - x_v)^2, an off-diagonal -w being an
    edge of weight w, on x scaled to clear its denominators (quotient unchanged)."""
    n = len(lap)
    if len(x) != n:
        raise ValueError(f"vector length {len(x)} != {n}")
    if any(len(row) != n for row in lap):
        raise ValueError("dimension mismatch")
    xs, scale = _cleared(x)
    quad, norm2 = _quadratic_form(linalg._gather(lap), xs)
    edge_sum = sum(
        -w * (xs[i] - xs[j]) ** 2
        for i, row in enumerate(lap) for j, w in enumerate(row[i + 1 :], i + 1) if w
    )
    if quad != edge_sum:
        quad, edge_sum = Fraction(quad, scale * scale), Fraction(edge_sum, scale * scale)
        raise ArithmeticError(f"quadratic form {quad} != edge sum {edge_sum}")
    return Fraction(quad, norm2)


def _quadratic_form(rows: list, x: Sequence[int]) -> tuple[int, int]:
    """(x^T L x, x^T x) for a non-zero integer x, L in ``linalg._gather`` rows; each
    caller checks x^T L x against its own sum (``rayleigh``: edges, ``verify``: bands)."""
    norm2 = sum(map(mul, x, x))
    if norm2 == 0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    return sum(map(mul, x, linalg._apply(rows, x))), norm2


def edge_partition_sums(c: int, x: Sequence[int | Fraction]) -> list[Fraction]:
    """Band sums N_1..N_c of the 2c+1 family member's edge partition.

    Band h collects the edges from vertex h (1-based) to vertices
    h+1..2c+2-h, so N_h = sum over that range of (x_h - x_j)^2.  The band
    sums total x^T L x for the indexed construction's Laplacian.
    """
    if c < 1:
        raise ValueError(f"c must be positive: {c}")
    n = 2 * c + 1
    if len(x) != n:
        raise ValueError(f"vector length {len(x)} != {n}")
    xs, scale = _cleared(x)
    return [Fraction(band, scale * scale) for band in _band_sums(c, xs)]


def _band_sums(c: int, xs: Sequence[int]) -> list[int]:
    """``edge_partition_sums`` of an integer vector of length 2c+1, as ints.

    Band h sums (a - x_j)^2 over its cnt = 2c+2-2h partners, a = x_h, which is
    cnt a^2 - 2a S1 + S2 for S1, S2 the partners' sums of x and x^2: one pair
    of prefix sums makes each band O(1) instead of O(c)."""
    p1 = [0, *accumulate(xs)]
    p2 = [0, *accumulate(map(mul, xs, xs))]
    bands = []
    for h, a in enumerate(xs[:c], 1):
        end = 2 * c + 2 - h  # band h's partners are xs[h:end]
        bands.append((end - h) * a * a - 2 * a * (p1[end] - p1[h]) + p2[end] - p2[h])
    return bands


def realizes_gap_spectrum(g: Graph, i: int) -> bool:
    """True iff the Laplacian spectrum of g is {0..n} \\ {i}, all simple."""
    if not 0 <= i <= g.n:
        raise ValueError(f"excluded value {i} out of range 0..{g.n}")
    return graph_spectrum(g).gap == i


def realizability_step(h: Graph, i_prev: int, n_prev: int) -> Graph:
    """Grow a gap-spectrum graph by two vertices.

    Requires that h on n_prev vertices realizes the gap spectrum at i_prev;
    returns the join of a new vertex with (new isolated vertex + h), which
    the caller verifies realizes the gap spectrum at i_prev + 1.
    """
    if h.n != n_prev:
        raise ValueError(f"claimed order {n_prev} != actual {h.n}")
    if not realizes_gap_spectrum(h, i_prev):
        raise ValueError(
            f"input graph does not realize the gap spectrum at {i_prev} on {n_prev} vertices"
        )
    return join(Graph(1), disjoint_union(Graph(1), h))
