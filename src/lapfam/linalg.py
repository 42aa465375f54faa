"""Exact linear algebra over arbitrary-precision integers; no floating point.

Matrices are lists of row lists, and ``_gather`` is the only builder of
their gathered rows, which ``_apply`` multiplies by a vector: each row read
once as its diagonal entry and one getter per distinct off-diagonal value.
``char_poly`` works modulo certified primes just below 2**78, as many as
Hadamard's inequality asks for an exact lift: Lanczos' three-term
recurrence (Lanczos, J. Res. Nat. Bur. Standards 45, 1950) on the gathered
rows of a symmetric matrix, and Hessenberg reduction (Cohen, "A Course in
Computational Algebraic Number Theory", Alg. 2.2.9) for any other matrix or
a Lanczos breakdown.  ``rank`` is Bareiss fraction-free elimination, every
division exact (asserted): the public oracle of ``verify_eigenpairs``' rank,
counted with no elimination.  ``mat_vec`` is the dense product, the gathered
product's test oracle.  Polynomials are coefficient lists by ascending
degree; ``poly_shift`` is the in-place Taylor shift p(x - s).
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, prod
from operator import itemgetter, mul
from typing import Sequence

IntMatrix = list[list[int]]


def mat_vec(a: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    if len(a) and len(a[0]) != len(x):
        raise ValueError("dimension mismatch")
    return [sum(aij * xj for aij, xj in zip(row, x)) for row in a]


def _gather(a: Sequence[Sequence[int]]) -> list[tuple]:
    """Row i of a square matrix as (a_ii, ((x, the getter of the columns
    j != i with a_ij = x) for each distinct non-zero x)), for ``_apply``; a
    one-column getter is a one-entry slice, so each reads a sequence.  The x
    stay raw ints, not residues (-1 would be q - 1, each product big)."""
    rows = []
    for i, row in enumerate(a):
        cols: dict[int, list[int]] = {}
        for j in compress(range(len(row)), row):  # the non-zero columns
            if j != i:
                cols.setdefault(row[j], []).append(j)
        terms = tuple(
            (x, itemgetter(*js) if len(js) > 1 else itemgetter(slice(js[0], js[0] + 1)))
            for x, js in cols.items()
        )
        rows.append((row[i], terms))
    return rows


def _apply(rows: Sequence[tuple], v: Sequence[int]) -> list[int]:
    """A v for A gathered into ``rows``: one C-level sum per getter."""
    out = []
    for (diag, terms), y in zip(rows, v):
        s = diag * y
        for x, get in terms:
            s += x * sum(get(v))
        out.append(s)
    return out


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division {num}/{den}")
    return q


class CharPoly(list):
    """``char_poly``'s coefficient list, carrying the number of primes it
    used as ``moduli`` (in the manner of ``os.stat_result``)."""

    def __init__(self, coeffs: list[int], moduli: int):
        super().__init__(coeffs)
        self.moduli = moduli


# Miller-Rabin to the first 13 prime bases is proven below MR_LIMIT, the least
# strong pseudoprime to all of them (Sorenson-Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981
_primes: list[int] = []  # memo: the certified primes below 2**78, descending


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; refuses n >= MR_LIMIT."""
    if n >= MR_LIMIT:
        raise ValueError(f"{n} is at or above the proven limit {MR_LIMIT}")
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def hadamard_bound(a: Sequence[Sequence[int]]) -> int:
    """max_j e_j(r_1..r_n), r_i the ceiling of row i's 2-norm.  Coefficient
    c_{n-j} of det(xI - A) is a sum of j x j principal minors, and Hadamard's
    inequality bounds each by the product of its rows' norms."""
    e = [1]
    for r in (isqrt(sum(map(mul, row, row)) - 1) + 1 if any(row) else 0 for row in a):
        e = [x + r * y for x, y in zip(e + [0], [0] + e)]
    return max(e)


def prime_count(bound: int) -> int:
    """The fewest certified primes below 2**78, taken in descending order,
    whose product exceeds 2 * bound; they are ``_primes[:k]``."""
    modulus, k = 1, 0
    while modulus <= 2 * bound:
        while len(_primes) <= k:  # find the next certified prime below 2**78
            p = (_primes[-1] if _primes else (1 << 78) + 1) - 2
            while not is_prime(p):
                p -= 2
            _primes.append(p)
        modulus, k = modulus * _primes[k], k + 1
    return k


def _char_poly_mod(a: Sequence[Sequence[int]], q: int) -> list[int] | None:
    """det(xI - A) mod a squarefree q: reduce A to upper Hessenberg form H by
    similarity, then p_{k+1} = (x - h_kk) p_k - sum_{i<k} h_ik h_{i+1,i}...h_{k,k-1} p_i
    over the characteristic polynomials p_k of H's leading k x k blocks.
    Both steps hold over Z/qZ while every pivot is a unit; a non-zero pivot
    that is not (never met when q is prime) returns None."""
    n = len(a)
    h = [[x % q for x in row] for row in a]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if gcd(h[piv][m - 1], q) > 1:
            return None
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        top, inv = h[m], pow(h[m][m - 1], -1, q)
        mults = [h[i][m - 1] * inv % q for i in range(m + 1, n)]
        for i, u in enumerate(mults, m + 1):
            if u:
                h[i][m - 1 :] = [(x - u * y) % q for x, y in zip(h[i][m - 1 :], top[m - 1 :])]
        for row in h:  # complete the similarity: column m += u_i * column i
            row[m] = (row[m] + sum(map(mul, mults, row[m + 1 :]))) % q
    polys = [[1]]
    for k in range(n):
        acc, t = [0] + polys[k], 1  # t = h_{i+1,i} ... h_{k,k-1}
        for i in range(k, -1, -1):
            coef = h[i][k] * t % q
            if coef:
                acc[: i + 1] = [x - coef * c for x, c in zip(acc, polys[i])]
            t = t * h[i][i - 1] % q
        polys.append([x % q for x in acc])
    return polys[n]


def _lanczos_mod(a: Sequence[Sequence[int]], q: int) -> list[int] | None:
    """det(xI - A) mod a squarefree q for a symmetric A, by Lanczos from the
    start vector v_0 = (3, 9, 27, ...): with d_j = v_j.v_j,
    alpha_j = (Av_j.v_j)/d_j and gamma_j = d_j/d_{j-1},
    v_{j+1} = Av_j - alpha_j v_j - gamma_j v_{j-1} and
    p_{j+1} = (x - alpha_j) p_j - gamma_j p_{j-1}.
    While the d_j are units the v_j are pairwise orthogonal, since A is
    symmetric; once all n are, the v_j are a basis (V^T V is invertible) in
    which A is tridiagonal, so p_n = det(xI - A) over Z/qZ and v_n = 0
    (asserted).  A norm that is not a unit returns None: 0 mod q when the
    Krylov space is exhausted, as for every matrix with a repeated
    eigenvalue, or v_j is isotropic.  O(n * nnz + n^2) operations."""
    n = len(a)
    rows = _gather(a)  # a Laplacian row: deg * v_i less one sum over N(i)
    v = [pow(3, i + 1, q) for i in range(n)]
    prev, inv_prev, p_prev, p = [0] * n, 0, [], [1]
    for _ in range(n):
        d = sum(map(mul, v, v)) % q
        if gcd(d, q) > 1:
            return None
        inv = pow(d, -1, q)
        w = _apply(rows, v)
        alpha, gamma = sum(map(mul, w, v)) * inv % q, d * inv_prev % q
        prev, v = v, [(x - alpha * y - gamma * z) % q for x, y, z in zip(w, v, prev)]
        p_prev, p = p, [
            (s - alpha * t - gamma * u) % q
            for s, t, u in zip([0] + p, p + [0], p_prev + [0, 0])
        ]
        inv_prev = inv
    assert not any(v), "Lanczos left a non-zero v_n"
    return p


def char_poly(a: Sequence[Sequence[int]]) -> CharPoly:
    """Characteristic polynomial det(xI - A) of an integer matrix, exactly,
    by ascending degree, lifted to the symmetric range (-M/2, M/2] from its
    residues modulo M, the product of the fewest primes below 2**78 that
    exceeds twice ``hadamard_bound(a)``, so the lift is exact.  A symmetric
    matrix takes one O(n * nnz + n^2) Lanczos pass modulo M; any other
    matrix, or a Lanczos breakdown, one O(n^3) Hessenberg pass modulo M.
    Only a Hessenberg pivot that is not a unit modulo M sends the matrix
    to one Hessenberg pass per prime, joined by CRT.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    symmetric = all(tuple(row) == col for row, col in zip(a, zip(*a)))
    bound = hadamard_bound(a)
    k = prime_count(bound)
    modulus = prod(_primes[:k])
    res = _lanczos_mod(a, modulus) if symmetric else None
    if res is None:  # not symmetric, or a Lanczos breakdown
        res = _char_poly_mod(a, modulus)
    parts = [(modulus, res)]
    if res is None:  # a non-unit pivot; modulo a prime, every non-zero one is a unit
        parts = [(p, _char_poly_mod(a, p)) for p in _primes[:k]]
    coeffs, joined = [0] * (n + 1), 1
    for q, res in parts:
        assert res is not None, f"a non-unit pivot modulo the prime {q}"
        inv = pow(joined, -1, q)
        coeffs = [x + joined * ((r - x) * inv % q) for x, r in zip(coeffs, res)]
        joined *= q
    assert joined == modulus > 2 * bound and all(p < MR_LIMIT for p in _primes[:k])
    return CharPoly([x - modulus if 2 * x > modulus else x for x in coeffs], k)


def poly_eval(coeffs: Sequence[int], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_deflate(coeffs: Sequence[int], root: int) -> list[int]:
    """Exact quotient of the polynomial by (x - root), by synthetic division."""
    carry, quotient = 0, []
    for c in reversed(coeffs):
        carry = carry * root + c
        quotient.append(carry)
    if quotient.pop():
        raise ArithmeticError(f"x - {root} does not divide the polynomial")
    return quotient[::-1]


def poly_shift(p: Sequence[int], s: int) -> list[int]:
    """p(x - s) in place: pass k divides what is left by x + s, its remainder
    the coefficient of degree k (synthetic division), n(n + 1)/2 products."""
    out = list(p)
    if not s:
        return out
    for k in range(len(out) - 1):
        for j in range(len(out) - 2, k - 1, -1):
            out[j] -= s * out[j + 1]
    return out


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two polynomials, coefficients by ascending degree; one
    pass over ``a`` per coefficient of ``b``, so put the shorter one second."""
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j : j + len(a)] = [z + y * x for z, x in zip(out[j:], a)]
    return out


def rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix (Bareiss elimination)."""
    m = [list(row) for row in a]
    prev, r = 1, 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r][col:]
        for i in range(r + 1, len(m)):
            lead = m[i][col]
            m[i][col:] = [_exact_div(top[0] * x - lead * y, prev) for x, y in zip(m[i][col:], top)]
        prev, r = top[0], r + 1
    return r
