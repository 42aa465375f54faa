"""Exact dense linear algebra over arbitrary-precision integers.

Matrices are lists of row lists.  Nothing here ever touches floating
point: the characteristic polynomial uses the Faddeev-LeVerrier trace
recurrence (every division is by the step index and is exact over the
integers; exactness is asserted), and rank uses Bareiss one-step
fraction-free elimination with first-nonzero pivoting (every division is
by the previous pivot and is exact; asserted likewise).
"""

from __future__ import annotations

from typing import Sequence

IntMatrix = list[list[int]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    n, k = len(a), len(b)
    if n and len(a[0]) != k:
        raise ValueError("inner dimensions differ")
    cols = len(b[0]) if k else 0
    out = [[0] * cols for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            ait = ai[t]
            if ait:
                bt = b[t]
                for j in range(cols):
                    oi[j] += ait * bt[j]
    return out


def mat_vec(a: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    if len(a) and len(a[0]) != len(x):
        raise ValueError("dimension mismatch")
    return [sum(aij * xj for aij, xj in zip(row, x)) for row in a]


def trace(a: Sequence[Sequence[int]]) -> int:
    return sum(a[i][i] for i in range(len(a)))


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division {num}/{den}")
    return q


def char_poly(a: Sequence[Sequence[int]]) -> list[int]:
    """Monic characteristic polynomial det(xI - A), coefficients by ascending degree.

    Faddeev-LeVerrier: with M_1 = I and M_{k+1} = A M_k + c_{n-k} I, the
    coefficient c_{n-k} = -tr(A M_k)/k; the division is exact for integer A.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = identity(n)
    for k in range(1, n + 1):
        t = sum(a[i][j] * m[j][i] for i in range(n) for j in range(n))
        coeffs[n - k] = _exact_div(-t, k)
        if k < n:
            m = mat_mul(a, m)
            for i in range(n):
                m[i][i] += coeffs[n - k]
    return coeffs


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


def rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix (Bareiss elimination)."""
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    prev = 1
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if not any(m[i][col + 1 :]) and not m[i][col]:
                continue
            for j in range(col + 1, ncols):
                m[i][j] = _exact_div(m[r][col] * m[i][j] - m[i][col] * m[r][j], prev)
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return r


def nullity(a: Sequence[Sequence[int]]) -> int:
    ncols = len(a[0]) if len(a) else 0
    return ncols - rank(a)
