"""Small exact linear algebra over Fraction matrices (lists of row lists);
``solve`` takes integer matrices and eliminates fraction-free."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(u, v)), Fraction(0))


def rref(a: Matrix) -> tuple:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = [row[:] for row in a]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def solve(a: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[Vector]:
    """Solve a square system with integer entries exactly; None when singular.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): step k replaces
    every entry a_ij of a row i != k by (a_kk a_ij - a_ik a_kj) / p, p being
    the previous pivot, a division that is exact because every entry is then
    a minor of the augmented matrix.  At the end every diagonal entry is the
    last pivot d = +-det(a) and the last column holds d * x, so the only
    fractions made are the n entries of x."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        rk = m[k]
        akk = rk[k]
        for i in range(n):
            if i == k:
                continue
            ri = m[i]
            aik = ri[k]
            for j in range(k + 1, n + 1):
                ri[j] = (akk * ri[j] - aik * rk[j]) // prev
            ri[k] = 0
        prev = akk
    return [Fraction(row[n], prev) for row in m]


def int_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination to row echelon
    form (Bareiss 1968): the division by the previous pivot is exact as in
    ``solve``, since every entry is then a minor of ``a``."""
    m = [list(row) for row in a]
    ncols = len(m[0]) if m else 0
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        rr = m[r]
        arc = rr[c]
        for i in range(r + 1, len(m)):
            ri = m[i]
            aic = ri[c]
            m[i] = [(arc * x - aic * y) // prev for x, y in zip(ri, rr)]
        prev = arc
        r += 1
        if r == len(m):
            break
    return r


def inverse(a: Matrix) -> Optional[Matrix]:
    n = len(a)
    aug = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]

