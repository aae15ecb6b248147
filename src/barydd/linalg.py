"""Small exact linear algebra over Fraction matrices (lists of row lists)."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(m)]


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


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [row[:] for row in a]
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            result = -result
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result


def solve(a: Matrix, b: Sequence) -> Optional[Vector]:
    """Solve a square system exactly; None when singular."""
    n = len(a)
    aug = [row[:] + [Fraction(b[i])] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if len(pivots) < n or pivots[-1] == n:
        return None
    return [red[i][n] for i in range(n)]


def inverse(a: Matrix) -> Optional[Matrix]:
    n = len(a)
    aug = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]

