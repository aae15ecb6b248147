"""Exact linear algebra in integers.

Matrices are lists of integer rows.  A rational vector enters as integers
over one denominator (``over_lcm``, ``ratios_over_lcm``), and elimination
is fraction-free (Bareiss 1968): the only fractions made are the entries of
a solution of ``solve``.  ``dot`` is the one routine on rationals."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple


def over_lcm(values: Sequence) -> Tuple[Tuple[int, ...], int]:
    """The rationals ``values`` as integers over the lcm ``d`` of their
    denominators: ``(N, d)`` with ``values = N / d`` and ``d > 0``, so N is
    a positive multiple of ``values``."""
    d = lcm(*[x.denominator for x in values])
    return tuple([x.numerator * (d // x.denominator) for x in values]), d


def ratios_over_lcm(pairs: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, ...], int]:
    """The rationals p / q of ``pairs`` (integers, q > 0, not necessarily
    in lowest terms) as integers over the lcm ``d`` of the q: ``(N, d)``
    with ``N[i] / d = p_i / q_i``."""
    d = lcm(*[q for _, q in pairs])
    return tuple([p * (d // q) for p, q in pairs]), d


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


def solve(a: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[List[Fraction]]:
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


def echelon(a: Sequence[Sequence[int]]) -> Tuple[List[int], List[int]]:
    """The pivots of an integer matrix: ``(rows, cols)``, where ``cols``
    are its first linearly independent columns from the left and ``rows``
    are row indices of ``a`` such that the block ``rows x cols`` is
    invertible; the rank is their number.

    Fraction-free elimination to row echelon form (Bareiss 1968): the
    division by the previous pivot is exact as in ``solve``, since every
    entry is then a minor of ``a``.  A row of the echelon form is its
    original row scaled plus a combination of the pivot rows above it,
    so the original pivot rows span what the echelon rows span."""
    m = [list(row) for row in a]
    index = list(range(len(m)))
    ncols = len(m[0]) if m else 0
    cols, r, prev = [], 0, 1
    for c in range(ncols):
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        index[r], index[piv] = index[piv], index[r]
        rr = m[r]
        arc = rr[c]
        for i in range(r + 1, len(m)):
            ri = m[i]
            aic = ri[c]
            m[i] = [(arc * x - aic * y) // prev for x, y in zip(ri, rr)]
        prev = arc
        cols.append(c)
        r += 1
    return index[:r], cols
