"""Closed forms, explicit formulas and counting identities that the tests
check the double description engine and the relaxation builders against.
None of this runs in the ``barydd`` commands."""

import itertools
from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence, Tuple

from barydd import linalg
from barydd.linalg import Matrix
from barydd.exactmath import Poly, RatFun
from barydd.polyhedra import HPolyhedron, enumerate_vertices_oracle

ZERO = Fraction(0)
ONE = Fraction(1)


class NotSimple(ValueError):
    """Some vertex is not tight at exactly n independent facets."""


def _subsets_in_dd_order(T: Sequence[int]) -> List[tuple]:
    subs: List[tuple] = [()]
    for t in T:
        subs = subs + [s + (t,) for s in subs]
    return subs


def closed_form_box(n: int, T: Sequence[int]) -> Tuple[list, list]:
    """Rays and coordinates for {0 <= x_i <= 1 (i in T), x_i >= 0 otherwise}
    after processing the rows x_i <= 1, i in T, from the orthant start.
    Coordinates are homogeneous RatFuns in (x0, x1..xn); T is 1-based."""
    T = list(T)
    if any(i < 1 or i > n for i in T):
        raise ValueError("T must be a subset of {1..n}")
    nv = n + 1
    rays = []
    coords = []
    x0 = Poly.variable(nv, 0)
    for S in _subsets_in_dd_order(T):
        col = [ONE] + [ZERO] * n
        for i in S:
            col[i] = ONE
        rays.append(tuple(col))
        num = Poly.const(nv, 1)
        for i in S:
            num = num * Poly.variable(nv, i)
        for i in T:
            if i not in S:
                num = num * (x0 - Poly.variable(nv, i))
        if T:
            coords.append(RatFun(num, x0 ** (len(T) - 1)))
        else:
            coords.append(RatFun.from_poly(num * x0))  # x0^{k-1} with k = 0
    for i in range(1, n + 1):
        if i not in T:
            col = [ZERO] * nv
            col[i] = ONE
            rays.append(tuple(col))
            coords.append(RatFun.variable(nv, i))
    return rays, coords


def closed_form_tworow(a: Sequence, b: Sequence) -> Tuple[list, list]:
    """Coordinates for {x >= 0, 1 - a.x >= 0, 1 - b.x >= 0} with a, b >= 0
    (homogeneous forms).

    d(x) = x0 - sum_i min(a_i, b_i) x_i: the tied coefficients participate,
    which the printed form of the formulas omits; with them the expressions
    match the algorithm in every degenerate case (including a = b, where the
    whole system reduces to a single row -- a convention the source leaves
    open)."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if any(x < 0 for x in a) or any(x < 0 for x in b):
        raise ValueError("a and b must be componentwise non-negative")
    n = len(a)
    nv = n + 1
    x0 = Poly.variable(nv, 0)

    def xv(i):
        return Poly.variable(nv, i + 1)

    def unit(i):
        col = [ZERO] * nv
        col[i + 1] = ONE
        return col

    Ngt = [i for i in range(n) if a[i] > b[i]]
    Nlt = [i for i in range(n) if a[i] < b[i]]
    Neq = [i for i in range(n) if a[i] == b[i]]
    rays = []
    coords = []
    if not Ngt and not Nlt:
        for i in Neq:
            col = unit(i)
            col[0] = a[i]
            rays.append(tuple(col))
            coords.append(RatFun.from_poly(xv(i)))
        rays.append(tuple([ONE] + [ZERO] * n))
        expr = x0
        for i in range(n):
            expr = expr - xv(i).scale(a[i])
        coords.append(RatFun.from_poly(expr))
        return rays, coords
    d = x0
    for j in range(n):
        d = d - xv(j).scale(min(a[j], b[j]))
    slack_a = x0
    slack_b = x0
    for i in range(n):
        slack_a = slack_a - xv(i).scale(a[i])
        slack_b = slack_b - xv(i).scale(b[i])
    for i in Neq:
        col = unit(i)
        col[0] = a[i]
        rays.append(tuple(col))
        coords.append(RatFun.from_poly(xv(i)))
    rays.append(tuple([ONE] + [ZERO] * n))
    coords.append(RatFun(slack_a * slack_b, d))
    for i in Ngt:
        col = unit(i)
        col[0] = a[i]
        rays.append(tuple(col))
        coords.append(RatFun(xv(i) * slack_b, d))
    for j in Nlt:
        col = unit(j)
        col[0] = b[j]
        rays.append(tuple(col))
        coords.append(RatFun(xv(j) * slack_a, d))
    for i in Ngt:
        for j in Nlt:
            col = [ZERO] * nv
            col[0] = a[i] * b[j] - a[j] * b[i]
            col[i + 1] = b[j] - a[j]
            col[j + 1] = a[i] - b[i]
            rays.append(tuple(col))
            coords.append(RatFun(xv(i) * xv(j), d))
    return rays, coords


def warren_simple(P: HPolyhedron) -> Tuple[List[tuple], List[RatFun]]:
    """Barycentric coordinates of a simple polytope by the explicit formula:
    per vertex, |det of tight normals| times the product of slack constraint
    expressions, normalized by their sum.  Returns (vertices, coords) with
    coords as RatFuns over (x0, x), x0 unused (dehomogenized form); vertices
    in the oracle's canonical order."""
    verts = enumerate_vertices_oracle(P)
    nv = P.n + 1
    omegas = []
    for v in verts:
        tight = [i for i in range(P.m) if linalg.dot(P.A[i], v) == P.b[i]]
        if len(tight) != P.n:
            raise NotSimple(f"vertex {v} is tight at {len(tight)} facets")
        dt = det([list(P.A[i]) for i in tight])
        if dt == 0:
            raise NotSimple(f"tight normals at {v} are dependent")
        w = Poly.const(nv, abs(dt))
        for i in range(P.m):
            if i not in tight:
                w = w * Poly.affine(nv, P.b[i], [ZERO] + [-c for c in P.A[i]])
        omegas.append(w)
    total = Poly.zero(nv)
    for w in omegas:
        total = total + w
    return verts, [RatFun(w, total) for w in omegas]


def product_coords(
    vertsA: Sequence[tuple],
    coordsA: Sequence[RatFun],
    vertsB: Sequence[tuple],
    coordsB: Sequence[RatFun],
) -> Tuple[List[tuple], List[RatFun]]:
    """Coordinates gamma_i * phi_j attached to vertex pairs of P1 x P2.
    Inputs are dehomogenized: coords over (x0, block vars), vertices without
    the leading 1."""
    nA = len(vertsA[0]) if vertsA else 0
    nB = len(vertsB[0]) if vertsB else 0
    nv = 1 + nA + nB
    mapA = [0] + list(range(1, nA + 1))
    mapB = [0] + list(range(nA + 1, nA + nB + 1))
    verts = []
    coords = []
    for vA, cA in zip(vertsA, coordsA):
        cA2 = cA.remap(nv, mapA)
        for vB, cB in zip(vertsB, coordsB):
            verts.append(tuple(vA) + tuple(vB))
            coords.append(cA2 * cB.remap(nv, mapB))
    return verts, coords


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


def rlt_self_product_rows(P: HPolyhedron):
    """The linearized M X M' >= 0 system of pairwise products of the rows of
    one polytope, over variables x_j and X_{jk} (symmetric monomials).
    Returns (rows, var names) with rows as (coeffs, '>=', rhs)."""
    n = P.n
    names = [f"x{j}" for j in range(n)] + [
        f"X{j}_{k}" for j in range(n) for k in range(j, n)
    ]
    rows = []
    for i1 in range(P.m):
        for i2 in range(i1, P.m):
            # (b1 - A1 x)(b2 - A2 x) >= 0
            coeffs: Dict[str, Fraction] = {}
            const = P.b[i1] * P.b[i2]
            for j in range(n):
                c = -P.A[i1][j] * P.b[i2] - P.A[i2][j] * P.b[i1]
                if c:
                    coeffs[f"x{j}"] = coeffs.get(f"x{j}", ZERO) + c
            for j in range(n):
                for kk in range(n):
                    c = P.A[i1][j] * P.A[i2][kk]
                    if c:
                        key = f"X{min(j,kk)}_{max(j,kk)}"
                        coeffs[key] = coeffs.get(key, ZERO) + c
            rows.append((coeffs, ">=", -const, (i1, i2)))
    return rows, names


def count_product_factors(n: int, q: int, k: int) -> int:
    return comb(n, k) * q**k


def count_expanded_monomials(n: int, q: int, k: int) -> int:
    return sum(comb(n, i) * (q - 1) ** i for i in range(k + 1))


def expanded_monomials_brute(n: int, q: int, k: int) -> int:
    """Distinct monomials from expanding all product factors prod_{i in T}
    x_{i j_i}, |T| <= k, after substituting x_{iq} = 1 - sum_j x_{ij}."""
    nv = n * (q - 1)

    def var(i, j):  # block i, choice j in 0..q-2
        return Poly.variable(nv, i * (q - 1) + j)

    monos = set()
    for size in range(0, k + 1):
        for T in itertools.combinations(range(n), size):
            for choice in itertools.product(range(q), repeat=size):
                f = Poly.const(nv, 1)
                for i, j in zip(T, choice):
                    if j < q - 1:
                        f = f * var(i, j)
                    else:
                        g = Poly.const(nv, 1)
                        for jj in range(q - 1):
                            g = g - var(i, jj)
                        f = f * g
                monos.update(f.terms.keys())
    return len(monos)
