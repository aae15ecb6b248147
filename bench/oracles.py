"""Independent oracles for checking job outputs.

Nothing here uses ``barydd``: vertices come from brute force over row
subsets with this module's own exact elimination, coordinates are evaluated
by this module's own evaluator, LP values are compared against HiGHS
(``scipy.optimize.linprog``) and certificate identities are re-expanded
with ``sympy``.  scipy and sympy are imported on first use, after the timed
region, so they do not enter set-up time or peak memory.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Point = Tuple[Fraction, ...]


def solve_square(M: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[Point]:
    """Unique solution of M x = rhs by Gauss-Jordan elimination, or None
    when M is singular."""
    n = len(M)
    T = [list(row) + [r] for row, r in zip(M, rhs)]
    for c in range(n):
        p = next((r for r in range(c, n) if T[r][c] != 0), None)
        if p is None:
            return None
        T[c], T[p] = T[p], T[c]
        inv = 1 / T[c][c]
        T[c] = [v * inv for v in T[c]]
        for r in range(n):
            if r != c and T[r][c] != 0:
                f = T[r][c]
                T[r] = [a - f * b for a, b in zip(T[r], T[c])]
    return tuple(T[i][n] for i in range(n))


def vertices(A: Sequence[Sequence], b: Sequence) -> List[Point]:
    """Sorted vertex set of {x | Ax <= b}: every n-subset of rows, solved
    and kept when feasible."""
    A = [[Fraction(c) for c in row] for row in A]
    b = [Fraction(v) for v in b]
    n = len(A[0])
    found = set()
    for S in itertools.combinations(range(len(A)), n):
        x = solve_square([A[i] for i in S], [b[i] for i in S])
        if x is None or x in found:
            continue
        if all(sum(a * xi for a, xi in zip(row, x)) <= r for row, r in zip(A, b)):
            found.add(x)
    return sorted(found)


def interior_points(V: Sequence[Point], count: int, rng: random.Random) -> List[Point]:
    """Convex combinations of all vertices with positive integer weights,
    which lie in the interior of a full-dimensional polytope."""
    pts = []
    for _ in range(count):
        w = [Fraction(rng.randint(1, 9)) for _ in V]
        tot = sum(w)
        pts.append(tuple(sum(wi * v[j] for wi, v in zip(w, V)) / tot for j in range(len(V[0]))))
    return pts


# --------------------------------------------------------------------------
# polynomials in the JSON form [[coeff, [exponents]], ...]
# --------------------------------------------------------------------------


def eval_poly(terms: Sequence, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for coeff, expo in terms:
        v = Fraction(coeff)
        for x, e in zip(point, expo):
            if e:
                v *= x ** e
        total += v
    return total


def eval_ratfun(f: dict, point: Sequence[Fraction]) -> Fraction:
    den = eval_poly(f["den"], point)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes")
    return eval_poly(f["num"], point) / den


# --------------------------------------------------------------------------
# optima by enumeration
# --------------------------------------------------------------------------


def rows_of(poly_json: dict) -> Tuple[List[List[Fraction]], List[Fraction]]:
    A, b = [], []
    for con in poly_json["constraints"]:
        if con["sense"] != "<=":
            raise ValueError("benchmark inputs use <= rows only")
        A.append([Fraction(c) for c in con["coeffs"]])
        b.append(Fraction(con["rhs"]))
    return A, b


def dbp_objective(inst: dict, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    val = Fraction(inst["c0"])
    val += sum(Fraction(c) * v for c, v in zip(inst["cx"], x))
    val += sum(Fraction(c) * v for c, v in zip(inst["cy"], y))
    for j, row in enumerate(inst["Q"]):
        for l, q in enumerate(row):
            val += Fraction(q) * x[j] * y[l]
    return val


def dbp_optimum(inst: dict) -> Fraction:
    """A bilinear objective over P x Py attains its minimum at a pair of
    vertices, so the minimum over all vertex pairs is the optimum."""
    VP = vertices(*rows_of(inst["P"]))
    VY = vertices(*rows_of(inst["Py"]))
    return min(dbp_objective(inst, x, y) for x in VP for y in VY)


def fdp01_optimum(inst: dict) -> Optional[Fraction]:
    """Optimum of a 0-1 FDP: each 0-1 point x, then the best vertex of the
    remaining polytope in y.  None when no 0-1 point is feasible."""
    nb = len(inst["blocks"])
    ny = inst["ny"]
    ox = [Fraction(c) for c in inst["objective"]["x"]]
    oy = [Fraction(c) for c in inst["objective"]["y"]]
    best = None
    for x in itertools.product((0, 1), repeat=nb):
        A, b = [], []
        for r in inst["coupling"]:
            if r["sense"] != "<=":
                raise ValueError("benchmark inputs use <= coupling rows only")
            A.append([Fraction(c) for c in r["y_coeffs"]])
            b.append(Fraction(r["rhs"]) - sum(Fraction(c) * xi for c, xi in zip(r["x_coeffs"], x)))
        if ny == 0:
            if any(v < 0 for v in b):
                continue
            ys = [()]
        else:
            ys = vertices(A, b)
        for y in ys:
            val = sum(c * xi for c, xi in zip(ox, x)) + sum(c * yi for c, yi in zip(oy, y))
            if best is None or val < best:
                best = val
    return best


# --------------------------------------------------------------------------
# HiGHS cross-check
# --------------------------------------------------------------------------


def highs_solve(prob) -> Tuple[str, Optional[float]]:
    """Solve an ``LPProblem`` (read through its public fields) with HiGHS.
    Returns (status, value) with status optimal | infeasible | unbounded."""
    import numpy as np
    from scipy.optimize import linprog

    idx = {v: i for i, v in enumerate(prob.variables)}
    nv = len(idx)
    sgn = 1.0 if prob.sense == "min" else -1.0
    c = np.zeros(nv)
    for v, coef in prob.objective.items():
        c[idx[v]] = sgn * float(coef)
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for row in prob.rows:
        vec = np.zeros(nv)
        for v, coef in row.coeffs.items():
            vec[idx[v]] = float(coef)
        if row.sense == "<=":
            ub_rows.append(vec)
            ub_rhs.append(float(row.rhs))
        elif row.sense == ">=":
            ub_rows.append(-vec)
            ub_rhs.append(-float(row.rhs))
        else:
            eq_rows.append(vec)
            eq_rhs.append(float(row.rhs))
    bounds = [
        (None, None) if prob.lb.get(v) is None else (float(prob.lb[v]), None)
        for v in prob.variables
    ]
    res = linprog(
        c,
        A_ub=np.array(ub_rows) if ub_rows else None,
        b_ub=np.array(ub_rhs) if ub_rhs else None,
        A_eq=np.array(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rhs else None,
        bounds=bounds,
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, f"highs-status-{res.status}")
    if status != "optimal":
        return status, None
    return status, sgn * res.fun + float(prob.obj_const)


def agrees(exact: Fraction, approx: float, rel: float = 1e-7) -> bool:
    return abs(float(exact) - approx) <= rel * max(1.0, abs(approx))


# --------------------------------------------------------------------------
# certificate identity with sympy
# --------------------------------------------------------------------------


def certificate_identity_holds(inst: dict, cert: dict) -> bool:
    """Re-expand z * (objective - delta) - sum_t w_t * prod(P rows) *
    (Py row) from the artifact and test that it is the zero polynomial."""
    import sympy

    n, ny = cert["n"], cert["ny"]
    gens = sympy.symbols(f"x1:{n + 1}") + sympy.symbols(f"y1:{ny + 1}")
    QQ = sympy.QQ

    def poly(d: Dict[tuple, Fraction]):
        return sympy.Poly.from_dict(
            {e: QQ(c.numerator, c.denominator) for e, c in d.items() if c} or {(0,) * (n + ny): QQ(0)},
            gens,
            domain=QQ,
        )

    def unit(i: int) -> tuple:
        return tuple(int(t == i) for t in range(n + ny))

    def row_poly(A_row, rhs, offset):
        d = {(0,) * (n + ny): Fraction(rhs)}
        for j, a in enumerate(A_row):
            if a:
                d[unit(offset + j)] = -Fraction(a)
        return poly(d)

    PA, Pb = rows_of(inst["P"])
    YA, Yb = rows_of(inst["Py"])
    prow = [row_poly(a, r, 0) for a, r in zip(PA, Pb)]
    yrow = [row_poly(a, r, n) for a, r in zip(YA, Yb)]

    obj = {(0,) * (n + ny): Fraction(inst["c0"]) - Fraction(cert["delta"])}
    for j, c in enumerate(inst["cx"]):
        obj[unit(j)] = obj.get(unit(j), 0) + Fraction(c)
    for l, c in enumerate(inst["cy"]):
        obj[unit(n + l)] = obj.get(unit(n + l), 0) + Fraction(c)
    for j, row in enumerate(inst["Q"]):
        for l, q in enumerate(row):
            e = tuple(a + b for a, b in zip(unit(j), unit(n + l)))
            obj[e] = obj.get(e, 0) + Fraction(q)
    z = poly({tuple(e): Fraction(c) for c, e in cert["z"]})
    residual = z * poly(obj)
    for t in cert["terms"]:
        p = poly({(0,) * (n + ny): Fraction(t["weight"])})
        for i in t["pfactors"]:
            p = p * prow[i]
        if t["yfactor"] is not None:
            p = p * yrow[t["yfactor"]]
        residual = residual - p
    return residual.is_zero
