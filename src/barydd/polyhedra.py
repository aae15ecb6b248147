"""H-representations, homogenization, dehomogenization and a vertex oracle.

User-facing constraints are Ax <= b.  Internally every algorithm works on the
homogenized cone Abar (x0; x) >= 0, x0 >= 0 with Abar = (b, -A), so row i of
Abar is the constraint expression b_i*x0 - A_i.x as a linear form in
(x0, x1, ..., xn).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .exactmath import Poly, RatFun, rat_from_str, rat_to_str
from .lp import LPProblem, LPVerificationError, lp_solve


class NotFullRank(ValueError):
    """The constraint matrix has no n linearly independent rows."""


@dataclass(frozen=True)
class HPolyhedron:
    """Polyhedron {x | Ax <= b} with exact rational data."""

    n: int
    A: tuple  # m rows, each a tuple of n Fractions
    b: tuple  # m Fractions
    var_names: tuple = ()
    # row i as (b_i, A_i) times the lcm of its denominators, an int and a
    # tuple of ints: the same inequality, derived from A and b on construction
    int_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = (linalg.over_lcm((rhs, *row))[0] for row, rhs in zip(self.A, self.b))
        object.__setattr__(self, "int_rows", tuple((r[0], r[1:]) for r in rows))

    @staticmethod
    def make(A, b, var_names: Optional[Sequence[str]] = None) -> "HPolyhedron":
        A = tuple(tuple(Fraction(x) for x in row) for row in A)
        b = tuple(Fraction(x) for x in b)
        if len(A) != len(b):
            raise ValueError("row count of A must equal length of b")
        n = len(A[0]) if A else len(var_names or ())
        if any(len(row) != n for row in A):
            raise ValueError(f"every row of A must have length {n}")
        names = tuple(var_names) if var_names else tuple(f"x{i+1}" for i in range(n))
        if len(names) != n:
            raise ValueError(f"{len(names)} variable names for {n} variables")
        return HPolyhedron(n, A, b, names)

    @property
    def m(self) -> int:
        return len(self.A)

    def contains(self, point: Sequence) -> bool:
        """A x <= b at a rational point, in integers: with x = N / d over the
        common denominator d > 0 of its entries, row i holds iff
        b_i d - A_i.N >= 0 on the integer-scaled row."""
        pt = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in point]
        num, d = linalg.over_lcm(pt)
        return all(
            rhs * d >= sum(a * x for a, x in zip(coeffs, num))
            for rhs, coeffs in self.int_rows
        )

    def to_json(self) -> dict:
        return {
            "variables": list(self.var_names),
            "constraints": [
                {
                    "coeffs": [rat_to_str(c) for c in row],
                    "sense": "<=",
                    "rhs": rat_to_str(rhs),
                }
                for row, rhs in zip(self.A, self.b)
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "HPolyhedron":
        names = data.get("variables")
        rows = []
        rhs = []
        for con in data["constraints"]:
            coeffs = [rat_from_str(c) for c in con["coeffs"]]
            r = rat_from_str(con["rhs"])
            sense = con.get("sense", "<=")
            if sense == "<=":
                rows.append(coeffs)
                rhs.append(r)
            elif sense == ">=":
                rows.append([-c for c in coeffs])
                rhs.append(-r)
            elif sense == "=":
                # equalities split into two inequalities at parse time
                rows.append(coeffs)
                rhs.append(r)
                rows.append([-c for c in coeffs])
                rhs.append(-r)
            else:
                raise ValueError(f"unknown sense {sense!r}")
        if names is None:
            n = len(rows[0]) if rows else 0
            names = [f"x{i+1}" for i in range(n)]
        return HPolyhedron.make(rows, rhs, names)


@dataclass(frozen=True)
class HomCone:
    """Cone {(x0;x) | Abar (x0;x) >= 0, x0 >= 0} with Abar = (b, -A)."""

    n: int
    Abar: tuple  # m rows, each of length n+1

    @property
    def m(self) -> int:
        return len(self.Abar)

    def row_poly(self, i: int) -> Poly:
        row = self.Abar[i]
        return Poly(self.n + 1, {tuple(int(j == k) for k in range(self.n + 1)): c
                                 for j, c in enumerate(row) if c})


def homogenize(P: HPolyhedron) -> HomCone:
    """Abar row i = [b_i, -A_i1, ..., -A_in]."""
    Abar = tuple(
        (P.b[i],) + tuple(-a for a in P.A[i]) for i in range(P.m)
    )
    return HomCone(P.n, Abar)


def dehomogenize_columns(R: Sequence) -> tuple:
    """The columns of ``dehomogenize`` alone: a column with positive first
    entry rescaled to first entry 1, any other column as it is."""
    return tuple(
        tuple(x / col[0] for x in col) if col[0] > 0 else tuple(col) for col in R
    )


def dehomogenize(R: Sequence, mu: Sequence[RatFun]) -> Tuple[tuple, list]:
    """Definition: columns with positive first entry are rescaled to first
    entry 1 and the coordinate scaled by that entry; every coordinate gets
    x0 := 1 substituted.  Each coordinate is normalized once, from its
    substituted numerator, times the column's first entry, over its
    substituted denominator: the same num and den as normalizing after
    the substitution and again after the scaling, since normalization
    fixes a ratio of polynomials up to its joint content."""
    if len(mu) != len(R):
        raise ValueError("mu length must equal column count of R")
    lam = [
        RatFun(f.num.subs_one(0).scale(col[0] if col[0] > 0 else 1), f.den.subs_one(0))
        for col, f in zip(R, mu)
    ]
    return dehomogenize_columns(R), lam


def enumerate_vertices_oracle(P: HPolyhedron) -> List[tuple]:
    """Exact vertex set by brute force: all n-subsets of rows, solve, filter
    feasible, dedupe.  Sorted for a canonical order.

    The arithmetic is in integers: each subset is solved fraction-free by
    ``linalg.solve`` on the integer-scaled rows of ``P.int_rows``, and
    ``P.contains`` tests the solution by integer cross-products."""
    n = P.n
    if n == 0:
        return [()]
    full_rank = False  # some n rows are independent: rank A = n
    seen = set()
    for subset in itertools.combinations(P.int_rows, n):
        x = linalg.solve([coeffs for _, coeffs in subset], [rhs for rhs, _ in subset])
        if x is None:
            continue
        full_rank = True
        pt = tuple(x)
        if pt not in seen and P.contains(pt):
            seen.add(pt)
    if not full_rank:
        raise NotFullRank("no n linearly independent rows")
    return sorted(seen)


def recession_ray(P: HPolyhedron) -> Optional[tuple]:
    """A nonzero recession direction d of P (A d <= 0) when one exists,
    else None.

    When rank A < n, d is an exact null-space vector of A: 1 at the first
    column that is not a pivot of the integer rows ``P.int_rows``, 0 at the
    other non-pivot columns, and at the pivot columns the solution over
    the invertible pivot block (``linalg.echelon``).  Otherwise
    {d | -1 <= A d <= 0} is bounded, and min 1.A d over it is 0 exactly
    when A d <= 0 forces d = 0; a negative optimum's primal d is a ray.
    The ray is checked exactly; a failed check raises LPVerificationError.
    """
    n = P.n
    rows = [list(row) for row in P.A]
    coeffs = [c for _, c in P.int_rows]
    prows, pcols = linalg.echelon(coeffs)
    if len(pcols) < n:
        free = min(set(range(n)) - set(pcols))
        x = linalg.solve([[coeffs[i][c] for c in pcols] for i in prows], [-coeffs[i][free] for i in prows])
        d = [Fraction(0)] * n
        d[free] = Fraction(1)
        for c, v in zip(pcols, x):
            d[c] = v
    else:
        names = [f"d{j}" for j in range(n)]
        prob = LPProblem(sense="min")
        for j, v in enumerate(names):
            prob.add_var(v, obj=sum((row[j] for row in rows), Fraction(0)))
        for row in rows:
            coeffs = dict(zip(names, row))
            prob.add_row(coeffs, "<=", 0)
            prob.add_row(coeffs, ">=", -1)
        sol = lp_solve(prob)
        if sol.status != "optimal":
            raise LPVerificationError(f"recession LP is {sol.status}")
        if sol.value == 0:
            return None
        d = [sol.primal[v] for v in names]
    if all(x == 0 for x in d) or any(linalg.dot(row, d) > 0 for row in rows):
        raise LPVerificationError("recession ray check: need A d <= 0 and d != 0")
    return tuple(d)


def interior_point(P: HPolyhedron) -> Optional[tuple]:
    """A point x with A x < b, from max t over A x + t <= b, t <= 1; None
    when P has an empty interior.  A row without coefficients that holds
    everywhere (0.x <= b, b >= 0) bounds nothing and is left out."""
    names = [f"x{j}" for j in range(P.n)]
    prob = LPProblem(sense="max")
    prob.add_var("t", obj=1)
    for v in names:
        prob.add_var(v)
    for row, rhs in zip(P.A, P.b):
        if rhs >= 0 and not any(row):
            continue
        prob.add_row({"t": 1, **dict(zip(names, row))}, "<=", rhs)
    prob.add_row({"t": 1}, "<=", 1)
    sol = lp_solve(prob)
    if sol.status != "optimal" or sol.value <= 0:
        return None
    return tuple(sol.primal[v] for v in names)


def is_bounded(P: HPolyhedron) -> bool:
    return recession_ray(P) is None
