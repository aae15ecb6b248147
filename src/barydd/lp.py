"""Exact-rational two-phase simplex with primal, dual and Farkas certificates.

There is no floating point anywhere.  Bland's rule is the default pivot rule
(termination guarantee), with Dantzig-plus-Bland fallback as an option.
Phase 1 starts from a slack crash basis (Bixby 1992): each row is negated
where needed so that its right-hand side is >= 0, and a row whose slack then
has coefficient +1 starts with that slack basic; only the other rows ('='
rows, and inequalities whose slack ends up at -1) get an artificial.  Either
way each row has a unit column e_i in the starting system, so the basis
inverse is always available under those columns and dual values and Farkas
vectors are read off exactly.  An LP of '=' rows only starts from its
artificials alone.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): each row is a
sparse dict of nonzero integer numerators over one positive row
denominator, kept primitive, so every entry is the same exact rational a
Fraction tableau would hold.  A pivot touches only the rows that meet the
pivot column, and in each only the pivot row's nonzero columns, plus one
scaling by the pivot numerator and one division by the row's gcd.  The
reduced-cost row is held and updated the same way.  Pricing tests integer
signs and the ratio test compares integer cross-products, so the pivot path
is the one a Fraction tableau takes.  Fractions appear only where rows are
built and where values are read off.

Conventions for a reported optimal solution of min c.x + const:

  value = sum_i dual[i] * rhs[i] + shift-terms + const        (strong duality)
  c_v   = sum_i dual[i] * a[i][v] + reduced[v]  for every variable v
  reduced[v] >= 0 when v has a finite lower bound, = 0 when v is free
  dual[i] >= 0 for '>=' rows, <= 0 for '<=' rows, free for '=' rows

A reported infeasibility comes with a Farkas vector y, one entry per row
in the row's own orientation:

  y[i] <= 0 for '<=' rows, >= 0 for '>=' rows, free for '=' rows
  sum_i y[i] * a[i][v] = 0 for a free v, <= 0 for v with a lower bound
  sum_i y[i] * (rhs[i] - a[i].lb) > 0

and a reported unboundedness with a ray d: d[v] >= 0 where v has a lower
bound, a[i].d <= 0, >= 0 or = 0 by the sense of row i, and c.d < 0 for min
(> 0 for max).

lp_solve verifies every optimal, infeasible and unbounded result exactly
against these conditions before it returns it; a failed check raises
LPVerificationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)


class LPVerificationError(ArithmeticError):
    """An exact check on a simplex result failed: primal or dual
    feasibility, complementary slackness, strong duality, or a Farkas
    certificate.  Raised explicitly, so ``python -O`` cannot strip the
    checks."""


@dataclass
class LPRow:
    coeffs: Dict[str, Fraction]
    sense: str  # '<=', '>=', '='
    rhs: Fraction
    name: str = ""
    tag: Optional[object] = None  # provenance, carried through to reports

    def __post_init__(self):
        self.coeffs = {v: Fraction(c) for v, c in self.coeffs.items() if Fraction(c) != 0}
        self.rhs = Fraction(self.rhs)
        if self.sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {self.sense!r}")


@dataclass
class LPProblem:
    sense: str = "min"  # 'min' or 'max'
    objective: Dict[str, Fraction] = field(default_factory=dict)
    obj_const: Fraction = ZERO
    variables: List[str] = field(default_factory=list)
    rows: List[LPRow] = field(default_factory=list)
    lb: Dict[str, Optional[Fraction]] = field(default_factory=dict)
    name: str = ""

    def add_var(self, v: str, lb: Optional[Fraction] = None, obj: Fraction = ZERO):
        if v in self.lb:
            raise ValueError(f"duplicate variable {v}")
        self.variables.append(v)
        self.lb[v] = Fraction(lb) if lb is not None else None
        if obj:
            self.objective[v] = self.objective.get(v, ZERO) + Fraction(obj)

    def add_row(self, coeffs, sense, rhs, name="", tag=None) -> LPRow:
        row = LPRow(dict(coeffs), sense, rhs, name, tag)
        for v in row.coeffs:
            if v not in self.lb:
                raise ValueError(f"unknown variable {v} in row {name!r}")
        self.rows.append(row)
        return row


class PivotCounts(NamedTuple):
    """Simplex pivots of one solve: phase 1, driving basic artificials
    out of the basis, and phase 2."""

    phase1: int = 0
    drive_out: int = 0
    phase2: int = 0


@dataclass
class LPSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    value: Optional[Fraction] = None
    primal: Dict[str, Fraction] = field(default_factory=dict)
    dual: List[Fraction] = field(default_factory=list)
    reduced: Dict[str, Fraction] = field(default_factory=dict)
    basis_rows: List[int] = field(default_factory=list)
    basis_vars: List[str] = field(default_factory=list)
    farkas: Optional[List[Fraction]] = None
    ray: Optional[Dict[str, Fraction]] = None
    # how the answer was reached, not part of it
    pivots: PivotCounts = field(default_factory=PivotCounts, compare=False)


class _Tableau:
    """Fraction-free simplex tableau over the structural, slack and
    artificial columns, in that order; only rows that start without a basic
    slack have an artificial column.

    Row ``i`` is ``T[i]``, a dict from column to nonzero int numerator, over
    one positive int denominator ``D[i]``; the right-hand side is column
    ``ncols``.  Entry ``(i, j)`` is ``T[i].get(j, 0) / D[i]``.  Every row is
    kept primitive (the gcd of ``D[i]`` and its numerators is 1), which
    makes ``D[i]`` the lcm of the denominators of the row's entries: a row
    has one representation, and each entry is the exact rational a
    Fraction tableau would hold.  The entry of a row at its basic column
    equals ``D[i]``.

    A pivot on ``(r, c)`` makes row ``r`` positive at ``c``, divides it by
    its gcd and sets ``D[r]`` to the pivot numerator ``p``.  Every other row
    with ``f = T[i][c] != 0`` is scaled by ``p`` (when ``p != 1``), has
    ``f * T[r][j]`` subtracted at the pivot row's columns only, which
    clears column ``c``, and is divided by its gcd.  ``pivots`` counts the
    pivots made so far."""

    def __init__(self, ncols: int, nrows: int):
        self.T: List[Dict[int, int]] = [{} for _ in range(nrows)]
        self.D: List[int] = [1] * nrows
        self.basis: List[int] = [-1] * nrows
        self.ncols = ncols
        self.pivots = 0

    def set_row(self, i: int, entries: Dict[int, Fraction]):
        """Row ``i`` := the given rational entries (zeros are dropped)."""
        self.T[i], self.D[i] = _scaled(entries)

    def value(self, i: int, j: int) -> Fraction:
        return Fraction(self.T[i].get(j, 0), self.D[i])

    def pivot(self, r: int, c: int) -> List[int]:
        """Pivot on entry ``(r, c)``; return the pivot row's nonzero
        columns in no particular order, the right-hand side column ``ncols``
        included when it is nonzero."""
        T, D = self.T, self.D
        rowr = T[r]
        if rowr[c] < 0:
            rowr = {j: -x for j, x in rowr.items()}
        g = gcd(*rowr.values())
        if g != 1:
            rowr = {j: x // g for j, x in rowr.items()}
        T[r] = rowr
        D[r] = p = rowr[c]
        for i, Ti in enumerate(T):
            f = Ti.get(c)
            if f and i != r:
                T[i], D[i] = _eliminate(Ti, D[i], f, rowr, p)
        self.basis[r] = c
        self.pivots += 1
        return list(rowr)


def _scaled(entries: Dict[int, Fraction]) -> Tuple[Dict[int, int], int]:
    """Fraction-free form of a row of rationals: its nonzero entries'
    numerators over the lcm of their denominators.  Such a row is already
    primitive."""
    d = lcm(*(x.denominator for x in entries.values() if x))
    return {j: x.numerator * (d // x.denominator) for j, x in entries.items() if x}, d


def _eliminate(row: Dict[int, int], d: int, f: int, prow: Dict[int, int], p: int) -> Tuple[Dict[int, int], int]:
    """``row / d - (f / d) * (prow / p)`` as a primitive fraction-free row,
    where ``f`` is the row's entry at the pivot column and ``p`` the pivot
    row's.  The pivot column cancels to zero and is dropped.  ``row`` is
    updated in place when ``p == 1``; use the returned row and denominator."""
    if p != 1:
        row = {j: x * p for j, x in row.items()}
        d *= p
    for j, x in prow.items():
        v = row.get(j, 0) - f * x
        if v:
            row[j] = v
        else:
            del row[j]
    return _primitive(row, d)


def _primitive(row: Dict[int, int], d: int) -> Tuple[Dict[int, int], int]:
    """``row / d`` with the gcd of ``d`` and the numerators divided out."""
    g = gcd(d, *row.values())
    if g != 1:
        row = {j: x // g for j, x in row.items()}
        d //= g
    return row, d


def _reduced_costs(tab: _Tableau, cost: List[Fraction]) -> Tuple[Dict[int, int], int]:
    """The reduced-cost row ``c_j - c_B . T[:, j]`` over every column, the
    right-hand side included (there it is minus the objective value), in
    fraction-free form."""
    T, D = tab.T, tab.D
    basic = [(i, cost[b]) for i, b in enumerate(tab.basis) if cost[b]]
    # one common denominator for the costs and the rows they meet
    d = lcm(*(c.denominator for c in cost if c), *(c.denominator * D[i] for i, c in basic))
    rc = {j: c.numerator * (d // c.denominator) for j, c in enumerate(cost) if c}
    for i, c in basic:
        q = c.numerator * (d // (c.denominator * D[i]))
        for j, x in T[i].items():
            rc[j] = rc.get(j, 0) - q * x
    return _primitive({j: x for j, x in rc.items() if x}, d)


def _kernel(
    tab: _Tableau, cost: List[Fraction], ncand: int, pivot_rule: str
) -> Tuple[str, Optional[int], Dict[int, int], int]:
    """Run primal simplex to optimality over entering columns ``0..ncand-1``.
    Returns ``('optimal', None, rc, d)`` or ``('unbounded', entering, rc,
    d)``, where ``rc / d`` is the reduced-cost row at that point.  The
    reduced-cost row is eliminated against each pivot row like a tableau
    row, so pricing reads integer signs: all its entries share ``d > 0``."""
    T = tab.T
    basis = tab.basis
    rhs = tab.ncols
    degenerate_streak = 0
    use_bland = pivot_rule == "bland"
    rc, d = _reduced_costs(tab, cost)
    while True:
        if use_bland:
            entering = min((j for j, x in rc.items() if x < 0 and j < ncand), default=-1)
        else:
            # most negative; ties to the lowest column
            best = min(((x, j) for j, x in rc.items() if x < 0 and j < ncand), default=None)
            entering = -1 if best is None else best[1]
        if entering < 0:
            return "optimal", None, rc, d
        # ratio test on rhs_i / a_i: the row denominators cancel, so compare
        # numerators by cross-multiplication (Bland ties: smallest basis index)
        leave = -1
        best_b = best_a = 0
        for i, Ti in enumerate(T):
            a = Ti.get(entering, 0)
            if a > 0:
                b = Ti.get(rhs, 0)
                if leave < 0:
                    leave, best_b, best_a = i, b, a
                else:
                    x, y = b * best_a, best_b * a
                    if x < y or (x == y and basis[i] < basis[leave]):
                        leave, best_b, best_a = i, b, a
        if leave < 0:
            return "unbounded", entering, rc, d
        if best_b == 0:
            degenerate_streak += 1
            if not use_bland and degenerate_streak > 30:
                use_bland = True  # anti-cycling fallback
        else:
            degenerate_streak = 0
        tab.pivot(leave, entering)
        rc, d = _eliminate(rc, d, rc[entering], T[leave], tab.D[leave])


def lp_solve(problem: LPProblem, pivot_rule: str = "bland") -> LPSolution:
    """Exact optimum with exact duals, or an exact Farkas vector for an
    infeasible LP, or an exact improving ray for an unbounded one.  Never
    raises for those outcomes; the status field encodes them.  Each result
    is checked exactly before it is returned (``_verify_optimal``,
    ``_verify_infeasible``, ``_verify_unbounded``); a failed check raises
    LPVerificationError."""
    minimize = problem.sense == "min"
    # -- internal columns ---------------------------------------------------
    # free var v -> columns (v,+1),(v,-1); lb var -> column (v,+1) shifted.
    cols: List[Tuple[str, int]] = []
    col_of: Dict[Tuple[str, int], int] = {}
    shift: Dict[str, Fraction] = {}
    for v in problem.variables:
        lo = problem.lb.get(v)
        if lo is None:
            for sgn in (1, -1):
                col_of[(v, sgn)] = len(cols)
                cols.append((v, sgn))
        else:
            shift[v] = lo
            col_of[(v, 1)] = len(cols)
            cols.append((v, 1))
    nstruct = len(cols)
    nrows = len(problem.rows)
    # a row is negated when its rhs is negative, and a '>=' row also when
    # its rhs is 0, so every rhs is >= 0 and a '<=' row with rhs >= 0 or a
    # '>=' row with rhs <= 0 has its slack at +1: that slack starts basic.
    # unit[i] is the column that is e_i in the starting system, the slack
    # of such a row and otherwise the row's artificial.
    sign: List[Fraction] = [ONE] * nrows
    unit: List[int] = [-1] * nrows
    start: List[Tuple[Dict[int, Fraction], Fraction]] = []  # (body, rhs)
    scol = nstruct
    for i, row in enumerate(problem.rows):
        rhs = row.rhs - sum(
            c * shift.get(v, ZERO) for v, c in row.coeffs.items() if v in shift
        )
        body: Dict[int, Fraction] = {}
        for v, c in row.coeffs.items():
            body[col_of[(v, 1)]] = c
            if (v, -1) in col_of:
                body[col_of[(v, -1)]] = -c
        slack = ONE if row.sense == "<=" else -ONE
        if rhs < 0 or (rhs == 0 and row.sense == ">="):
            sign[i], slack, rhs = -ONE, -slack, -rhs
            body = {j: -x for j, x in body.items()}
        if row.sense != "=":
            body[scol] = slack
            if slack == 1:
                unit[i] = scol
            scol += 1
        start.append((body, rhs))
    art0 = scol
    ncols = art0 + unit.count(-1)  # artificials at the end
    tab = _Tableau(ncols, nrows)
    acol = art0
    for i, (body, rhs) in enumerate(start):
        if unit[i] < 0:
            unit[i] = acol
            body[acol] = ONE
            acol += 1
        body[ncols] = rhs
        tab.set_row(i, body)
        tab.basis[i] = unit[i]

    # -- phase 1 -------------------------------------------------------------
    cost1 = [ZERO] * ncols
    for j in range(art0, ncols):
        cost1[j] = ONE
    status, _, rc1, d1 = _kernel(tab, cost1, ncols, pivot_rule)
    if status != "optimal":
        raise LPVerificationError(f"phase 1 ended {status}, not optimal")
    phase1 = tab.pivots
    if any(tab.T[i].get(ncols, 0) > 0 for i in range(nrows) if tab.basis[i] >= art0):
        # infeasible: the phase-1 duals y, read from the reduced costs under
        # the unit columns and turned back to each row's own orientation,
        # are a Farkas certificate (see _verify_infeasible)
        farkas = [
            (cost1[unit[i]] - Fraction(rc1.get(unit[i], 0), d1)) * sign[i]
            for i in range(nrows)
        ]
        sol = LPSolution(status="infeasible", farkas=farkas, pivots=PivotCounts(phase1))
        _verify_infeasible(problem, sol)
        return sol

    # drive basic artificials out where possible (value is 0 here)
    for i in range(nrows):
        if tab.basis[i] >= art0:
            piv = min((j for j in tab.T[i] if j < art0), default=None)
            if piv is not None:
                tab.pivot(i, piv)
    drive_out = tab.pivots - phase1

    # -- phase 2 -------------------------------------------------------------
    cost2 = [ZERO] * ncols
    for v, c in problem.objective.items():
        c = Fraction(c) if minimize else -Fraction(c)
        cost2[col_of[(v, 1)]] += c
        if (v, -1) in col_of:
            cost2[col_of[(v, -1)]] -= c
    # shift constant: objective over shifted var v' = v - lb adds c*lb
    shift_const = sum(
        Fraction(problem.objective.get(v, ZERO)) * shift[v] for v in shift
    )
    status, enter, rc2, d2 = _kernel(tab, cost2, art0, pivot_rule)
    pivots = PivotCounts(phase1, drive_out, tab.pivots - phase1 - drive_out)
    if status == "unbounded":
        # the same direction certifies -infinity for min and +infinity for max
        direction: Dict[str, Fraction] = {v: ZERO for v in problem.variables}
        vname, sgn = cols[enter] if enter < nstruct else (None, 0)
        if vname is not None:
            direction[vname] += Fraction(sgn)
        for i in range(nrows):
            b = tab.basis[i]
            if b < nstruct and enter in tab.T[i]:
                bv, bsgn = cols[b]
                direction[bv] -= Fraction(bsgn) * tab.value(i, enter)
        sol = LPSolution(status="unbounded", ray=direction, pivots=pivots)
        _verify_unbounded(problem, sol)
        return sol

    # -- extract primal ------------------------------------------------------
    xint = [ZERO] * ncols
    for i in range(nrows):
        xint[tab.basis[i]] = tab.value(i, ncols)
    primal: Dict[str, Fraction] = {}
    for v in problem.variables:
        val = xint[col_of[(v, 1)]]
        if (v, -1) in col_of:
            val -= xint[col_of[(v, -1)]]
        primal[v] = val + shift.get(v, ZERO)
    internal_value = sum(cost2[j] * xint[j] for j in range(ncols))
    value = internal_value + (shift_const if minimize else -shift_const) + (
        problem.obj_const if minimize else -problem.obj_const
    )
    # duals from reduced costs under the unit columns (phase-2 costs are 0)
    dual = [-Fraction(rc2.get(unit[i], 0), d2) * sign[i] for i in range(nrows)]
    reduced: Dict[str, Fraction] = {
        v: Fraction(rc2.get(col_of[(v, 1)], 0), d2) for v in problem.variables
    }
    if not minimize:
        value = -value
        dual = [-d for d in dual]
        reduced = {v: -r for v, r in reduced.items()}

    sol = LPSolution(
        status="optimal",
        value=value,
        primal=primal,
        dual=dual,
        reduced=reduced,
        basis_rows=list(range(nrows)),
        basis_vars=[
            cols[b][0] if b < nstruct else f"_slack{b}" for b in tab.basis
        ],
        pivots=pivots,
    )
    _verify_optimal(problem, sol)
    return sol


def _verify_optimal(problem: LPProblem, sol: LPSolution):
    """Exact primal feasibility, dual signs, complementary slackness, the
    dual identity per variable and strong duality.  Raises
    LPVerificationError on the first violation."""
    sgn = 1 if problem.sense == "min" else -1
    acc: Dict[str, Fraction] = {v: ZERO for v in problem.variables}
    dual_value = ZERO
    for row, y in zip(problem.rows, sol.dual):
        lhs = sum((c * sol.primal[v] for v, c in row.coeffs.items()), ZERO)
        if row.sense == "<=":
            ok, dual_ok = lhs <= row.rhs, sgn * y <= 0
        elif row.sense == ">=":
            ok, dual_ok = lhs >= row.rhs, sgn * y >= 0
        else:
            ok, dual_ok = lhs == row.rhs, True
        if not ok:
            raise LPVerificationError(f"primal infeasible on row {row.name!r}")
        if not dual_ok:
            raise LPVerificationError(f"dual sign on {row.sense} row {row.name!r}")
        if y:
            if lhs != row.rhs:
                raise LPVerificationError(f"complementary slackness on row {row.name!r}")
            for v, c in row.coeffs.items():
                acc[v] += y * c
            dual_value += y * row.rhs
    for v in problem.variables:
        c = Fraction(problem.objective.get(v, ZERO))
        rc = sol.reduced[v]
        if c != acc[v] + rc:
            raise LPVerificationError(f"dual identity on {v}")
        lo = problem.lb.get(v)
        if lo is None:
            if rc != 0:
                raise LPVerificationError(f"nonzero reduced cost on free var {v}")
        else:
            if sgn * rc < 0:
                raise LPVerificationError(f"reduced cost sign on {v}")
            if rc != 0 and sol.primal[v] != lo:
                raise LPVerificationError(f"complementary slackness on the bound of {v}")
            dual_value += rc * lo
    if sol.value != dual_value + problem.obj_const:
        raise LPVerificationError("strong duality")


def _verify_infeasible(problem: LPProblem, sol: LPSolution):
    """The Farkas vector y = sol.farkas, one entry per row in the row's own
    orientation, proves the rows and bounds infeasible: y_i <= 0 on '<='
    rows and >= 0 on '>=' rows, sum_i y_i a_iv = 0 for each free variable v
    and <= 0 for each v with a lower bound, and sum_i y_i (b_i - a_i.lb) > 0
    (free variables counted at 0 in a_i.lb).  At a feasible x the sum
    sum_i y_i (a_i.x - b_i) would then be both >= 0 and < 0.  Raises
    LPVerificationError on the first violation."""
    if len(sol.farkas) != len(problem.rows):
        raise LPVerificationError("Farkas vector length")
    acc: Dict[str, Fraction] = {v: ZERO for v in problem.variables}
    gap = ZERO
    for row, y in zip(problem.rows, sol.farkas):
        if (row.sense == "<=" and y > 0) or (row.sense == ">=" and y < 0):
            raise LPVerificationError(f"Farkas sign on {row.sense} row {row.name!r}")
        if y:
            for v, c in row.coeffs.items():
                acc[v] += y * c
            gap += y * row.rhs
    for v in problem.variables:
        lo = problem.lb.get(v)
        if lo is None:
            if acc[v] != 0:
                raise LPVerificationError(f"Farkas: y.A nonzero on free var {v}")
        else:
            if acc[v] > 0:
                raise LPVerificationError(f"Farkas: y.A positive on bounded var {v}")
            gap -= acc[v] * lo
    if gap <= 0:
        raise LPVerificationError("Farkas: y.(b - A.lb) not positive")


def _verify_unbounded(problem: LPProblem, sol: LPSolution):
    """The ray d = sol.ray is a recession direction that improves the
    objective: d_v >= 0 for each variable with a lower bound, a_i.d <= 0 on
    '<=' rows, >= 0 on '>=' rows and = 0 on '=' rows, and c.d < 0 for min
    (> 0 for max).  Raises LPVerificationError on the first violation."""
    d = sol.ray
    for v in problem.variables:
        if problem.lb.get(v) is not None and d[v] < 0:
            raise LPVerificationError(f"ray negative on bounded var {v}")
    for row in problem.rows:
        ad = sum((c * d[v] for v, c in row.coeffs.items()), ZERO)
        if ad > 0 if row.sense == "<=" else ad < 0 if row.sense == ">=" else ad != 0:
            raise LPVerificationError(f"ray leaves {row.sense} row {row.name!r}")
    sgn = 1 if problem.sense == "min" else -1
    if sgn * sum((c * d[v] for v, c in problem.objective.items()), ZERO) >= 0:
        raise LPVerificationError("ray does not improve the objective")
