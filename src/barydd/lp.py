"""Exact-rational two-phase simplex with primal, dual and Farkas certificates.

There is no floating point anywhere.  The pivot rule is Bland's, which
guarantees termination.  Each variable is free or non-negative
(``LPProblem.add_var``), so a row enters the tableau as it is given.
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
is the one a Fraction tableau takes.

The edges of the solve are in integers too.  Each row is made integer
once, when it is made (``LPRow.ints``: the row scaled by the lcm of its
denominators, through ``linalg``); the tableau takes that integer row, its
sign flip, slack and artificial already integers, and so do the checks of
the result.  Each reported number is made as one Fraction from the final
tableau and reduced-cost row.  The checks scale the point by its common
denominator and take the dual sums over one common denominator.
Fractions remain in the input (LPRow and LPProblem convert each coefficient
once), in the phase-2 costs and in the reported numbers.

A row with no coefficients that holds at 0 (0 = 0, 0 >= -c, 0 <= c, c >= 0)
stays out of the tableau.  In it, such a row would meet no entering column
and keep its slack or artificial basic at reduced cost 0, so leaving it out
keeps the relative order of every other column: Bland's choices, the pivot
counts and every other reported number are the same.  Its dual entry is 0,
and its Farkas entry is what its basic unit column would price at: 1 for
the artificial of 0 = 0, 0 for a slack.  The result is checked against
every row of the problem.  A coefficient-free row that fails at 0 stays in,
and its Farkas entry proves the LP infeasible.

Conventions for a reported optimal solution of min c.x + const:

  value = sum_i dual[i] * rhs[i] + const                      (strong duality)
  c_v   = sum_i dual[i] * a[i][v] + reduced[v]  for every variable v
  reduced[v] >= 0 when v is non-negative, = 0 when v is free
  dual[i] >= 0 for '>=' rows, <= 0 for '<=' rows, free for '=' rows

A reported infeasibility comes with a Farkas vector y, one entry per row
in the row's own orientation:

  y[i] <= 0 for '<=' rows, >= 0 for '>=' rows, free for '=' rows
  sum_i y[i] * a[i][v] = 0 for a free v, <= 0 for a non-negative v
  sum_i y[i] * rhs[i] > 0

and a reported unboundedness with a point x that satisfies every row and
sign (the basic solution at which phase 2 stopped) and a ray d: d[v] >= 0
where v is non-negative, a[i].d <= 0, >= 0 or = 0 by the sense
of row i, and c.d < 0 for min (> 0 for max).

lp_solve verifies every optimal, infeasible and unbounded result exactly
against these conditions before it returns it; a failed check raises
LPVerificationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import linalg

ZERO = Fraction(0)
ONE = Fraction(1)


def _fraction(x) -> Fraction:
    """``x`` as a Fraction; a Fraction is returned as it is."""
    return x if type(x) is Fraction else Fraction(x)


class LPVerificationError(ArithmeticError):
    """An exact check on a simplex result failed: primal or dual
    feasibility, complementary slackness, strong duality, or a Farkas
    certificate.  Raised explicitly, so ``python -O`` cannot strip the
    checks."""


@dataclass
class LPRow:
    """The row ``coeffs.x (sense) rhs``.  ``ints`` is the row made integer
    once, when it is made: ``(s * coeffs, s * rhs, s)``, s the lcm of its
    denominators (``linalg.over_lcm``).  The tableau and the checks of a
    result take it."""

    coeffs: Dict[str, Fraction]
    sense: str  # '<=', '>=', '='
    rhs: Fraction
    name: str = ""
    tag: Optional[object] = None  # provenance, carried through to reports
    ints: Tuple[Dict[str, int], int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = {}
        for v, c in self.coeffs.items():
            c = _fraction(c)
            if c:
                coeffs[v] = c
        self.coeffs = coeffs
        self.rhs = _fraction(self.rhs)
        if self.sense not in ("<=", ">=", "="):
            raise ValueError(f"bad sense {self.sense!r}")
        nums, s = linalg.over_lcm((*coeffs.values(), self.rhs))
        self.ints = (dict(zip(coeffs, nums)), nums[-1], s)


@dataclass
class LPProblem:
    sense: str = "min"  # 'min' or 'max'
    objective: Dict[str, Fraction] = field(default_factory=dict)
    obj_const: Fraction = ZERO
    variables: List[str] = field(default_factory=list)
    rows: List[LPRow] = field(default_factory=list)
    lb: Dict[str, Optional[Fraction]] = field(default_factory=dict)  # None: free, 0: non-negative
    name: str = ""

    def add_var(self, v: str, lb: Optional[Fraction] = None, obj: Fraction = ZERO):
        """Variable ``v`` with objective coefficient ``obj``: free when
        ``lb`` is None, non-negative when it is 0.  Any other lower bound
        raises ValueError."""
        if v in self.lb:
            raise ValueError(f"duplicate variable {v}")
        if lb is not None and lb != 0:
            raise ValueError(f"variable {v}: lower bound {lb} is neither None nor 0")
        self.variables.append(v)
        self.lb[v] = None if lb is None else ZERO
        if obj:
            self.objective[v] = self.objective.get(v, ZERO) + _fraction(obj)

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
    equals ``D[i]``.  Rows enter through ``set_row`` already in this form;
    the tableau holds no Fraction.

    A pivot on ``(r, c)`` makes row ``r`` positive at ``c``, divides it by
    its gcd and sets ``D[r]`` to the pivot numerator ``p``.  Every other row
    with ``f = T[i][c] != 0`` is scaled by ``p / g`` (when that is not 1),
    ``g = gcd(p, f)``, has ``(f / g) * T[r][j]`` subtracted at the pivot
    row's columns only, which clears column ``c``, and is divided by its
    gcd.  ``pivots`` counts the pivots made so far."""

    def __init__(self, ncols: int, nrows: int):
        self.T: List[Dict[int, int]] = [{} for _ in range(nrows)]
        self.D: List[int] = [1] * nrows
        self.basis: List[int] = [-1] * nrows
        self.ncols = ncols
        self.pivots = 0

    def set_row(self, i: int, row: Dict[int, int], d: int):
        """Row ``i`` := ``row / d``, given primitive: nonzero int
        numerators over ``d > 0``, their gcd with ``d`` 1."""
        self.T[i], self.D[i] = row, d

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


def _eliminate(row: Dict[int, int], d: int, f: int, prow: Dict[int, int], p: int) -> Tuple[Dict[int, int], int]:
    """``row / d - (f / d) * (prow / p)`` as a primitive fraction-free row,
    where ``f`` is the row's entry at the pivot column and ``p`` the pivot
    row's.  The pivot column cancels to zero and is dropped.  ``p`` and
    ``f`` are divided by their gcd first, which leaves the rational row, and
    so its primitive form, the same.  ``row`` is updated in place when the
    reduced ``p`` is 1; use the returned row and denominator."""
    g = gcd(p, f)
    if g != 1:
        p //= g
        f //= g
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
    costs = [(j, c) for j, c in enumerate(cost) if c]
    basic = [(i, cost[b]) for i, b in enumerate(tab.basis) if cost[b]]
    # one common denominator for the costs and the rows they meet
    nums, d = linalg.ratios_over_lcm(
        [(c.numerator, c.denominator) for _, c in costs]
        + [(c.numerator, c.denominator * D[i]) for i, c in basic]
    )
    rc = {j: x for (j, _), x in zip(costs, nums)}
    for (i, _), q in zip(basic, nums[len(costs):]):
        for j, x in T[i].items():
            rc[j] = rc.get(j, 0) - q * x
    return _primitive({j: x for j, x in rc.items() if x}, d)


def _kernel(
    tab: _Tableau, cost: List[Fraction], ncand: int
) -> Tuple[str, Optional[int], Dict[int, int], int]:
    """Run primal simplex under Bland's rule to optimality over entering
    columns ``0..ncand-1``.
    Returns ``('optimal', None, rc, d)`` or ``('unbounded', entering, rc,
    d)``, where ``rc / d`` is the reduced-cost row at that point.  The
    reduced-cost row is eliminated against each pivot row like a tableau
    row, so pricing reads integer signs: all its entries share ``d > 0``."""
    T = tab.T
    basis = tab.basis
    rhs = tab.ncols
    rc, d = _reduced_costs(tab, cost)
    while True:
        entering = min((j for j, x in rc.items() if x < 0 and j < ncand), default=-1)
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
        tab.pivot(leave, entering)
        rc, d = _eliminate(rc, d, rc[entering], T[leave], tab.D[leave])


def lp_solve(problem: LPProblem) -> LPSolution:
    """Exact optimum with exact duals, or an exact Farkas vector for an
    infeasible LP, or an exact improving ray for an unbounded one.  Never
    raises for those outcomes; the status field encodes them.  Each result
    is checked exactly before it is returned (``_verify_optimal``,
    ``_verify_infeasible``, ``_verify_unbounded``); a failed check raises
    LPVerificationError."""
    minimize = problem.sense == "min"
    # -- internal columns ---------------------------------------------------
    # variable v has column col[v]; a free v also has col[v] + 1 for its
    # negative part
    cols: List[Tuple[str, int]] = []
    col: Dict[str, int] = {}
    free = set()
    for v in problem.variables:
        col[v] = len(cols)
        if problem.lb.get(v) is None:
            free.add(v)
            cols += [(v, 1), (v, -1)]
        else:
            cols.append((v, 1))
    nstruct = len(cols)
    # a row with no coefficients that holds at 0 stays out of the tableau
    # (see the module docstring)
    rows = [
        i for i, row in enumerate(problem.rows) if row.coeffs or not _in_sense(0, row.sense, row.rhs)
    ]
    nrows = len(rows)
    # tableau row t is problem row rows[t].  A row is negated when its rhs
    # is negative, and a '>=' row also when its rhs is 0, so every rhs is
    # >= 0 and a '<=' row with rhs >= 0 or a '>=' row with rhs <= 0 has its
    # slack at +1: that slack starts basic.  unit[t] is the column that is
    # e_t in the starting system, the slack of such a row and otherwise the
    # row's artificial.  Each row enters the tableau as its integer form over
    # d, the lcm of its denominators (LPRow.ints), which is its primitive
    # fraction-free form.
    sign: List[int] = [1] * nrows
    unit: List[int] = [-1] * nrows
    start: List[Tuple[Dict[int, int], int, int]] = []  # (body, rhs, d)
    scol = nstruct
    for t, i in enumerate(rows):
        row = problem.rows[i]
        a, b, d = row.ints
        s = -1 if b < 0 or (b == 0 and row.sense == ">=") else 1
        sign[t] = s
        body: Dict[int, int] = {}
        for v, x in a.items():
            j = col[v]
            body[j] = s * x
            if v in free:
                body[j + 1] = -s * x
        if row.sense != "=":
            slack = s if row.sense == "<=" else -s
            body[scol] = slack * d
            if slack == 1:
                unit[t] = scol
            scol += 1
        start.append((body, s * b, d))
    art0 = scol
    ncols = art0 + unit.count(-1)  # artificials at the end
    tab = _Tableau(ncols, nrows)
    acol = art0
    for t, (body, rhs, d) in enumerate(start):
        if unit[t] < 0:
            unit[t] = acol
            body[acol] = d
            acol += 1
        if rhs:
            body[ncols] = rhs
        tab.set_row(t, body, d)
        tab.basis[t] = unit[t]

    # -- phase 1 -------------------------------------------------------------
    cost1 = [0] * art0 + [1] * (ncols - art0)
    status, _, rc1, d1 = _kernel(tab, cost1, ncols)
    if status != "optimal":
        raise LPVerificationError(f"phase 1 ended {status}, not optimal")
    phase1 = tab.pivots
    if any(tab.T[i].get(ncols, 0) > 0 for i in range(nrows) if tab.basis[i] >= art0):
        # infeasible: the phase-1 duals y, read from the reduced costs under
        # the unit columns and turned back to each row's own orientation,
        # are a Farkas certificate (see _verify_infeasible)
        # a row left out of the tableau would keep its unit column basic at
        # reduced cost 0, so its entry is that column's phase-1 cost: 1 for
        # the artificial of 0 = 0, 0 for a slack
        farkas = [ONE if row.sense == "=" else ZERO for row in problem.rows]
        for t, i in enumerate(rows):
            farkas[i] = Fraction(sign[t] * (cost1[unit[t]] * d1 - rc1.get(unit[t], 0)), d1)
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
    cost2: List[Fraction] = [ZERO] * ncols
    for v, c in problem.objective.items():
        c = _fraction(c) if minimize else -_fraction(c)
        cost2[col[v]] = c
        if v in free:
            cost2[col[v] + 1] = -c
    status, enter, rc2, d2 = _kernel(tab, cost2, art0)
    pivots = PivotCounts(phase1, drive_out, tab.pivots - phase1 - drive_out)
    primal = _basic_point(problem, tab, col, free)
    if status == "unbounded":
        # the same direction certifies -infinity for min and +infinity for max:
        # +1 on the entering column, minus its tableau column on the basic
        # structural columns, each summed into its variable
        terms: Dict[str, List[Tuple[int, int]]] = {v: [] for v in problem.variables}
        if enter < nstruct:
            vname, sgn = cols[enter]
            terms[vname].append((sgn, 1))
        for i, b in enumerate(tab.basis):
            if b < nstruct and enter in tab.T[i]:
                bv, bsgn = cols[b]
                terms[bv].append((-bsgn * tab.T[i][enter], tab.D[i]))
        direction = {v: _sum(t) for v, t in terms.items()}
        sol = LPSolution(status="unbounded", primal=primal, ray=direction, pivots=pivots)
        _verify_unbounded(problem, sol)
        return sol

    value = _sum(
        [(c.numerator * primal[v].numerator, c.denominator * primal[v].denominator)
         for v, c in problem.objective.items()]
        + [(problem.obj_const.numerator, problem.obj_const.denominator)]
    )
    # duals from reduced costs under the unit columns (phase-2 costs are 0);
    # for max both the duals and the reduced costs change sign
    osgn = 1 if minimize else -1
    dual = [ZERO] * len(problem.rows)
    for t, i in enumerate(rows):
        dual[i] = Fraction(-osgn * sign[t] * rc2.get(unit[t], 0), d2)
    reduced: Dict[str, Fraction] = {
        v: Fraction(osgn * rc2.get(col[v], 0), d2) for v in problem.variables
    }
    sol = LPSolution(
        status="optimal", value=value, primal=primal, dual=dual, reduced=reduced, pivots=pivots
    )
    _verify_optimal(problem, sol)
    return sol


def _sum(terms: List[Tuple[int, int]]) -> Fraction:
    """The sum of the ``n / d`` over the pairs ``(n, d)``, ``d > 0``, made
    as one Fraction over the lcm of the ``d``."""
    nums, d = linalg.ratios_over_lcm(terms)
    return Fraction(sum(nums), d)


def _basic_point(problem: LPProblem, tab: _Tableau, col: Dict[str, int], free) -> Dict[str, Fraction]:
    """Each variable's value at the tableau's basic solution: its internal
    columns combined."""
    rhs = tab.ncols
    at = {b: (tab.T[i].get(rhs, 0), tab.D[i]) for i, b in enumerate(tab.basis)}
    primal: Dict[str, Fraction] = {}
    for v in problem.variables:
        j = col[v]
        terms = [at[j]] if j in at else []
        if v in free and j + 1 in at:
            n, d = at[j + 1]
            terms.append((-n, d))
        primal[v] = _sum(terms)
    return primal


def _over_lcm(values: Dict[str, Fraction]) -> Tuple[Dict[str, int], int]:
    """The rationals ``values`` as integers over their lcm ``L``: the
    numerators of ``L * x``, and ``L``."""
    nums, m = linalg.over_lcm(values.values())
    return dict(zip(values, nums)), m


def _dual_sums(problem: LPProblem, used: List[Tuple[Fraction, Dict[str, int], int, int]]):
    """``sum_i y_i a_iv`` per variable and ``sum_i y_i b_i`` over the rows
    ``(y_i, s_i a_i, s_i b_i, s_i)`` in ``used``, as integers over ``K =
    lcm(den(y_i) s_i)``: returns ``(acc, total, K)``."""
    qs, K = linalg.ratios_over_lcm([(y.numerator, y.denominator * s) for y, _, _, s in used])
    acc = dict.fromkeys(problem.variables, 0)
    total = 0
    for q, (_, a, b, _) in zip(qs, used):
        for v, c in a.items():
            acc[v] += q * c
        total += q * b
    return acc, total, K


def _in_sense(lhs, sense: str, rhs) -> bool:
    return lhs <= rhs if sense == "<=" else lhs >= rhs if sense == ">=" else lhs == rhs


def _verify_optimal(problem: LPProblem, sol: LPSolution):
    """Exact primal feasibility, dual signs, complementary slackness, the
    dual identity per variable and strong duality.  Raises
    LPVerificationError on the first violation.  Each row is checked in
    integers: the point scaled by its common denominator, the row in its
    integer form ``LPRow.ints``."""
    sgn = 1 if problem.sense == "min" else -1
    x, L = _over_lcm(sol.primal)
    used = []
    for row, y in zip(problem.rows, sol.dual):
        a, b, s = row.ints
        lhs, rhs = sum(c * x[v] for v, c in a.items()), b * L
        if not _in_sense(lhs, row.sense, rhs):
            raise LPVerificationError(f"primal infeasible on row {row.name!r}")
        if row.sense != "=" and not _in_sense(sgn * y, row.sense, 0):
            raise LPVerificationError(f"dual sign on {row.sense} row {row.name!r}")
        if y:
            if lhs != rhs:
                raise LPVerificationError(f"complementary slackness on row {row.name!r}")
            used.append((y, a, b, s))
    acc, dual_value, K = _dual_sums(problem, used)
    for v in problem.variables:
        c = _fraction(problem.objective.get(v, ZERO))
        rc = sol.reduced[v]
        # c = acc[v] / K + rc, cross-multiplied
        if (c.numerator * rc.denominator - rc.numerator * c.denominator) * K != (
            acc[v] * c.denominator * rc.denominator
        ):
            raise LPVerificationError(f"dual identity on {v}")
        if problem.lb.get(v) is None:
            if rc != 0:
                raise LPVerificationError(f"nonzero reduced cost on free var {v}")
        else:
            if sgn * rc < 0:
                raise LPVerificationError(f"reduced cost sign on {v}")
            if rc != 0 and sol.primal[v] != 0:
                raise LPVerificationError(f"complementary slackness on the bound of {v}")
    if sol.value != Fraction(dual_value, K) + problem.obj_const:
        raise LPVerificationError("strong duality")


def _verify_infeasible(problem: LPProblem, sol: LPSolution):
    """The Farkas vector y = sol.farkas, one entry per row in the row's own
    orientation, proves the rows and signs infeasible: y_i <= 0 on '<='
    rows and >= 0 on '>=' rows, sum_i y_i a_iv = 0 for each free variable v
    and <= 0 for each non-negative v, and sum_i y_i b_i > 0.  At a feasible
    x the sum sum_i y_i (a_i.x - b_i) would then be both >= 0 and < 0.
    Raises LPVerificationError on the first violation.  The sums are taken
    in integers over one common denominator, from each row's integer form
    ``LPRow.ints``."""
    if len(sol.farkas) != len(problem.rows):
        raise LPVerificationError("Farkas vector length")
    used = []
    for row, y in zip(problem.rows, sol.farkas):
        if (row.sense == "<=" and y > 0) or (row.sense == ">=" and y < 0):
            raise LPVerificationError(f"Farkas sign on {row.sense} row {row.name!r}")
        if y:
            used.append((y, *row.ints))
    acc, gap, _ = _dual_sums(problem, used)
    for v in problem.variables:
        if problem.lb.get(v) is None:
            if acc[v] != 0:
                raise LPVerificationError(f"Farkas: y.A nonzero on free var {v}")
        elif acc[v] > 0:
            raise LPVerificationError(f"Farkas: y.A positive on bounded var {v}")
    if gap <= 0:
        raise LPVerificationError("Farkas: y.b not positive")


def _verify_unbounded(problem: LPProblem, sol: LPSolution):
    """The point x = sol.primal is feasible and the ray d = sol.ray is a
    recession direction that improves the objective: x_v >= 0 and d_v >= 0
    for each non-negative variable, a_i.x <= b_i and a_i.d <= 0 on '<='
    rows, >= on '>=' rows and = on '=' rows, and c.d < 0 for min (> 0 for
    max).  So the LP is feasible and its objective has no bound.  Raises
    LPVerificationError on the first violation.  The point and the ray are
    checked as integers over their own denominators, each row in its
    integer form ``LPRow.ints``."""
    for v in problem.variables:
        if problem.lb.get(v) is not None:
            if sol.primal[v] < 0:
                raise LPVerificationError(f"point below the lower bound of {v}")
            if sol.ray[v] < 0:
                raise LPVerificationError(f"ray negative on bounded var {v}")
    x, L = _over_lcm(sol.primal)
    d, _ = _over_lcm(sol.ray)
    for row in problem.rows:
        a, b, _ = row.ints
        if not _in_sense(sum(c * x[v] for v, c in a.items()), row.sense, b * L):
            raise LPVerificationError(f"point violates {row.sense} row {row.name!r}")
        if not _in_sense(sum(c * d[v] for v, c in a.items()), row.sense, 0):
            raise LPVerificationError(f"ray leaves {row.sense} row {row.name!r}")
    sgn = 1 if problem.sense == "min" else -1
    c, _ = _over_lcm(problem.objective)
    if sgn * sum(cv * d[v] for v, cv in c.items()) >= 0:
        raise LPVerificationError("ray does not improve the objective")
