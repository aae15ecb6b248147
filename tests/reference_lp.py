"""The exact simplex's edges as they were when rows were set up, values read
off and results verified in Fraction arithmetic, kept as references: the
integer setup must build the same tableau, the integer readout the same
LPSolution, and the integer verifiers must reject exactly what these
reject, with the same message.  The pivot kernel (``_Tableau``,
``_kernel``) is shared, not copied."""

from fractions import Fraction
from math import lcm
from typing import Dict, List, Tuple

from barydd.lp import (
    LPProblem,
    LPSolution,
    LPVerificationError,
    PivotCounts,
    _in_sense,
    _kernel,
    _Tableau,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def scaled(entries: Dict[int, Fraction]) -> Tuple[Dict[int, int], int]:
    """Fraction-free form of a row of rationals: its nonzero entries'
    numerators over the lcm of their denominators.  Such a row is already
    primitive."""
    d = lcm(*(x.denominator for x in entries.values() if x))
    return {j: x.numerator * (d // x.denominator) for j, x in entries.items() if x}, d


class Setup:
    """The starting tableau of ``problem``, built row by row in Fractions
    and then scaled, with the column map, the lower-bound shifts, each
    row's sign and unit column, and the first artificial column."""

    def __init__(self, problem: LPProblem):
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
        sign: List[Fraction] = [ONE] * nrows
        unit: List[int] = [-1] * nrows
        start: List[Tuple[Dict[int, Fraction], Fraction]] = []
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
        ncols = art0 + unit.count(-1)
        tab = _Tableau(ncols, nrows)
        acol = art0
        for i, (body, rhs) in enumerate(start):
            if unit[i] < 0:
                unit[i] = acol
                body[acol] = ONE
                acol += 1
            body[ncols] = rhs
            tab.set_row(i, *scaled(body))
            tab.basis[i] = unit[i]
        self.tab, self.cols, self.col_of, self.shift = tab, cols, col_of, shift
        self.sign, self.unit, self.art0, self.nstruct = sign, unit, art0, nstruct


def value(tab: _Tableau, i: int, j: int) -> Fraction:
    return Fraction(tab.T[i].get(j, 0), tab.D[i])


def reference_lp_solve(problem: LPProblem) -> LPSolution:
    """lp_solve with the Fraction setup, readout and verifiers."""
    minimize = problem.sense == "min"
    s = Setup(problem)
    tab, cols, col_of, shift = s.tab, s.cols, s.col_of, s.shift
    sign, unit, art0, nstruct = s.sign, s.unit, s.art0, s.nstruct
    nrows, ncols = len(problem.rows), tab.ncols

    cost1 = [ZERO] * ncols
    for j in range(art0, ncols):
        cost1[j] = ONE
    status, _, rc1, d1 = _kernel(tab, cost1, ncols)
    if status != "optimal":
        raise LPVerificationError(f"phase 1 ended {status}, not optimal")
    phase1 = tab.pivots
    if any(tab.T[i].get(ncols, 0) > 0 for i in range(nrows) if tab.basis[i] >= art0):
        farkas = [
            (cost1[unit[i]] - Fraction(rc1.get(unit[i], 0), d1)) * sign[i]
            for i in range(nrows)
        ]
        sol = LPSolution(status="infeasible", farkas=farkas, pivots=PivotCounts(phase1))
        reference_verify_infeasible(problem, sol)
        return sol

    for i in range(nrows):
        if tab.basis[i] >= art0:
            piv = min((j for j in tab.T[i] if j < art0), default=None)
            if piv is not None:
                tab.pivot(i, piv)
    drive_out = tab.pivots - phase1

    cost2 = [ZERO] * ncols
    for v, c in problem.objective.items():
        c = Fraction(c) if minimize else -Fraction(c)
        cost2[col_of[(v, 1)]] += c
        if (v, -1) in col_of:
            cost2[col_of[(v, -1)]] -= c
    status, enter, rc2, d2 = _kernel(tab, cost2, art0)
    pivots = PivotCounts(phase1, drive_out, tab.pivots - phase1 - drive_out)
    if status == "unbounded":
        direction: Dict[str, Fraction] = {v: ZERO for v in problem.variables}
        vname, sgn = cols[enter] if enter < nstruct else (None, 0)
        if vname is not None:
            direction[vname] += Fraction(sgn)
        for i in range(nrows):
            b = tab.basis[i]
            if b < nstruct and enter in tab.T[i]:
                bv, bsgn = cols[b]
                direction[bv] -= Fraction(bsgn) * value(tab, i, enter)
        sol = LPSolution(
            status="unbounded", primal=basic_point(problem, tab, col_of, shift), ray=direction,
            pivots=pivots,
        )
        reference_verify_unbounded(problem, sol)
        return sol

    primal = basic_point(problem, tab, col_of, shift)
    val = sum((c * primal[v] for v, c in problem.objective.items()), ZERO) + problem.obj_const
    dual = [-Fraction(rc2.get(unit[i], 0), d2) * sign[i] for i in range(nrows)]
    reduced: Dict[str, Fraction] = {
        v: Fraction(rc2.get(col_of[(v, 1)], 0), d2) for v in problem.variables
    }
    if not minimize:
        dual = [-d for d in dual]
        reduced = {v: -r for v, r in reduced.items()}
    sol = LPSolution(
        status="optimal", value=val, primal=primal, dual=dual, reduced=reduced, pivots=pivots
    )
    reference_verify_optimal(problem, sol)
    return sol


def basic_point(problem, tab, col_of, shift) -> Dict[str, Fraction]:
    xint: Dict[int, Fraction] = {b: value(tab, i, tab.ncols) for i, b in enumerate(tab.basis)}
    primal: Dict[str, Fraction] = {}
    for v in problem.variables:
        val = xint.get(col_of[(v, 1)], ZERO)
        if (v, -1) in col_of:
            val -= xint.get(col_of[(v, -1)], ZERO)
        primal[v] = val + shift.get(v, ZERO)
    return primal


def reference_verify_optimal(problem: LPProblem, sol: LPSolution):
    sgn = 1 if problem.sense == "min" else -1
    acc: Dict[str, Fraction] = {v: ZERO for v in problem.variables}
    dual_value = ZERO
    for row, y in zip(problem.rows, sol.dual):
        lhs = sum((c * sol.primal[v] for v, c in row.coeffs.items()), ZERO)
        if not _in_sense(lhs, row.sense, row.rhs):
            raise LPVerificationError(f"primal infeasible on row {row.name!r}")
        if row.sense != "=" and not _in_sense(sgn * y, row.sense, ZERO):
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


def reference_verify_infeasible(problem: LPProblem, sol: LPSolution):
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


def reference_verify_unbounded(problem: LPProblem, sol: LPSolution):
    x, d = sol.primal, sol.ray
    for v in problem.variables:
        lo = problem.lb.get(v)
        if lo is not None:
            if x[v] < lo:
                raise LPVerificationError(f"point below the lower bound of {v}")
            if d[v] < 0:
                raise LPVerificationError(f"ray negative on bounded var {v}")
    for row in problem.rows:
        if not _in_sense(sum((c * x[v] for v, c in row.coeffs.items()), ZERO), row.sense, row.rhs):
            raise LPVerificationError(f"point violates {row.sense} row {row.name!r}")
        if not _in_sense(sum((c * d[v] for v, c in row.coeffs.items()), ZERO), row.sense, ZERO):
            raise LPVerificationError(f"ray leaves {row.sense} row {row.name!r}")
    sgn = 1 if problem.sense == "min" else -1
    if sgn * sum((c * d[v] for v, c in problem.objective.items()), ZERO) >= 0:
        raise LPVerificationError("ray does not improve the objective")
