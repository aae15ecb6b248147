"""Exact-rational two-phase simplex with primal, dual and Farkas certificates.

Everything is a Fraction; there is no floating point anywhere.  Bland's rule
is the default pivot rule (termination guarantee), with Dantzig-plus-Bland
fallback as an option.  Every row of every problem gets an artificial
variable, so the basis inverse is always available under the artificial
columns and dual values are read off exactly.

The tableau keeps each row as a full list, but a pivot only touches the
pivot row's nonzero columns: it scales those entries and subtracts them,
in place, from the rows that meet the pivot column.  The reduced-cost row
is updated over the same columns.  Slack and artificial columns stay
mostly zero, so a pivot costs about (rows hit) x (pivot row nonzeros)
Fraction operations instead of (rows hit) x (all columns).

Conventions for a reported optimal solution of min c.x + const:

  value = sum_i dual[i] * rhs[i] + shift-terms + const        (strong duality)
  c_v   = sum_i dual[i] * a[i][v] + reduced[v]  for every variable v
  reduced[v] >= 0 when v has a finite lower bound, = 0 when v is free
  dual[i] >= 0 for '>=' rows, <= 0 for '<=' rows, free for '=' rows

These identities are verified exactly on every optimal solve, and every
Farkas certificate from lp_feasible is checked; a failed check raises
LPVerificationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactmath import rat_to_str

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


class _Tableau:
    """Simplex tableau over Fractions with explicit artificial columns.

    Each row is one list of ``ncols + 1`` entries, the right-hand side last.
    A pivot is a sparse row update: the pivot row's nonzero columns are
    collected once, only those entries are scaled, and every other row with
    a nonzero in the pivot column is updated in place at those columns only.
    Slack and artificial columns are almost all zero, so most entries of a
    row are never touched.  Each updated entry ``a - f * b`` is built as one
    Fraction from integer numerators and denominators; Fractions are always
    in lowest terms, so it is the same exact value as the dense row
    operation gives."""

    def __init__(self, ncols: int, nrows: int):
        self.T: List[List[Fraction]] = [[ZERO] * (ncols + 1) for _ in range(nrows)]
        self.basis: List[int] = [-1] * nrows
        self.ncols = ncols

    def pivot(self, r: int, c: int) -> List[int]:
        """Pivot on T[r][c]; return the pivot row's nonzero columns, the
        right-hand side column ``ncols`` included when it is nonzero."""
        T = self.T
        rowr = T[r]
        nz = [j for j, x in enumerate(rowr) if x]
        piv = rowr[c]
        if piv != 1:
            inv = 1 / piv
            for j in nz:
                rowr[j] *= inv
        # column c becomes a unit column: it is set, not computed
        prow = [(j, rowr[j].numerator, rowr[j].denominator) for j in nz if j != c]
        for i, Ti in enumerate(T):
            f = Ti[c]
            if f and i != r:
                fn, fd = f.numerator, f.denominator
                for j, bn, bd in prow:
                    a = Ti[j]
                    ad = a.denominator
                    Ti[j] = Fraction(a.numerator * fd * bd - fn * bn * ad, ad * fd * bd)
                Ti[c] = ZERO
        self.basis[r] = c
        return nz


def _reduced_costs(tab: _Tableau, cost: List[Fraction]) -> List[Fraction]:
    """rc_j = c_j - c_basis . T[:, j], computed in one pass."""
    T = tab.T
    rc = list(cost)
    for i in range(len(T)):
        cb = cost[tab.basis[i]]
        if cb:
            row = T[i]
            for j in range(tab.ncols):
                if row[j]:
                    rc[j] -= cb * row[j]
    return rc


def _kernel(tab: _Tableau, cost: List[Fraction], ncand: int, pivot_rule: str) -> Tuple[str, Optional[int]]:
    """Run primal simplex to optimality over entering columns ``0..ncand-1``.
    Returns ('optimal', None) or ('unbounded', entering_col).  The
    reduced-cost row is maintained incrementally across pivots."""
    T = tab.T
    m = len(T)
    ncols = tab.ncols
    degenerate_streak = 0
    use_bland = pivot_rule == "bland"
    rc = _reduced_costs(tab, cost)
    while True:
        entering = -1
        best = ZERO
        for j in range(ncand):
            if rc[j] < 0:
                if use_bland:
                    entering = j
                    break
                if rc[j] < best:
                    best = rc[j]
                    entering = j
        if entering < 0:
            return "optimal", None
        # ratio test (Bland ties: smallest basis variable index)
        leave = -1
        best_ratio = None
        for i in range(m):
            a = T[i][entering]
            if a > 0:
                ratio = T[i][-1] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and tab.basis[i] < tab.basis[leave]
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded", entering
        if best_ratio == 0:
            degenerate_streak += 1
            if not use_bland and degenerate_streak > 30:
                use_bland = True  # anti-cycling fallback
        else:
            degenerate_streak = 0
        nz = tab.pivot(leave, entering)
        f = rc[entering]
        if f:
            row = T[leave]
            for j in nz:
                if j < ncols:
                    rc[j] -= f * row[j]


def lp_solve(problem: LPProblem, pivot_rule: str = "bland", check: bool = True) -> LPSolution:
    """Exact optimum with exact duals, or a certified infeasibility /
    unboundedness certificate.  Never raises for those outcomes; the status
    field encodes them.  Raises LPVerificationError if the exact check of an
    optimal solution fails."""
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
    nslack = sum(1 for r in problem.rows if r.sense != "=")
    ncols = nstruct + nslack + nrows  # artificial per row at the end
    tab = _Tableau(ncols, nrows)
    sign: List[Fraction] = [ONE] * nrows
    slack_col: List[Optional[int]] = [None] * nrows
    scol = nstruct
    for i, row in enumerate(problem.rows):
        rhs = row.rhs - sum(
            c * shift.get(v, ZERO) for v, c in row.coeffs.items() if v in shift
        )
        body = tab.T[i]
        for v, c in row.coeffs.items():
            body[col_of[(v, 1)]] += c
            if (v, -1) in col_of:
                body[col_of[(v, -1)]] -= c
        if row.sense != "=":
            slack_col[i] = scol
            body[scol] = ONE if row.sense == "<=" else -ONE
            scol += 1
        body[-1] = rhs
        if rhs < 0:
            sign[i] = -ONE
            tab.T[i] = [-x for x in body]
        acol = nstruct + nslack + i
        tab.T[i][acol] = ONE
        tab.basis[i] = acol

    art0 = nstruct + nslack
    # -- phase 1 -------------------------------------------------------------
    cost1 = [ZERO] * ncols
    for j in range(art0, ncols):
        cost1[j] = ONE
    status, _ = _kernel(tab, cost1, ncols, pivot_rule)
    if status != "optimal":
        raise LPVerificationError(f"phase 1 ended {status}, not optimal")
    w = sum(tab.T[i][-1] for i in range(nrows) if tab.basis[i] >= art0)
    if w > 0:
        # infeasible: y from reduced costs under artificial columns.  When
        # every row is '<=' over free variables (as lp_feasible builds it),
        # u = -y is a Farkas certificate: u >= 0, u.A = 0 and u.b < 0.
        cb = _basic_costs(tab, cost1)
        farkas = []
        for i in range(nrows):
            acol = art0 + i
            rc = cost1[acol] - sum((c * tab.T[r][acol] for r, c in cb), ZERO)
            farkas.append((ONE - rc) * sign[i])
        return LPSolution(status="infeasible", farkas=farkas)

    # drive basic artificials out where possible (value is 0 here)
    for i in range(nrows):
        if tab.basis[i] >= art0:
            piv = next(
                (j for j in range(art0) if tab.T[i][j] != 0),
                None,
            )
            if piv is not None:
                tab.pivot(i, piv)

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
    status, enter = _kernel(tab, cost2, art0, pivot_rule)
    if status == "unbounded":
        # the same direction certifies -infinity for min and +infinity for max
        direction: Dict[str, Fraction] = {v: ZERO for v in problem.variables}
        vname, sgn = cols[enter] if enter < nstruct else (None, 0)
        if vname is not None:
            direction[vname] += Fraction(sgn)
        for i in range(nrows):
            b = tab.basis[i]
            if b < nstruct and tab.T[i][enter] != 0:
                bv, bsgn = cols[b]
                direction[bv] -= Fraction(bsgn) * tab.T[i][enter]
        return LPSolution(status="unbounded", ray=direction)

    # -- extract primal ------------------------------------------------------
    xint = [ZERO] * ncols
    for i in range(nrows):
        xint[tab.basis[i]] = tab.T[i][-1]
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
    # duals from reduced costs under artificial columns (phase-2 costs are 0)
    cb2 = _basic_costs(tab, cost2)
    dual = []
    for i in range(nrows):
        acol = art0 + i
        dual.append(sum((c * tab.T[r][acol] for r, c in cb2), ZERO) * sign[i])
    reduced: Dict[str, Fraction] = {}
    for v in problem.variables:
        j = col_of[(v, 1)]
        reduced[v] = cost2[j] - sum((c * tab.T[r][j] for r, c in cb2), ZERO)
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
    )
    if check:
        _verify_optimal(problem, sol)
    return sol


def _basic_costs(tab: _Tableau, cost: List[Fraction]) -> List[Tuple[int, Fraction]]:
    """(row, cost of its basic column) for the rows whose basic cost is
    nonzero: the only rows that contribute to c_B . T[:, j]."""
    return [(i, cost[b]) for i, b in enumerate(tab.basis) if cost[b]]


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


def lp_feasible(rows: Sequence[LPRow], variables: Sequence[str]):
    """Exact feasibility of a row system over free variables.

    Returns (True, point_dict) or (False, farkas) where farkas is a list of
    multipliers u >= 0, one per input row in <=-normalized sense, with
    u.A = 0 and u.b < 0 exactly.
    """
    prob = LPProblem(sense="min")
    for v in variables:
        prob.add_var(v, lb=None)
    norm_rows: List[Tuple[int, Fraction]] = []  # (orig index, orient) for <= view
    for idx, row in enumerate(rows):
        if row.sense == "=":
            prob.add_row(row.coeffs, "<=", row.rhs, name=f"{row.name}+", tag=idx)
            prob.add_row({v: -c for v, c in row.coeffs.items()}, "<=", -row.rhs,
                         name=f"{row.name}-", tag=idx)
            norm_rows.extend([(idx, ONE), (idx, -ONE)])
        elif row.sense == ">=":
            prob.add_row({v: -c for v, c in row.coeffs.items()}, "<=", -row.rhs,
                         name=row.name, tag=idx)
            norm_rows.append((idx, -ONE))
        else:
            prob.add_row(row.coeffs, "<=", row.rhs, name=row.name, tag=idx)
            norm_rows.append((idx, ONE))
    sol = lp_solve(prob)
    if sol.status == "optimal":
        return True, sol.primal
    if sol.status != "infeasible":
        raise LPVerificationError(f"feasibility LP over free variables is {sol.status}")
    # internal duals are per normalized <= row: u = -y >= 0 certifies
    # u.A = 0, u.b < 0
    u = [-y for y in sol.farkas]
    per_row = [ZERO] * len(rows)
    for (idx, orient), ui in zip(norm_rows, u):
        if ui < 0:
            raise LPVerificationError("Farkas multiplier sign")
        per_row[idx] += ui  # aggregated magnitude per original row
    # exact verification in the normalized system
    acc: Dict[str, Fraction] = {}
    rhs_acc = ZERO
    for (idx, orient), ui in zip(norm_rows, u):
        row = rows[idx]
        for v, c in row.coeffs.items():
            acc[v] = acc.get(v, ZERO) + ui * orient * c
        rhs_acc += ui * orient * row.rhs
    if any(c != 0 for c in acc.values()):
        raise LPVerificationError("Farkas: u.A != 0")
    if rhs_acc >= 0:
        raise LPVerificationError("Farkas: u.b not negative")
    return False, per_row


def export_lp_text(problem: LPProblem) -> str:
    """Plain LP-format text for cross-checking with external solvers.
    Values are exact decimals where terminating, otherwise fractions in
    comments next to a decimal rendering."""

    def num(x: Fraction) -> str:
        if x.denominator == 1:
            return str(x.numerator)
        f = x.numerator / x.denominator
        return f"{f!r}"

    lines = [f"\\ {problem.name}" if problem.name else "\\ barydd export"]
    lines.append("Minimize" if problem.sense == "min" else "Maximize")
    terms = " ".join(
        f"{'+' if c >= 0 else '-'} {num(abs(Fraction(c)))} {v}"
        for v, c in problem.objective.items()
    )
    lines.append(f" obj: {terms if terms else '0 ' + (problem.variables[0] if problem.variables else 'x')}")
    lines.append("Subject To")
    for i, row in enumerate(problem.rows):
        body = " ".join(
            f"{'+' if c >= 0 else '-'} {num(abs(c))} {v}" for v, c in row.coeffs.items()
        )
        frac_note = " ".join(
            f"{v}:{rat_to_str(c)}" for v, c in row.coeffs.items() if c.denominator != 1
        )
        comment = f"  \\ {frac_note}" if frac_note else ""
        lines.append(f" r{i}: {body} {row.sense} {num(row.rhs)}{comment}")
    lines.append("Bounds")
    for v in problem.variables:
        lo = problem.lb.get(v)
        if lo is None:
            lines.append(f" {v} free")
        elif lo != 0:
            lines.append(f" {v} >= {num(lo)}")
    lines.append("End")
    return "\n".join(lines)
