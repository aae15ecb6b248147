"""Exact simplex: optimality, duality, certificates, termination."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from barydd import HPolyhedron, LPVerificationError, NotFullRank, enumerate_vertices_oracle
from barydd import lp as lp_module
from barydd.lp import (
    LPProblem,
    LPRow,
    _Tableau,
    _kernel,
    _verify_infeasible,
    _verify_optimal,
    _verify_unbounded,
    lp_solve,
)
from conftest import run_optimized


def simple_problem():
    p = LPProblem(sense="min")
    p.add_var("x", lb=F(0), obj=F(1))
    return p


class TestGoldens:
    def test_min_x_nonneg(self):
        sol = lp_solve(simple_problem())
        assert sol.status == "optimal" and sol.value == 0

    def test_inner_lp_at_fixed_x(self, dbp_62):
        # x fixed at (0,2): objective becomes 140 y2 - 360 over Py
        p = LPProblem(sense="min", obj_const=F(-360))
        p.add_var("y1", obj=F(0))
        p.add_var("y2", obj=F(140))
        for row, rhs in zip(dbp_62.Py.A, dbp_62.Py.b):
            p.add_row({"y1": row[0], "y2": row[1]}, "<=", rhs)
        sol = lp_solve(p)
        assert sol.value == -360
        assert (sol.primal["y1"], sol.primal["y2"]) == (0, 0)

    def test_unbounded(self):
        p = LPProblem(sense="min")
        p.add_var("x", obj=F(1))  # free, minimize x
        sol = lp_solve(p)
        assert sol.status == "unbounded"
        assert sol.ray and sol.ray["x"] < 0

    def test_max_sense(self):
        p = LPProblem(sense="max", obj_const=F(5))
        p.add_var("x", lb=F(0), obj=F(2))
        p.add_row({"x": F(1)}, "<=", F(3))
        sol = lp_solve(p)
        assert sol.value == 11
        assert sol.dual[0] == 2  # max convention: value = dual . rhs + const


class TestRandomVsOracle:
    def test_thirty_random_lps(self):
        rng = random.Random(12345)
        done = 0
        while done < 30:
            n = rng.randint(1, 3)
            m = rng.randint(n, 5)
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            b = [F(rng.randint(0, 6)) for _ in range(m)]
            # box-cap to guarantee boundedness
            for i in range(n):
                row = [F(0)] * n
                row[i] = F(1)
                A.append(row[:])
                b.append(F(4))
                row = [F(0)] * n
                row[i] = F(-1)
                A.append(row)
                b.append(F(4))
            P = HPolyhedron.make(A, b)
            try:
                verts = enumerate_vertices_oracle(P)
            except NotFullRank:
                continue
            if not verts:
                continue
            c = [F(rng.randint(-5, 5)) for _ in range(n)]
            p = LPProblem(sense="min")
            for j in range(n):
                p.add_var(f"x{j}", obj=c[j])
            for row, rhs in zip(A, b):
                p.add_row({f"x{j}": row[j] for j in range(n)}, "<=", rhs)
            sol = lp_solve(p)
            assert sol.status == "optimal"
            brute = min(sum(cj * v[j] for j, cj in enumerate(c)) for v in verts)
            assert sol.value == brute
            done += 1


class TestFeasibility:
    def test_infeasible_golden(self):
        p = LPProblem(sense="min")
        p.add_var("x")
        p.add_row({"x": F(1)}, ">=", F(1))
        p.add_row({"x": F(1)}, "<=", F(0))
        sol = lp_solve(p)
        assert sol.status == "infeasible"
        assert sol.farkas == [F(1), F(-1)]

    def test_redundant_point_weights(self, poly_53):
        # (0,7/13,45/13) = 6/13 (0,0,4) + 7/13 (0,1,3) over the other vertices
        verts = [
            (F(0), F(0), F(0)),
            (F(5, 2), F(0), F(0)),
            (F(0), F(0), F(4)),
            (F(1), F(0), F(3)),
            (F(0), F(7, 4), F(0)),
            (F(13, 7), F(9, 7), F(0)),
            (F(0), F(1), F(3)),
            (F(1), F(1), F(2)),
        ]
        target = (F(0), F(7, 13), F(45, 13))
        p = LPProblem(sense="min")
        for i in range(len(verts)):
            p.add_var(f"nu{i}", lb=F(0))
        for coord in range(3):
            p.add_row(
                {f"nu{i}": verts[i][coord] for i in range(len(verts))},
                "=",
                target[coord],
            )
        p.add_row({f"nu{i}": F(1) for i in range(len(verts))}, "=", F(1))
        sol = lp_solve(p)
        assert sol.status == "optimal"
        weights = {i: sol.primal[f"nu{i}"] for i in range(len(verts)) if sol.primal[f"nu{i}"]}
        assert weights == {2: F(6, 13), 6: F(7, 13)}

    def test_empty_rows_feasible_at_origin(self):
        p = LPProblem(sense="min")
        p.add_var("x")
        p.add_var("y")
        sol = lp_solve(p)
        assert sol.status == "optimal" and sol.primal == {"x": 0, "y": 0}


@pytest.fixture
def tableaus(monkeypatch):
    """The list of tableaus the solver builds while the test runs."""
    made = []

    class Recording(_Tableau):
        def __init__(self, ncols, nrows):
            super().__init__(ncols, nrows)
            made.append(self)

    monkeypatch.setattr(lp_module, "_Tableau", Recording)
    return made


def needs_artificial(p, row):
    """A row whose slack cannot start basic at +1: an '=' row, a '<=' row
    with a negative right-hand side, or a '>=' row with a positive one,
    after the variables are shifted to their lower bounds."""
    rhs = row.rhs - sum(c * p.lb[v] for v, c in row.coeffs.items() if p.lb[v] is not None)
    return row.sense == "=" or (rhs < 0 if row.sense == "<=" else rhs > 0)


def struct_columns(p):
    return sum(1 if p.lb[v] is not None else 2 for v in p.variables)


class TestSlackStart:
    def test_slack_rows_need_no_phase1(self, tableaus):
        # every row has a +1 slack after sign normalization, the '>=' rows
        # with rhs 0 and -2 through negation: no artificial, no phase 1
        p = LPProblem(sense="min")
        p.add_var("x", lb=F(0), obj=F(-1))
        p.add_var("y", obj=F(-1))
        p.add_row({"x": F(1), "y": F(1)}, "<=", F(3))
        p.add_row({"x": F(1), "y": F(-1)}, "<=", F(0))
        p.add_row({"y": F(1)}, ">=", F(0))
        p.add_row({"x": F(-1)}, ">=", F(-2))
        sol = lp_solve(p)
        assert sol.status == "optimal" and sol.value == -3
        assert (sol.pivots.phase1, sol.pivots.drive_out) == (0, 0)
        assert sol.pivots.phase2 > 0
        (tab,) = tableaus
        assert tab.ncols == struct_columns(p) + len(p.rows)

    def test_artificial_only_where_no_slack(self, tableaus):
        # over the mixed random LPs: one artificial per row without a +1
        # slack, and no phase-1 pivot when there is none
        rng = random.Random(4)
        counts = {"none": 0, "some": 0}
        for _ in range(200):
            p = random_lp(rng)
            tableaus.clear()
            sol = lp_solve(p)
            (tab,) = tableaus
            nslack = sum(1 for r in p.rows if r.sense != "=")
            nart = sum(1 for r in p.rows if needs_artificial(p, r))
            assert tab.ncols == struct_columns(p) + nslack + nart
            if nart == 0:
                assert sol.pivots.phase1 == 0 and sol.pivots.drive_out == 0
                counts["none"] += 1
            else:
                counts["some"] += 1
        assert all(c >= 20 for c in counts.values()), counts

    def test_mixed_feasibility_systems(self, tableaus):
        # the rows are solved as '<=' rows over free variables: rhs >= 0
        # starts at its slack, rhs < 0 gets an artificial; points and Farkas
        # vectors are checked here again, exactly, in the input's own senses
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        mixed = 0
        for _ in range(200):
            names = [f"x{j}" for j in range(rng.randint(1, 3))]
            rows = [
                LPRow({v: F(rng.randint(-3, 3)) for v in names if rng.random() < 0.8},
                      rng.choice(["<=", ">="]), F(rng.randint(-4, 4)))
                for _ in range(rng.randint(2, 6))
            ]
            p = LPProblem(sense="min")
            for v in names:
                p.add_var(v)
            for row in rows:
                o = 1 if row.sense == "<=" else -1
                p.add_row({v: o * c for v, c in row.coeffs.items()}, "<=", o * row.rhs)
            tableaus.clear()
            sol = lp_solve(p)
            feasible = sol.status == "optimal"
            out = sol.primal if feasible else [-y for y in sol.farkas]
            (tab,) = tableaus
            nart = tab.ncols - 2 * len(names) - len(rows)
            mixed += 0 < nart < len(rows)
            seen[feasible] += 1
            if feasible:
                for row in rows:
                    lhs = sum(c * out[v] for v, c in row.coeffs.items())
                    assert lhs <= row.rhs if row.sense == "<=" else lhs >= row.rhs
            else:
                orient = [1 if row.sense == "<=" else -1 for row in rows]
                assert all(u >= 0 for u in out)
                for v in names:
                    assert sum(u * o * row.coeffs.get(v, 0) for u, o, row in zip(out, orient, rows)) == 0
                assert sum(u * o * row.rhs for u, o, row in zip(out, orient, rows)) < 0
        assert min(seen.values()) >= 50 and mixed >= 100, (seen, mixed)


class TestTermination:
    def test_beale_cycling_instance(self):
        # classic instance that cycles under naive most-negative pivoting
        p = LPProblem(sense="min")
        p.add_var("x1", lb=F(0), obj=F(-3, 4))
        p.add_var("x2", lb=F(0), obj=F(150))
        p.add_var("x3", lb=F(0), obj=F(-1, 50))
        p.add_var("x4", lb=F(0), obj=F(6))
        p.add_row({"x1": F(1, 4), "x2": F(-60), "x3": F(-1, 25), "x4": F(9)}, "<=", F(0))
        p.add_row({"x1": F(1, 2), "x2": F(-90), "x3": F(-1, 50), "x4": F(3)}, "<=", F(0))
        p.add_row({"x3": F(1)}, "<=", F(1))
        for rule in ("bland", "dantzig"):
            sol = lp_solve(p, pivot_rule=rule)
            assert sol.status == "optimal"
            assert sol.value == F(-1, 20)


def random_lp(rng):
    """A small LP with '<=', '>=' and '=' rows, right-hand sides of both
    signs, free variables and variables with nonzero lower bounds.  The rows
    hold at a drawn point x0, except that about one row in five asks
    a.x >= rhs + 1 of an earlier row a.x <= rhs (or = rhs or >= rhs), which
    contradicts a '<=' or '=' row.  Of the 300 LPs TestAgainstHiGHS draws,
    114 are optimal, 85 infeasible and 101 unbounded."""
    n = rng.randint(1, 5)
    p = LPProblem(sense=rng.choice(["min", "max"]), obj_const=F(rng.randint(-3, 3)))
    x0 = {}
    for j in range(n):
        lb = rng.choice([None, F(0), F(rng.randint(-4, 4), rng.randint(1, 3))])
        p.add_var(f"x{j}", lb=lb, obj=F(rng.randint(-5, 5), rng.randint(1, 3)))
        x0[f"x{j}"] = (lb or 0) + rng.randint(0, 3)
    for i in range(rng.randint(1, 6)):
        coeffs = {
            f"x{j}": F(rng.randint(-4, 4), rng.randint(1, 2))
            for j in range(n)
            if rng.random() < 0.7
        }
        at_x0 = sum(c * x0[v] for v, c in coeffs.items())
        if i and rng.random() < 0.2:
            prev = p.rows[rng.randrange(i)]
            if prev.coeffs:
                coeffs = {v: -c for v, c in prev.coeffs.items()}
                p.add_row(coeffs, "<=", -prev.rhs - 1, name=f"r{i}")
                continue
        sense = rng.choice(["<=", ">=", "="])
        slack = rng.randint(0, 3)
        rhs = at_x0 + slack if sense == "<=" else at_x0 - slack if sense == ">=" else at_x0
        p.add_row(coeffs, sense, rhs, name=f"r{i}")
    return p


class TestAgainstHiGHS:
    """Differential test against scipy's HiGHS (test-only dependency)."""

    def test_random_lps(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(20240517)
        seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(300):
            p = random_lp(rng)
            sol = lp_solve(p)
            seen[sol.status] += 1
            sgn = 1 if p.sense == "min" else -1
            idx = {v: j for j, v in enumerate(p.variables)}
            c = [0.0] * len(idx)
            for v, cv in p.objective.items():
                c[idx[v]] = sgn * float(cv)
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for row in p.rows:
                dense = [0.0] * len(idx)
                for v, cv in row.coeffs.items():
                    dense[idx[v]] = float(cv)
                if row.sense == "=":
                    a_eq.append(dense)
                    b_eq.append(float(row.rhs))
                else:
                    flip = 1 if row.sense == "<=" else -1
                    a_ub.append([flip * x for x in dense])
                    b_ub.append(flip * float(row.rhs))
            res = linprog(
                c,
                A_ub=a_ub or None,
                b_ub=b_ub or None,
                A_eq=a_eq or None,
                b_eq=b_eq or None,
                bounds=[(None if p.lb[v] is None else float(p.lb[v]), None) for v in p.variables],
                method="highs",
            )
            expected = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
            assert sol.status == expected, (p, res.message)
            if sol.status == "optimal":
                ref = sgn * res.fun + float(p.obj_const)
                assert abs(float(sol.value) - ref) <= 1e-9 * max(1.0, abs(ref))
            elif sol.status == "unbounded":
                # the ray is an exact improving recession direction
                d = sol.ray
                for row in p.rows:
                    ad = sum(cv * d[v] for v, cv in row.coeffs.items())
                    assert ad <= 0 if row.sense == "<=" else ad >= 0 if row.sense == ">=" else ad == 0
                assert all(d[v] >= 0 for v in p.variables if p.lb[v] is not None)
                assert sgn * sum(cv * d[v] for v, cv in p.objective.items()) < 0
        assert all(count >= 10 for count in seen.values()), seen


def dense_pivot(T, basis, r, c):
    """Reference pivot: rebuild every affected row across all columns."""
    inv = 1 / T[r][c]
    T[r] = [x * inv for x in T[r]]
    for i in range(len(T)):
        if i != r and T[i][c] != 0:
            f = T[i][c]
            T[i] = [a - f * b for a, b in zip(T[i], T[r])]
    basis[r] = c


def dense_simplex(T, basis, cost, rule):
    """Reference primal simplex on a dense Fraction tableau, over every
    column: reduced costs recomputed from scratch before each pivot, the
    solver's pricing (Bland, or Dantzig with strict < in ascending column
    order and the Bland fallback) and its ratio test on Fraction ratios.
    Returns (status, entering column when unbounded, pivots, reduced costs)."""
    T, basis = [list(row) for row in T], list(basis)
    ncols = len(T[0]) - 1
    use_bland, streak, path = rule == "bland", 0, []
    while True:
        rc = [cost[j] - sum(cost[basis[i]] * T[i][j] for i in range(len(T))) for j in range(ncols)]
        entering, best = -1, 0
        for j in range(ncols):
            if rc[j] < 0:
                if use_bland:
                    entering = j
                    break
                if rc[j] < best:
                    best, entering = rc[j], j
        if entering < 0:
            return "optimal", None, path, rc
        leave, best_ratio = -1, None
        for i, row in enumerate(T):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return "unbounded", entering, path, rc
        streak = streak + 1 if best_ratio == 0 else 0
        if streak > 30:
            use_bland = True
        dense_pivot(T, basis, leave, entering)
        path.append((leave, entering))


class CheckedTableau(_Tableau):
    """A fraction-free tableau that replays every pivot on a dense Fraction
    copy and checks, after each one, every entry's exact value, the basis,
    the returned columns and the row invariants."""

    def __init__(self, rows, basis):
        super().__init__(len(rows[0]) - 1, len(rows))
        for i, row in enumerate(rows):
            self.set_row(i, dict(enumerate(row)))
        self.basis = list(basis)
        self.ref, self.ref_basis, self.path = [list(row) for row in rows], list(basis), []
        self.check()

    def pivot(self, r, c):
        before = [j for j, x in enumerate(self.ref[r]) if x]
        nz = super().pivot(r, c)
        dense_pivot(self.ref, self.ref_basis, r, c)
        self.path.append((r, c))
        assert sorted(nz) == before
        self.check()
        return nz

    def check(self):
        assert self.basis == self.ref_basis
        for i, (row, d) in enumerate(zip(self.T, self.D)):
            assert [self.value(i, j) for j in range(self.ncols + 1)] == self.ref[i]
            assert type(d) is int and d > 0
            assert all(type(x) is int and x != 0 for x in row.values())
            assert math.gcd(d, *row.values()) == 1
            # the basis stays a set of unit columns
            assert self.ref[i][self.basis[i]] == 1 and row[self.basis[i]] == d


def random_tableau(rng, nrows, nstruct):
    """Random Fraction rows over ``nstruct`` columns, then an identity basis
    (columns ``nstruct..``), then a right-hand side of either sign."""
    rows, ncols = [], nstruct + nrows
    for i in range(nrows):
        row = [F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.5 else F(0)
               for _ in range(nstruct)]
        row += [F(int(j == i)) for j in range(nrows)]
        row.append(F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else F(0))
        rows.append(row)
    return rows, list(range(nstruct, ncols))


class TestSparsePivot:
    def test_matches_dense_pivot(self):
        rng = random.Random(99)
        for _ in range(60):
            rows, basis = random_tableau(rng, rng.randint(1, 7), rng.randint(1, 9))
            tab = CheckedTableau(rows, basis)
            for _ in range(8):
                cands = [(r, c) for r in range(len(rows)) for c in range(tab.ncols) if c in tab.T[r]]
                if not cands:
                    break
                tab.pivot(*rng.choice(cands))

    @pytest.mark.parametrize("rule", ["bland", "dantzig"])
    def test_kernel_follows_dense_path(self, rule):
        # feasible start (rhs >= 0), costs on every column, non-negative on
        # the starting basis: the fraction-free kernel takes the reference
        # simplex's pivots (about 220 over the 120 LPs) and ends with its
        # reduced costs
        rng = random.Random(31)
        seen = {"optimal": 0, "unbounded": 0}
        for _ in range(120):
            nrows, nstruct = rng.randint(2, 7), rng.randint(1, 7)
            rows, basis = random_tableau(rng, nrows, nstruct)
            for row in rows:
                row[-1] = abs(row[-1])
            ncols = nstruct + nrows
            cost = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nstruct)]
            cost += [F(rng.randint(0, 6)) for _ in range(nrows)]
            tab = CheckedTableau(rows, basis)
            status, enter, rc, d = _kernel(tab, cost, ncols, rule)
            ref_status, ref_enter, ref_path, ref_rc = dense_simplex(rows, basis, cost, rule)
            assert (status, enter, tab.path) == (ref_status, ref_enter, ref_path)
            assert [F(rc.get(j, 0), d) for j in range(ncols)] == ref_rc
            seen[status] += 1
        assert all(count >= 10 for count in seen.values()), seen


class TestVerification:
    def solved(self):
        p = LPProblem(sense="min")
        p.add_var("x", lb=F(0), obj=F(1))
        p.add_var("y", obj=F(2))
        p.add_row({"x": F(1), "y": F(1)}, ">=", F(2), name="cover")
        p.add_row({"y": F(1)}, "=", F(1, 2), name="fix")
        sol = lp_solve(p)
        assert sol.status == "optimal" and sol.value == F(5, 2)
        return p, sol

    def test_accepts_solver_output(self):
        _verify_optimal(*self.solved())

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda s: {"value": s.value + 1},
            lambda s: {"primal": {**s.primal, "x": s.primal["x"] - 1}},
            lambda s: {"dual": [-s.dual[0], s.dual[1]]},
            lambda s: {"reduced": {**s.reduced, "y": F(1)}},
        ],
        ids=["value", "primal", "dual", "reduced"],
    )
    def test_rejects_tampered_solution(self, tamper):
        p, sol = self.solved()
        with pytest.raises(LPVerificationError):
            _verify_optimal(p, dataclasses.replace(sol, **tamper(sol)))

    def test_check_survives_optimize_flag(self):
        code = (
            "from fractions import Fraction as F\n"
            "from barydd.lp import LPProblem, LPVerificationError, lp_solve, _verify_optimal\n"
            "p = LPProblem(); p.add_var('x', lb=F(0), obj=F(1))\n"
            "s = lp_solve(p); s.value += 1\n"
            "try:\n    _verify_optimal(p, s)\nexcept LPVerificationError:\n    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "raised", out.stderr


class TestInfeasibleCheck:
    def solved(self):
        # x + z >= 1 against x <= 0 and z <= 0, z >= -1 shifting the rhs
        p = LPProblem(sense="min")
        p.add_var("x", obj=F(1))
        p.add_var("z", lb=F(-1))
        p.add_row({"x": F(1), "z": F(1)}, ">=", F(1), name="cover")
        p.add_row({"x": F(1)}, "<=", F(0), name="capx")
        p.add_row({"z": F(1)}, "<=", F(0), name="capz")
        p.add_row({"x": F(1), "z": F(-1)}, "=", F(0), name="tie")
        sol = lp_solve(p)
        assert sol.status == "infeasible"
        return p, sol

    def test_accepts_solver_output(self):
        _verify_infeasible(*self.solved())

    @pytest.mark.parametrize(
        "farkas, match",
        [
            ([F(1), F(1), F(-2), F(0)], "sign on <= row 'capx'"),
            ([F(-1), F(0), F(0), F(0)], "sign on >= row 'cover'"),
            ([F(1), F(0), F(-1), F(0)], "nonzero on free var x"),
            ([F(1), F(-1), F(0), F(0)], "positive on bounded var z"),
            ([F(0), F(0), F(-1), F(0)], "not positive"),
            ([F(1), F(-1), F(-1)], "length"),
        ],
        ids=["sign_le", "sign_ge", "free", "bounded", "rhs", "length"],
    )
    def test_rejects_tampered_vector(self, farkas, match):
        p, sol = self.solved()
        with pytest.raises(LPVerificationError, match=match):
            _verify_infeasible(p, dataclasses.replace(sol, farkas=farkas))


class TestUnboundedCheck:
    def solved(self, sense="min"):
        # x >= 0 grows without bound; y and z are held by y + z = 0
        p = LPProblem(sense=sense)
        p.add_var("x", lb=F(0), obj=F(-1) if sense == "min" else F(1))
        p.add_var("y")
        p.add_var("z")
        p.add_row({"y": F(1)}, "<=", F(5), name="capy")
        p.add_row({"z": F(1)}, ">=", F(-5), name="floorz")
        p.add_row({"y": F(1), "z": F(1)}, "=", F(0), name="tie")
        sol = lp_solve(p)
        assert sol.status == "unbounded"
        return p, sol

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_accepts_solver_output(self, sense):
        _verify_unbounded(*self.solved(sense))

    @pytest.mark.parametrize(
        "sense, ray, match",
        [
            ("min", (-1, 0, 0), "negative on bounded var x"),
            ("min", (1, 1, -1), "leaves <= row 'capy'"),
            ("min", (1, -1, -1), "leaves >= row 'floorz'"),
            ("min", (1, -1, 0), "leaves = row 'tie'"),
            ("min", (0, -1, 1), "does not improve"),
            ("max", (0, -1, 1), "does not improve"),
        ],
        ids=["bound", "le", "ge", "eq", "objective_min", "objective_max"],
    )
    def test_rejects_tampered_ray(self, sense, ray, match):
        p, sol = self.solved(sense)
        tampered = dict(zip(["x", "y", "z"], map(F, ray)))
        with pytest.raises(LPVerificationError, match=match):
            _verify_unbounded(p, dataclasses.replace(sol, ray=tampered))

    def test_checks_survive_optimize_flag(self):
        code = (
            "from fractions import Fraction as F\n"
            "from barydd.lp import LPProblem, LPVerificationError, lp_solve, _verify_infeasible, _verify_unbounded\n"
            "p = LPProblem(); p.add_var('x', obj=F(1))\n"
            "s = lp_solve(p); s.ray['x'] = -s.ray['x']\n"
            "try:\n    _verify_unbounded(p, s)\nexcept LPVerificationError:\n    print('raised')\n"
            "p.add_row({'x': F(1)}, '>=', F(1)); p.add_row({'x': F(1)}, '<=', F(0))\n"
            "s = lp_solve(p); s.farkas = [-y for y in s.farkas]\n"
            "try:\n    _verify_infeasible(p, s)\nexcept LPVerificationError:\n    print('raised')\n"
        )
        assert run_optimized(code).split() == ["raised", "raised"]
