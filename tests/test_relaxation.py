"""Hull LP, level hierarchy, algebraic hierarchy, RLT baselines, envelopes."""

import gc
import itertools
import json
import random
import warnings
from fractions import Fraction as F

import pytest

from barydd import HPolyhedron, cli, dd_engine, dd_run, enumerate_vertices_oracle, relaxation
from barydd.exactmath import Poly
from barydd.facial import CouplingRow, Face, FDPBlock, FDPInstance
from barydd.lp import LPProblem, lp_solve
from barydd.relaxation import (
    ACInstance,
    DBPInstance,
    GFun,
    InfeasiblePoint,
    LevelRun,
    LevelTooLow,
    NotBox,
    UnboundedInput,
    barycentric_for_polytope,
    build_de_linear,
    build_hull_lp,
    build_level_lp,
    build_rlt_baseline,
    envelope_eval,
    gap_table,
    solution_report,
    solve_and_report,
)
from closed_forms import (
    count_expanded_monomials,
    count_product_factors,
    expanded_monomials_brute,
    rlt_self_product_rows,
)
from conftest import box_polytope, run_optimized
from reference_builders import assert_same_lp, reference_de_linear, reference_rlt_box


def box_bilinear():
    """min x*y over x in [0,1], y in [0,1] (1x1 bilinear)."""
    P = box_polytope(1)
    Py = box_polytope(1)
    return DBPInstance.make(Q=[[F(1)]], P=P, Py=Py)


def box2_bilinear():
    P = box_polytope(2)
    Py = box_polytope(2)
    return DBPInstance.make(Q=[[1, 2], [-3, 1]], P=P, Py=Py, cx=[1, 0], cy=[0, -1])


def box3_bilinear():
    P = box_polytope(3)
    return DBPInstance.make(Q=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], P=P, Py=P)


def ac_instance():
    """P: -1 <= x1 <= 1, 0 <= x2 <= 1 with x2 >= 0 explicit; g2 = |y|."""
    P = HPolyhedron.make(
        [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 0]
    )
    Py = HPolyhedron.make([[1], [-1]], [1, 1])
    g = [
        GFun.make_affine(0, [0]),
        GFun.make_affine(0, [1]),
        GFun.make_max([(0, [1]), (0, [-1])]),
    ]
    return ACInstance(P, Py, g, varrho=1)


def random_dbp(rng, n, m):
    """P: x >= 0 and m - n rows with coefficients in [1,4] and right-hand
    sides in [4,12], rows shuffled; Py the unit square."""
    A = [[-int(j == i) for j in range(n)] for i in range(n)]
    b = [0] * n
    for _ in range(m - n):
        A.append([rng.randint(1, 4) for _ in range(n)])
        b.append(rng.randint(4, 12))
    rows = list(zip(A, b))
    rng.shuffle(rows)
    P = HPolyhedron.make([r for r, _ in rows], [c for _, c in rows])
    Q = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(n)]
    return DBPInstance.make(Q=Q, P=P, Py=box_polytope(2), cx=[rng.randint(-5, 5) for _ in range(n)])


def random_box_dbp(rng, n, ny):
    """P = [0,1]^n; Py = [0,1]^ny cut by one row a.y <= b with b >= 1;
    Q, cx, cy and c0 drawn from [-5,5]."""
    Py = box_polytope(ny)
    Py = HPolyhedron.make(
        [list(r) for r in Py.A] + [[rng.randint(-2, 2) for _ in range(ny)]],
        list(Py.b) + [rng.randint(1, 3)],
    )
    draw = lambda size: [rng.randint(-5, 5) for _ in range(size)]  # noqa: E731
    return DBPInstance.make(
        Q=[draw(ny) for _ in range(n)], P=box_polytope(n), Py=Py, cx=draw(n), cy=draw(ny),
        c0=rng.randint(-5, 5),
    )


def two_block_fdp():
    """Two 0-1 interval blocks, a coupling row x1 - x2 + y <= 1 and the
    bounds -1 <= y <= 1."""
    block = FDPBlock(
        HPolyhedron.make([[1], [-1]], [1, 0]),
        [Face.from_cut(0, [-1]), Face.from_cut(1, [1])],
    )
    coupling = [
        CouplingRow((F(1), F(-1)), (F(1),), "<=", F(1)),
        CouplingRow((F(0), F(0)), (F(1),), "<=", F(1)),
        CouplingRow((F(0), F(0)), (F(-1),), "<=", F(1)),
    ]
    return FDPInstance(
        blocks=[block, block], coupling=coupling, obj_x=(F(1), F(-2)),
        obj_y=(F(1),), obj_const=F(0), ny=1,
    )


def reference_hull_lp(inst, V):
    """The hull LP over the vertices V as its own builder wrote it, before
    it became the vertex form over the points (1; v)."""
    p = len(V)
    prob = LPProblem(sense="min", name="hull")
    for i in range(p):
        prob.add_var(f"lam{i}", lb=F(0))
    for i in range(p):
        for l in range(inst.ny):
            prob.add_var(f"Y{l}_{i}")
    for j in range(inst.n):
        prob.add_var(f"x{j}")
    for l in range(inst.ny):
        prob.add_var(f"y{l}")
    obj = {}
    for i, v in enumerate(V):
        cl = inst.c0 + sum(inst.cx[j] * v[j] for j in range(inst.n))
        if cl:
            obj[f"lam{i}"] = obj.get(f"lam{i}", F(0)) + cl
        for l in range(inst.ny):
            cy = inst.cy[l] + sum(inst.Q[j][l] * v[j] for j in range(inst.n))
            if cy:
                obj[f"Y{l}_{i}"] = cy
    prob.objective = obj
    for r in range(inst.Py.m):
        for i in range(p):
            coeffs = {f"lam{i}": inst.Py.b[r]}
            for l in range(inst.ny):
                a = inst.Py.A[r][l]
                if a:
                    coeffs[f"Y{l}_{i}"] = -a
            prob.add_row(coeffs, ">=", F(0), name=f"ymem[{r},{i}]", tag=("ymem", r, i))
    prob.add_row({f"lam{i}": F(1) for i in range(p)}, "=", F(1), name="simplex",
                 tag=("simplex",))
    for j in range(inst.n):
        coeffs = {f"x{j}": F(1)}
        for i, v in enumerate(V):
            if v[j]:
                coeffs[f"lam{i}"] = -v[j]
        prob.add_row(coeffs, "=", F(0), name=f"xdef[{j}]", tag=("xdef", j))
    for l in range(inst.ny):
        coeffs = {f"y{l}": F(1)}
        for i in range(p):
            coeffs[f"Y{l}_{i}"] = F(-1)
        prob.add_row(coeffs, "=", F(0), name=f"ydef[{l}]", tag=("ydef", l))
    return prob


class TestHull:
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
    def test_equals_reference_builder(self, dbp_62, seed):
        # the vertex form over (1; v) builds the same LP, up to explicit
        # zeros and the order of the objective's terms
        inst = dbp_62
        if seed is not None:
            rng = random.Random(seed)
            d = random_dbp(rng, rng.choice([2, 3]), 5)
            cy = [rng.choice([-1, 1]) * rng.randint(1, 5) for _ in range(d.ny)]
            inst = DBPInstance.make(Q=d.Q, P=d.P, Py=d.Py, cx=d.cx, cy=cy, c0=rng.randint(1, 9))
        got = build_hull_lp(inst)
        want = reference_hull_lp(inst, enumerate_vertices_oracle(inst.P))
        assert (got.name, got.sense, got.obj_const) == (want.name, want.sense, want.obj_const)
        assert (got.variables, got.lb) == (want.variables, want.lb)
        assert [(list(r.coeffs.items()), r.sense, r.rhs, r.name, r.tag) for r in got.rows] == [
            (list(r.coeffs.items()), r.sense, r.rhs, r.name, r.tag) for r in want.rows
        ]
        assert {v: c for v, c in got.objective.items() if c} == want.objective
        assert lp_solve(got) == lp_solve(want)

    def test_62_value_and_duals(self, dbp_62):
        prob = build_hull_lp(dbp_62)
        sol = lp_solve(prob)
        assert sol.value == -360
        nonzero = sorted(
            y for row, y in zip(prob.rows, sol.dual) if y and row.tag[0] == "ymem"
        )
        assert nonzero == [42, 63, 140, 150]
        simplex_dual = next(
            y for row, y in zip(prob.rows, sol.dual) if row.tag[0] == "simplex"
        )
        assert simplex_dual == -360

    def test_brute_force_agreement(self, dbp_62):
        verts_x = enumerate_vertices_oracle(dbp_62.P)
        verts_y = enumerate_vertices_oracle(dbp_62.Py)
        brute = min(
            dbp_62.objective_value(v, w) for v in verts_x for w in verts_y
        )
        assert lp_solve(build_hull_lp(dbp_62)).value == brute

    def test_zero_Q_reduces_to_lp(self, dbp_62):
        inst = DBPInstance.make(
            Q=[[0, 0], [0, 0]], P=dbp_62.P, Py=dbp_62.Py, cx=[1, 1]
        )
        sol = lp_solve(build_hull_lp(inst))
        brute = min(v[0] + v[1] for v in enumerate_vertices_oracle(inst.P))
        assert sol.value == brute

    def test_unbounded_input(self):
        P = HPolyhedron.make([[-1, 0], [0, -1]], [0, 0])
        Py = box_polytope(1)
        inst = DBPInstance.make(Q=[[1], [1]], P=P, Py=Py)
        with pytest.raises(UnboundedInput):
            build_hull_lp(inst)

    def test_json_roundtrip(self, dbp_62):
        assert DBPInstance.from_json(dbp_62.to_json()).to_json() == dbp_62.to_json()


class TestEnvelope:
    def test_xy_vertex_values(self):
        inst = box_bilinear()
        for x in (0, 1):
            for y in (0, 1):
                assert envelope_eval(inst, [x], [y]) == x * y

    def test_xy_mccormick(self):
        inst = box_bilinear()
        assert envelope_eval(inst, [F(1, 2)], [F(1, 2)]) == 0
        assert envelope_eval(inst, [F(3, 4)], [F(3, 4)]) == F(1, 2)

    def test_62_point(self, dbp_62):
        assert envelope_eval(dbp_62, [0, 2], [0, 0]) == -360

    def test_infeasible_point(self, dbp_62):
        with pytest.raises(InfeasiblePoint):
            envelope_eval(dbp_62, [-5, 0], [0, 0])
        with pytest.raises(InfeasiblePoint):
            envelope_eval(dbp_62, [0, 2], [-1, 0])

    def test_status_check_survives_optimize_flag(self):
        # an LP that is not optimal at a point of P x Py raises, also under -O
        code = (
            "from barydd import HPolyhedron, LPVerificationError, relaxation\n"
            "from barydd.lp import LPSolution\n"
            "I = HPolyhedron.make([[-1], [1]], [0, 1])\n"
            "inst = relaxation.DBPInstance.make(Q=[[1]], P=I, Py=I, cx=[0], cy=[0], c0=0)\n"
            "relaxation.lp_solve = lambda prob: LPSolution(status='infeasible')\n"
            "try:\n    relaxation.envelope_eval(inst, [0], [0])\n"
            "except LPVerificationError:\n    print('raised')\n"
        )
        assert run_optimized(code) == "raised"


class TestLevelHierarchy:
    def test_level_m_equals_hull(self, dbp_62):
        sol = lp_solve(build_level_lp(dbp_62, 4))
        assert sol.value == -360

    def test_monotone_chain(self, dbp_62):
        order = [1, 2, 3, 0]
        values = []
        for k in range(2, 5):
            sol = lp_solve(build_level_lp(dbp_62, k, order=order))
            values.append(None if sol.status == "unbounded" else sol.value)
        cleaned = [v for v in values if v is not None]
        assert cleaned == sorted(cleaned)
        assert values[-1] == -360
        assert values[1] == -675  # strictly below the hull at level 3

    def test_level_too_low_reports_kbar(self, dbp_62):
        with pytest.raises(LevelTooLow) as err:
            build_level_lp(dbp_62, 1)
        assert err.value.kbar == 2

    def test_box_terminal_level_matches_vertex_lp(self):
        inst = box2_bilinear()
        sol = lp_solve(build_level_lp(inst, inst.P.m))
        direct = min(
            inst.objective_value(v, w)
            for v in enumerate_vertices_oracle(inst.P)
            for w in enumerate_vertices_oracle(inst.Py)
        )
        assert sol.value == direct

    def test_gap_table(self, dbp_62):
        table = gap_table(dbp_62, order=[1, 2, 3, 0])
        vals = [F(r["value"]) for r in table if r["status"] == "optimal"]
        assert vals == sorted(vals) and vals[-1] == -360

    @staticmethod
    def assert_stopped_runs_match(inst, order, prune=False):
        """build_level_lp, whose DD stops after step max(k, kbar), gives the
        LP built from a run over the whole order, and the same kbar."""
        ac = relaxation.dbp_as_ac(inst) if isinstance(inst, DBPInstance) else inst
        if all(g.affine for g in ac.g):
            whole = dd_run(ac.P, order=order)
        else:
            whole = dd_run(ac.P, order=order, init="partial_orthant", varrho=ac.varrho)
        reference = LevelRun(ac, whole)
        for k in range(len(order) + 1):
            try:
                want = reference.lp(k, prune)
            except LevelTooLow as exc:
                with pytest.raises(LevelTooLow) as err:
                    build_level_lp(inst, k, order=order, prune=prune)
                assert err.value.kbar == exc.kbar
                continue
            assert repr(build_level_lp(inst, k, order=order, prune=prune)) == repr(want)

    def test_stopped_run_matches_whole_run_62(self, dbp_62):
        for order in itertools.permutations(range(dbp_62.P.m)):
            self.assert_stopped_runs_match(dbp_62, list(order))
        # orders too short to empty the lineality space: kbar is None
        for order in ([], [2], [3, 0], [0, 3, 1]):
            self.assert_stopped_runs_match(dbp_62, order)
        self.assert_stopped_runs_match(dbp_62, [2, 0, 3, 1], prune=True)

    def test_stopped_run_matches_whole_run_random(self):
        rng = random.Random(20240518)
        for n, m in [(2, 4), (2, 5), (2, 6), (3, 5), (3, 6)]:
            for _ in range(2):
                inst = random_dbp(rng, n, m)
                order = list(range(m))
                rng.shuffle(order)
                self.assert_stopped_runs_match(inst, order)

    def test_stopped_run_matches_whole_run_non_affine(self):
        inst = ac_instance()
        for order in itertools.permutations(range(inst.P.m)):
            self.assert_stopped_runs_match(inst, list(order))

    @staticmethod
    def assert_level_lps_from_columns(inst, order, prune):
        """The level LPs equal the ones built by dehomogenizing the
        coordinates too and discarding them, as ``dehomogenize`` did before
        it shared ``dehomogenize_columns``."""
        from barydd.dd_engine import prune_redundant

        def dehomogenize(R, mu):
            cols, lam = [], []
            for col, f in zip(R, mu):
                g = f.subs_one(0)
                if col[0] > 0:
                    cols.append(tuple(x / col[0] for x in col))
                    lam.append(g.scale(col[0]))
                else:
                    cols.append(tuple(col))
                    lam.append(g)
            return tuple(cols), lam

        ac = relaxation.dbp_as_ac(inst)
        levels = LevelRun.make(inst, order)
        for k in range(levels.kbar, len(order) + 1):
            st = levels.run.states[k]
            st = prune_redundant(st) if prune else st
            W, _ = dehomogenize(st.R, list(st.mu))
            want = relaxation._vertex_form_lp(ac, W, name=f"level{k}")
            assert repr(levels.lp(k, prune)) == repr(want)

    @pytest.mark.parametrize("prune", [False, True])
    def test_level_lp_from_columns_alone(self, dbp_62, prune):
        for order in itertools.permutations(range(dbp_62.P.m)):
            self.assert_level_lps_from_columns(dbp_62, list(order), prune)
        # columns whose first entry is neither 0 nor 1
        rng = random.Random(20240519)
        for n, m in [(2, 5), (3, 6)]:
            inst = random_dbp(rng, n, m)
            self.assert_level_lps_from_columns(inst, list(range(m)), prune)

    def test_level_out_of_range(self, dbp_62):
        for k, order in [(-1, None), (5, None), (3, [0, 1])]:
            with pytest.raises(ValueError) as err:
                build_level_lp(dbp_62, k, order=order)
            assert not isinstance(err.value, LevelTooLow)

    def test_cli_ddr_steps_only_to_its_level(self, dbp_62, tmp_path, monkeypatch, capsys):
        steps = []
        dd_step = dd_engine.dd_step

        def counted(state, row):
            steps.append(row)
            return dd_step(state, row)

        monkeypatch.setattr(dd_engine, "dd_step", counted)
        inp = tmp_path / "dbp62.json"
        inp.write_text(json.dumps(dbp_62.to_json()))
        assert cli.main(["solve", str(inp), "--method", "ddr", "--level", "2"]) == 0
        assert steps == [0, 1]
        assert capsys.readouterr().out == "unbounded\n"

    @pytest.mark.parametrize("prune", [False, True])
    def test_gap_table_matches_each_level(self, dbp_62, prune):
        # one DD run per order gives the same table as one build per level
        for order in (None, [3, 1, 0, 2]):
            expected = []
            for k in range(dbp_62.P.m + 1):
                try:
                    sol = lp_solve(build_level_lp(dbp_62, k, order=order, prune=prune))
                except LevelTooLow:
                    continue
                value = str(sol.value) if sol.status == "optimal" else None
                expected.append({"level": k, "status": sol.status, "value": value})
            assert gap_table(dbp_62, order=order, prune=prune) == expected


class TestACHierarchy:
    def test_monotone_and_exact(self):
        inst = ac_instance()
        values = []
        for k in range(0, 5):
            try:
                sol = lp_solve(build_level_lp(inst, k))
            except LevelTooLow:
                continue
            values.append(sol.value if sol.status == "optimal" else None)
        cleaned = [v for v in values if v is not None]
        assert cleaned == sorted(cleaned)
        # optimum: min over x vertices of min_y x1 y + x2 |y| = -1
        assert cleaned[-1] == -1


class TestDELinear:
    def test_linearization_golden_53(self, poly_53):
        # level-3 coordinate of (0,0,4): against the denominator
        # d(x)(-35+5x1+7x2+5x3) the numerator carries -1225 on x3 and +5 on
        # x3^4
        run = dd_run(poly_53)
        st = run.final
        from barydd.polyhedra import dehomogenize

        V, lam = dehomogenize(st.R, list(st.mu))
        i = [tuple(c[1:]) for c in V].index((F(0), F(0), F(4)))
        mu = lam[i]
        dx = Poly(4, {
            (0, 2, 0, 0): F(5), (0, 1, 1, 0): F(12), (0, 1, 0, 1): F(9),
            (0, 0, 2, 0): F(7), (0, 0, 1, 1): F(11), (0, 0, 0, 2): F(4),
            (0, 1, 0, 0): F(-55), (0, 0, 1, 0): F(-63), (0, 0, 0, 1): F(-48),
            (0, 0, 0, 0): F(140),
        })
        their_den = dx * Poly.affine(4, -35, [0, 5, 7, 5])
        scale = their_den.exact_div(mu.den)
        assert scale is not None and scale.is_constant()
        their_num = mu.num.scale(scale.constant_value())
        assert their_num.terms[(0, 0, 0, 1)] == -1225
        assert their_num.terms[(0, 0, 0, 4)] == 5

    def test_de_full_level_exact(self, dbp_62):
        model = build_de_linear(dbp_62, 4, [(1, 2, 3, 0)])
        sol = lp_solve(model.problem)
        assert sol.value == -360

    def test_de_dominates_level(self, dbp_62):
        model = build_de_linear(dbp_62, 3, [(1, 2, 3)])
        de = lp_solve(model.problem).value
        ddr = lp_solve(build_level_lp(dbp_62, 3, order=[1, 2, 3, 0])).value
        assert de >= ddr
        assert de <= -360  # still a relaxation

    def test_de_singletons_recover_rlt_strength(self, dbp_62):
        model = build_de_linear(dbp_62, 1, [(0,), (1,), (2,), (3,)])
        de = lp_solve(model.problem).value
        rlt = lp_solve(build_rlt_baseline(dbp_62, "level1_general")).value
        assert de >= rlt
        assert de == F(-12060, 23)  # equal on this instance

    def test_shared_w_variables_across_orders(self, dbp_62):
        m1 = build_de_linear(dbp_62, 2, [(1, 2)])
        m2 = build_de_linear(dbp_62, 2, [(1, 2), (2, 1)])
        # the same denominators must reuse keys rather than fork per order
        assert len(m2.wnames) < 2 * len(m1.wnames)

    @pytest.mark.parametrize("k", [1, 2])
    def test_parallel_runs_change_nothing(self, dbp_62, k):
        # with jobs > 1 the order runs come back pickled from worker processes
        orders = sorted(itertools.combinations(range(dbp_62.P.m), k))
        serial = build_de_linear(dbp_62, k, orders, jobs=1)
        parallel = build_de_linear(dbp_62, k, orders, jobs=2)
        assert repr(parallel.problem) == repr(serial.problem)
        assert (parallel.wnames, parallel.wdens, parallel.meta) == (
            serial.wnames, serial.wdens, serial.meta
        )

    @pytest.mark.parametrize(
        "k, orders",
        [(k, None) for k in (1, 2, 3, 4)] + [(2, [(2, 1), (1, 2)]), (4, [(3, 2, 1, 0), (1, 2, 3, 0)])],
    )
    def test_equals_reference_builder(self, dbp_62, k, orders):
        # the shared row assembly builds the same LP, w numbering and
        # denominators as the builder that wrote out every row
        orders = orders or sorted(itertools.combinations(range(dbp_62.P.m), k))
        got = build_de_linear(dbp_62, k, orders)
        want = reference_de_linear(dbp_62, k, orders)
        assert_same_lp(got.problem, want.problem)
        assert (got.level, got.orders, got.wnames, got.wdens, got.meta) == (
            want.level, want.orders, want.wnames, want.wdens, want.meta
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_linearizing_once_changes_nothing(self, dbp_62, k, monkeypatch):
        # the same LP, w numbering and coefficient order as linearizing at
        # every call
        orders = sorted(itertools.combinations(range(dbp_62.P.m), k))
        once = build_de_linear(dbp_62, k, orders)
        monkeypatch.setattr(relaxation, "_lin_ratfun", relaxation._linearize)
        every = build_de_linear(dbp_62, k, orders)
        assert repr(once.problem) == repr(every.problem)
        assert (once.wnames, once.meta) == (every.wnames, every.meta)


class TestRLT:
    def test_level1_62(self, dbp_62):
        sol = lp_solve(build_rlt_baseline(dbp_62, "level1_general"))
        assert sol.value == F(-12060, 23)
        primal = sol.primal
        want = {
            "x0": F(12, 23), "x1": F(30, 23),
            "y0": F(18, 23), "y1": F(12, 23),
            "xy0_0": F(12, 23), "xy0_1": F(36, 23),
            "xy1_0": F(-36, 23), "xy1_1": F(18, 23),
        }
        assert {k: primal[k] for k in want} == want

    def test_box_level_n_is_hull(self):
        inst = box2_bilinear()
        rlt = lp_solve(build_rlt_baseline(inst, "box_level_k", k=2)).value
        hull = lp_solve(build_hull_lp(inst)).value
        assert rlt == hull

    def test_box_levels_monotone(self):
        inst = box2_bilinear()
        v1 = lp_solve(build_rlt_baseline(inst, "box_level_k", k=1)).value
        v2 = lp_solve(build_rlt_baseline(inst, "box_level_k", k=2)).value
        assert v1 <= v2

    def test_not_box(self, dbp_62):
        with pytest.raises(NotBox):
            build_rlt_baseline(dbp_62, "box_level_k", k=1)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n, ny", [(n, ny) for n in (1, 2, 3) for ny in (1, 2)])
    def test_box_equals_reference_builder(self, n, ny, seed):
        # level-k RLT through the one Sherali-Adams builder: the same LP,
        # row names and tags included, as its own builder wrote
        inst = random_box_dbp(random.Random(100 * n + 10 * ny + seed), n, ny)
        for k in range(1, n + 1):
            got = build_rlt_baseline(inst, "box_level_k", k=k)
            want = reference_rlt_box(inst, k)
            assert_same_lp(got, want)
            assert lp_solve(got) == lp_solve(want)

    def test_self_products_41_lifted_point(self, poly_41):
        rows, names = rlt_self_product_rows(poly_41)
        point = {
            "x0": F(-1), "x1": F(-1),
            "X0_0": F(40), "X0_1": F(13), "X1_1": F(4),
        }
        for coeffs, sense, rhs, tag in rows:
            lhs = sum(c * point[v] for v, c in coeffs.items())
            assert lhs >= rhs
        # yet the point is infeasible for the polytope itself
        assert not poly_41.contains([F(-1), F(-1)])


class TestCounting:
    @pytest.mark.parametrize("n,q,k", [(2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 3, 1)])
    def test_identity(self, n, q, k):
        got = expanded_monomials_brute(n, q, k)
        assert got == count_expanded_monomials(n, q, k)
        assert got <= count_product_factors(n, q, k)


class TestReport:
    def test_62_report(self, dbp_62):
        prob = build_hull_lp(dbp_62)
        report = solve_and_report(prob)
        assert report["value"] == "-360"
        duals = {d["value"] for d in report["dual"]}
        assert {"150", "42", "63", "140"} <= duals

    def test_cli_report_solves_once(self, dbp_62, tmp_path, monkeypatch):
        calls = []

        def counted(prob, *args, **kwargs):
            calls.append(prob.name)
            return lp_solve(prob, *args, **kwargs)

        monkeypatch.setattr(cli, "lp_solve", counted)
        monkeypatch.setattr(relaxation, "lp_solve", counted)
        inp = tmp_path / "dbp62.json"
        inp.write_text(json.dumps(dbp_62.to_json()))
        out = tmp_path / "report.json"
        assert cli.main(["solve", str(inp), "--method", "hull", "--report", str(out)]) == 0
        assert len(calls) == 1
        assert json.loads(out.read_text()) == solve_and_report(build_hull_lp(dbp_62))

    @pytest.mark.parametrize("level", [3, 4])
    def test_cli_ddr_report_runs_dd_once(self, level, dbp_62, tmp_path, monkeypatch):
        runs, solves = [], []

        def counted_run(*args, **kwargs):
            runs.append(kwargs.get("order"))
            return dd_run(*args, **kwargs)

        def counted_solve(prob, *args, **kwargs):
            solves.append(prob.name)
            return lp_solve(prob, *args, **kwargs)

        monkeypatch.setattr(relaxation, "dd_run", counted_run)
        monkeypatch.setattr(cli, "lp_solve", counted_solve)
        monkeypatch.setattr(relaxation, "lp_solve", counted_solve)
        inp = tmp_path / "dbp62.json"
        inp.write_text(json.dumps(dbp_62.to_json()))
        out = tmp_path / "report.json"
        argv = ["solve", str(inp), "--method", "ddr", "--level", str(level), "--report", str(out)]
        assert cli.main(argv) == 0
        # one run over the whole order; one solve per usable level (kbar = 2)
        assert runs == [[0, 1, 2, 3]]
        assert sorted(solves) == ["level2", "level3", "level4"]
        prob = build_level_lp(dbp_62, level)
        want = solution_report(prob, lp_solve(prob))
        want["gap_table"] = gap_table(dbp_62)
        assert json.loads(out.read_text()) == want

    def test_infeasible_report(self):
        from barydd.lp import LPProblem

        p = LPProblem(sense="min")
        p.add_var("x", lb=F(0))
        p.add_row({"x": F(1)}, "<=", F(-1))
        report = solve_and_report(p)
        assert report["status"] == "infeasible"
        assert "farkas" in report


def exit_code(argv):
    """The exit code of ``barydd`` on ``argv``, returned or raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestCliBadInput:
    """Bad input exits with EXIT_PARSE and prints no result."""

    @pytest.mark.parametrize(
        "polytope",
        [
            {"constraints": [{"coeffs": ["1", "0"], "rhs": "1"}, {"coeffs": ["1"], "rhs": "2"}]},
            {"variables": ["a"], "constraints": [{"coeffs": ["1", "0"], "rhs": "1"}]},
        ],
        ids=["ragged_rows", "name_count"],
    )
    def test_dd_rejects(self, polytope, tmp_path, capsys):
        inp = tmp_path / "P.json"
        inp.write_text(json.dumps(polytope))
        assert exit_code(["dd", str(inp)]) == cli.EXIT_PARSE
        assert capsys.readouterr().out == ""

    @staticmethod
    def write(tmp_path, inst, name="inst.json"):
        inp = tmp_path / name
        inp.write_text(json.dumps(inst.to_json()))
        return str(inp)

    @staticmethod
    def assert_one_line_error(capsys, start=""):
        out = capsys.readouterr()
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith(start)

    @pytest.mark.parametrize(
        "args",
        [
            ["--method", "ddr", "--level", "9"],
            ["--method", "ddr", "--level", "-1"],
            ["--method", "ddr", "--level", "3", "--order", "2,1"],
            ["--method", "de", "--level", "9"],
            ["--method", "de", "--level", "0"],
        ],
        ids=["ddr_above_m", "ddr_negative", "ddr_above_order", "de_above_m", "de_zero"],
    )
    def test_solve_rejects_level(self, args, dbp_62, tmp_path, capsys):
        inp = self.write(tmp_path, dbp_62)
        assert exit_code(["solve", inp] + args) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "--level")

    @pytest.mark.parametrize("level", ["0", "1"])
    def test_ddr_below_kbar_is_level_too_low(self, level, dbp_62, tmp_path, capsys):
        inp = self.write(tmp_path, dbp_62)
        assert exit_code(["solve", inp, "--method", "ddr", "--level", level]) == cli.EXIT_LEVEL
        out = capsys.readouterr()
        assert out.out == "" and "kbar = 2" in out.err

    @pytest.mark.parametrize("level", ["0", "3"])
    def test_rltbox_rejects_level(self, level, tmp_path, capsys):
        inp = self.write(tmp_path, box2_bilinear())
        assert exit_code(["solve", inp, "--method", "rltbox", "--level", level]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "--level")

    def test_rejects_exponent_notation(self, dbp_62, tmp_path, capsys):
        # Fraction would multiply the exponent out, however large
        data = dbp_62.to_json()
        data["c0"] = "1e5"
        inp = tmp_path / "inst.json"
        inp.write_text(json.dumps(data))
        assert exit_code(["solve", str(inp), "--method", "hull"]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "bad instance file: exponent notation")

    def test_rltbox_rejects_non_box(self, dbp_62, tmp_path, capsys):
        inp = self.write(tmp_path, dbp_62)
        assert exit_code(["solve", inp, "--method", "rltbox"]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "assumption violated")

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--method", "fdr", "--level", "0"],
            ["solve", "--method", "fdr", "--level", "9"],
            ["fdr-check", "--level", "0"],
            ["fdr-check", "--level", "9"],
        ],
        ids=["fdr_zero", "fdr_above_np", "check_zero", "check_above_np"],
    )
    def test_fdr_rejects_level(self, argv, tmp_path, capsys):
        inp = self.write(tmp_path, two_block_fdp())
        assert exit_code(argv[:1] + [inp] + argv[1:]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "--level")

    @pytest.mark.parametrize(
        "faces",
        [
            [{"tau": "0", "pi": ["1"]}, {"tau": "1", "pi": ["1"]}],
            [{"tau": "0", "pi": ["-1"], "vertices": [1]}, {"tau": "1", "pi": ["1"]}],
            [{"vertices": [0, 1]}],
        ],
        ids=["cut_not_valid", "cut_disagrees_with_vertices", "no_supporting_row"],
    )
    @pytest.mark.parametrize(
        "argv, start",
        [(["solve", "--method", "fdr"], "bad instance file: "), (["fdr-check"], "bad FDP file: ")],
        ids=["solve", "fdr_check"],
    )
    def test_fdr_rejects_face(self, argv, start, faces, tmp_path, capsys):
        data = two_block_fdp().to_json()
        data["blocks"][1]["faces"] = faces
        inp = tmp_path / "fdp.json"
        inp.write_text(json.dumps(data))
        assert exit_code(argv[:1] + [str(inp)] + argv[1:]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, start)

    @pytest.mark.parametrize(
        "command", ["dd", "certify", "fdr-check", "verify-identities"]
    )
    def test_approx_only_for_solve(self, command, tmp_path, capsys):
        inp = tmp_path / "input.json"
        inp.write_text("{}")
        assert exit_code([command, str(inp), "--approx"]) == cli.EXIT_PARSE
        out = capsys.readouterr()
        assert out.out == "" and "--approx" in out.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--method", "hull", "--report"],
            ["solve", "--method", "ddr", "--report"],
            ["certify", "--out"],
        ],
        ids=["solve_report", "ddr_report", "certify_out"],
    )
    def test_unwritable_output(self, argv, dbp_62, tmp_path, capsys):
        inp = self.write(tmp_path, dbp_62)
        path = str(tmp_path / "missing" / "out.json")
        assert exit_code(argv[:1] + [inp] + argv[1:] + [path]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, f"cannot write {path}: ")

    def test_dd_unwritable_output(self, dbp_62, tmp_path, capsys):
        inp = tmp_path / "P.json"
        inp.write_text(json.dumps(dbp_62.P.to_json()))
        path = str(tmp_path / "missing" / "out.json")
        assert exit_code(["dd", str(inp), "--out", path]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, f"cannot write {path}: ")

    @pytest.mark.parametrize("orders", ["1,x", "1,1"], ids=["not_an_integer", "repeated_index"])
    def test_de_rejects_orders(self, orders, dbp_62, tmp_path, capsys):
        inp = tmp_path / "dbp62.json"
        inp.write_text(json.dumps(dbp_62.to_json()))
        argv = ["solve", str(inp), "--method", "de", "--level", "2", "--orders", orders]
        assert exit_code(argv) == cli.EXIT_PARSE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "args, start",
        [
            (["--orders", ";"], "bad --orders"),
            (["--theta-cap", "-1"], "--theta-cap"),
            (["--jobs", "0"], "--jobs"),
            (["--jobs", "-2"], "--jobs"),
        ],
        ids=["no_order", "negative_theta_cap", "zero_jobs", "negative_jobs"],
    )
    def test_de_rejects_option(self, args, start, dbp_62, tmp_path, capsys):
        inp = self.write(tmp_path, dbp_62)
        assert exit_code(["solve", inp, "--method", "de", "--level", "1"] + args) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, start)

    @staticmethod
    def write_cert(tmp_path, dbp_62, edit=None):
        """dbp_62's certificate as written by ``certify --out``, edited."""
        inp = TestCliBadInput.write(tmp_path, dbp_62, "cert_inst.json")
        path = tmp_path / "cert.json"
        assert cli.main(["certify", inp, "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        if edit:
            edit(data)
        path.write_text(json.dumps(data))
        return str(path)

    def test_check_other_instance(self, dbp_62, tmp_path, capsys):
        cert = self.write_cert(tmp_path, dbp_62)
        inp = self.write(tmp_path, box3_bilinear())
        capsys.readouterr()
        assert exit_code(["certify", inp, "--check", cert]) == cli.EXIT_VERIFY
        out = capsys.readouterr()
        assert out.out.startswith("FAIL: certificate has 2 x and 2 y variables") and out.err == ""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("z"),
            lambda d: d["terms"][0].update(weight="1/x"),
            lambda d: d["terms"][0].update(pfactors=["0"]),
        ],
        ids=["missing_key", "bad_rational", "index_not_int"],
    )
    def test_check_rejects_file(self, edit, dbp_62, tmp_path, capsys):
        cert = self.write_cert(tmp_path, dbp_62, edit)
        inp = self.write(tmp_path, dbp_62)
        capsys.readouterr()
        assert exit_code(["certify", inp, "--check", cert]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "bad certificate file: ")

    @pytest.mark.parametrize(
        "edit, diagnostic",
        [
            (lambda d: d["terms"][0].update(pfactors=[4]), "P row index outside 0..3"),
            (lambda d: d["terms"][0].update(pfactors=[-1]), "P row index outside 0..3"),
            (lambda d: d["terms"][0].update(yfactor=-1), "Py row index outside 0..4"),
        ],
        ids=["p_above_m", "p_negative", "py_negative"],
    )
    def test_check_row_index_outside(self, edit, diagnostic, dbp_62, tmp_path, capsys):
        cert = self.write_cert(tmp_path, dbp_62, edit)
        inp = self.write(tmp_path, dbp_62)
        capsys.readouterr()
        assert exit_code(["certify", inp, "--check", cert]) == cli.EXIT_VERIFY
        assert capsys.readouterr().out == f"FAIL: {diagnostic}\n"

    def test_check_empty_P(self, tmp_path, capsys):
        # z = 0 with no terms satisfies the identity; with no vertex in P
        # there is no point at which to sample z
        empty = HPolyhedron.make([[1, 0], [-1, 0], [0, 1], [0, -1]], [-1, 0, 1, 0])
        inst = DBPInstance.make(Q=[[1, 0], [0, 1]], P=empty, Py=box_polytope(2))
        inp = self.write(tmp_path, inst)
        cert = tmp_path / "zero.cert.json"
        cert.write_text(json.dumps({"delta": "0", "z": [], "n": 2, "ny": 2, "terms": []}))
        assert exit_code(["certify", inp, "--check", str(cert)]) == cli.EXIT_VERIFY
        assert capsys.readouterr().out == "FAIL: P has no vertex\n"

    @pytest.mark.parametrize("which", ["P", "Py"])
    @pytest.mark.parametrize(
        "argv", [["certify"], ["solve", "--method", "hull"]], ids=["certify", "hull"]
    )
    def test_unbounded_input(self, which, argv, tmp_path, capsys):
        box = box_polytope(2)
        orthant = HPolyhedron.make([[-1, 0], [0, -1]], [0, 0])
        inst = DBPInstance.make(
            Q=[[1, 0], [0, 1]], P=orthant if which == "P" else box, Py=orthant if which == "Py" else box
        )
        inp = self.write(tmp_path, inst)
        assert exit_code(argv[:1] + [inp] + argv[1:]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "assumption violated: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dd", "--init", "partial:x"],
            ["dd", "--init", "partial:9"],
            ["dd", "--init", "partial:-1"],
            ["dd", "--init", "bogus"],
            ["verify-identities", "--samples", "x"],
            ["verify-identities", "--samples", "-3"],
        ],
        ids=["partial_not_int", "partial_above_n", "partial_negative", "unknown_init",
             "samples_not_int", "samples_negative"],
    )
    def test_bad_option(self, argv, tmp_path, capsys):
        inp = tmp_path / "box.json"
        inp.write_text(json.dumps(box_polytope(2).to_json()))
        assert exit_code(argv[:1] + [str(inp)] + argv[1:]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "bad ")

    @pytest.mark.parametrize("init", ["orthant", "partial:1"])
    def test_init_without_orthant_rows(self, init, dbp_62, tmp_path, capsys):
        # x_2 >= 0 is not a row of dbp_62's P
        inp = tmp_path / "P.json"
        inp.write_text(json.dumps(dbp_62.P.to_json()))
        assert exit_code(["dd", str(inp), "--init", init]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "assumption violated: ")

    @pytest.mark.parametrize("top", [[], "text"], ids=["array", "string"])
    @pytest.mark.parametrize(
        "argv, start",
        [
            (["dd"], "bad polytope file: "),
            (["verify-identities"], "bad polytope file: "),
            (["certify"], "bad instance file: "),
            (["solve", "--method", "hull"], "bad instance file: "),
            (["fdr-check"], "bad FDP file: "),
        ],
        ids=["dd", "verify_identities", "certify", "solve", "fdr_check"],
    )
    def test_top_level_not_an_object(self, argv, start, top, tmp_path, capsys):
        inp = tmp_path / "input.json"
        inp.write_text(json.dumps(top))
        assert exit_code(argv[:1] + [str(inp)] + argv[1:]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, start)

    def test_certificate_not_an_object(self, dbp_62, tmp_path, capsys):
        inp = self.write(tmp_path, dbp_62)
        cert = tmp_path / "cert.json"
        cert.write_text("[]")
        assert exit_code(["certify", inp, "--check", str(cert)]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "bad certificate file: ")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(constraints=5),
            lambda d: d["constraints"].append(5),
            lambda d: d["constraints"][0].update(coeffs=3),
            lambda d: d["constraints"][0].update(coeffs=["1/0", "0"]),
            lambda d: d["constraints"][0].update(rhs=True),
        ],
        ids=["constraints_not_list", "constraint_not_object", "coeffs_not_list",
             "zero_denominator", "bool_rhs"],
    )
    @pytest.mark.parametrize("command", ["dd", "verify-identities"])
    def test_bad_polytope_content(self, command, edit, tmp_path, capsys):
        data = box_polytope(2).to_json()
        edit(data)
        inp = tmp_path / "P.json"
        inp.write_text(json.dumps(data))
        assert exit_code([command, str(inp)]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "bad polytope file: ")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(P=[1]),
            lambda d: d.update(cx=5),
            lambda d: d.update(c0="1/0"),
            lambda d: d["Q"][0].__setitem__(0, True),
            lambda d: d["Q"][1].__setitem__(1, False),
        ],
        ids=["P_not_object", "cx_not_list", "c0_zero_denominator", "Q_true", "Q_false"],
    )
    @pytest.mark.parametrize(
        "argv", [["certify"], ["solve", "--method", "hull"]], ids=["certify", "hull"]
    )
    def test_bad_instance_content(self, argv, edit, dbp_62, tmp_path, capsys):
        data = dbp_62.to_json()
        edit(data)
        inp = tmp_path / "inst.json"
        inp.write_text(json.dumps(data))
        assert exit_code(argv[:1] + [str(inp)] + argv[1:]) == cli.EXIT_PARSE
        self.assert_one_line_error(capsys, "bad instance file: ")

    def test_manifest_closes_input(self, dbp_62, tmp_path):
        inp = self.write(tmp_path, dbp_62)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cli.main(["certify", inp, "--out", str(tmp_path / "c.json")]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
