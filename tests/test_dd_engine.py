"""The double description engine: golden runs, ledger, closed forms, pruning."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest
import sympy

from barydd import (
    EmptyInterior,
    HPolyhedron,
    InitPreconditionViolated,
    dd_init,
    dd_run,
    dd_step,
    dehomogenize,
    enumerate_vertices_oracle,
    homogenize,
    ledger_verify,
    prune_redundant,
)
from barydd.dd_engine import Frf, _canonical_column, phase1_order
from barydd.exactmath import Poly, RatFun, rf_equal
from barydd.linalg import dot
from closed_forms import (
    NotSimple,
    closed_form_box,
    closed_form_tworow,
    cpr_structurally_nonneg,
    cpr_value,
    dehomogenized,
    product_coords,
    warren_simple,
)
from conftest import box_polytope, orthant_polytope


def aff(nv, c0, cs):
    return Poly.affine(nv, c0, [0] + list(cs))


def linear_precision_holds(state):
    nv = state.cone.n + 1
    for r in range(nv):
        acc = RatFun.const(nv, 0)
        for col, f in zip(state.R, state.mu):
            if col[r]:
                acc = acc + f.scale(col[r])
        for col, f in zip(state.L, state.theta):
            if col[r]:
                acc = acc + f.scale(col[r])
        if not rf_equal(acc, RatFun.variable(nv, r)):
            return False
    return True


def match_by_ray(state, rays, coords):
    got = {_canonical_column(c): m for c, m in zip(state.R, state.mu)}
    for ray, coord in zip(rays, coords):
        key = _canonical_column(tuple(F(x) for x in ray))
        if key not in got or not rf_equal(got[key], coord):
            return False
    return len(rays) == state.p


class TestGolden51:
    """The 8-vertex simple polytope: printed matrix and mu_1 formula."""

    PRINTED_R = [
        (1, 0, 0, 0),
        (1, 0, F(1, 2), 0),
        (1, 1, 0, 0),
        (1, F(6, 7), F(2, 7), 0),
        (1, 0, 0, 3),
        (1, 0, F(1, 2), F(5, 2)),
        (1, 1, 0, 2),
        (1, F(6, 7), F(2, 7), F(13, 7)),
    ]

    def run(self, poly_51):
        return dd_run(poly_51)

    def test_columns_match_printed_order(self, poly_51):
        V, _ = dehomogenized(self.run(poly_51))
        assert [tuple(c) for c in V] == [tuple(map(F, c)) for c in self.PRINTED_R]

    def test_mu1_formula(self, poly_51):
        _, lam = dehomogenized(self.run(poly_51))
        num = aff(4, 3, [-1, -1, -1]) * aff(4, 2, [-2, -1, 0]) * aff(4, 2, [-1, -4, 0])
        den = (aff(4, 2, [-1, -1, 0]) * aff(4, 3, [-1, -1, 0])).scale(2)
        assert rf_equal(lam[0], RatFun(num, den))

    def test_partition_of_unity(self, poly_51):
        _, lam = dehomogenized(self.run(poly_51))
        total = RatFun.const(4, 0)
        for f in lam:
            total = total + f
        assert rf_equal(total, RatFun.const(4, 1))

    def test_vertex_indicator(self, poly_51):
        V, lam = dehomogenized(self.run(poly_51))
        for j, fj in enumerate(lam):
            for i, col in enumerate(V):
                assert fj.eval(col) == (1 if i == j else 0)

    def test_ledger_every_step(self, poly_51):
        run = self.run(poly_51)
        for i in range(len(run.entries)):
            assert ledger_verify(run.states[i], run.states[i + 1], run.entries[i])

    def test_linear_precision_every_level(self, poly_51):
        run = self.run(poly_51)
        for st in run.states:
            assert linear_precision_holds(st)

    def test_warren_agrees(self, poly_51):
        verts, omegas = warren_simple(poly_51)
        V, lam = dehomogenized(self.run(poly_51))
        by_vertex = dict(zip(verts, omegas))
        for col, f in zip(V, lam):
            assert rf_equal(f, by_vertex[tuple(col[1:])])

    def test_warren_denominator(self, poly_51):
        _, omegas = warren_simple(poly_51)
        want = (aff(4, -2, [1, 1, 0]) * aff(4, -3, [1, 1, 0])).scale(2)
        assert omegas[0].den == want or omegas[0].den == want.scale(
            omegas[0].den.leading()[1] / want.leading()[1]
        )


@pytest.fixture(scope="module")
def run53(poly_53):
    return dd_run(poly_53)


class TestGolden53:
    """Pruning, the printed inter-level relations, and the beta expansion."""

    @staticmethod
    def level_map(run53, steps):
        st = run53.states[steps]
        V, lam = dehomogenize(st.R, list(st.mu))
        return {tuple(c[1:]): f for c, f in zip(V, lam)}

    def test_raw_columns(self, run53, poly_53):
        V, _ = dehomogenized(run53)
        pts = sorted(tuple(c[1:]) for c in V)
        redundant = [
            (F(0), F(7, 13), F(45, 13)),
            (F(0), F(8, 15), F(52, 15)),
            (F(1), F(2, 5), F(13, 5)),
            (F(1), F(9, 13), F(30, 13)),
        ]
        oracle = enumerate_vertices_oracle(poly_53)
        assert pts == sorted(oracle + redundant)

    def test_prune_drops_exactly_the_four(self, run53, poly_53):
        pruned = prune_redundant(run53.final)
        V, _ = dehomogenize(pruned.R, list(pruned.mu))
        assert sorted(tuple(c[1:]) for c in V) == enumerate_vertices_oracle(poly_53)

    def test_prune_minimal_state_unchanged(self, poly_51):
        st = dd_run(poly_51).final
        pruned = prune_redundant(st)
        assert pruned.R == st.R and len(pruned.mu) == len(st.mu)

    def test_pruned_coordinate_matches_warren(self, run53, poly_53):
        pruned = prune_redundant(run53.final)
        V, lam = dehomogenize(pruned.R, list(pruned.mu))
        verts, omegas = warren_simple(poly_53)
        by_vertex = dict(zip(verts, omegas))
        hat = (F(0), F(0), F(4))
        i = [tuple(c[1:]) for c in V].index(hat)
        assert rf_equal(lam[i], by_vertex[hat])
        # and the printed closed form with d(x) spelled out
        dx = Poly(4, {
            (0, 2, 0, 0): F(5), (0, 1, 1, 0): F(12), (0, 1, 0, 1): F(9),
            (0, 0, 2, 0): F(7), (0, 0, 1, 1): F(11), (0, 0, 0, 2): F(4),
            (0, 1, 0, 0): F(-55), (0, 0, 1, 0): F(-63), (0, 0, 0, 1): F(-48),
            (0, 0, 0, 0): F(140),
        })
        x3 = Poly.variable(4, 3)
        want = RatFun(x3 * aff(4, 7, [-1, -4, -1]) * aff(4, 5, [-2, -1, -1]), dx)
        assert rf_equal(lam[i], want)

    def test_fold_identity(self, run53, poly_53):
        lvl3 = self.level_map(run53, 6)
        pruned = prune_redundant(run53.final)
        V, lam = dehomogenize(pruned.R, list(pruned.mu))
        hat = (F(0), F(0), F(4))
        i = [tuple(c[1:]) for c in V].index(hat)
        comb = (
            lvl3[hat]
            + lvl3[(F(0), F(7, 13), F(45, 13))].scale(F(6, 13))
            + lvl3[(F(0), F(8, 15), F(52, 15))].scale(F(7, 15))
        )
        assert rf_equal(lam[i], comb)

    def test_mu3_hat_closed_form(self, run53):
        lvl3 = self.level_map(run53, 6)
        dx = Poly(4, {
            (0, 2, 0, 0): F(5), (0, 1, 1, 0): F(12), (0, 1, 0, 1): F(9),
            (0, 0, 2, 0): F(7), (0, 0, 1, 1): F(11), (0, 0, 0, 2): F(4),
            (0, 1, 0, 0): F(-55), (0, 0, 1, 0): F(-63), (0, 0, 0, 1): F(-48),
            (0, 0, 0, 0): F(140),
        })
        x3 = Poly.variable(4, 3)
        num = x3.scale(5) * (aff(4, -7, [1, 4, 1]) ** 2) * aff(4, -5, [2, 1, 1])
        den = dx * aff(4, -35, [5, 7, 5])
        assert rf_equal(lvl3[(F(0), F(0), F(4))], RatFun(num, den))

    def test_level1_relation(self, run53):
        lvl1 = self.level_map(run53, 4)
        lvl2 = self.level_map(run53, 5)
        xdot = (F(0), F(0), F(7))
        assert rf_equal(lvl1[xdot], RatFun.variable(4, 3).scale(F(1, 7)))
        rel = lvl2[(F(0), F(0), F(5))].scale(F(5, 7)) + lvl2[
            (F(0), F(2, 3), F(13, 3))
        ].scale(F(13, 21))
        assert rf_equal(lvl1[xdot], rel)

    def test_neg_side_relation(self, run53):
        lvl2 = self.level_map(run53, 5)
        lvl3 = self.level_map(run53, 6)
        rel = (
            lvl3[(F(0), F(0), F(4))].scale(F(4, 5))
            + lvl3[(F(0), F(7, 13), F(45, 13))].scale(F(9, 13))
            + lvl3[(F(1), F(0), F(3))].scale(F(3, 5))
            + lvl3[(F(1), F(9, 13), F(30, 13))].scale(F(6, 13))
        )
        assert rf_equal(lvl2[(F(0), F(0), F(5))], rel)

    def test_pos_side_relation(self, run53):
        # multiplier of the retained origin changes across the level:
        # coefficients (1, 1/5, 1/5) on (0,0,0), (0,0,4), (0,8/15,52/15)
        lvl2 = self.level_map(run53, 5)
        lvl3 = self.level_map(run53, 6)
        origin = (F(0), F(0), F(0))
        rel = (
            lvl3[origin]
            + lvl3[(F(0), F(0), F(4))].scale(F(1, 5))
            + lvl3[(F(0), F(8, 15), F(52, 15))].scale(F(1, 5))
        )
        assert rf_equal(lvl2[origin], rel)

    def test_beta_expansion_coefficients(self, run53):
        # slacks of the last row over the level-2 dehomogenized points
        st = run53.states[5]
        V, _ = dehomogenize(st.R, list(st.mu))
        slack = {tuple(c[1:]): 4 - sum(c[1:]) for c in V}
        want = {
            (F(0), F(0), F(0)): F(4),
            (F(0), F(7, 4), F(0)): F(9, 4),
            (F(0), F(0), F(5)): F(-1),
            (F(0), F(2, 3), F(13, 3)): F(-1),
            (F(5, 2), F(0), F(0)): F(3, 2),
            (F(13, 7), F(9, 7), F(0)): F(6, 7),
        }
        assert slack == want
        entry = run53.entries[5]
        assert entry.Ntot is not None
        # N_tot is the positive-slack part of the row expression
        nv = 4
        pos = RatFun.const(nv, 0)
        raw = {tuple(c): f for c, f in zip(st.R, st.mu)}
        for col, f in raw.items():
            s = dot(run53.cone.Abar[5], col)
            if s > 0:
                pos = pos + f.scale(s)
        assert rf_equal(entry.Ntot, pos)

    def test_ledger_and_cpr(self, run53):
        for i in range(len(run53.entries)):
            assert ledger_verify(run53.states[i], run53.states[i + 1], run53.entries[i])
        st = run53.final
        for c, m in zip(st.cpr, st.mu):
            assert c is not None
            assert rf_equal(cpr_value(st.pool, c), m)
            assert cpr_structurally_nonneg(st.pool, c)

    def test_interior_positivity(self, run53, poly_53):
        V, lam = dehomogenized(run53)
        verts = enumerate_vertices_oracle(poly_53)
        rng = random.Random(5)
        for _ in range(20):
            ws = [F(rng.randint(1, 30)) for _ in verts]
            tot = sum(ws)
            x = tuple(sum(w * v[j] for w, v in zip(ws, verts)) / tot for j in range(3))
            for f in lam:
                assert f.eval((F(1),) + x) > 0


class TestInit:
    def test_default(self, poly_51):
        cone = homogenize(poly_51)
        st = dd_init(cone, cone.n)
        assert st.p == 1 and st.q == 3
        assert st.R[0] == (F(1), F(0), F(0), F(0))
        assert rf_equal(st.mu[0], RatFun.variable(4, 0))
        assert dd_run(poly_51).order == (0, 1, 2, 3, 4, 5)

    def test_orthant(self, unit_box):
        P = unit_box(3)
        cone = homogenize(P)
        st = dd_init(cone, 0)
        assert st.q == 0 and st.p == 4
        for i, f in enumerate(st.mu):
            assert rf_equal(f, RatFun.variable(4, i))

    def test_orthant_requires_explicit_rows(self):
        P = HPolyhedron.make([[1, 0], [0, 1]], [1, 1])  # no x >= 0 rows
        with pytest.raises(InitPreconditionViolated):
            dd_init(homogenize(P), 0)

    def test_partial_orthant(self):
        # x2 >= 0 explicit, x1 unconstrained below
        P = HPolyhedron.make([[0, -1], [1, 0], [-1, 0], [0, 1]], [0, 1, 1, 1])
        st = dd_init(homogenize(P), 1)
        assert st.q == 1 and st.p == 2
        assert st.L[0] == (F(0), F(1), F(0))
        assert [c[0] for c in st.R] == [F(1), F(0)]

    @pytest.mark.parametrize("varrho", [-1, 3, 4, None])
    def test_partial_orthant_varrho_outside_range(self, varrho):
        # above n, the start had all-zero lineality columns (q = varrho);
        # below 0, it failed only by chance, on x_0 >= 0.  dd_run reads no
        # varrho as the default start, varrho = n
        P = HPolyhedron.make([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        with pytest.raises(InitPreconditionViolated, match=rf"^varrho = {varrho} is outside 0\.\.2$"):
            dd_init(homogenize(P), varrho)
        if varrho is None:
            assert run_record(dd_run(P, varrho=varrho)) == run_record(dd_run(P, varrho=P.n))
        else:
            with pytest.raises(InitPreconditionViolated):
                dd_run(P, varrho=varrho)

    def test_phase1_41(self, poly_41):
        order = phase1_order(poly_41, range(poly_41.m))
        assert order == [0, 1, 2, 3]
        run = dd_run(poly_41, order=order)
        st = run.states[2]
        assert st.q == 0  # lineality exhausted after two steps
        assert [e.case for e in run.entries[:2]] == ["lineality", "lineality"]
        for f in st.mu:
            assert f.num.degree() <= 1 and f.den.is_constant()  # all affine

    def test_phase1_change_of_vars(self, poly_53):
        # after phase 1 the rays are, up to positive scaling, the columns of
        # B^-1, B being the rows phase 1 used stacked under x0: the paper's
        # change of variables, here by sympy's inverse
        order = phase1_order(poly_53, range(poly_53.m))
        st = dd_run(poly_53, order=order).states[poly_53.n]
        assert st.q == 0
        cone = homogenize(poly_53)
        B = sympy.Matrix([[1] + [0] * poly_53.n] + [list(cone.Abar[r]) for r in order[: poly_53.n]])
        inverse = [tuple(F(int(x.p), int(x.q)) for x in B.inv().col(j)) for j in range(B.cols)]
        assert {_canonical_column(c) for c in inverse} == {_canonical_column(c) for c in st.R}

    def test_skipped_orthant_rows_are_ray_steps(self, unit_box):
        # the x_i >= 0 rows of the start are not marked processed: a run
        # meets each with an ordinary ray step, N+ its own column, N- empty
        run = dd_run(unit_box(2), varrho=0)
        assert run.states[0].processed == ()
        for entry in run.entries[:2]:
            assert (entry.case, entry.Npos, entry.Nneg, entry.dropped) == ("ray", (1,), (), ())
        assert [(e.Nzero, e.perm) for e in run.entries[:2]] == [((0, 2), (0, 2, 1))] * 2


class TestStop:
    @pytest.mark.parametrize("init", ["default", "partial_orthant"])
    def test_stopped_run_is_a_prefix(self, poly_53, init):
        # partial_orthant takes x2, x3 >= 0 from rows 1 and 2
        order = [3, 1, 5, 0, 2, 4]
        varrho = 1 if init == "partial_orthant" else None
        whole = dd_run(poly_53, order=order, varrho=varrho)
        for steps in range(len(order) + 1):
            run = dd_run(poly_53, order=order, varrho=varrho,
                         stop=lambda st: st.k >= steps)
            assert run.order == tuple(order[:steps])
            assert len(run.states) == steps + 1 and len(run.entries) == steps
            for st, ref in zip(run.states, whole.states):
                assert (st.R, st.L) == (ref.R, ref.L)
                assert [f.to_json() for f in st.mu + st.theta] == [
                    f.to_json() for f in ref.mu + ref.theta
                ]

    def test_stop_checks_the_initial_state(self, poly_53):
        run = dd_run(poly_53, stop=lambda st: True)
        assert run.order == () and run.entries == [] and len(run.states) == 1


class TestStepGoldens:
    def test_orthant_first_box_row(self):
        # n = 2, process x1 <= 1 from the orthant start
        P = HPolyhedron.make([[-1, 0], [0, -1], [1, 0], [0, 1]], [0, 0, 1, 1])
        cone = homogenize(P)
        st = dd_init(cone, 0)
        nxt, entry = dd_step(st, 2)
        assert entry.beta == (F(1), F(-1), F(0))
        assert entry.Npos == (0,) and entry.Nneg == (1,) and entry.Nzero == (2,)
        nv = 3
        want_mu = [
            RatFun.variable(nv, 2),
            RatFun.from_poly(Poly.variable(nv, 0) - Poly.variable(nv, 1)),
            RatFun.variable(nv, 1),
        ]
        assert all(rf_equal(a, b) for a, b in zip(nxt.mu, want_mu))
        assert list(nxt.R) == [
            (F(0), F(0), F(1)),
            (F(1), F(0), F(0)),
            (F(1), F(1), F(0)),
        ]

    def test_single_inequality_recovery(self):
        # one constraint a0 + a.x >= 0 with a = (2, -3), a0 = 5, so the pivot
        # is the first nonzero coefficient
        P = HPolyhedron.make([[-2, 3]], [5])
        run = dd_run(P)
        st = run.final
        nv = 3
        a_abs = F(2)
        expr = Poly.affine(nv, 0, [5, 2, -3])  # homogenized 5x0 + 2x1 - 3x2
        assert rf_equal(st.mu[0], RatFun.from_poly(expr).scale(1 / a_abs))
        assert rf_equal(st.mu[1], RatFun.variable(nv, 0).scale(1 / a_abs))
        assert st.q == 1  # one lineality direction remains

    def test_ntot_golden_53(self, poly_53):
        run = dd_run(poly_53)
        entry = run.entries[5]
        nt = entry.Ntot.subs_one(0)
        den = Poly.affine(4, -35, [0, 5, 7, 5])
        dx = Poly(4, {
            (0, 2, 0, 0): F(5), (0, 1, 1, 0): F(12), (0, 1, 0, 1): F(9),
            (0, 0, 2, 0): F(7), (0, 0, 1, 1): F(11), (0, 0, 0, 2): F(4),
            (0, 1, 0, 0): F(-55), (0, 0, 1, 0): F(-63), (0, 0, 0, 1): F(-48),
            (0, 0, 0, 0): F(140),
        })
        assert rf_equal(nt, RatFun(-dx, den))


class TestEmptyAndDrops:
    def test_empty_interior(self):
        P = HPolyhedron.make([[1], [-1]], [-1, -1])  # x <= -1 and x >= 1
        with pytest.raises(EmptyInterior):
            dd_run(P)

    def test_implied_zero_tracking(self):
        # x >= 0 with x1 + x2 <= 0 collapses to the origin ray
        P = HPolyhedron.make([[-1, 0], [0, -1], [1, 1]], [0, 0, 0])
        run = dd_run(P, order=[2], varrho=0)
        st = run.final
        assert st.E == (2,)
        entry = run.entries[-1]
        assert entry.k == 1 and entry.Npos == () and entry.dropped == (1, 2)
        assert st.p == 1 and st.fmu == (run.states[0].fmu[0],)
        assert ledger_verify(run.states[0], st, entry)
        assert st.had_empty_npos


class TestClosedForms:
    @pytest.mark.parametrize("n,T", [(2, (1, 2)), (3, (1, 3)), (3, ()), (4, (2, 4))])
    def test_box_matches_dd(self, unit_box, n, T):
        P = unit_box(n)
        rays, coords = closed_form_box(n, T)
        order = [n + (i - 1) for i in T]  # rows x_i <= 1 sit after the x >= 0 block
        st = dd_run(P, order=order, varrho=0).final
        assert match_by_ray(st, rays, coords)

    def test_box_formula_n2(self):
        rays, coords = closed_form_box(2, (1, 2))
        x0, x1, x2 = (Poly.variable(3, i) for i in range(3))
        table = dict(zip(rays, coords))
        assert rf_equal(table[(1, 0, 0)], RatFun((x0 - x1) * (x0 - x2), x0))
        assert rf_equal(table[(1, 1, 1)], RatFun(x1 * x2, x0))

    def test_box_empty_T(self):
        rays, coords = closed_form_box(2, ())
        assert rf_equal(coords[0], RatFun.variable(3, 0))  # nu = x0 alone

    def test_tworow_mixed_golden(self):
        rays, coords = closed_form_tworow([2, 1], [1, 2])
        table = dict(zip(rays, coords))
        mixed = table[(F(3), F(1), F(1))]
        x0, x1, x2 = (Poly.variable(3, i) for i in range(3))
        assert rf_equal(mixed, RatFun(x1 * x2, x0 - x1 - x2))

    def test_tworow_degenerate(self):
        rays, coords = closed_form_tworow([1, 2], [1, 2])
        table = dict(zip(rays, coords))
        assert rf_equal(table[(F(1), F(1), F(0))], RatFun.variable(3, 1))
        x0, x1, x2 = (Poly.variable(3, i) for i in range(3))
        assert rf_equal(table[(F(1), F(0), F(0))], RatFun.from_poly(x0 - x1 - x2.scale(2)))

    def test_tworow_random_vs_dd(self):
        rng = random.Random(99)
        done = 0
        while done < 20:
            n = rng.randint(1, 4)
            a = [F(rng.randint(0, 4)) for _ in range(n)]
            b = [F(rng.randint(0, 4)) for _ in range(n)]
            rows = []
            rhs = []
            for i in range(n):
                row = [F(0)] * n
                row[i] = F(-1)
                rows.append(row)
                rhs.append(F(0))
            rows.append(list(a))
            rhs.append(F(1))
            rows.append(list(b))
            rhs.append(F(1))
            P = HPolyhedron.make(rows, rhs)
            rays, coords = closed_form_tworow(a, b)
            if a == b:
                st = dd_run(P, order=[n], varrho=0).final
            else:
                st = dd_run(P, order=[n, n + 1], varrho=0).final
            assert match_by_ray(st, rays, coords)
            done += 1

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            closed_form_tworow([-1], [0])


class TestWarren:
    def test_simplex_affine(self):
        # simplex x >= 0, x1 + x2 <= 1: coordinates are affine
        P = HPolyhedron.make([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        verts, coords = warren_simple(P)
        nv = 3
        table = dict(zip(verts, coords))
        assert rf_equal(table[(F(0), F(0))], RatFun.from_poly(aff(nv, 1, [-1, -1])))
        assert rf_equal(table[(F(1), F(0))], RatFun.variable(nv, 1))

    def test_not_simple(self):
        # square pyramid apex is tight at 4 facets
        P = HPolyhedron.make(
            [[-1, 0, 0], [0, -1, 0], [1, 0, 1], [0, 1, 1], [0, 0, -1]],
            [0, 0, 1, 1, 0],
        )
        with pytest.raises(NotSimple):
            warren_simple(P)


class TestProductCoords:
    def test_unit_interval_product(self):
        v = [(F(0),), (F(1),)]
        c = [RatFun.from_poly(Poly.affine(2, 1, [0, -1])), RatFun.variable(2, 1)]
        verts, coords = product_coords(v, c, v, c)
        assert verts == [(0, 0), (0, 1), (1, 0), (1, 1)]
        x1, x2 = Poly.variable(3, 1), Poly.variable(3, 2)
        one = Poly.const(3, 1)
        assert rf_equal(coords[0], RatFun.from_poly((one - x1) * (one - x2)))
        assert rf_equal(coords[3], RatFun.from_poly(x1 * x2))

    def test_single_point_second_factor(self):
        v1 = [(F(0),), (F(1),)]
        c1 = [RatFun.from_poly(Poly.affine(2, 1, [0, -1])), RatFun.variable(2, 1)]
        v2 = [(F(5),)]
        c2 = [RatFun.const(2, 1)]
        verts, coords = product_coords(v1, c1, v2, c2)
        assert verts == [(0, 5), (1, 5)]
        for a, b in zip(coords, c1):
            assert rf_equal(a, b.remap(3, [0, 1]))

    def test_against_stacked_dd(self):
        # [0,1] x (triangle) vs DD on the stacked H-representation
        P1 = HPolyhedron.make([[-1], [1]], [0, 1])
        P2 = HPolyhedron.make([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
        bc1 = dd_run(P1)
        V1, lam1 = dehomogenized(bc1)
        bc2 = dd_run(P2)
        V2, lam2 = dehomogenized(bc2)
        verts, coords = product_coords(
            [tuple(c[1:]) for c in V1], lam1, [tuple(c[1:]) for c in V2], lam2
        )
        stacked = HPolyhedron.make(
            [
                [-1, 0, 0], [1, 0, 0],
                [0, -1, 0], [0, 0, -1], [0, 1, 1],
            ],
            [0, 1, 0, 0, 1],
        )
        run = dd_run(stacked, prune=True)
        V, lam = dehomogenized(run)
        table = {tuple(c[1:]): f for c, f in zip(V, lam)}
        for vert, coord in zip(verts, coords):
            assert rf_equal(table[vert], coord)


class TestOrderIndependenceOfSets:
    def test_pruned_sets_equal_across_orders(self, poly_51):
        base = None
        for order in ([0, 1, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2], [5, 1, 4, 0, 3, 2]):
            run = dd_run(poly_51, order=order, prune=True)
            V, _ = dehomogenized(run)
            pts = sorted(tuple(c[1:]) for c in V)
            if base is None:
                base = pts
            assert pts == base

    def test_lifted_rows_valid(self, poly_53):
        # at level k, unprocessed rows evaluated through R mu stay >= 0 on P
        run = dd_run(poly_53)
        st = run.states[4]
        rng = random.Random(17)
        verts = enumerate_vertices_oracle(poly_53)
        for t in range(5, 6):
            row = run.cone.Abar[t]
            lifted = RatFun.const(4, 0)
            for col, f in zip(st.R, st.mu):
                s = dot(row, col)
                if s:
                    lifted = lifted + f.scale(s)
            for _ in range(10):
                ws = [F(rng.randint(1, 9)) for _ in verts]
                tot = sum(ws)
                x = tuple(
                    sum(w * v[j] for w, v in zip(ws, verts)) / tot for j in range(3)
                )
                assert lifted.eval((F(1),) + x) >= 0


class TestDivisorScan:
    """``_reduce`` and ``FactorPool.factorize`` scan their candidate
    divisors once: a divisor that failed to divide is never tried again
    within the same call, since it cannot divide any quotient either."""

    @staticmethod
    def retries(P, monkeypatch):
        from barydd import dd_engine

        calls = []  # one set of failed divisors per open call

        def scoped(fn):
            def wrapper(*args, **kwargs):
                calls.append(set())
                try:
                    return fn(*args, **kwargs)
                finally:
                    calls.pop()
            return wrapper

        real_div = Poly.exact_div
        retried = []

        def exact_div(self, divisor):
            q = real_div(self, divisor)
            if calls:
                if divisor in calls[-1]:
                    retried.append(divisor)
                if q is None:
                    calls[-1].add(divisor)
            return q

        monkeypatch.setattr(dd_engine, "_reduce", scoped(dd_engine._reduce))
        monkeypatch.setattr(dd_engine.FactorPool, "factorize", scoped(dd_engine.FactorPool.factorize))
        monkeypatch.setattr(Poly, "exact_div", exact_div)
        dd_run(P, prune=True)
        return retried

    def test_poly_53(self, poly_53, monkeypatch):
        assert self.retries(poly_53, monkeypatch) == []

    def test_coords_polytope(self, monkeypatch):
        # the (3, 8) polytope of the benchmark's coords workload: x >= 0,
        # then rows with coefficients in [1,5] and rhs in [5,20]
        rng = random.Random(308)
        A = [[-int(j == i) for j in range(3)] for i in range(3)]
        b = [0] * 3
        for _ in range(5):
            A.append([rng.randint(1, 5) for _ in range(3)])
            b.append(rng.randint(5, 20))
        assert self.retries(HPolyhedron.make(A, b), monkeypatch) == []


def scan_factorize(pool, p, kind):
    """``FactorPool.factorize`` dividing every p, linear forms included, by
    the pool entries in one scan: the reference for the lookup."""
    ids = []
    mono = p.monomial_content()
    if any(mono):
        p = p.div_monomial(mono)
        for i, k in enumerate(mono):
            ids.extend([i] * k)
    scalar, prim = p.primitive()
    j = pool.nvars
    while j < len(pool.polys) and not prim.is_constant():
        q = prim.exact_div(pool.polys[j])
        if q is not None and not q.is_zero():
            s2, prim = q.primitive()
            ids.append(j)
            scalar *= s2
        else:
            j += 1
    if not prim.is_constant():
        sign = 1
        for j in ids:
            sign *= pool.cone_sign[j]
        ids.append(pool._register(prim, kind, 1 if scalar * sign > 0 else -1))
    else:
        scalar *= prim.constant_value()
    return scalar, tuple(sorted(ids))


class TestLinearLookup:
    """``FactorPool.factorize`` looks a linear form up in the pool instead
    of dividing it by the entries: the same (scalar, ids) and the same pool
    as the scan."""

    @staticmethod
    def polys(rng, nv):
        """Seeded polynomials over x0..x(nv-1): linear forms, some without
        x0 (a zero constant), their duplicates and scaled and negated
        copies, single-variable forms, and products of a form with a
        variable or with another form."""
        forms, out = [], []
        while len(out) < 400:
            r = rng.random()
            if forms and r < 0.35:
                p = rng.choice(forms).scale(rng.choice([F(1), F(-1), F(2), F(-3, 2), F(1, 7)]))
            elif r < 0.45:
                p = Poly.variable(nv, rng.randrange(nv)).scale(rng.choice([1, -2, F(5, 3)]))
            elif forms and r < 0.55:
                p = rng.choice(forms) * Poly.variable(nv, rng.randrange(nv))
            elif forms and r < 0.65:
                p = rng.choice(forms) * rng.choice(forms)
            else:
                coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nv)]
                if rng.random() < 0.4:
                    coeffs[0] = F(0)
                p = Poly.affine(nv, 0, coeffs)
                if p.is_zero():
                    continue
                forms.append(p)
            out.append(p)
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_same_as_scan(self, seed, monkeypatch):
        from barydd.dd_engine import FactorPool

        rng = random.Random(f"lookup-{seed}")
        nv = 3 + seed % 2
        got, want = FactorPool(nv), FactorPool(nv)
        real_div = Poly.exact_div
        divided = []
        monkeypatch.setattr(Poly, "exact_div", lambda a, b: divided.append(a) or real_div(a, b))
        linear = 0
        for p in self.polys(rng, nv):
            kind = rng.choice(["sum", "constraint"])
            divided.clear()
            result = got.factorize(p, kind)
            if p.div_monomial(p.monomial_content()).degree() == 1:
                linear += 1
                assert divided == []  # looked up, not divided
            assert result == scan_factorize(want, p, kind)
        assert linear > 150
        assert (got.polys, got.kinds, got.cone_sign) == (want.polys, want.kinds, want.cone_sign)


# --------------------------------------------------------------------------
# pruning by the rank test, against the LP-per-column prune
# --------------------------------------------------------------------------


def reference_lp_weights(R, j):
    """Bland-order solution of R[j] = sum_t nu_t R[t], nu >= 0, t != j, as
    {t: nu_t}; None when infeasible."""
    from barydd.lp import LPProblem, lp_solve

    others = [t for t in range(len(R)) if t != j]
    prob = LPProblem(sense="min")
    for t in others:
        prob.add_var(f"nu{t}", lb=F(0))
    for coord in range(len(R[j])):
        prob.add_row({f"nu{t}": R[t][coord] for t in others}, "=", R[j][coord], name=f"c{coord}")
    sol = lp_solve(prob)
    if sol.status != "optimal":
        return None
    return {t: sol.primal[f"nu{t}"] for t in others}


def reference_prune(state):
    """The prune that solves one LP per column and starts over after every
    fold: merge columns equal up to positive scaling, then fold any column
    that is a non-negative combination of the others."""
    from dataclasses import replace

    from barydd.dd_engine import cpr_combine, frf_add, frf_scale

    pool = state.pool
    R, fmu, cpr = list(state.R), list(state.fmu), list(state.cpr)

    def fold(t, j, w):
        fmu[t] = frf_add(pool, fmu[t], frf_scale(fmu[j], w))
        if cpr[t] is not None and cpr[j] is not None:
            cpr[t] = cpr_combine([(F(1), cpr[t]), (w, cpr[j])])
        else:
            cpr[t] = None

    i = 0
    while i < len(R):
        ci = _canonical_column(R[i])
        j = i + 1
        while j < len(R):
            if _canonical_column(R[j]) == ci:
                k0 = next(t for t, x in enumerate(R[i]) if x != 0)
                fold(i, j, R[j][k0] / R[i][k0])
                del R[j], fmu[j], cpr[j]
            else:
                j += 1
        i += 1
    changed = True
    while changed:
        changed = False
        for j in range(len(R)):
            if len(R) < 2:
                continue
            weights = reference_lp_weights(R, j)
            if weights is None:
                continue
            for t, w in weights.items():
                if w:
                    fold(t, j, w)
            del R[j], fmu[j], cpr[j]
            changed = True
            break
    return replace(state, R=tuple(R), fmu=tuple(fmu), cpr=tuple(cpr))


def prune_fields(state):
    pool = state.pool
    return (
        state.R,
        state.fmu,
        state.cpr,
        tuple((m.num, m.den) for m in state.mu),
        (tuple(pool.polys), tuple(pool.kinds), tuple(pool.cone_sign), frozenset(pool.certified)),
    )


def random_polyhedron(rng, n, kind):
    """x >= 0 and random rows: 'bounded' adds rows with positive
    coefficients; 'apex' adds n + 1 rows through (1, ..., 1), a degenerate
    vertex; 'equality' a bounded polytope cut by an equality written as two
    rows, an implied equality of the DD run; 'unbounded' rows with mixed
    signs, which may leave recession rays; 'centered' the box [-2, 2]^n
    cut by rows with mixed signs, so the columns of a state need not lie in
    x >= 0; 'parallel' a bounded polytope with scaled or shifted copies of
    its rows; 'plane' a polygon in the x1-x2 plane (x1, x2 >= 0 and three
    rows with mixed signs around (1, 1)) lifted by x_i <= 1 for i > 2."""
    A = [[-int(j == i) for j in range(n)] for i in range(n)]
    b = [0] * n
    if kind == "centered":
        A += [[int(j == i) for j in range(n)] for i in range(n)]
        b = [2] * (2 * n)
        for _ in range(2):
            A.append([rng.randint(-2, 2) for _ in range(n)])
            b.append(rng.randint(1, 3))
    if kind in ("bounded", "equality", "parallel"):
        for _ in range(2 if kind == "parallel" else rng.randint(2, 3)):
            A.append([rng.randint(1, 4) for _ in range(n)])
            b.append(rng.randint(4, 12))
    if kind == "parallel":
        for i in rng.sample([n, n + 1], rng.randint(1, 2)):
            c = rng.choice([1, 2])
            A.append([c * x for x in A[i]])
            b.append(c * b[i] + rng.randint(0, 2))
    if kind == "plane":
        for _ in range(3):
            a = [0, 0]
            while a == [0, 0]:
                a = [rng.randint(-1, 1), rng.randint(-1, 1)]
            A.append(a + [0] * (n - 2))
            b.append(a[0] + a[1] + rng.randint(1, 2))
        A += [[int(j == i) for j in range(n)] for i in range(2, n)]
        b += [1] * (n - 2)
    if kind == "apex":
        for _ in range(n + 1):
            row = [rng.randint(1, 3) for _ in range(n)]
            A.append(row)
            b.append(sum(row))
    if kind == "equality":
        row = [rng.randint(0, 3) for _ in range(n)]
        rhs = rng.randint(0, 2)
        A += [row, [-c for c in row]]
        b += [rhs, -rhs]
    if kind == "unbounded":
        for _ in range(2):
            A.append([rng.randint(-1, 2) for _ in range(n)])
            b.append(rng.randint(1, 5))
    return HPolyhedron.make(A, b)


def raw_steps(run):
    """The unpruned state after each step of a pruned run: each step
    re-taken from the run's previous (pruned) state."""
    return run.states[:1] + [dd_step(st, row)[0] for st, row in zip(run.states, run.order)]


def reference_run(P, order, varrho=None):
    """dd_run(..., prune=True) with the reference prune: the pruned states."""
    cone = homogenize(P)
    states = [dd_init(cone, cone.n if varrho is None else varrho)]
    for row in order:
        raw, _ = dd_step(states[-1], row)
        states.append(reference_prune(raw))
    return states


def pruned_run_lps(monkeypatch, P, order=None, varrho=None):
    """dd_run(P, prune=True), or None when the cone is {0}, and the status
    of each LP its pruning solved, in order."""
    from barydd import dd_engine

    statuses = []
    real = dd_engine.lp_solve

    def counted(prob):
        sol = real(prob)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(dd_engine, "lp_solve", counted)
    try:
        run = dd_run(P, order=order, prune=True, varrho=varrho)
    except EmptyInterior:
        run = None
    monkeypatch.setattr(dd_engine, "lp_solve", real)
    return run, statuses


class TestPruneByRank:
    """``prune_redundant`` keeps a column without an LP when the rank test
    proves it extreme, in every state; its outputs equal the LP-per-column
    prune's."""

    KINDS = ("bounded", "apex", "equality", "unbounded", "centered", "parallel", "plane")
    CASES = [
        (kind, init, seed)
        for kind in KINDS
        for init in ("default", "orthant", "phase1", "partial:1")
        for seed in range(3)
        # the orthant inits need the x >= 0 rows that centered polytopes lack
        if kind != "centered" or init in ("default", "phase1")
    ]

    @staticmethod
    def case(kind, init, seed):
        rng = random.Random(f"{kind}-{init}-{seed}")
        # apex and centered polytopes stay in the plane: in 3-D some runs
        # take seconds
        n = {"apex": 2, "centered": 2}.get(kind) or rng.choice([3, 4] if kind == "plane" else [2, 3])
        P = random_polyhedron(rng, n, kind)
        order = list(range(P.m))
        rng.shuffle(order)
        if kind == "plane":
            # the rows in the x1-x2 plane first: from the default start,
            # the later ones are ray steps in states with lineality
            order.sort(key=lambda r: any(P.A[r][2:]))
        if init == "phase1":
            order = phase1_order(P, order)
        return P, order, {"orthant": 0, "partial:1": 1}.get(init)

    @pytest.mark.parametrize("kind, init, seed", CASES)
    def test_equals_reference_prune(self, kind, init, seed):
        P, order, varrho = self.case(kind, init, seed)
        try:
            want = reference_run(P, order, varrho)
        except EmptyInterior:
            with pytest.raises(EmptyInterior):
                dd_run(P, order=order, prune=True, varrho=varrho)
            return
        got = dd_run(P, order=order, prune=True, varrho=varrho).states
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert prune_fields(g) == prune_fields(w)

    def test_cases_cover_the_state_kinds(self):
        # the corpus above has states with and without lineality, duplicate
        # columns, implied equalities, and columns folded by the LP, in
        # states with lineality too
        seen = set()
        for kind, init, seed in self.CASES:
            P, order, varrho = self.case(kind, init, seed)
            try:
                run = dd_run(P, order=order, prune=True, varrho=varrho)
            except EmptyInterior:
                continue
            for raw, pruned in zip(raw_steps(run)[1:], run.states[1:]):
                keys = [_canonical_column(c) for c in raw.R]
                seen.add("lineality" if raw.q else "pointed")
                if len(set(keys)) < len(keys):
                    seen.add("duplicates")
                if raw.E:
                    seen.add("implied equality")
                if pruned.p < len(set(keys)):
                    seen.add("fold with lineality" if raw.q else "fold")
        assert seen == {"lineality", "pointed", "duplicates", "implied equality", "fold", "fold with lineality"}

    def test_every_pruning_lp_folds(self, monkeypatch):
        # a column that fails the rank test is a non-negative combination
        # of the others, so its LP is optimal: no LP only confirms a column
        statuses = []
        for kind, init, seed in self.CASES:
            statuses += pruned_run_lps(monkeypatch, *self.case(kind, init, seed))[1]
        assert statuses and set(statuses) == {"optimal"}

    def test_pruning_lp_counts(self, monkeypatch, poly_53):
        # every column of a box is extreme in every state, lineality or
        # not, and the phase-1 order of poly_53 solves 11 LPs, each a fold
        # (5, 9, 14 and 16 LPs when states with lineality were decided by LP)
        for n in (3, 4, 5):
            assert pruned_run_lps(monkeypatch, box_polytope(n))[1] == []
        order = phase1_order(poly_53, [3, 4, 5, 0, 1, 2])
        assert pruned_run_lps(monkeypatch, poly_53, order)[1] == ["optimal"] * 11

    def test_lp_that_contradicts_the_rank_test_raises(self, monkeypatch, poly_53):
        # column 5 of poly_53's unpruned final state fails the rank test, so
        # an LP that finds it no combination of the others cannot be right
        from barydd import dd_engine
        from barydd.lp import LPSolution

        raw = dd_run(poly_53).final
        monkeypatch.setattr(dd_engine, "lp_solve", lambda prob: LPSolution("infeasible"))
        with pytest.raises(ArithmeticError, match="column 5 fails the rank test"):
            prune_redundant(raw)

    def test_split_column_is_merged_back(self, poly_53):
        # a column split into R and 2R, each with a third of its coordinate
        from dataclasses import replace

        from barydd.dd_engine import cpr_scale, frf_scale

        st = dd_run(poly_53).states[4]
        third = F(1, 3)
        split = replace(
            st,
            R=st.R + (tuple(2 * x for x in st.R[0]),),
            fmu=(frf_scale(st.fmu[0], third),) + st.fmu[1:] + (frf_scale(st.fmu[0], third),),
            cpr=(cpr_scale(st.cpr[0], third),) + st.cpr[1:] + (cpr_scale(st.cpr[0], third),),
        )
        assert prune_fields(prune_redundant(split)) == prune_fields(reference_prune(split))
        assert rf_equal(prune_redundant(split).mu[0], prune_redundant(st).mu[0])

    @pytest.mark.parametrize("kind", KINDS)
    def test_rank_test_agrees_with_lp(self, kind):
        # in every state, after duplicates are merged, a column passes the
        # rank test exactly when the reference LP is infeasible, with
        # lineality and without, from the default start and from the x >= 0
        # starts alike
        from barydd.dd_engine import _cone_rows, _int_vector, _is_extreme

        inits = ("default", "orthant", "partial:1") if kind != "centered" else ("default",)
        checked = dict.fromkeys(inits, 0)
        for init in inits:
            for seed in range(4):
                P, order, varrho = self.case(kind, init, seed)
                try:
                    run = dd_run(P, order=order, prune=True, varrho=varrho)
                except EmptyInterior:
                    continue
                for st in raw_steps(run):
                    rows = _cone_rows(st)
                    R = list({_canonical_column(c): c for c in reversed(st.R)}.values())
                    for j, col in enumerate(R):
                        extreme = _is_extreme(_int_vector(col), rows, st.q)
                        assert extreme == (reference_lp_weights(R, j) is None), (init, st.k, col)
                        checked[init] += 1
        assert all(checked.values()), checked


class TestNtotFactoredOnce:
    """A ray step factors N_tot once, not once per division by it."""

    @pytest.mark.parametrize("fixture", ["poly_53", "poly_51"])
    def test_one_factorization_per_ray_step(self, fixture, request, monkeypatch):
        from barydd import dd_engine
        from barydd.dd_engine import Frf, frf_add, frf_scale

        P = request.getfixturevalue(fixture)
        calls = []  # polynomials factored without a kind: the N_tot calls
        real = dd_engine.FactorPool.factorize

        def factorize(self, p, *args, **kwargs):
            if not args and not kwargs:
                calls.append(p)
            return real(self, p, *args, **kwargs)

        monkeypatch.setattr(dd_engine.FactorPool, "factorize", factorize)
        cone = homogenize(P)
        state = dd_init(cone, cone.n)
        ray_steps = 0
        for row in range(cone.m):
            calls.clear()
            beta = [dot(state.cone.Abar[row], col) for col in state.R]
            ntot = Frf(Poly.zero(state.cone.n + 1), ())
            for i, b in enumerate(beta):
                if b > 0:
                    ntot = frf_add(state.pool, ntot, frf_scale(state.fmu[i], b))
            nxt, entry = dd_step(state, row)
            nxt.fmu  # the step's coordinates are derived on first read
            if entry.case == "ray" and entry.Npos and entry.Nneg:
                assert [p for p in calls if p == ntot.num] == [ntot.num]
                ray_steps += 1
            else:
                assert calls == []
            state = nxt
        assert ray_steps >= 2


class TestDerivedCoordinates:
    """A state stores its coordinates once, as fmu and ftheta; mu and theta
    are derived from them when first read."""

    @staticmethod
    def assert_derived(st):
        from barydd.dd_engine import frf_to_ratfun

        for got, stored in ((st.mu, st.fmu), (st.theta, st.ftheta)):
            want = [frf_to_ratfun(st.pool, f) for f in stored]
            assert [f.to_json() for f in got] == [f.to_json() for f in want]

    @pytest.mark.parametrize("fixture", ["poly_51", "poly_53"])
    def test_every_state_of_the_golden_runs(self, fixture, request):
        run = dd_run(request.getfixturevalue(fixture))
        for st in run.states:
            self.assert_derived(st)

    @pytest.mark.parametrize("kind, init, seed", TestPruneByRank.CASES)
    def test_every_state_of_the_prune_corpus(self, kind, init, seed):
        P, order, varrho = TestPruneByRank.case(kind, init, seed)
        try:
            run = dd_run(P, order=order, prune=True, varrho=varrho)
        except EmptyInterior:
            return
        for st in run.states + raw_steps(run)[1:]:
            self.assert_derived(st)

    def test_replace_derives_its_own_mu(self, poly_53):
        from dataclasses import replace

        from barydd.dd_engine import frf_scale

        st = dd_run(poly_53).states[4]
        before = st.mu
        doubled = replace(st, fmu=(frf_scale(st.fmu[0], 2),) + st.fmu[1:])
        assert rf_equal(doubled.mu[0], before[0].scale(2))
        assert doubled.mu[1:] == before[1:]
        assert st.mu is before and not rf_equal(st.mu[0], doubled.mu[0])
        self.assert_derived(doubled)

    def test_pruned_run_derives_only_what_is_read(self, poly_53):
        run = dd_run(poly_53, prune=True)
        run.final.mu
        assert "mu" in vars(run.final)
        for st in run.states[:-1]:
            assert "mu" not in vars(st) and "theta" not in vars(st)

    def test_dropped_column_keeps_its_stored_coordinate(self):
        # x >= 0 with x1 + x2 <= 0: the step drops columns 1 and 2
        P = HPolyhedron.make([[-1, 0], [0, -1], [1, 1]], [0, 0, 0])
        run = dd_run(P, order=[2], varrho=0)
        first, entry = run.states[0], run.entries[0]
        assert [first.fmu[j] for j in entry.dropped] == [Frf(Poly.variable(3, i), ()) for i in (1, 2)]
        assert run.final.fmu == (first.fmu[0],)
        assert run.final.had_empty_npos and not first.had_empty_npos


def coordinate_layer(run):
    """Everything a run derives on first read: the pool (ids in order, kinds,
    signs, certified entries), each state's coordinates and
    constraint-product views, and each ledger entry's N_tot, with the
    columns whose coordinates it drops."""
    pool = run.final.pool
    return (
        [p.key() for p in pool.polys],
        list(pool.kinds),
        list(pool.cone_sign),
        sorted(pool.certified),
        [(st.fmu, st.ftheta, st.cpr) for st in run.states],
        [(e.Ntot.to_json() if e.Ntot is not None else None, e.dropped) for e in run.entries],
    )


def eager_run(P, order, varrho, prune):
    """dd_run with each state's coordinates read as soon as the state is
    made: the order in which an eager run derives them."""
    from barydd.dd_engine import DDRun

    cone = homogenize(P)
    state = dd_init(cone, cone.n if varrho is None else varrho)
    state.fmu
    states, entries = [state], []
    for row in order if order is not None else range(cone.m):
        raw, entry = dd_step(states[-1], row)
        raw.fmu
        entries.append(entry)
        states.append(prune_redundant(raw) if prune else raw)
        states[-1].fmu
    return DDRun(state.cone, tuple(order or ()), states, entries)


class TestCoordinatesOnFirstRead:
    """A run derives its coordinates on first read, in step order, so what
    is read first changes no pool id and no coordinate."""

    READS = {
        "final mu first": lambda run: run.final.mu,
        "every state in order": lambda run: [st.mu for st in run.states],
        "ledger Ntot first": lambda run: [e.Ntot for e in run.entries],
    }

    def assert_reading_order_free(self, P, order, varrho=None, prune=True, ledger=True):
        try:
            want = coordinate_layer(eager_run(P, order, varrho, prune))
        except EmptyInterior:
            return
        for name, read in self.READS.items():
            run = dd_run(P, order=order, prune=prune, varrho=varrho)
            read(run)
            assert coordinate_layer(run) == want, name
        if ledger:
            # each step's entry relates the kept state before it to the
            # unpruned state it made
            made = raw_steps(run)[1:] if prune else run.states[1:]
            for prev, nxt, entry in zip(run.states, made, run.entries):
                assert ledger_verify(prev, nxt, entry)

    @pytest.mark.parametrize("kind, init, seed", TestPruneByRank.CASES)
    def test_prune_corpus(self, kind, init, seed):
        P, order, varrho = TestPruneByRank.case(kind, init, seed)
        self.assert_reading_order_free(P, order, varrho)

    @pytest.mark.parametrize("fixture", ["poly_51", "poly_53"])
    @pytest.mark.parametrize("prune", [False, True])
    def test_goldens(self, fixture, prune, request):
        P = request.getfixturevalue(fixture)
        self.assert_reading_order_free(P, None, prune=prune)

    @pytest.mark.parametrize("n, m, seed", [(2, 8, 11208), (3, 9, 309), (3, 10, 310), (4, 9, 409)])
    def test_stress_polytopes_over_facet_rows(self, n, m, seed):
        from barydd.relaxation import _facet_rows
        from conftest import orthant_polytope

        P = orthant_polytope(n, m, random.Random(seed))
        order = _facet_rows(P, enumerate_vertices_oracle(P))
        # the ledger check of the 4-D run alone takes about 17 s
        self.assert_reading_order_free(P, order, prune=False, ledger=n < 4)

    def test_columns_alone_make_no_pool(self, poly_53, monkeypatch):
        from barydd import dd_engine

        calls = []
        for name in ("__mul__", "exact_div"):
            real = getattr(Poly, name)
            monkeypatch.setattr(Poly, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
        run = dd_run(poly_53, prune=True)
        assert [st.p for st in run.states] and calls == []
        assert run.final.coords.pool is None and run.final.coords.pending
        run.final.pool
        assert calls and isinstance(run.final.coords.pool, dd_engine.FactorPool)
        assert run.final.coords.pending == []


def run_record(run):
    """What two runs must share to be the same run: the order, each state's
    columns, E, processed rows and start, each ledger entry, and the
    coordinate layer."""
    return (
        run.order,
        [(st.k, st.R, st.L, st.E, st.processed, st.varrho) for st in run.states],
        [e.to_json() for e in run.entries],
        coordinate_layer(run),
    )


class TestOneStart:
    """Every start is x0 >= 0, x_i >= 0 for i > varrho: the default is
    varrho = n, and --init orthant is varrho = 0."""

    ORTHANT_CASES = [(kind, seed) for kind, init, seed in TestPruneByRank.CASES if init == "orthant"]

    @pytest.mark.parametrize("prune", [False, True])
    def test_partial_at_n_is_default(self, dbp_62, prune):
        import itertools

        P = dbp_62.P
        for order in itertools.permutations(range(P.m)):
            want = run_record(dd_run(P, order=order, prune=prune))
            got = dd_run(P, order=order, prune=prune, varrho=P.n)
            assert run_record(got) == want, order

    @staticmethod
    def lp_counted(monkeypatch, P, order, varrho):
        """run_record of the pruned run, or None when the cone is {0}, and
        the number of LPs its pruning solved."""
        run, statuses = pruned_run_lps(monkeypatch, P, order, varrho)
        return (run_record(run) if run is not None else None), len(statuses)

    @pytest.mark.parametrize("kind, seed", ORTHANT_CASES)
    def test_partial_at_0_is_orthant(self, kind, seed, monkeypatch):
        # --init orthant and --init partial:0 make the same run, and pruning
        # proves the same columns extreme without an LP, so it solves as
        # many LPs
        from barydd.cli import _parse_init

        P, order, _ = TestPruneByRank.case(kind, "orthant", seed)
        want, want_lps = self.lp_counted(monkeypatch, P, *_parse_init("orthant", P, order))
        got, got_lps = self.lp_counted(monkeypatch, P, *_parse_init("partial:0", P, order))
        assert got == want
        assert got_lps == want_lps


def swap_forward_order(P, order):
    """The row order of the former phase-1 start: from the default start,
    the first remaining row of the order that is not orthogonal to the
    lineality space is processed next, while lineality is left; the other
    rows follow in their order."""
    cone = homogenize(P)
    state, picked, rest = dd_init(cone, cone.n), [], list(order)
    while state.q:
        pick = next((r for r in rest if any(dot(cone.Abar[r], col) for col in state.L)), None)
        if pick is None:
            break
        rest.remove(pick)
        picked.append(pick)
        state = dd_step(state, pick)[0]
    return picked + rest


class TestPhase1Order:
    """``phase1_order`` is the row order of the former phase-1 start, and
    ``dd --init phase1`` prints what that start printed."""

    def test_equals_swap_forward(self, poly_41, poly_53, dbp_62):
        rng = random.Random(2502)
        strip = HPolyhedron.make([[1, 0], [-1, 0]], [1, 0])  # rank 1: lineality stays
        polytopes = [poly_41, poly_53, dbp_62.P, box_polytope(3), strip]
        for n, m in [(2, 4), (2, 6), (3, 5), (3, 7), (4, 7)]:
            P = orthant_polytope(n, m, rng)
            A, b = list(P.A), list(P.b)
            polytopes += [
                P,
                HPolyhedron.make(A + [[0] * n], b + [1]),  # a zero x-part
                HPolyhedron.make(A + [[2 * x for x in A[-1]]], b + [2 * b[-1]]),  # a repeated row
            ]
        for P in polytopes:
            for order in [list(range(P.m))] + [rng.sample(range(P.m), P.m) for _ in range(4)]:
                assert phase1_order(P, order) == swap_forward_order(P, order), (P, order)

    # sha256 of the stdout of `dd --init phase1`, recorded from the former
    # phase-1 start, in the row order given or reversed, unpruned and pruned
    STDOUT_SHA256 = {
        ("poly_41", False, False): "3e1a9934f3e8987dfbe8cc51392fd8c8d00680acfbafed9016150d505bac1e73",
        ("poly_41", False, True): "76466bad12dcad23bef9d50be18fa7928dceca892dd4a5646c4ad37fe850da42",
        ("poly_41", True, False): "e1516573177f9a89a3710804f90794ea8689323c559555b62c9456669d1aea2e",
        ("poly_41", True, True): "bf592dab82d7d96b1546ea41ea8308db6cad22813f5ea4bbcb904b7a1d72c5e3",
        ("poly_53", False, False): "a80e1eaf202a0f96c89a8135f34b128d904abca0429c851d917f8a35d2cc6fc7",
        ("poly_53", False, True): "4497ad28c65d3b61b8b35c050c338e1b8e848108d92bd4e2784a4b9a39e8a90e",
        ("poly_53", True, False): "3dd8433408cd4859f4cf700620d3527d8a5241b206d45c8f52f5c4cb022c7832",
        ("poly_53", True, True): "e815411808085e5f1f1ffcf56be696c8cbbfc5926a5685e8803d93f20a671438",
        ("box2", False, False): "2b0a29871f9051676715a722d8ef5aa1863bc5b6197a3b7892ea1cf477c70c57",
        ("box2", False, True): "2b0a29871f9051676715a722d8ef5aa1863bc5b6197a3b7892ea1cf477c70c57",
        ("box2", True, False): "0251eb9581ce7515766ff8a63f56dce7f9dc2a78f4e4d15e316d46e324bc7b6f",
        ("box2", True, True): "0251eb9581ce7515766ff8a63f56dce7f9dc2a78f4e4d15e316d46e324bc7b6f",
    }

    @pytest.mark.parametrize("name, reverse, prune", list(STDOUT_SHA256))
    def test_cli_output_unchanged(self, name, reverse, prune, request, tmp_path, capsys):
        from barydd import cli

        P = box_polytope(2) if name == "box2" else request.getfixturevalue(name)
        path = tmp_path / "P.json"
        path.write_text(json.dumps(P.to_json()))
        argv = ["dd", str(path), "--init", "phase1"]
        argv += ["--order", ",".join(str(i) for i in range(P.m, 0, -1))] if reverse else []
        argv += ["--prune"] if prune else []
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[name, reverse, prune]


class TestEveryStart:
    """Whatever the start, entries[i] is the step from states[i] to
    states[i + 1], and its ledger verifies."""

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("start", ["default", "orthant", "partial:1", "phase1"])
    def test_one_entry_per_step(self, start, prune):
        rng = random.Random(f"every-start-{start}")
        for P in [box_polytope(2)] + [orthant_polytope(n, n + 2, rng) for n in (2, 2, 3)]:
            order = rng.sample(range(P.m), P.m)
            if start == "phase1":
                order = phase1_order(P, order)
            run = dd_run(P, order=order, prune=prune, varrho={"orthant": 0, "partial:1": 1}.get(start))
            assert len(run.entries) == len(run.states) - 1 == len(order)
            for i, entry in enumerate(run.entries):
                # a pruned run keeps the pruned state; the entry describes
                # the step to the state before pruning
                made = dd_step(run.states[i], order[i])[0] if prune else run.states[i + 1]
                assert ledger_verify(run.states[i], made, entry)
                if prune:
                    assert prune_redundant(made).R == run.states[i + 1].R


# x >= 0 with x1 + x2 <= 0 (the polytope of test_implied_zero_tracking)
COLLAPSE = HPolyhedron.make([[-1, 0], [0, -1], [1, 1]], [0, 0, 0])
# the line x1 + x2 = 1, an equality as two rows
LINE = HPolyhedron.make([[1, 1], [-1, -1]], [1, -1])


def collapse_step():
    """COLLAPSE's row 3 from the orthant start: N+ is empty, the x0 column
    stays and columns 1 and 2 drop out."""
    run = dd_run(COLLAPSE, order=[2], varrho=0)
    return run.states[0], run.final, run.entries[0]


def line_step():
    """LINE's second row: the step finds N+ empty with one lineality
    direction left."""
    run = dd_run(LINE)
    return run.states[1], run.final, run.entries[1]


def ordinary_step(P):
    """The first ray step of P's default run with N+ and N- both nonempty."""
    run = dd_run(P)
    k = next(k for k, e in enumerate(run.entries) if e.case == "ray" and e.Npos and e.Nneg)
    return run.states[k], run.states[k + 1], run.entries[k]


class TestLedgerMutations:
    """``ledger_verify`` accepts each step as made and rejects it after one
    change to the next state or to the entry."""

    @staticmethod
    def scaled(fs, i, w):
        from barydd.dd_engine import frf_scale

        return fs[:i] + (frf_scale(fs[i], w),) + fs[i + 1:]

    def test_unchanged_steps_pass(self, poly_53):
        for prev, nxt, entry in (collapse_step(), line_step(), ordinary_step(poly_53)):
            assert ledger_verify(prev, nxt, entry)

    def test_changed_n0_coordinate(self):
        from dataclasses import replace

        prev, nxt, entry = collapse_step()
        assert entry.Nzero == (0,)
        assert not ledger_verify(prev, replace(nxt, fmu=self.scaled(nxt.fmu, 0, 2)), entry)

    def test_changed_theta_of_an_empty_npos_step(self):
        from dataclasses import replace

        prev, nxt, entry = line_step()
        assert entry.Npos == () and nxt.q == 1
        assert not ledger_verify(prev, replace(nxt, ftheta=self.scaled(nxt.ftheta, 0, 2)), entry)

    def test_negative_d_entry(self):
        # the dropped column 1 joins the kept column with weight -1, and the
        # kept column moves to match: every relation holds but D >= 0
        from dataclasses import replace

        prev, nxt, entry = collapse_step()
        D = (entry.D[0], (F(-1),), entry.D[2])
        R = (tuple(a - b for a, b in zip(prev.R[0], prev.R[1])),)
        assert not ledger_verify(prev, replace(nxt, R=R), replace(entry, D=D))

    def test_moved_r_column(self, poly_53):
        from dataclasses import replace

        prev, nxt, entry = ordinary_step(poly_53)
        R = (nxt.R[1], nxt.R[0]) + nxt.R[2:]
        assert R != nxt.R
        assert not ledger_verify(prev, replace(nxt, R=R), entry)

    def test_scaled_mu_of_an_ordinary_ray_step(self, poly_53):
        from dataclasses import replace

        prev, nxt, entry = ordinary_step(poly_53)
        assert not ledger_verify(prev, replace(nxt, fmu=self.scaled(nxt.fmu, nxt.p - 1, 2)), entry)


class TestEmptyNposGoldens:
    """The ledger entry and ``dd --out`` dump of a run whose last step finds
    N+ empty, pinned: with no lineality left, and with one direction left."""

    COLLAPSE_DUMP = {
        "E": [3], "L": [], "R": [["1", "0", "0"]],
        "implied_zero": ["mu[0][1]", "mu[0][2]"],
        "ledger": [
            {"D": [["1"], ["0"], ["0"]], "F": [], "G": [], "Nneg": [1, 2], "Npos": [], "Ntot": None,
             "Nzero": [0], "alpha": None, "beta": ["0", "-1", "-1"], "case": "ray", "dropped": [1, 2],
             "flip": False, "k": 1, "perm": [0, 1, 2], "row": 2, "xi": None},
        ],
        "mu": [{"den": [["1", [0, 0, 0]]], "num": [["1", [1, 0, 0]]]}],
        "order": [3], "theta": [],
    }
    LINE_DUMP = {
        "E": [2], "L": [["0", "-1", "1"]], "R": [["1", "1", "0"]],
        "implied_zero": ["mu[1][0]"],
        "ledger": [
            {"D": [["0", "1"]], "F": [["1"], ["1"]], "G": [["1", "-1"], ["0", "0"]], "Nneg": [], "Npos": [],
             "Ntot": None, "Nzero": [], "alpha": ["1", "-1"], "beta": ["1"], "case": "lineality",
             "dropped": [], "flip": True, "k": 1, "perm": [0], "row": 0, "xi": 0},
            {"D": [["1"], ["0"]], "F": [["1"]], "G": [["0"]], "Nneg": [0], "Npos": [], "Ntot": None,
             "Nzero": [1], "alpha": None, "beta": ["-1", "0"], "case": "ray", "dropped": [0],
             "flip": False, "k": 2, "perm": [1, 0], "row": 1, "xi": None},
        ],
        "mu": [{"den": [["1", [0, 0, 0]]], "num": [["1", [1, 0, 0]]]}],
        "order": [1, 2],
        "theta": [{"den": [["1", [0, 0, 0]]], "num": [["1", [0, 0, 1]]]}],
    }

    @pytest.mark.parametrize("P, step, argv, dump", [
        (COLLAPSE, collapse_step, ["--order", "3", "--init", "orthant"], COLLAPSE_DUMP),
        (LINE, line_step, [], LINE_DUMP),
    ], ids=["collapse", "line"])
    def test_entry_and_dump(self, P, step, argv, dump, tmp_path, capsys):
        import json

        from barydd import cli

        assert step()[2].to_json() == dump["ledger"][-1]
        inp, out = tmp_path / "P.json", tmp_path / "P.dd.json"
        inp.write_text(json.dumps(P.to_json()))
        assert cli.main(["dd", str(inp), "--out", str(out)] + argv) == 0
        assert out.read_text() == json.dumps(dump, indent=2, sort_keys=True) + "\n"
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "order: " + ",".join(map(str, dump["order"])),
            f"columns: {len(dump['R'])} rays, {len(dump['L'])} lineality",
        ]
