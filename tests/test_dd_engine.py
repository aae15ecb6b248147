"""The double description engine: golden runs, ledger, closed forms, pruning."""

import random
from fractions import Fraction as F

import pytest

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
from barydd.dd_engine import _canonical_column, cpr_structurally_nonneg, cpr_value
from barydd.exactmath import Poly, RatFun, rf_equal
from barydd.linalg import dot
from closed_forms import NotSimple, closed_form_box, closed_form_tworow, product_coords, warren_simple
from conftest import run_optimized


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
        V, _ = self.run(poly_51).dehomogenized()
        assert [tuple(c) for c in V] == [tuple(map(F, c)) for c in self.PRINTED_R]

    def test_mu1_formula(self, poly_51):
        _, lam = self.run(poly_51).dehomogenized()
        num = aff(4, 3, [-1, -1, -1]) * aff(4, 2, [-2, -1, 0]) * aff(4, 2, [-1, -4, 0])
        den = (aff(4, 2, [-1, -1, 0]) * aff(4, 3, [-1, -1, 0])).scale(2)
        assert rf_equal(lam[0], RatFun(num, den))

    def test_partition_of_unity(self, poly_51):
        _, lam = self.run(poly_51).dehomogenized()
        total = RatFun.const(4, 0)
        for f in lam:
            total = total + f
        assert rf_equal(total, RatFun.const(4, 1))

    def test_vertex_indicator(self, poly_51):
        V, lam = self.run(poly_51).dehomogenized()
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
        V, lam = self.run(poly_51).dehomogenized()
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

    def test_raw_columns(self, run53):
        V, _ = run53.dehomogenized()
        pts = sorted(tuple(c[1:]) for c in V)
        redundant = [
            (F(0), F(7, 13), F(45, 13)),
            (F(0), F(8, 15), F(52, 15)),
            (F(1), F(2, 5), F(13, 5)),
            (F(1), F(9, 13), F(30, 13)),
        ]
        oracle = enumerate_vertices_oracle(run53.P)
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
        V, lam = run53.dehomogenized()
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
        st, entries, remaining = dd_init(cone)
        assert st.p == 1 and st.q == 3
        assert st.R[0] == (F(1), F(0), F(0), F(0))
        assert rf_equal(st.mu[0], RatFun.variable(4, 0))
        assert remaining == [0, 1, 2, 3, 4, 5]

    def test_orthant(self, unit_box):
        P = unit_box(3)
        cone = homogenize(P)
        st, _, _ = dd_init(cone, "orthant")
        assert st.q == 0 and st.p == 4
        for i, f in enumerate(st.mu):
            assert rf_equal(f, RatFun.variable(4, i))

    def test_orthant_requires_explicit_rows(self):
        P = HPolyhedron.make([[1, 0], [0, 1]], [1, 1])  # no x >= 0 rows
        with pytest.raises(InitPreconditionViolated):
            dd_init(homogenize(P), "orthant")

    def test_partial_orthant(self):
        # x2 >= 0 explicit, x1 unconstrained below
        P = HPolyhedron.make([[0, -1], [1, 0], [-1, 0], [0, 1]], [0, 1, 1, 1])
        st, _, _ = dd_init(homogenize(P), "partial_orthant", varrho=1)
        assert st.q == 1 and st.p == 2
        assert st.L[0] == (F(0), F(1), F(0))
        assert [c[0] for c in st.R] == [F(1), F(0)]

    def test_phase1_41(self, poly_41):
        st, entries, remaining = dd_init(homogenize(poly_41), "phase1")
        assert st.q == 0  # lineality exhausted after two steps
        assert len(entries) == 2
        assert all(e.case == "lineality" for e in entries)
        for f in st.mu:
            assert f.num.degree() <= 1 and f.den.is_constant()  # all affine
        basis = st.phase1
        assert basis is not None and basis.rho == 2
        # Upsilon B^-1 N == Psi and the change of variables reproduces (R; L)
        from barydd.linalg import inverse, mat_mul

        B = [list(r) for r in basis.Bmat]
        assert inverse(B) is not None

    def test_phase1_change_of_vars(self, poly_53):
        st, entries, remaining = dd_init(homogenize(poly_53), "phase1")
        basis = st.phase1
        cov = [list(r) for r in basis.change_of_vars]
        # columns 0..rho of the map span the same cone columns as R (up to
        # positive scaling)
        from barydd.dd_engine import _canonical_column

        cols_cov = {_canonical_column(tuple(row[j] for row in cov)) for j in range(basis.rho + 1)}
        cols_R = {_canonical_column(c) for c in st.R}
        assert cols_cov == cols_R


class TestStop:
    @pytest.mark.parametrize("init", ["default", "partial_orthant"])
    def test_stopped_run_is_a_prefix(self, poly_53, init):
        # partial_orthant takes x2, x3 >= 0 from rows 1 and 2
        order = [3, 1, 5, 0, 2, 4]
        whole = dd_run(poly_53, order=order, init=init, varrho=1)
        for steps in range(len(order) + 1):
            run = dd_run(poly_53, order=order, init=init, varrho=1,
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


class TestPhase1Check:
    @pytest.mark.parametrize(
        "abar, processed, message",
        [
            # basis block [[1, 0], [1, 0]] from two equal leading rows
            ([[1, 0, 0], [0, 1, 0]], (0, 1), "invertible"),
            # the unprocessed row x2 >= 0 is not Ups B^-1 N = 0
            ([[0, 1, 0], [0, 0, 1]], (0,), "Psi"),
        ],
        ids=["singular", "span"],
    )
    def test_check_survives_optimize_flag(self, abar, processed, message):
        code = (
            "from fractions import Fraction as F\n"
            "from types import SimpleNamespace as NS\n"
            "from barydd import Phase1BasisError\n"
            "from barydd.dd_engine import _phase1_basis\n"
            f"cone = NS(n=2, m=2, Abar=[[F(x) for x in r] for r in {abar!r}])\n"
            "try:\n"
            f"    _phase1_basis(NS(cone=cone, processed={processed!r}))\n"
            "except Phase1BasisError as exc:\n    print('raised', exc)\n"
        )
        out = run_optimized(code)
        assert out.startswith("raised") and message in out, out


class TestStepGoldens:
    def test_orthant_first_box_row(self):
        # n = 2, process x1 <= 1 from the orthant start
        P = HPolyhedron.make([[-1, 0], [0, -1], [1, 0], [0, 1]], [0, 0, 1, 1])
        cone = homogenize(P)
        st, _, _ = dd_init(cone, "orthant")
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
        run = dd_run(P, order=[2], init="orthant")
        st = run.final
        assert st.E == (2,)
        assert len(st.implied_zero) == 2
        names = {iz.name for iz in st.implied_zero}
        assert names == {"mu[0][1]", "mu[0][2]"}
        entry = run.entries[-1]
        assert entry.Npos == () and entry.dropped == (1, 2)
        assert ledger_verify(run.states[0], st, entry)
        assert st.had_empty_npos


class TestClosedForms:
    @pytest.mark.parametrize("n,T", [(2, (1, 2)), (3, (1, 3)), (3, ()), (4, (2, 4))])
    def test_box_matches_dd(self, unit_box, n, T):
        P = unit_box(n)
        rays, coords = closed_form_box(n, T)
        order = [n + (i - 1) for i in T]  # rows x_i <= 1 sit after the x >= 0 block
        st = dd_run(P, order=order, init="orthant").final
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
                st = dd_run(P, order=[n], init="orthant").final
            else:
                st = dd_run(P, order=[n, n + 1], init="orthant").final
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
        V1, lam1 = bc1.dehomogenized()
        bc2 = dd_run(P2)
        V2, lam2 = bc2.dehomogenized()
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
        V, lam = run.dehomogenized()
        table = {tuple(c[1:]): f for c, f in zip(V, lam)}
        for vert, coord in zip(verts, coords):
            assert rf_equal(table[vert], coord)


class TestOrderIndependenceOfSets:
    def test_pruned_sets_equal_across_orders(self, poly_51):
        base = None
        for order in ([0, 1, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2], [5, 1, 4, 0, 3, 2]):
            run = dd_run(poly_51, order=order, prune=True)
            V, _ = run.dehomogenized()
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
    x >= 0."""
    A = [[-int(j == i) for j in range(n)] for i in range(n)]
    b = [0] * n
    if kind == "centered":
        A += [[int(j == i) for j in range(n)] for i in range(n)]
        b = [2] * (2 * n)
        for _ in range(2):
            A.append([rng.randint(-2, 2) for _ in range(n)])
            b.append(rng.randint(1, 3))
    if kind in ("bounded", "equality"):
        for _ in range(rng.randint(2, 3)):
            A.append([rng.randint(1, 4) for _ in range(n)])
            b.append(rng.randint(4, 12))
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
    init = run.states[0]
    rows = run.order[len(init.processed):]
    return [init] + [dd_step(st, row)[0] for st, row in zip(run.states, rows)]


def reference_run(P, order, init, varrho=None):
    """dd_run(..., prune=True) with the reference prune: the pruned states."""
    state, _, remaining = dd_init(homogenize(P), init, order, varrho)
    states = [state]
    for row in remaining:
        raw, _ = dd_step(states[-1], row)
        states.append(reference_prune(raw))
    return states


class TestPruneByRank:
    """``prune_redundant`` keeps a column without an LP when the rank test
    proves it extreme; its outputs equal the LP-per-column prune's."""

    CASES = [
        (kind, init, seed)
        for kind in ("bounded", "apex", "equality", "unbounded", "centered")
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
        n = 2 if kind in ("apex", "centered") else rng.choice([2, 3])
        P = random_polyhedron(rng, n, kind)
        order = list(range(P.m))
        rng.shuffle(order)
        varrho = None
        if init.startswith("partial:"):
            init, varrho = "partial_orthant", int(init.split(":")[1])
        return P, order, init, varrho

    @pytest.mark.parametrize("kind, init, seed", CASES)
    def test_equals_reference_prune(self, kind, init, seed):
        P, order, init, varrho = self.case(kind, init, seed)
        try:
            want = reference_run(P, order, init, varrho)
        except EmptyInterior:
            with pytest.raises(EmptyInterior):
                dd_run(P, order=order, prune=True, init=init, varrho=varrho)
            return
        got = dd_run(P, order=order, prune=True, init=init, varrho=varrho).states
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert prune_fields(g) == prune_fields(w)

    def test_cases_cover_the_state_kinds(self):
        # the corpus above has states with and without lineality, duplicate
        # columns, implied equalities, and columns folded by the LP
        seen = set()
        for kind, init, seed in self.CASES:
            P, order, init, varrho = self.case(kind, init, seed)
            try:
                run = dd_run(P, order=order, prune=True, init=init, varrho=varrho)
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
                    seen.add("fold")
        assert seen == {"lineality", "pointed", "duplicates", "implied equality", "fold"}

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

    @pytest.mark.parametrize("kind", ["bounded", "apex", "equality", "unbounded", "centered"])
    def test_rank_test_agrees_with_lp(self, kind):
        # in a state without lineality, after duplicates are merged, a column
        # passes the rank test exactly when the reference LP is infeasible
        from barydd.dd_engine import _cone_rows, _int_vector, _is_extreme

        checked = 0
        for seed in range(4):
            P, order, init, _ = self.case(kind, "default", seed)
            try:
                run = dd_run(P, order=order, prune=True)
            except EmptyInterior:
                continue
            for st in raw_steps(run):
                rows = _cone_rows(st)
                if rows is None:
                    continue
                R = list({_canonical_column(c): c for c in reversed(st.R)}.values())
                for j, col in enumerate(R):
                    extreme = _is_extreme(_int_vector(col), rows)
                    assert extreme == (reference_lp_weights(R, j) is None), (st.k, col)
                    checked += 1
        assert checked > 0


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
        state, _, order = dd_init(homogenize(P))
        ray_steps = 0
        for row in order:
            calls.clear()
            beta = [dot(state.cone.Abar[row], col) for col in state.R]
            ntot = Frf(Poly.zero(state.cone.n + 1), ())
            for i, b in enumerate(beta):
                if b > 0:
                    ntot = frf_add(state.pool, ntot, frf_scale(state.fmu[i], b))
            nxt, entry = dd_step(state, row)
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
        P, order, init, varrho = TestPruneByRank.case(kind, init, seed)
        try:
            run = dd_run(P, order=order, prune=True, init=init, varrho=varrho)
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
        run = dd_run(P, order=[2], init="orthant")
        first = run.states[0]
        assert [iz.fmu for iz in run.final.implied_zero] == [first.fmu[1], first.fmu[2]]
        assert run.final.had_empty_npos and not first.had_empty_npos
