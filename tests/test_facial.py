"""Facial disjunctive hierarchy, indicators, and the 0-1 specialization."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest

from barydd import HPolyhedron, cli, facial
from barydd.exactmath import Poly, RatFun, rf_equal
from barydd.facial import (
    CouplingRow,
    FDPBlock,
    FDPInstance,
    Face,
    FacesShareVertices,
    brute_force_fdp,
    build_fdr_level,
    check_vertex_disjoint,
)
from barydd.lp import lp_solve
from barydd.polyhedra import enumerate_vertices_oracle
from barydd.relaxation import sherali_adams_01
from closed_forms import barycentric_indicator
from reference_builders import (
    assert_same_lp,
    reference_brute_force_fdp,
    reference_fdr_level,
    reference_substitute_indicators,
)


def interval_block():
    return FDPBlock(
        HPolyhedron.make([[1], [-1]], [1, 0]),
        [Face.from_cut(0, [-1]), Face.from_cut(1, [1])],
    )


def triangle_block():
    P = HPolyhedron.make([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    return FDPBlock(
        P,
        [Face.from_cut(0, [-1, -1]), Face.from_cut(1, [1, 1])],
    )


def zero_one_instance(n, rng, ny=1):
    blocks = [interval_block() for _ in range(n)]
    coupling = [
        CouplingRow(
            tuple(F(rng.randint(-2, 2)) for _ in range(n)),
            tuple(F(rng.randint(-2, 2)) for _ in range(ny)),
            "<=",
            F(rng.randint(1, 4)),
        )
        for _ in range(2)
    ]
    # keep y bounded
    for l in range(ny):
        e = [F(0)] * ny
        e[l] = F(1)
        coupling.append(CouplingRow((F(0),) * n, tuple(e), "<=", F(1)))
        coupling.append(CouplingRow((F(0),) * n, tuple(-c for c in e), "<=", F(1)))
    return FDPInstance(
        blocks=blocks,
        coupling=coupling,
        obj_x=tuple(F(rng.randint(-3, 3)) for _ in range(n)),
        obj_y=tuple(F(rng.randint(-3, 3)) for _ in range(ny)),
        obj_const=F(0),
        ny=ny,
    )


class TestAssumption:
    def test_vertex_sets_from_cuts(self):
        inst = FDPInstance(
            blocks=[triangle_block()],
            coupling=[],
            obj_x=(F(0), F(0)),
            obj_y=(),
            obj_const=F(0),
            ny=0,
        )
        sets = check_vertex_disjoint(inst)[0]
        verts = enumerate_vertices_oracle(inst.blocks[0].P)
        assert verts == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
        assert sets[0] == (0,)  # the origin vertex
        assert sets[1] == (1, 2)  # the hypotenuse edge

    def test_share_vertices_raises(self):
        P = HPolyhedron.make([[1], [-1]], [1, 0])
        bad = FDPBlock(
            P, [Face.from_cut(0, [-1]), Face.from_vertices([0])]
        )
        inst = FDPInstance(
            blocks=[bad], coupling=[], obj_x=(F(0),), obj_y=(), obj_const=F(0), ny=0
        )
        with pytest.raises(FacesShareVertices):
            check_vertex_disjoint(inst)

    def test_cut_vertex_list_consistency(self):
        P = HPolyhedron.make([[1], [-1]], [1, 0])
        face = Face.from_cut(0, [-1])
        face.vertices = (1,)  # wrong on purpose
        inst = FDPInstance(
            blocks=[FDPBlock(P, [face])],
            coupling=[],
            obj_x=(F(0),),
            obj_y=(),
            obj_const=F(0),
            ny=0,
        )
        with pytest.raises(ValueError):
            check_vertex_disjoint(inst)[0]

    def test_fdr_check_finds_block_vertices_once(self, tmp_path, monkeypatch):
        # the face check, the level-2 model and the brute force share one
        # vertex enumeration per block
        calls = []
        oracle = facial.enumerate_vertices_oracle
        monkeypatch.setattr(facial, "enumerate_vertices_oracle", lambda P: calls.append(P) or oracle(P))
        inp = tmp_path / "fdp.json"
        inp.write_text(json.dumps(zero_one_instance(2, random.Random(3)).to_json()))
        assert cli.main(["fdr-check", str(inp), "--level", "2", "--brute"]) == 0
        assert len(calls) == 2


class TestHierarchy:
    def mixed_instance(self):
        rng = random.Random(42)
        blocks = [interval_block(), triangle_block()]
        coupling = [
            CouplingRow((F(2), F(1), F(-1)), (F(1),), "<=", F(2)),
            CouplingRow((F(-1), F(1), F(1)), (F(-1),), "<=", F(1)),
            CouplingRow((F(0), F(0), F(0)), (F(1),), "<=", F(1)),
            CouplingRow((F(0), F(0), F(0)), (F(-1),), "<=", F(1)),
        ]
        return FDPInstance(
            blocks=blocks,
            coupling=coupling,
            obj_x=(F(-2), F(-1), F(-3)),
            obj_y=(F(-1),),
            obj_const=F(0),
            ny=1,
        )

    def test_levels_monotone_and_exact(self):
        inst = self.mixed_instance()
        bf = brute_force_fdp(inst)
        values = []
        for k in range(1, inst.np + 1):
            sol = lp_solve(build_fdr_level(inst, k))
            assert sol.status == "optimal"
            values.append(sol.value)
        assert values == sorted(values)
        assert values[-1] == bf

    def test_random_01_exactness(self):
        rng = random.Random(7)
        for trial in range(3):
            inst = zero_one_instance(rng.randint(2, 3), rng)
            bf = brute_force_fdp(inst)
            sol = lp_solve(build_fdr_level(inst, inst.np))
            assert sol.status == "optimal" and bf is not None
            assert sol.value == bf

    def test_aggregation_lift(self):
        # a feasible level-(k+1) solution aggregates to a feasible level-k one
        inst = self.mixed_instance()
        k = 1
        high = build_fdr_level(inst, k + 1)
        sol = lp_solve(high)
        assert sol.status == "optimal"
        low = build_fdr_level(inst, k)
        point = {}
        for S in itertools.combinations(range(inst.np), k):
            rest = [i for i in range(inst.np) if i not in S]
            ell = rest[0]
            Sbig = tuple(sorted(S + (ell,)))
            pos = Sbig.index(ell)
            for s in itertools.product(
                *[range(len(inst.blocks[i].faces)) for i in S]
            ):
                def big_tag(psi):
                    sb = list(s)
                    sb.insert(pos, psi)
                    return f"[{Sbig},{tuple(sb)}]"

                tag = f"[{S},{s}]"
                npsi = len(inst.blocks[ell].faces)
                point[f"g{tag}"] = sum(
                    sol.primal[f"g{big_tag(p)}"] for p in range(npsi)
                )
                for j in range(inst.n):
                    point[f"u{j}{tag}"] = sum(
                        sol.primal[f"u{j}{big_tag(p)}"] for p in range(npsi)
                    )
                for l in range(inst.ny):
                    point[f"w{l}{tag}"] = sum(
                        sol.primal[f"w{l}{big_tag(p)}"] for p in range(npsi)
                    )
        for j in range(inst.n):
            point[f"x{j}"] = sol.primal[f"x{j}"]
        for l in range(inst.ny):
            point[f"y{l}"] = sol.primal[f"y{l}"]
        for row in low.rows:
            lhs = sum(c * point[v] for v, c in row.coeffs.items())
            ok = (
                lhs <= row.rhs
                if row.sense == "<="
                else lhs >= row.rhs
                if row.sense == ">="
                else lhs == row.rhs
            )
            assert ok, row.name


class TestIndicators:
    def test_01_product_factors(self):
        rng = random.Random(1)
        inst = zero_one_instance(3, rng)
        eta = barycentric_indicator(inst, (0, 2), (1, 0))
        nv = 4
        x1, x3 = Poly.variable(nv, 1), Poly.variable(nv, 3)
        want = RatFun.from_poly(x1 * (Poly.const(nv, 1) - x3))
        assert rf_equal(eta, want)

    def test_partition_of_unity_over_selections(self):
        rng = random.Random(2)
        inst = zero_one_instance(2, rng)
        total = RatFun.const(3, 0)
        for s in itertools.product(range(2), repeat=2):
            total = total + barycentric_indicator(inst, (0, 1), s)
        assert rf_equal(total, RatFun.const(3, 1))

    def test_eta_values_on_block_vertices(self, poly_51):
        # block = the 8-vertex polytope; faces: the facet x3 = 0 vs the
        # vertex set at x3 > 0
        verts = sorted(
            __import__("barydd").enumerate_vertices_oracle(poly_51)
        )
        low = tuple(i for i, v in enumerate(verts) if v[2] == 0)
        high = tuple(i for i, v in enumerate(verts) if v[2] > 0)
        block = FDPBlock(
            poly_51,
            [Face.from_cut(0, [0, 0, -1]), Face.from_vertices(high)],
        )
        inst = FDPInstance(
            blocks=[block],
            coupling=[],
            obj_x=(F(0),) * 3,
            obj_y=(),
            obj_const=F(0),
            ny=0,
        )
        sets = check_vertex_disjoint(inst)[0]
        assert sets[0] == low
        eta0 = barycentric_indicator(inst, (0,), (0,))
        eta1 = barycentric_indicator(inst, (0,), (1,))
        for i, v in enumerate(verts):
            pt = (F(1),) + v
            assert eta0.eval(pt) == (1 if i in low else 0)
            assert eta1.eval(pt) == (1 if i in high else 0)


class TestSubstitution:
    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_sherali_adams_on_01(self, k):
        rng = random.Random(31)
        for trial in range(2):
            inst = zero_one_instance(2, rng)
            sub = lp_solve(reference_substitute_indicators(inst, k))
            sa = lp_solve(
                sherali_adams_01(
                    2, inst.ny, inst.coupling, inst.obj_x, inst.obj_y,
                    inst.obj_const, k,
                )
            )
            assert sub.status == sa.status == "optimal"
            assert sub.value == sa.value

    def test_sherali_adams_ge_row_at_level_n(self):
        # x1 + x2 + y >= 1 with -1 <= y <= 1: min -x1 - x2 - y is -3 at
        # x = (1, 1), y = 1; read as '=', the row would force y = -1 there
        coupling = [
            CouplingRow((F(1), F(1)), (F(1),), ">=", F(1)),
            CouplingRow((F(0), F(0)), (F(1),), "<=", F(1)),
            CouplingRow((F(0), F(0)), (F(-1),), "<=", F(1)),
        ]
        inst = FDPInstance(
            blocks=[interval_block(), interval_block()],
            coupling=coupling,
            obj_x=(F(-1), F(-1)),
            obj_y=(F(-1),),
            obj_const=F(0),
            ny=1,
        )
        assert brute_force_fdp(inst) == -3
        for sense, want in ((">=", -3), ("<=", -1), ("=", -1)):
            inst.coupling[0] = CouplingRow((F(1), F(1)), (F(1),), sense, F(1))
            sa = lp_solve(sherali_adams_01(2, 1, inst.coupling, inst.obj_x, inst.obj_y, inst.obj_const, 2))
            assert sa.status == "optimal"
            assert sa.value == brute_force_fdp(inst) == want

    def test_substituted_between_fdr_and_opt(self):
        rng = random.Random(8)
        inst = zero_one_instance(3, rng)
        bf = brute_force_fdp(inst)
        for k in (1, 2, 3):
            fdr = lp_solve(build_fdr_level(inst, k)).value
            sub = lp_solve(reference_substitute_indicators(inst, k)).value
            assert fdr <= sub <= bf

    def test_mixed_blocks_exact_at_top(self):
        blocks = [interval_block(), triangle_block()]
        coupling = [
            CouplingRow((F(1), F(1), F(1)), (), "<=", F(2)),
        ]
        inst = FDPInstance(
            blocks=blocks,
            coupling=coupling,
            obj_x=(F(-1), F(-2), F(-1)),
            obj_y=(),
            obj_const=F(0),
            ny=0,
        )
        bf = brute_force_fdp(inst)
        sub = lp_solve(reference_substitute_indicators(inst, 2))
        assert sub.value == bf


def as_vertex_lists(inst):
    """inst with every face given by its vertex list instead of its cut."""
    blocks = [
        FDPBlock(b.P, [Face.from_vertices(E) for E in check_vertex_disjoint(inst)[i]])
        for i, b in enumerate(inst.blocks)
    ]
    return FDPInstance(blocks, inst.coupling, inst.obj_x, inst.obj_y, inst.obj_const, inst.ny)


class TestSharedRows:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: zero_one_instance(2, random.Random(31)),
            lambda: zero_one_instance(3, random.Random(8)),
            lambda: zero_one_instance(3, random.Random(5), ny=2),
            lambda: TestHierarchy().mixed_instance(),
            lambda: as_vertex_lists(TestHierarchy().mixed_instance()),
        ],
        ids=["01_two", "01_three", "01_three_ny2", "mixed", "mixed_vertex_lists"],
    )
    def test_equals_reference_builders(self, make):
        # one assembly of the objective, coupling, membership and face rows
        # builds the same LPs, row names and tags included
        inst = make()
        for k in range(1, inst.np + 1):
            assert_same_lp(build_fdr_level(inst, k), reference_fdr_level(inst, k))
        assert brute_force_fdp(inst) == reference_brute_force_fdp(inst)
