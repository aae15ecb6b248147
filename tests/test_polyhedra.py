"""H-representations, homogenization and the vertex oracle."""

import random
from fractions import Fraction as F

import pytest

from barydd import (
    HPolyhedron,
    LPVerificationError,
    NotFullRank,
    dehomogenize,
    enumerate_vertices_oracle,
    homogenize,
)
from barydd import linalg
from barydd.exactmath import RatFun
from barydd.polyhedra import is_bounded, recession_ray


class TestHomogenize:
    def test_row_convention(self):
        # x1 + 4x2 <= 2 homogenizes to row [2, -1, -4, 0]
        P = HPolyhedron.make([[1, 4, 0]], [2])
        cone = homogenize(P)
        assert cone.Abar[0] == (F(2), F(-1), F(-4), F(0))

    def test_no_rows(self):
        P = HPolyhedron.make([], [])
        cone = homogenize(P)
        assert cone.m == 0

    def test_membership_slice(self, poly_53):
        cone = homogenize(poly_53)
        rng = random.Random(3)
        for _ in range(100):
            pt = [F(rng.randint(-6, 10), rng.randint(1, 3)) for _ in range(3)]
            member = poly_53.contains(pt)
            hom = all(
                sum(c * v for c, v in zip(row, [F(1)] + pt)) >= 0
                for row in cone.Abar
            )
            assert member == hom


class TestDehomogenize:
    def test_scaling(self):
        f = RatFun.variable(4, 1)
        cols, lam = dehomogenize([(F(2), F(2), F(1), F(0))], [f])
        assert cols[0] == (F(1), F(1), F(1, 2), F(0))
        assert lam[0] == f.subs_one(0).scale(2)

    def test_ray_unchanged(self):
        f = RatFun.variable(4, 1)
        cols, lam = dehomogenize([(F(0), F(0), F(0), F(1))], [f])
        assert cols[0] == (F(0), F(0), F(0), F(1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dehomogenize([(F(1), F(0))], [])


class TestVertexOracle:
    def test_box(self, unit_box):
        P = unit_box(2)
        assert enumerate_vertices_oracle(P) == [
            (F(0), F(0)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1), F(1)),
        ]

    def test_53_vertices(self, poly_53):
        got = enumerate_vertices_oracle(poly_53)
        want = sorted(
            [
                (F(0), F(0), F(0)),
                (F(5, 2), F(0), F(0)),
                (F(0), F(0), F(4)),
                (F(1), F(0), F(3)),
                (F(0), F(7, 4), F(0)),
                (F(13, 7), F(9, 7), F(0)),
                (F(0), F(1), F(3)),
                (F(1), F(1), F(2)),
            ]
        )
        assert got == want

    def test_62_polytope(self, dbp_62):
        verts = enumerate_vertices_oracle(dbp_62.P)
        assert len(verts) == 4
        assert (F(0), F(2)) in verts

    def test_not_full_rank(self):
        P = HPolyhedron.make([[1, 0], [2, 0], [-1, 0]], [1, 3, 0])
        with pytest.raises(NotFullRank):
            enumerate_vertices_oracle(P)

    def test_unbounded_returns_vertices_only(self):
        # x >= 0 quadrant plus one slope: vertices of the polyhedron only
        P = HPolyhedron.make([[-1, 0], [0, -1]], [0, 0])
        assert enumerate_vertices_oracle(P) == [(F(0), F(0))]


def brute_force_ray(P):
    """Oracle: a nonzero vertex of the box-capped recession cone
    {A d <= 0, -1 <= d <= 1}, by enumerating its C(m+2n, n) vertices."""
    n = P.n
    rows, rhs = [list(row) for row in P.A], [F(0)] * P.m
    for i in range(n):
        e = [F(int(j == i)) for j in range(n)]
        rows += [e, [-c for c in e]]
        rhs += [F(1), F(1)]
    for v in enumerate_vertices_oracle(HPolyhedron.make(rows, rhs)):
        if any(c != 0 for c in v):
            return v
    return None


class TestBoundedness:
    def test_bounded(self, poly_51):
        assert is_bounded(poly_51)

    def test_unbounded_ray(self):
        P = HPolyhedron.make([[-1, 0], [0, -1]], [0, 0])
        ray = recession_ray(P)
        assert ray is not None and any(c != 0 for c in ray)

    def test_agrees_with_brute_force(self):
        # 300 seeded polyhedra, n <= 3 and m <= 6, some with no rows and
        # some with a zero column (rank A < n); every ray is checked exactly
        rng = random.Random(5)
        seen = {"bounded": 0, "unbounded": 0, "no rows": 0, "rank deficient": 0}
        for _ in range(300):
            n, m = rng.randint(1, 3), rng.choice([0, 1, 2, 3, 4, 5, 6])
            A = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
            if m and rng.random() < 0.25:
                j = rng.randrange(n)
                for row in A:
                    row[j] = F(0)
            P = HPolyhedron.make(A, [F(rng.randint(-2, 5)) for _ in range(m)], [f"x{j}" for j in range(n)])
            ray = recession_ray(P)
            assert (ray is None) == (brute_force_ray(P) is None), P
            if ray is not None:
                assert any(ray) and all(sum(a * d for a, d in zip(row, ray)) <= 0 for row in P.A)
            seen["bounded" if ray is None else "unbounded"] += 1
            seen["no rows"] += m == 0
            seen["rank deficient"] += 0 < m and linalg.rank([list(r) for r in A]) < n
        assert all(count >= 30 for count in seen.values()), seen

    def test_bad_ray_raises(self, monkeypatch):
        # a recession LP whose primal is not a ray fails the exact check
        from barydd import polyhedra

        P = HPolyhedron.make([[-1, 0], [0, -1]], [0, 0])
        real = polyhedra.lp_solve

        def tampered(prob):
            sol = real(prob)
            sol.primal = {v: -x for v, x in sol.primal.items()}
            return sol

        monkeypatch.setattr(polyhedra, "lp_solve", tampered)
        with pytest.raises(LPVerificationError):
            recession_ray(P)


class TestMake:
    def test_ragged_rows(self):
        with pytest.raises(ValueError):
            HPolyhedron.make([[1, 0], [1]], [1, 2])

    def test_name_count(self):
        with pytest.raises(ValueError):
            HPolyhedron.make([[1, 0]], [1], ["x"])

    def test_names_fix_n_without_rows(self):
        P = HPolyhedron.make([], [], ["a", "b"])
        assert P.n == 2 and not is_bounded(P)


class TestJson:
    def test_equality_split(self):
        data = {
            "variables": ["a", "b"],
            "constraints": [
                {"coeffs": ["1", "1"], "sense": "=", "rhs": "1"},
                {"coeffs": ["1", "-1"], "sense": ">=", "rhs": "0"},
            ],
        }
        P = HPolyhedron.from_json(data)
        assert P.m == 3  # equality split into two inequalities
        assert P.contains([F(1, 2), F(1, 2)])
        assert not P.contains([F(1, 4), F(1, 2)])

    def test_roundtrip(self, poly_51):
        assert HPolyhedron.from_json(poly_51.to_json()) == poly_51
