"""H-representations, homogenization and the vertex oracle."""

import itertools
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
from conftest import sympy_rref


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
            seen["rank deficient"] += 0 < m and len(sympy_rref(A)[1]) < n
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


def fraction_oracle(P):
    """The vertex oracle by sympy: rank check, then each n-row subset
    solved by reduced row echelon form and tested row by row in Fraction
    arithmetic.  The reference for the integer oracle."""
    n = P.n
    if n == 0:
        return [()]
    if len(sympy_rref(P.A, n)[1]) < n:
        raise NotFullRank("no n linearly independent rows")
    seen = set()
    for subset in itertools.combinations(range(P.m), n):
        red, pivots = sympy_rref([list(P.A[i]) + [P.b[i]] for i in subset])
        if len(pivots) < n or pivots[-1] == n:
            continue
        pt = tuple(red[i][n] for i in range(n))
        if pt not in seen and all(
            sum(a * x for a, x in zip(row, pt)) <= rhs for row, rhs in zip(P.A, P.b)
        ):
            seen.add(pt)
    return sorted(seen)


def seeded_polyhedron(rng):
    """A random polyhedron of dimension 1..4 with rational data; returns
    (P, kinds) with kinds naming the special structure it was given."""
    n = rng.randint(1, 4)
    m = rng.randint(0, {1: 6, 2: 7, 3: 7, 4: 8}[n])
    A = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
    b = [F(rng.randint(-2, 6), rng.randint(1, 3)) for _ in range(m)]
    kinds = set()
    roll = rng.random()
    if roll < 0.15:
        # the box [0,1]^n cut by sum x <= 1 + 0 or 1: more than n rows are
        # tight at some vertices
        A, b = [], []
        for i in range(n):
            A += [[F(-int(j == i)) for j in range(n)], [F(int(j == i)) for j in range(n)]]
            b += [F(0), F(1)]
        A.append([F(1)] * n)
        b.append(F(rng.randint(1, 2)))
        kinds.add("degenerate")
    elif roll < 0.3 and m:
        i = rng.randrange(m)
        A.append(list(A[i]))
        b.append(b[i])
        kinds.add("duplicate")
    elif roll < 0.45 and m:
        i, s = rng.randrange(m), F(rng.randint(1, 4), rng.randint(1, 4))
        A.append([s * a for a in A[i]])
        b.append(s * b[i] + rng.choice([F(0), F(1), F(-1, 2)]))
        kinds.add("parallel")
    elif roll < 0.6 and m:
        j = rng.randrange(n)
        for row in A:
            row[j] = F(0)
        kinds.add("rank deficient")
    return HPolyhedron.make(A, b), kinds


class TestIntegerOracle:
    """The integer vertex oracle, ``linalg.solve`` and ``contains`` against
    their sympy and Fraction references."""

    def test_oracle_matches_fraction_oracle(self):
        rng = random.Random(20240)
        seen = {"degenerate": 0, "duplicate": 0, "parallel": 0, "rank deficient": 0,
                "not full rank": 0, "has vertices": 0}
        for _ in range(360):
            P, kinds = seeded_polyhedron(rng)
            try:
                want = fraction_oracle(P)
            except NotFullRank:
                with pytest.raises(NotFullRank):
                    enumerate_vertices_oracle(P)
                seen["not full rank"] += 1
            else:
                assert enumerate_vertices_oracle(P) == want, P
                seen["has vertices"] += bool(want)
            for k in kinds:
                seen[k] += 1
        assert all(count >= 30 for count in seen.values()), seen

    def test_solve_matches_rref(self):
        rng = random.Random(7)
        singular = 0
        for _ in range(500):
            n = rng.randint(1, 5)
            a = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
            b = [rng.randint(-9, 9) for _ in range(n)]
            red, pivots = sympy_rref([row + [r] for row, r in zip(a, b)])
            want = None if len(pivots) < n or pivots[-1] == n else [red[i][n] for i in range(n)]
            assert linalg.solve(a, b) == want, (a, b)
            singular += want is None
        assert singular >= 30

    def test_contains_matches_fraction_test(self):
        rng = random.Random(11)
        for _ in range(100):
            P, _ = seeded_polyhedron(rng)
            for k in range(10):
                # plain ints and Fractions are both rationals
                pt = [rng.randint(-2, 2) if k % 2 else F(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(P.n)]
                want = all(sum(a * x for a, x in zip(row, pt)) <= r for row, r in zip(P.A, P.b))
                assert P.contains(pt) == want
