"""The integer kernel of ``barydd.linalg`` and its two callers that need
pivots or a null vector, ``recession_ray`` and ``phase1_order``, against
sympy's exact elimination."""

import random
from fractions import Fraction as F

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barydd import HPolyhedron, linalg
from barydd.dd_engine import phase1_order
from barydd.polyhedra import recession_ray
from conftest import box_polytope, orthant_polytope, sympy_rref


def as_fraction(x) -> F:
    return F(int(x.p), int(x.q))


@st.composite
def int_matrices(draw, square=False):
    """Integer matrices up to 5 x 5, 0 x k, 1 x k and k x 1 included, some
    with a zero row, a zero column, a duplicate row or a row that is a
    combination of two others."""
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 5))
    entry = st.integers(-6, 6)
    a = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows and cols:
        change = draw(st.sampled_from(["none", "zero row", "zero column", "duplicate", "combination"]))
        i = draw(st.integers(0, rows - 1))
        if change == "zero row":
            a[i] = [0] * cols
        elif change == "zero column":
            j = draw(st.integers(0, cols - 1))
            for row in a:
                row[j] = 0
        elif change == "duplicate":
            a[i] = list(a[draw(st.integers(0, rows - 1))])
        elif change == "combination":
            p, q = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            s, t = draw(entry), draw(entry)
            a[i] = [s * x + t * y for x, y in zip(a[p], a[q])]
    return a


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices(), st.integers(0, 5))
    @example([], 3)
    @example([[0, 0, 0]], 3)
    @example([[0], [2], [-4]], 1)
    def test_echelon_matches_sympy(self, a, width):
        cols = len(a[0]) if a else width
        rows, pivots = linalg.echelon(a)
        assert pivots == sympy_rref(a, cols)[1]
        assert len(set(rows)) == len(rows) == len(pivots)
        block = sympy.Matrix(len(rows), len(pivots), [a[i][j] for i in rows for j in pivots])
        assert block.rank() == len(pivots)

    @settings(max_examples=300, deadline=None)
    @given(int_matrices(square=True), st.lists(st.integers(-9, 9), min_size=5, max_size=5))
    @example([], [0] * 5)
    @example([[0]], [1] * 5)
    def test_solve_matches_sympy(self, a, rhs):
        n = len(a)
        b = rhs[:n]
        m = sympy.Matrix(n, n, [x for row in a for x in row])
        got = linalg.solve(a, b)
        if m.det() == 0:
            assert got is None
        else:
            assert got == [as_fraction(x) for x in m.LUsolve(sympy.Matrix(b))]

    @given(st.lists(st.fractions(max_denominator=9), max_size=6))
    def test_over_lcm(self, values):
        ints, d = linalg.over_lcm(values)
        assert d > 0 and all(isinstance(x, int) for x in ints)
        assert [F(x, d) for x in ints] == values
        assert d == sympy.ilcm(1, 1, *(v.denominator for v in values))


@st.composite
def rank_deficient_polyhedra(draw):
    """m x n rows of rational entries, m = 0 included, whose column k is a
    rational combination of the others, so rank A < n."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    q = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    A = [[draw(q) for _ in range(n - 1)] for _ in range(m)]
    weights = [draw(q) for _ in range(n - 1)]
    k = draw(st.integers(0, n - 1))
    for row in A:
        row.insert(k, sum((w * x for w, x in zip(weights, row)), F(0)))
    b = [draw(q) for _ in range(m)]
    return HPolyhedron.make(A, b, [f"x{j}" for j in range(n)])


class TestRecessionRay:
    @settings(max_examples=200, deadline=None)
    @given(rank_deficient_polyhedra())
    def test_null_vector_matches_sympy(self, P):
        # sympy's first null vector belongs to the first free column: 1
        # there and 0 at the other free columns
        pivots = sympy_rref(P.A, P.n)[1]
        free = min(set(range(P.n)) - set(pivots))
        want = sympy.Matrix(P.m, P.n, [x for row in P.A for x in row]).nullspace()[0]
        want = tuple(as_fraction(x / want[free]) for x in want)
        assert recession_ray(P) == want


class TestPhase1Order:
    def test_matches_sympy(self, poly_41, poly_53, dbp_62):
        # the rows moved forward are sympy's pivot columns of the x-parts,
        # the rows of the order as columns
        rng = random.Random(2101)
        polytopes = [poly_41, poly_53, dbp_62.P, box_polytope(3)]
        polytopes += [orthant_polytope(n, m, rng) for n, m in [(2, 5), (3, 6), (3, 7), (4, 8)]]

        def scaled(P):
            # the same polytope, each row times a positive rational
            s = [F(rng.randint(1, 4), rng.randint(1, 4)) for _ in P.b]
            return HPolyhedron.make([[x * a for a in row] for x, row in zip(s, P.A)],
                                    [x * r for x, r in zip(s, P.b)])

        polytopes += [scaled(P) for P in polytopes]
        for P in polytopes:
            for order in [list(range(P.m))] + [rng.sample(range(P.m), P.m) for _ in range(4)]:
                first = [order[c] for c in sympy_rref([[P.A[r][j] for r in order] for j in range(P.n)])[1]]
                assert phase1_order(P, order) == first + [r for r in order if r not in first], (P, order)
