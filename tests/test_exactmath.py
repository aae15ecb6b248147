"""Exact polynomial / rational-function arithmetic."""

import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barydd.exactmath import (
    DenominatorVanishes,
    DivisionByZeroFunction,
    Poly,
    RatFun,
    rat_from_str,
    rf_equal,
)


def P2(terms):
    return Poly(3, terms)  # three vars: x0, x1, x2


x0 = Poly.variable(3, 0)
x1 = Poly.variable(3, 1)
x2 = Poly.variable(3, 2)


class TestPoly:
    def test_add_mul(self):
        p = (x1 + x2) * (x1 - x2)
        assert p == x1 * x1 - x2 * x2

    def test_eval(self):
        p = x1 * x1 + x2.scale(3)
        assert p.eval([F(0), F(2), F(5)]) == 4 + 15

    def test_leading_graded_lex(self):
        p = x1 * x2 + x1  # degree 2 term leads
        assert p.leading()[0] == (0, 1, 1)
        q = x1 * x1 + x1 * x2  # same degree: lex on exponents
        assert q.leading()[0] == (0, 2, 0)

    def test_exact_div(self):
        p = (x1 + x2) * (x1 - x2.scale(2)) * (x0 + x1)
        assert p.exact_div(x1 + x2) == (x1 - x2.scale(2)) * (x0 + x1)
        assert p.exact_div(x1 + x2.scale(5)) is None

    def test_subs_one(self):
        p = x0 * x1 + x0 * x0
        assert p.subs_one(0) == x1 + Poly.const(3, 1)

    def test_json_roundtrip(self):
        p = x1 * x2.scale(F(-7, 3)) + Poly.const(3, F(1, 2))
        assert Poly.from_json(p.to_json(), 3) == p


class TestRatFunGoldens:
    def test_combine_identity(self):
        f = RatFun.variable(3, 1)
        zero = RatFun.const(3, 0)
        assert rf_equal(f + zero, f)

    def test_combine_reciprocal(self):
        f = RatFun(x1, x2)
        g = RatFun(x2, x1)
        assert rf_equal(f * g, RatFun.const(3, 1))

    def test_divide_by_zero(self):
        f = RatFun.variable(3, 1)
        with pytest.raises(DivisionByZeroFunction):
            f / RatFun.const(3, 0)

    def test_dx_expansion(self):
        """363 + 3234 x1 - 2046 x2 equals 33(11(1+10x1-10x2) + 12(4x2-x1)).

        The source prints 3243 for the linear coefficient, which contradicts
        its own factorization; the expansion gives 3234.
        """
        lhs = RatFun.from_poly(Poly.affine(3, 363, [0, 3234, -2046]))
        inner = Poly.affine(3, 11, [0, 110, -110]) + Poly.affine(3, 0, [0, -12, 48])
        rhs = RatFun.from_poly(inner.scale(33))
        assert rf_equal(lhs, rhs)
        bad = RatFun.from_poly(Poly.affine(3, 363, [0, 3243, -2046]))
        assert not rf_equal(bad, rhs)

    def test_uncancelled_common_factor(self):
        assert rf_equal(RatFun(x1, x2), RatFun(x1 * x1, x1 * x2))

    def test_hash_agrees_with_eq(self):
        # x(x+1)/(x+1) keeps its common factor, yet equals x
        one = Poly.const(3, 1)
        f, g = RatFun(x0 * (x0 + one), x0 + one), RatFun.from_poly(x0)
        assert f.num != g.num and f == g
        assert hash(f) == hash(g) and len({f, g}) == 1

    def test_distinct(self):
        assert not rf_equal(RatFun.variable(3, 1), RatFun.variable(3, 2))


class TestEval51:
    """mu_1 of the 8-vertex example evaluates to the vertex indicator."""

    def mu1(self):
        def aff(c0, cs):
            return Poly.affine(4, c0, [0] + cs)

        num = aff(3, [-1, -1, -1]) * aff(2, [-2, -1, 0]) * aff(2, [-1, -4, 0])
        den = (aff(2, [-1, -1, 0]) * aff(3, [-1, -1, 0])).scale(2)
        return RatFun(num, den)

    def test_at_own_vertex(self):
        assert self.mu1().eval([1, 0, 0, 0]) == 1

    def test_at_other_vertex(self):
        assert self.mu1().eval([1, 1, 0, 0]) == 0

    def test_interior_substitution(self):
        pt = [F(1), F(1, 2), F(1, 4), F(1, 2)]
        num = (3 - F(1, 2) - F(1, 4) - F(1, 2)) * (2 - 1 - F(1, 4)) * (
            2 - F(1, 2) - 1
        )
        den = 2 * (2 - F(3, 4)) * (3 - F(3, 4))
        assert self.mu1().eval(pt) == num / den

    def test_denominator_vanishes(self):
        f = RatFun(x1, x2)
        with pytest.raises(DenominatorVanishes):
            f.eval([1, 1, 0])


class TestLimit:
    """The one-sided limit of a rational function at a point along the
    segment to another point."""

    at, toward = [F(1), F(1), F(1)], [F(1), F(0), F(2)]  # x1 = 1 - t, x2 = 1 + t

    def test_equals_eval_where_defined(self):
        f = TestEval51().mu1()
        pt = [F(1), F(1, 2), F(1, 4), F(1, 2)]
        assert f.limit(pt, [F(1), F(0), F(0), F(0)]) == f.eval(pt)

    def test_removable_zero(self):
        # (x1^2 - x2^2) / (x1 - x2) is -4t / -2t on the segment
        assert RatFun(x1 * x1 - x2 * x2, x1 - x2).limit(self.at, self.toward) == 2
        assert RatFun((x1 - x2) * (x1 - x2), x1 - x2).limit(self.at, self.toward) == 0

    def test_pole(self):
        f = RatFun(x1, x1 - x2)
        with pytest.raises(DenominatorVanishes):
            f.eval(self.at)
        assert f.limit(self.at, self.toward) is None

    def test_denominator_zero_on_segment(self):
        assert RatFun(x1, x1 - x2).limit(self.at, [F(1), F(2), F(2)]) is None


def random_poly(rng, nvars, deg, nterms):
    terms = {}
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(deg):
            e[rng.randrange(nvars)] += rng.randint(0, 1)
        terms[tuple(e)] = F(rng.randint(-9, 9), rng.randint(1, 5))
    return Poly(nvars, terms)


class TestPointwiseOracle:
    """Arithmetic agreement with pointwise evaluation on random data."""

    def test_add_matches_double(self):
        rng = random.Random(7)
        p = random_poly(rng, 3, 3, 6)
        q = random_poly(rng, 3, 3, 6)
        if q.is_zero():
            q = Poly.const(3, 1)
        f = RatFun(p, q)
        s = f + f
        hits = 0
        while hits < 20:
            pt = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)]
            if q.eval(pt) == 0:
                continue
            hits += 1
            assert s.eval(pt) == 2 * p.eval(pt) / q.eval(pt)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_ops_pointwise(self, op):
        # a str seed is hashed by random itself, so PYTHONHASHSEED cannot move it
        rng = random.Random(f"pointwise-{op}")

        def denominator(c):
            while True:  # redraw the zero polynomial
                q = random_poly(rng, 3, 2, 3) + Poly.const(3, c)
                if not q.is_zero():
                    return q

        for _ in range(8):
            f = RatFun(random_poly(rng, 3, 2, 4), denominator(1))
            g = RatFun(random_poly(rng, 3, 2, 4), denominator(2))
            if op == "div" and g.is_zero():
                continue
            h = getattr(operator, "truediv" if op == "div" else op)(f, g)
            hits = 0
            tries = 0
            while hits < 6 and tries < 200:
                tries += 1
                pt = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
                try:
                    fv, gv = f.eval(pt), g.eval(pt)
                    hv = h.eval(pt)
                except DenominatorVanishes:
                    continue
                if op == "div" and gv == 0:
                    continue
                want = {
                    "add": fv + gv,
                    "sub": fv - gv,
                    "mul": fv * gv,
                    "div": fv / gv if gv else None,
                }[op]
                assert hv == want
                hits += 1
            assert hits >= 3


def reference_exact_div(p, divisor):
    """The division loop that ``Poly.exact_div`` replaced: each step reads the
    remainder's leading term with ``leading()`` and rebuilds the whole
    remainder as ``rem - divisor * (quotient term)``."""
    if p.nvars != divisor.nvars:
        raise ValueError("variable count mismatch")
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return Poly.zero(p.nvars)
    lt_e, lt_c = divisor.leading()
    rem = p
    qterms = {}
    while rem.terms:
        re, rc = rem.leading()
        qe = tuple(a - b for a, b in zip(re, lt_e))
        if any(k < 0 for k in qe):
            return None
        qc = rc / lt_c
        qterms[qe] = qterms.get(qe, F(0)) + qc
        rem = rem - divisor * Poly(p.nvars, {qe: qc})
    return Poly(p.nvars, qterms)


def nonzero_poly(rng, nvars, deg, nterms):
    """A nonzero polynomial of total degree <= deg with up to nterms terms
    and small rational coefficients."""
    while True:
        terms = {}
        for _ in range(nterms):
            e = [0] * nvars
            for _ in range(rng.randint(0, deg)):
                e[rng.randrange(nvars)] += 1
            terms[tuple(e)] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        p = Poly(nvars, terms)
        if p:
            return p


class TestExactDiv:
    """``exact_div`` against the rebuild-per-step reference on seeded random
    polynomials in 1-4 variables: the same None, or an equal quotient whose
    terms come in the same (descending graded-lex) order."""

    NVARS = [1, 2, 3, 4]
    CASES = 40

    @staticmethod
    def same_as_reference(p, d):
        got, want = p.exact_div(d), reference_exact_div(p, d)
        if want is None:
            assert got is None
        else:
            assert got == want and list(got.terms) == list(want.terms)
        return got

    @pytest.mark.parametrize("nvars", NVARS)
    def test_product_quotient(self, nvars):
        rng = random.Random(f"exact-div-product-{nvars}")
        for _ in range(self.CASES):
            p = nonzero_poly(rng, nvars, 3, 5)
            d = nonzero_poly(rng, nvars, 2, 4)
            assert self.same_as_reference(p * d, d) == p

    @pytest.mark.parametrize("nvars", NVARS)
    def test_not_divisible(self, nvars):
        """p*d + r, with r a term that d does not divide."""
        rng = random.Random(f"exact-div-remainder-{nvars}")
        for _ in range(self.CASES):
            p = nonzero_poly(rng, nvars, 3, 5)
            d = nonzero_poly(rng, nvars, 2, 4)
            while d.degree() == 0:
                d = nonzero_poly(rng, nvars, 2, 4)
            lt_e = d.leading()[0]
            while True:
                r = nonzero_poly(rng, nvars, 4, 1)
                (re, _), = r.terms.items()
                if len(d.terms) > 1 or any(a < b for a, b in zip(re, lt_e)):
                    break
            assert self.same_as_reference(p * d + r, d) is None

    @pytest.mark.parametrize("nvars", NVARS)
    def test_single_term_divisor(self, nvars):
        rng = random.Random(f"exact-div-monomial-{nvars}")
        for _ in range(self.CASES):
            p = nonzero_poly(rng, nvars, 3, 5)
            d = nonzero_poly(rng, nvars, 2, 1)
            assert self.same_as_reference(p * d, d) == p
            # divisible only where the monomial divides every term of p
            self.same_as_reference(p, d)

    @pytest.mark.parametrize("nvars", NVARS)
    def test_intermediate_terms_cancel(self, nvars):
        """Divisions whose remainder loses terms other than the leading one:
        (x^k - y^k) / (x - y) cancels y^k at its last step, and in
        (x^2 + x - 1)(x^2 + x + 1) / (x^2 + x + 1) the x^2 term of the
        remainder cancels at the first step and comes back at the second.
        Both also run times a monomial and a random factor."""
        x = Poly.variable(nvars, 0)
        d, q = x * x + x + Poly.const(nvars, 1), x * x + x - Poly.const(nvars, 1)
        assert self.same_as_reference(q * d, d) == q
        rng = random.Random(f"exact-div-cancel-{nvars}")
        for _ in range(self.CASES):
            i, j = rng.randrange(nvars), rng.randrange(nvars)
            xi, xj = Poly.variable(nvars, i), Poly.variable(nvars, j)
            one = Poly.const(nvars, 1)
            m = nonzero_poly(rng, nvars, 2, 1)
            p = nonzero_poly(rng, nvars, 2, 3)
            k = rng.randint(2, 5)
            if i != j:
                d = (xi - xj) * m
                num = (xi**k - xj**k) * m * p
                geometric = sum((xi ** (k - 1 - t) * xj**t for t in range(k)), Poly.zero(nvars))
                assert self.same_as_reference(num, d) == geometric * p
            d = (xi * xi + xi + one) * m
            q = (xi * xi + xi - one) * p
            assert self.same_as_reference(q * d, d) == q

    @pytest.mark.parametrize("nvars", NVARS)
    def test_zero_dividend(self, nvars):
        rng = random.Random(f"exact-div-zero-{nvars}")
        d = nonzero_poly(rng, nvars, 2, 3)
        assert self.same_as_reference(Poly.zero(nvars), d) == Poly.zero(nvars)

    @pytest.mark.parametrize("nvars", NVARS)
    def test_zero_divisor_raises(self, nvars):
        p = nonzero_poly(random.Random(nvars), nvars, 2, 3)
        with pytest.raises(ZeroDivisionError):
            p.exact_div(Poly.zero(nvars))
        with pytest.raises(ZeroDivisionError):
            Poly.zero(nvars).exact_div(Poly.zero(nvars))

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            x1.exact_div(Poly.variable(2, 1))

    def test_no_variables(self):
        assert Poly.const(0, 3).exact_div(Poly.const(0, 2)) == Poly.const(0, F(3, 2))


class TestRatFromStr:
    @pytest.mark.parametrize("value", ["1/0", "-3/0", True, False, "1e5", "2.5E-1"])
    def test_rejects(self, value):
        with pytest.raises(ValueError):
            rat_from_str(value)

    @pytest.mark.parametrize("value", [None, [1], {"e": 1}])
    def test_rejects_other_types(self, value):
        with pytest.raises(ValueError, match="^not a rational: "):
            rat_from_str(value)

    @pytest.mark.parametrize(
        "value, want", [("-5/7", F(-5, 7)), (" 3 ", F(3)), (4, F(4)), (F(1, 2), F(1, 2))]
    )
    def test_accepts(self, value, want):
        assert rat_from_str(value) == want

    @staticmethod
    def before(s):
        """rat_from_str before plain integers took ``int``: every string
        through ``Fraction``."""
        if isinstance(s, bool) or not isinstance(s, (str, int, float, F)):
            raise ValueError(f"not a rational: {s!r}")
        if isinstance(s, F):
            return s
        if isinstance(s, int):
            return F(s)
        text = str(s).strip()
        if "e" in text.lower():
            raise ValueError(f"exponent notation is not accepted: {s!r}")
        try:
            return F(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None

    @staticmethod
    def outcome(parse, s):
        try:
            value = parse(s)
        except ValueError as exc:
            return "ValueError", str(exc)
        return type(value), value

    @pytest.mark.parametrize(
        "text",
        ["+5", " 7 ", "-0", "1_000", "\u0663", "0x10", "1.5", "5/0", "1e3", "-", "", "12", "-34",
         "0007", "--5", "- 5", "5-", "7\n", "1" * 5000, "-" + "9" * 4301],
    )
    def test_same_as_before(self, text):
        assert self.outcome(rat_from_str, text) == self.outcome(self.before, text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=6), st.text(alphabet="0123456789-+ /._e\u0663x", max_size=8)))
    def test_same_as_before_on_short_strings(self, text):
        assert self.outcome(rat_from_str, text) == self.outcome(self.before, text)


coeffs = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


@st.composite
def polys(draw, nvars=2, max_deg=3):
    n = draw(st.integers(min_value=1, max_value=4))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(min_value=0, max_value=max_deg)) for _ in range(nvars))
        c = draw(coeffs)
        if c:
            terms[e] = c
    return Poly(nvars, terms)


class TestProperties:
    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_rf_equal_reflexive_symmetric(self, p, q):
        if q.is_zero():
            q = Poly.const(2, 1)
        f = RatFun(p, q)
        g = RatFun(p.scale(3), q.scale(3))
        assert rf_equal(f, f)
        assert rf_equal(f, g) and rf_equal(g, f)

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_normalization_idempotent(self, p, q):
        if q.is_zero():
            q = Poly.const(2, 1)
        f = RatFun(p, q)
        g = RatFun(f.num, f.den)
        assert g.num == f.num and g.den == f.den

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_equal_agrees_with_sampling(self, p, q):
        if q.is_zero():
            q = Poly.const(2, 1)
        f = RatFun(p, q)
        g = RatFun(p + q, q)  # differs from f by exactly 1 everywhere
        assert not rf_equal(f, g)
        rng = random.Random(11)
        checked = 0
        for _ in range(60):
            pt = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
            try:
                assert g.eval(pt) == f.eval(pt) + 1
                checked += 1
            except DenominatorVanishes:
                continue
        assert checked >= 5
