"""Exact rational scalars, sparse multivariate polynomials and rational functions.

Rationals are ``fractions.Fraction`` (aliased ``Rat``): arbitrary precision,
always stored with gcd(|num|, den) = 1 and den > 0.

A polynomial is a map from exponent tuples (one non-negative int per variable)
to nonzero rational coefficients.  The term order used everywhere (leading
terms, serialization, sign conventions) is graded lexicographic.  Variable 0
is the homogenization variable x0 whenever a problem has been homogenized.

A rational function num/den is normalized so that

  * the common pure-monomial factor of num and den is cancelled,
  * all coefficients are integers with gcd 1 jointly across num and den,
  * the graded-lex leading coefficient of den is positive.

No multivariate gcd is ever computed: semantic equality is decided by
cross-multiplication, and cancellation beyond the rules above is the caller's
job (the DD engine divides out known denominator factors by exact division).

Exact division is the heap division of sparse polynomials (Johnson 1974;
Monagan and Pearce 2007): the remainder is one dict updated in place, and a
heap of its monomials yields the graded-lex leading term, so a step costs
O(|divisor|) coefficient operations rather than a rebuild of the remainder.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, neg, sub
from typing import Iterator, Optional, Sequence

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DivisionByZeroFunction(ZeroDivisionError):
    """Raised when dividing by the zero rational function."""


class DenominatorVanishes(ArithmeticError):
    """Raised when a rational function is evaluated on a face where its
    denominator is zero."""

    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"denominator vanishes at {format_point(self.point)}")


def rat_from_str(s) -> Rat:
    """Parse '3', '-5/7' or an int into an exact rational.  Anything else,
    a zero denominator, exponent notation (whose expansion can be huge), a
    bool (JSON true/false) and any type but str, int, float and Fraction
    (JSON null, an array, an object) included, raises ValueError."""
    if isinstance(s, bool) or not isinstance(s, (str, int, float, Fraction)):
        raise ValueError(f"not a rational: {s!r}")
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    # plain ASCII [-]digits, the common case, without Fraction's regex
    if type(s) is str and s.isascii() and (s[1:] if s[:1] == "-" else s).isdigit():
        return Fraction(int(s))
    text = str(s).strip()
    if "e" in text.lower():
        raise ValueError(f"exponent notation is not accepted: {s!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def rat_to_str(r: Rat) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def format_point(point) -> str:
    return "(" + ", ".join(rat_to_str(Fraction(c)) for c in point) + ")"


def _grlex_key(expo: tuple) -> tuple:
    return (sum(expo), expo)


def _heap_entry(expo: tuple) -> tuple:
    """A min-heap entry that pops monomials in descending graded-lex order."""
    return (-sum(expo), tuple(map(neg, expo))), expo


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff:
                    if len(expo) != nvars:
                        raise ValueError("exponent length mismatch")
                    clean[expo] = Fraction(coeff)
        self.terms = clean
        self._hash = None

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, c) -> "Poly":
        c = Fraction(c)
        return Poly(nvars, {(0,) * nvars: c} if c else None)

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        expo = [0] * nvars
        expo[i] = 1
        return Poly(nvars, {tuple(expo): ONE})

    @staticmethod
    def affine(nvars: int, const, coeffs: Sequence) -> "Poly":
        """const + sum_i coeffs[i] * x_i."""
        terms = {}
        c = Fraction(const)
        if c:
            terms[(0,) * nvars] = c
        for i, a in enumerate(coeffs):
            a = Fraction(a)
            if a:
                expo = [0] * nvars
                expo[i] = 1
                terms[tuple(expo)] = a
        return Poly(nvars, terms)

    # -- basic queries -----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Rat:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()), ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self) -> tuple:
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms, key=_grlex_key)
        return expo, self.terms[expo]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, ZERO) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        out = Poly.__new__(Poly)
        out.nvars, out.terms, out._hash = self.nvars, terms, None
        return out

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = {e: -c for e, c in self.terms.items()}
        out._hash = None
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, ZERO) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        out = Poly.__new__(Poly)
        out.nvars, out.terms, out._hash = self.nvars, terms, None
        return out

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero(self.nvars)
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = {e: k * c for e, k in self.terms.items()}
        out._hash = None
        return out

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def eval(self, point: Sequence) -> Rat:
        pt = [Fraction(c) for c in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return total

    def subs_one(self, var: int) -> "Poly":
        """Substitute x_var := 1 (exponent of var collapses to zero)."""
        terms = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[var] = 0
            e2 = tuple(e2)
            s = terms.get(e2, ZERO) + c
            if s:
                terms[e2] = s
            else:
                terms.pop(e2, None)
        return Poly(self.nvars, terms)

    def remap(self, nvars_new: int, var_map: Sequence[int]) -> "Poly":
        """Embed into a space with nvars_new variables, variable i -> var_map[i]."""
        terms = {}
        for e, c in self.terms.items():
            e2 = [0] * nvars_new
            for i, k in enumerate(e):
                if k:
                    e2[var_map[i]] += k
            key = tuple(e2)
            s = terms.get(key, ZERO) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Poly(nvars_new, terms)

    def monomial_content(self) -> tuple:
        """Componentwise min exponent over all terms (the common monomial factor)."""
        if not self.terms:
            return (0,) * self.nvars
        mins = [None] * self.nvars
        for e in self.terms:
            for i, k in enumerate(e):
                if mins[i] is None or k < mins[i]:
                    mins[i] = k
        return tuple(mins)

    def div_monomial(self, expo: tuple) -> "Poly":
        terms = {}
        for e, c in self.terms.items():
            e2 = tuple(a - b for a, b in zip(e, expo))
            if any(k < 0 for k in e2):
                raise ValueError("monomial does not divide")
            terms[e2] = c
        return Poly(self.nvars, terms)

    def primitive(self) -> tuple:
        """Return (scalar, primitive part): self = scalar * primitive, where the
        primitive part has integer coefficients with gcd 1 and positive
        graded-lex leading coefficient."""
        if not self.terms:
            return ONE, self
        denom_lcm = 1
        for c in self.terms.values():
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        numer_gcd = 0
        for c in self.terms.values():
            numer_gcd = gcd(numer_gcd, abs(c.numerator * (denom_lcm // c.denominator)))
        scalar = Fraction(numer_gcd, denom_lcm)
        prim = self.scale(1 / scalar)
        if prim.leading()[1] < 0:
            prim = -prim
            scalar = -scalar
        return scalar, prim

    def sorted_terms(self) -> Iterator[tuple]:
        """Terms in descending graded-lex order."""
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            yield e, self.terms[e]

    def key(self) -> tuple:
        """Canonical hashable key of the primitive part (sign included)."""
        _, prim = self.primitive()
        return (prim.nvars, tuple(prim.sorted_terms()))

    # -- division -----------------------------------------------------------
    def exact_div(self, divisor: "Poly") -> Optional["Poly"]:
        """Exact polynomial division: self / divisor if the remainder is zero,
        else None.  Correct for deciding divisibility because graded-lex is a
        monomial order: if divisor | self then LT(divisor) | LT(remainder) at
        every step.

        The remainder is one dict, changed in place.  Its leading term comes
        off a min-heap of negated graded-lex keys; a popped monomial that is
        no longer in the dict has cancelled and is skipped.  Each step
        subtracts the quotient term times the divisor's non-leading terms
        (the leading one cancels by construction) and pushes only monomials
        new to the dict.  Quotient terms are found, and stored, in
        descending graded-lex order."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lt_e, lt_c = divisor.leading()
        rest = [(e, c) for e, c in divisor.terms.items() if e != lt_e]
        rem = dict(self.terms)
        heap = [_heap_entry(e) for e in rem]
        heapify(heap)
        qterms = {}
        while heap:
            re = heappop(heap)[1]
            rc = rem.pop(re, None)
            if rc is None:
                continue
            qe = tuple(map(sub, re, lt_e))
            if min(qe, default=0) < 0:
                return None
            qc = rc / lt_c
            qterms[qe] = qc
            for de, dc in rest:
                te = tuple(map(add, qe, de))
                old = rem.get(te)
                if old is None:
                    rem[te] = -(qc * dc)
                    heappush(heap, _heap_entry(te))
                else:
                    s = old - qc * dc
                    if s:
                        rem[te] = s
                    else:
                        del rem[te]
        out = Poly.__new__(Poly)
        out.nvars, out.terms, out._hash = self.nvars, qterms, None
        return out

    # -- serialization -------------------------------------------------------
    def to_json(self) -> list:
        return [[rat_to_str(c), list(e)] for e, c in self.sorted_terms()]

    @staticmethod
    def from_json(data, nvars: Optional[int] = None) -> "Poly":
        if nvars is None:
            if not data:
                raise ValueError("cannot infer variable count of the zero polynomial")
            nvars = len(data[0][1])
        return Poly(nvars, {tuple(e): rat_from_str(c) for c, e in data})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k
            )
            if mono:
                parts.append(f"{rat_to_str(c)}*{mono}" if c != 1 else mono)
            else:
                parts.append(rat_to_str(c))
        return " + ".join(parts)


def _along(p: Poly, point: Sequence, step: Sequence) -> list:
    """The coefficients of p(point + t step) as a polynomial in t, lowest
    power first."""
    out = [ZERO] * (p.degree() + 1)
    for e, c in p.terms.items():
        term = [c]
        for a, b, k in zip(point, step, e):
            for _ in range(k):  # term * (a + b t)
                term = [a * x + b * y for x, y in zip(term + [ZERO], [ZERO] + term)]
        for i, x in enumerate(term):
            out[i] += x
    return out


class RatFun:
    """Normalized ratio of two polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise DivisionByZeroFunction("zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("variable count mismatch")
        if num.is_zero():
            self.num = num
            self.den = Poly.const(num.nvars, 1)
            return
        mono = tuple(
            min(a, b)
            for a, b in zip(num.monomial_content(), den.monomial_content())
        )
        if any(mono):
            num = num.div_monomial(mono)
            den = den.div_monomial(mono)
        sn, pn = num.primitive()
        sd, pd = den.primitive()
        ratio = sn / sd  # joint content: num/den = ratio * pn/pd
        self.num = pn.scale(Fraction(ratio.numerator))
        self.den = pd.scale(Fraction(ratio.denominator))

    @staticmethod
    def from_poly(p: Poly) -> "RatFun":
        return RatFun(p, Poly.const(p.nvars, 1))

    @staticmethod
    def const(nvars: int, c) -> "RatFun":
        return RatFun.from_poly(Poly.const(nvars, c))

    @staticmethod
    def variable(nvars: int, i: int) -> "RatFun":
        return RatFun.from_poly(Poly.variable(nvars, i))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def __add__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __mul__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.num.is_zero():
            raise DivisionByZeroFunction("division by the zero function")
        return RatFun(self.num * other.den, self.den * other.num)

    def scale(self, c) -> "RatFun":
        return RatFun(self.num.scale(c), self.den)

    def subs_one(self, var: int) -> "RatFun":
        return RatFun(self.num.subs_one(var), self.den.subs_one(var))

    def remap(self, nvars_new: int, var_map: Sequence[int]) -> "RatFun":
        return RatFun(self.num.remap(nvars_new, var_map), self.den.remap(nvars_new, var_map))

    def eval(self, point: Sequence) -> Rat:
        d = self.den.eval(point)
        if d == 0:
            raise DenominatorVanishes(point)
        return self.num.eval(point) / d

    def limit(self, point: Sequence, toward: Sequence) -> Optional[Rat]:
        """The exact one-sided limit of self at ``point`` along the segment
        to ``toward``: num and den are expanded as polynomials in t at
        x = point + t (toward - point), the lowest power of t in den is
        cancelled, and t = 0 is taken.  Equal to ``eval`` where den does
        not vanish at ``point``.  None when the limit is a pole, or when den
        vanishes on the whole segment."""
        step = [Fraction(c) - Fraction(x) for x, c in zip(point, toward)]
        num = _along(self.num, point, step)
        den = _along(self.den, point, step)
        k = next((i for i, c in enumerate(den) if c), None)
        if k is None or any(num[:k]):
            return None
        return num[k] / den[k] if k < len(num) else ZERO

    def __eq__(self, other):
        return isinstance(other, RatFun) and rf_equal(self, other)

    def __hash__(self):
        # Normalization cancels no common polynomial factor, so equal values
        # can have different num and den.  Their degree difference is the
        # same: num1 * den2 == num2 * den1 and degrees add under products.
        return hash((self.nvars, self.num.degree() - self.den.degree()))

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data, nvars: Optional[int] = None) -> "RatFun":
        num = Poly.from_json(data["num"], nvars)
        den = Poly.from_json(data["den"], nvars if nvars is not None else num.nvars)
        return RatFun(num, den)

    def __repr__(self):
        if self.is_polynomial() and self.den.constant_value() == 1:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def rf_equal(lhs: RatFun, rhs: RatFun) -> bool:
    """Semantic equality by cross-multiplication (no gcd needed)."""
    if lhs.nvars != rhs.nvars:
        return False
    return lhs.num * rhs.den == rhs.num * lhs.den
