"""Algebraic optimality certificates for disjoint bilinear programs.

From the hull LP duals (S on the scaled y-membership rows, gamma on the
lambda lower bounds, delta on the simplex row) and the symbolic barycentric
coordinates lambda(x), the objective satisfies the polynomial identity

    z(x) * (obj(x, y) - delta) = q(x, y)

where z is the least common denominator of the lambda (a product of tracked
denominator factors; no multivariate gcd is used) and q is a non-negative
combination of products of P-constraint expressions, each optionally
multiplied by one Py-constraint expression.  The products z * lambda_i are
read from the coordinates' stored form (a numerator over a multiset of DD
pool factors), with no rational-function normalization and no division.
Verification checks the identity in integers: both sides over one common
denominator, each P row in its integer form, compared coefficient by
coefficient.  It then checks z > 0 at the average of P's vertices, which
with non-negative weights proves obj >= delta on P x Py (see
``verify_certificate``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .exactmath import Poly, is_index, rat_from_str, rat_to_str
from .lp import LPProblem, LPSolution, lp_solve
from .polyhedra import enumerate_vertices_oracle
from .relaxation import BarycentricCoords, DBPInstance

ZERO = Fraction(0)


class OrderMismatch(ValueError):
    """Hull LP columns and coordinate columns disagree."""


class CertificateStructureError(RuntimeError):
    """The hull LP has no simplex row, or a weighted numerator could not be
    decomposed into non-negative constraint products (should not happen for
    valid inputs)."""


@dataclass
class CertTerm:
    weight: Fraction
    pfactors: Tuple[int, ...]  # P-row indices, with multiplicity
    yfactor: Optional[int]  # Py-row index or None

    def to_json(self) -> dict:
        return {
            "weight": rat_to_str(self.weight),
            "pfactors": list(self.pfactors),
            "yfactor": self.yfactor,
        }

    @staticmethod
    def from_json(d: dict) -> "CertTerm":
        pf = tuple(d["pfactors"])
        yf = d.get("yfactor")
        if not all(is_index(i) for i in pf) or not (yf is None or is_index(yf)):
            raise ValueError("row indices must be integers")
        return CertTerm(rat_from_str(d["weight"]), pf, yf)


@dataclass
class Certificate:
    delta: Fraction
    zpoly: Poly  # over the combined (x, y) space, y-degrees all zero
    terms: List[CertTerm]
    n: int
    ny: int

    def to_json(self) -> dict:
        return {
            "delta": rat_to_str(self.delta),
            "z": self.zpoly.to_json(),
            "n": self.n,
            "ny": self.ny,
            "terms": [t.to_json() for t in self.terms],
        }

    @staticmethod
    def from_json(d: dict) -> "Certificate":
        if not (is_index(d["n"]) and is_index(d["ny"]) and d["n"] >= 0 and d["ny"] >= 0):
            raise ValueError("n and ny must be non-negative integers")
        if not isinstance(d["terms"], list):
            raise ValueError("terms must be a list")
        # zpoly lives in the combined (x, y) space with zero y-degrees
        return Certificate(
            delta=rat_from_str(d["delta"]),
            zpoly=Poly.from_json(d["z"], d["n"] + d["ny"]),
            terms=[CertTerm.from_json(t) for t in d["terms"]],
            n=d["n"],
            ny=d["ny"],
        )

    def render(self, inst: DBPInstance) -> str:
        """Human-readable form of the identity."""

        def lin(b, coeffs, names):
            parts = [rat_to_str(b)] if b else []
            for c, nm in zip(coeffs, names):
                if c:
                    parts.append(f"{rat_to_str(-c)}*{nm}")
            return " + ".join(parts).replace("+ -", "- ") or "0"

        xn = [f"x{j+1}" for j in range(self.n)]
        yn = [f"y{l+1}" for l in range(self.ny)]
        lines = [f"z(x) * (objective - ({rat_to_str(self.delta)})) ="]
        for t in self.terms:
            fs = [f"({lin(inst.P.b[i], inst.P.A[i], xn)})" for i in t.pfactors]
            if t.yfactor is not None:
                fs.append(f"({lin(inst.Py.b[t.yfactor], inst.Py.A[t.yfactor], yn)})")
            lines.append(f"  + {rat_to_str(t.weight)} * " + " * ".join(fs or ["1"]))
        return "\n".join(lines)


def _p_row_expr(inst: DBPInstance, i: int, nv: int) -> Poly:
    """b_i - A_i.x as a Poly over nv variables, x1..xn first: over x alone
    (nv = n) or over (x1..xn, y1..yny)."""
    return Poly.affine(nv, inst.P.b[i], [-a for a in inst.P.A[i]])


def vertex_average(verts: Sequence[tuple]) -> tuple:
    """The average of the points ``verts``, exactly."""
    return tuple(Fraction(sum(c), len(verts)) for c in zip(*verts))


INTERIOR_SEED = 20240801  # the seed of every interior_points draw


def interior_points(verts: Sequence[tuple], n: int, count: int) -> List[tuple]:
    """Random rational strictly-interior points of the polytope with vertices
    ``verts`` in dimension ``n``: positive convex combinations of the
    vertices (all weights > 0), the same on every call (``INTERIOR_SEED``).
    The sums are taken in integers: over the common denominator D of the
    vertex entries each vertex is an integer vector V_i, and coordinate j
    of a point with integer weights w is sum_i w_i V_ij / (D sum_i w_i),
    the only fraction made."""
    rng = random.Random(INTERIOR_SEED)
    flat, D = linalg.over_lcm([c for v in verts for c in v])
    V = [flat[i * n:(i + 1) * n] for i in range(len(verts))]
    pts = []
    for _ in range(count):
        ws = [rng.randint(1, 50) for _ in verts]
        den = D * sum(ws)
        pts.append(tuple(
            Fraction(sum(w * v[j] for w, v in zip(ws, V)), den) for j in range(n)
        ))
    return pts


def _factor_into_products(
    poly: Poly, row_exprs: Sequence[Poly]
) -> List[Tuple[Fraction, Tuple[int, ...]]]:
    """Express poly (over x-part of the (x,y)-space) as a non-negative
    combination of products of the P-row expressions ``row_exprs``.  Greedy
    exact division first (covers the simple-polytope case where each
    numerator is a single product); falls back to exact LP coefficient
    matching.  The division scan never returns to a row that failed: a row
    that does not divide p does not divide p / g either."""
    if poly.is_zero():
        return []
    nv = poly.nvars
    rem = poly
    factors: List[int] = []
    i = 0
    while i < len(row_exprs) and not rem.is_constant():
        # a constant row divides everything and would never end the scan
        q = None if row_exprs[i].is_constant() else rem.exact_div(row_exprs[i])
        if q is not None and not q.is_zero():
            rem = q
            factors.append(i)  # the same row may divide again
        else:
            i += 1
    if rem.is_constant():
        w = rem.constant_value()
        if w > 0:
            return [(w, tuple(sorted(factors)))]
        if w == 0:
            return []
    # LP fallback: poly = sum c_T prod_T with c >= 0 over row multisets
    deg = poly.degree()
    cols: List[Tuple[tuple, Poly]] = [((), Poly.const(nv, 1))]
    for size in range(1, deg + 1):
        for T in itertools.combinations_with_replacement(range(len(row_exprs)), size):
            p = Poly.const(nv, 1)
            for i in T:
                p = p * row_exprs[i]
            cols.append((T, p))
    monomials = set(poly.terms)
    for _, p in cols:
        monomials.update(p.terms)
    prob = LPProblem(sense="min")
    for idx in range(len(cols)):
        prob.add_var(f"c{idx}", lb=ZERO)
    for e in sorted(monomials):
        coeffs = {}
        for idx, (_, p) in enumerate(cols):
            v = p.terms.get(e)
            if v:
                coeffs[f"c{idx}"] = v
        prob.add_row(coeffs, "=", poly.terms.get(e, ZERO), name=str(e))
    sol = lp_solve(prob)
    if sol.status != "optimal":
        raise CertificateStructureError(
            "numerator is not a non-negative combination of constraint products"
        )
    out = []
    for idx, (T, _) in enumerate(cols):
        w = sol.primal[f"c{idx}"]
        if w:
            out.append((w, tuple(T)))
    return out


def _hull_duals(
    hull: LPSolution, hull_problem: LPProblem, p: int
) -> Tuple[Fraction, Dict[Tuple[int, int], Fraction], Dict[int, Fraction]]:
    """(delta, S, gamma): delta the dual of the simplex row, S[(r, i)] the
    nonzero duals of the membership rows, gamma[i] the reduced cost of
    lambda_i."""
    S: Dict[Tuple[int, int], Fraction] = {}
    delta = None
    for row, y in zip(hull_problem.rows, hull.dual):
        if not isinstance(row.tag, tuple):
            continue
        if row.tag[0] == "ymem" and y:
            S[(row.tag[1], row.tag[2])] = y
        elif row.tag[0] == "simplex":
            delta = y
    if delta is None:
        raise CertificateStructureError("hull LP has no simplex row")
    if any(y < 0 for y in S.values()):
        raise CertificateStructureError("negative dual on a >= membership row")
    gamma = {i: hull.reduced.get(f"lam{i}", ZERO) for i in range(p)}
    return delta, S, gamma


def _weighted_numerators(
    inst: DBPInstance, coords: BarycentricCoords
) -> Tuple[Poly, List[Poly]]:
    """(z, [z * lambda_i]) in the certificate space (x1..xn, y1..yny), read
    from the stored coordinates.  lambda_i is c_i num_i(1, x) over the
    product of the pool factors f_k(1, x) of its denominator's multiset,
    c_i the first entry of its column (``BarycentricCoords.fmu`` and
    ``columns``).  Each pool factor is dehomogenized once, as s_k p_k with
    p_k primitive, or as the constant s_k.  z is the product of the p_k,
    each to its largest multiplicity in a denominator, oriented positive at
    the vertex average; so z * lambda_i is c_i num_i(1, x) / prod s_k times
    the p_k that z has beyond lambda_i's denominator."""
    pool = coords.run.final.pool
    nv = inst.n + inst.ny
    # the x0 slot has degree 0 in every dehomogenized poly, so its image is
    # irrelevant
    hom_to_cert = [0] + list(range(inst.n))
    factors: Dict[int, Tuple[Fraction, Optional[Poly]]] = {}
    maxmult: Dict[int, int] = {}
    for f in coords.fmu:
        for k in set(f.den):
            if k not in factors:
                p = pool.polys[k].subs_one(0)
                if p.is_constant():
                    factors[k] = (p.constant_value(), None)
                else:
                    s, prim = p.primitive()
                    factors[k] = (s, prim.remap(nv, hom_to_cert))
            if factors[k][1] is not None:
                maxmult[k] = max(maxmult.get(k, 0), f.den.count(k))
    z = Poly.const(nv, 1)
    for k, mult in maxmult.items():
        z = z * factors[k][1] ** mult
    sign = -1 if z.eval(vertex_average(coords.vertices) + (ZERO,) * inst.ny) < 0 else 1
    zl: List[Poly] = []
    for f, col in zip(coords.fmu, coords.columns):
        scale = Fraction(sign) * col[0]
        q = f.num.subs_one(0).remap(nv, hom_to_cert)
        for k in f.den:
            scale /= factors[k][0]
        for k, mult in maxmult.items():
            for _ in range(mult - f.den.count(k)):
                q = q * factors[k][1]
        zl.append(q.scale(scale))
    return z.scale(sign), zl


def extract_certificate(
    inst: DBPInstance,
    hull: LPSolution,
    coords: BarycentricCoords,
    hull_problem: LPProblem,
) -> Certificate:
    """Closed-form certificate from ``hull``, the optimal solution of
    ``hull_problem``, the hull LP, and the symbolic coordinates: the dual
    values give the weights.  The coordinate columns must follow the same
    vertex order as the hull LP columns (the canonical oracle order).  Each
    z * lambda_i is factored into constraint products at most once, however
    many duals weight it."""
    if hull.status != "optimal":
        raise ValueError("hull LP must be optimal")
    p = len(coords.vertices)
    if f"lam{p-1}" not in hull.primal or f"lam{p}" in hull.primal:
        raise OrderMismatch("hull LP columns do not match coordinate columns")
    delta, S, gamma = _hull_duals(hull, hull_problem, p)
    z_cert, zl = _weighted_numerators(inst, coords)
    nv = inst.n + inst.ny
    row_exprs = [_p_row_expr(inst, i, nv) for i in range(inst.P.m)]
    factored: Dict[int, list] = {}

    def products(i: int) -> list:
        if i not in factored:
            factored[i] = _factor_into_products(zl[i], row_exprs)
        return factored[i]

    terms = [
        CertTerm(weight=s * w, pfactors=pf, yfactor=r)
        for (r, i), s in sorted(S.items())
        for w, pf in products(i)
    ]
    for i in range(p):
        if gamma[i]:
            if gamma[i] < 0:
                raise CertificateStructureError("negative reduced cost on lambda")
            terms.extend(
                CertTerm(weight=gamma[i] * w, pfactors=pf, yfactor=None)
                for w, pf in products(i)
            )
    return Certificate(
        delta=delta, zpoly=z_cert, terms=terms, n=inst.n, ny=inst.ny
    )


@dataclass
class VerifyResult:
    ok: bool
    diagnostic: str = ""
    residual: Optional[Poly] = None  # z(x)(obj - delta) - q(x, y)


def _misfit(inst: DBPInstance, cert: Certificate) -> str:
    """Why ``cert`` cannot be a certificate for ``inst``, or ""."""
    if (cert.n, cert.ny) != (inst.n, inst.ny):
        return (
            f"certificate has {cert.n} x and {cert.ny} y variables, "
            f"the instance {inst.n} and {inst.ny}"
        )
    if any(any(e[cert.n:]) for e in cert.zpoly.terms):
        return "z depends on y"
    for t in cert.terms:
        if not all(0 <= i < inst.P.m for i in t.pfactors):
            return f"P row index outside 0..{inst.P.m - 1}"
        if t.yfactor is not None and not 0 <= t.yfactor < inst.Py.m:
            return f"Py row index outside 0..{inst.Py.m - 1}"
    return ""


def _times_affine(p: Dict[tuple, int], const: int, coeffs: Sequence[int]) -> Dict[tuple, int]:
    """The integer polynomial p, as {exponent: int}, times const + coeffs.x."""
    out: Dict[tuple, int] = {}
    for e, c in p.items():
        if const:
            out[e] = out.get(e, 0) + c * const
        for j, a in enumerate(coeffs):
            if a:
                f = e[:j] + (e[j] + 1,) + e[j + 1:]
                out[f] = out.get(f, 0) + c * a
    return {e: c for e, c in out.items() if c}


def _identity_residual(inst: DBPInstance, cert: Certificate) -> Poly:
    """z(x)(obj - delta) - q(x, y) over (x, y), computed in integers.

    Both sides are affine in y, so each is taken by its ny + 1 coefficients
    in (1, y1..yny), each over x alone.  A P row enters in its integer form
    (``HPolyhedron.int_rows``), d_i (b_i - A_i.x) with d_i > 0, and each
    distinct ``pfactors`` product is expanded once, extending its prefix by
    one row.  The weights are integers over one denominator, and so are
    the Py rows (b_r, -A_r); the terms that share a product add their
    weights times (b_r, -A_r), or times (1, 0, ..., 0) without a Py row,
    into its ny + 1 integer scalars.  Each scalar over its denominator
    times the product's prod d_i, and z times the objective side over
    theirs, are brought to one common denominator D
    (``linalg.ratios_over_lcm``), so both sides are {exponent: int} dicts
    and the residual's only fractions are its coefficients over D."""
    n, ny = cert.n, cert.ny
    P = inst.P
    products: Dict[tuple, Tuple[Dict[tuple, int], int]] = {(): ({(0,) * n: 1}, 1)}

    def product(pf: tuple) -> Tuple[Dict[tuple, int], int]:
        """(the expansion of prod_i d_i (b_i - A_i.x), prod_i d_i) over pf."""
        if pf not in products:
            poly, d = product(pf[:-1])
            i = pf[-1]
            rhs, coeffs = P.int_rows[i]
            d_i = linalg.over_lcm((P.b[i],) + P.A[i])[1]
            products[pf] = (_times_affine(poly, rhs, [-a for a in coeffs]), d * d_i)
        return products[pf]

    weights, dw = linalg.over_lcm([t.weight for t in cert.terms])
    yflat, dy = linalg.over_lcm([v for b, row in zip(inst.Py.b, inst.Py.A) for v in (b, *(-a for a in row))])
    yrows = [yflat[r * (ny + 1):(r + 1) * (ny + 1)] for r in range(inst.Py.m)]
    scalars: Dict[tuple, List[int]] = {}
    for t, w in zip(cert.terms, weights):
        s = scalars.setdefault(t.pfactors, [0] * (ny + 1))
        if t.yfactor is None:
            s[0] += w * dy
        else:
            for k, v in enumerate(yrows[t.yfactor]):
                s[k] += w * v
    pieces = [(pf, k, c) for pf, s in scalars.items() for k, c in enumerate(s) if c]
    zint, dz = linalg.over_lcm(list(cert.zpoly.terms.values()))
    z = {e[:n]: c for e, c in zip(cert.zpoly.terms, zint)}
    # obj - delta by its coefficients in (1, y): (c0 - delta) + cx.x, then
    # cy_l + (Q^T x)_l
    obj, do = linalg.over_lcm(
        [inst.c0 - cert.delta, *inst.cx]
        + [v for l in range(ny) for v in (inst.cy[l], *(row[l] for row in inst.Q))]
    )
    N, D = linalg.ratios_over_lcm(
        [(1, dz * do)]
        + [(c, dw * dy * product(pf)[1]) for pf, _, c in pieces]
    )
    ys = [(0,) * ny] + [tuple(int(k == l) for l in range(ny)) for k in range(ny)]
    res: Dict[tuple, int] = {}
    for k in range(ny + 1):
        piece = obj[k * (n + 1):(k + 1) * (n + 1)]
        for e, c in _times_affine(z, piece[0], piece[1:]).items():
            key = e + ys[k]
            res[key] = res.get(key, 0) + N[0] * c
    for (pf, k, _), w in zip(pieces, N[1:]):
        for e, c in product(pf)[0].items():
            key = e + ys[k]
            res[key] = res.get(key, 0) - w * c
    return Poly(n + ny, {e: Fraction(c, D) for e, c in res.items() if c})


def verify_certificate(
    inst: DBPInstance,
    cert: Certificate,
    vertices: Optional[Sequence[tuple]] = None,
) -> VerifyResult:
    """True iff the certificate fits the instance (its variable counts, a z
    over x alone, and every row index names a row of P or Py), and then (a)
    all weights are non-negative, (b) the polynomial identity
    z(x)(obj - delta) = q(x,y) holds exactly (``_identity_residual``), and
    (c) z > 0 at the average p of P's vertices.

    These prove obj >= delta on P x Py.  p is a point of P's relative
    interior: every vertex has a positive weight in it.  Fix y in Py.  Each
    P row b_i - A_i.x is >= 0 on P, and an affine function that is >= 0 on
    P and 0 at a relative-interior point is 0 on P's affine hull.  So each
    product of P rows is > 0 on the relative interior of P or 0 on its
    affine hull, and so is q(., y), a combination of such products with
    coefficients weight * (b_r - A_r.y) >= 0 by (a).  If q(., y) > 0 on the
    relative interior, z has no zero there by (b); the relative interior
    is convex, hence connected, and z(p) > 0, so z > 0 on all of it, and
    obj - delta = q / z > 0 there and >= 0 on P by continuity.  Otherwise
    z (obj - delta) is 0 on the affine hull, where z is not the zero
    polynomial since z(p) > 0, so obj(., y) = delta on P.  This holds for a
    P of any dimension, and needs no sign of z at the vertices or
    elsewhere: z may be negative outside P's relative interior.  z is a
    polynomial: ``Poly.from_json`` rejects a negative exponent.

    The result carries the identity's residual z(x)(obj - delta) - q(x,y)
    over (x, y), computed before checks (a)-(c); a certificate that does
    not fit has none.  vertices is P's vertex list in the oracle's order,
    when the caller already holds it (``BarycentricCoords.vertices``);
    without it the vertex oracle runs."""
    misfit = _misfit(inst, cert)
    if misfit:
        return VerifyResult(False, misfit)
    residual = _identity_residual(inst, cert)
    if any(t.weight < 0 for t in cert.terms):
        return VerifyResult(False, "negative weight", residual)
    if not residual.is_zero():
        return VerifyResult(False, "identity residual nonzero", residual)
    if vertices is None:
        vertices = enumerate_vertices_oracle(inst.P)
    if not vertices:
        return VerifyResult(False, "P has no vertex", residual)
    if cert.zpoly.eval(vertex_average(vertices) + (ZERO,) * cert.ny) <= 0:
        return VerifyResult(False, "z not positive at the vertex average", residual)
    return VerifyResult(True, "", residual)
