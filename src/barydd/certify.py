"""Algebraic optimality certificates for disjoint bilinear programs.

From the hull LP duals (S on the scaled y-membership rows, gamma on the
lambda lower bounds, delta on the simplex row) and the symbolic barycentric
coordinates lambda(x), the objective satisfies the polynomial identity

    z(x) * (obj(x, y) - delta) = q(x, y)

where z is the least common denominator of the lambda (a product of tracked
denominator factors; no multivariate gcd is used) and q is a non-negative
combination of products of P-constraint expressions, each optionally
multiplied by one Py-constraint expression.  Both sides are affine in y, so
verification compares their ny + 1 coefficients in y, each a polynomial in
x alone, exactly.  It also checks z > 0 on the interior of P from z's
values at P's vertices, which decides it when z is affine or constant; a z
of higher degree is also read at sampled interior points.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .exactmath import Poly, rat_from_str, rat_to_str
from .lp import LPProblem, LPSolution, lp_solve
from .polyhedra import enumerate_vertices_oracle
from .relaxation import BarycentricCoords, DBPInstance

ZERO = Fraction(0)
ONE = Fraction(1)


class OrderMismatch(ValueError):
    """Hull LP columns and coordinate columns disagree."""


class CertificateStructureError(RuntimeError):
    """The hull LP has no simplex row, or a weighted numerator could not be
    decomposed into non-negative constraint products (should not happen for
    valid inputs)."""


def _is_index(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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
        if not all(_is_index(i) for i in pf) or not (yf is None or _is_index(yf)):
            raise ValueError("row indices must be integers")
        return CertTerm(rat_from_str(d["weight"]), pf, yf)


@dataclass
class Certificate:
    delta: Fraction
    zpoly: Poly  # over the combined (x, y) space, y-degrees all zero
    terms: List[CertTerm]
    n: int
    ny: int

    def rhs_in_x(self, inst: DBPInstance) -> List[Poly]:
        """q(x, y) by its coefficients in y, each a Poly over x1..xn, as
        ``DBPInstance.objective_in_x`` gives the objective.  A term with Py
        row r adds weight * (b_r, -A_r) to the ny + 1 scalars of its
        ``pfactors`` product, a term without one weight * (1, 0, ..., 0).
        Each distinct product is expanded once, extending the expansion of
        its prefix by one row, and added to each coefficient times its
        scalar."""
        n = self.n
        products = {(): Poly.const(n, 1)}

        def product(pf: tuple) -> Poly:
            if pf not in products:
                products[pf] = product(pf[:-1]) * _p_row_expr(inst, pf[-1], n)
            return products[pf]

        scalars: Dict[tuple, List[Fraction]] = {}
        for t in self.terms:
            s = scalars.setdefault(t.pfactors, [ZERO] * (self.ny + 1))
            if t.yfactor is None:
                s[0] += t.weight
            else:
                s[0] += t.weight * inst.Py.b[t.yfactor]
                for l, a in enumerate(inst.Py.A[t.yfactor]):
                    s[1 + l] -= t.weight * a
        pieces: List[dict] = [{} for _ in range(self.ny + 1)]
        for pf, s in scalars.items():
            for piece, c in zip(pieces, s):
                if c:
                    for e, v in product(pf).terms.items():
                        piece[e] = piece.get(e, ZERO) + c * v
        return [Poly(n, piece) for piece in pieces]

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
        if not (_is_index(d["n"]) and _is_index(d["ny"]) and d["n"] >= 0 and d["ny"] >= 0):
            raise ValueError("n and ny must be non-negative integers")
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


def _dehom_prim(pool, fid) -> Optional[Poly]:
    p = pool.polys[fid].subs_one(0)
    if p.is_zero() or p.is_constant():
        return None
    _, prim = p.primitive()
    return prim


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
    """(z, [z * lambda_i]) in the certificate space (x1..xn, y1..yny): z is
    the least common denominator of the lambda over the tracked factors,
    oriented positive at the vertex average."""
    pool = coords.run.final.pool
    maxmult: Dict[tuple, Tuple[Poly, int]] = {}
    for fac in coords.den_factors:
        counts: Dict[tuple, int] = {}
        for fid in fac:
            prim = _dehom_prim(pool, fid)
            if prim is None:
                continue
            k = prim.key()
            counts[k] = counts.get(k, 0) + 1
            if k not in maxmult or counts[k] > maxmult[k][1]:
                maxmult[k] = (prim, counts[k])
    nv_hom = inst.P.n + 1
    z_hom = Poly.const(nv_hom, 1)
    for prim, mult in maxmult.values():
        for _ in range(mult):
            z_hom = z_hom * prim
    if z_hom.eval((ONE,) + vertex_average(coords.vertices)) < 0:
        z_hom = -z_hom
    # the x0 slot has degree 0 in every dehomogenized poly, so its image is
    # irrelevant
    nv = inst.n + inst.ny
    hom_to_cert = [0] + list(range(inst.n))
    zl: List[Poly] = []
    for lam in coords.lam:
        q = z_hom.exact_div(lam.den)
        if q is None:
            raise CertificateStructureError("z is not divisible by a lambda denominator")
        zl.append((lam.num * q).remap(nv, hom_to_cert))
    return z_hom.remap(nv, hom_to_cert), zl


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

    def __bool__(self):
        return self.ok


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


def verify_certificate(
    inst: DBPInstance,
    cert: Certificate,
    vertices: Optional[Sequence[tuple]] = None,
) -> VerifyResult:
    """True iff the certificate fits the instance (its variable counts, a z
    over x alone, and every row index names a row of P or Py), and then (a)
    all weights are non-negative, (b) the polynomial identity
    z(x)(obj - delta) = q(x,y) holds exactly, and (c) z > 0 on the interior
    of P.

    (b) compares the two sides' ny + 1 coefficients in y, each a
    polynomial over x alone (``DBPInstance.objective_in_x``,
    ``Certificate.rhs_in_x``); both sides are affine in y, so they agree
    exactly when these do.

    (c) requires z > 0 at the vertex average and z >= 0 at every vertex,
    for every degree of z.  When deg z <= 1 the check is exact: every
    interior point x of P is a convex combination of all vertices with
    positive weights, and z(x) is the same combination of the vertex
    values, so it is >= 0, and 0 only if z vanishes at every vertex, which
    z > 0 at the average rules out; conversely z >= 0 on all of P by
    continuity.  When deg z >= 2 it also requires z > 0 at 20 random
    interior rational points, the same on every call
    (``interior_points``).

    The result carries the identity's residual z(x)(obj - delta) - q(x,y)
    over (x, y), computed from the coefficients in y before checks
    (a)-(c); a certificate that does not fit has none.  vertices is P's
    vertex list in the oracle's order, when the caller already holds it
    (``BarycentricCoords.vertices``); without it the vertex oracle runs."""
    misfit = _misfit(inst, cert)
    if misfit:
        return VerifyResult(False, misfit)
    n = cert.n
    zx = cert.zpoly.remap(n, range(n))
    obj = inst.objective_in_x()
    obj[0] = obj[0] - Poly.const(n, cert.delta)
    residual = inst.in_xy([zx * o - q for o, q in zip(obj, cert.rhs_in_x(inst))])
    if any(t.weight < 0 for t in cert.terms):
        return VerifyResult(False, "negative weight", residual)
    if not residual.is_zero():
        return VerifyResult(False, "identity residual nonzero", residual)
    if vertices is None:
        vertices = enumerate_vertices_oracle(inst.P)
    if not vertices:
        return VerifyResult(False, "P has no vertex", residual)
    if zx.eval(vertex_average(vertices)) <= 0:
        return VerifyResult(False, "z not positive at the vertex average", residual)
    if any(zx.eval(v) < 0 for v in vertices):
        return VerifyResult(False, "z negative at a vertex", residual)
    if zx.degree() > 1:
        for pt in interior_points(vertices, inst.P.n, 20):
            if zx.eval(pt) <= 0:
                return VerifyResult(False, "z not positive at an interior sample", residual)
    return VerifyResult(True, "", residual)
