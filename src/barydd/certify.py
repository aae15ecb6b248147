"""Algebraic optimality certificates for disjoint bilinear programs.

From the hull LP duals (S on the scaled y-membership rows, gamma on the
lambda lower bounds, delta on the simplex row) and the symbolic barycentric
coordinates lambda(x), the objective satisfies the polynomial identity

    z(x) * (obj(x, y) - delta) = q(x, y)

where z is the least common denominator of the lambda (a product of tracked
denominator factors; no multivariate gcd is used) and q is a non-negative
combination of products of P-constraint expressions, each optionally
multiplied by one Py-constraint expression.  Verification re-expands the
identity exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactmath import Poly, RatFun, rat_from_str, rat_to_str
from .lp import LPProblem, LPSolution, lp_solve
from .relaxation import BarycentricCoords, DBPInstance, build_hull_lp

ZERO = Fraction(0)
ONE = Fraction(1)


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
        return CertTerm(
            rat_from_str(d["weight"]), tuple(d["pfactors"]), d.get("yfactor")
        )


@dataclass
class Certificate:
    delta: Fraction
    zpoly: Poly  # over the combined (x, y) space, y-degrees all zero
    terms: List[CertTerm]
    n: int
    ny: int

    def identity_rhs(self, inst: DBPInstance) -> Poly:
        nv = self.n + self.ny
        rhs = Poly.zero(nv)
        for t in self.terms:
            p = Poly.const(nv, t.weight)
            for i in t.pfactors:
                p = p * _p_row_expr(inst, i, nv)
            if t.yfactor is not None:
                p = p * _py_row_expr(inst, t.yfactor, nv)
            rhs = rhs + p
        return rhs

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
    """b_i - A_i.x as a Poly over (x1..xn, y1..yny)."""
    return Poly.affine(
        nv, inst.P.b[i], [-a for a in inst.P.A[i]] + [ZERO] * inst.ny
    )


def _py_row_expr(inst: DBPInstance, r: int, nv: int) -> Poly:
    return Poly.affine(
        nv, inst.Py.b[r], [ZERO] * inst.n + [-a for a in inst.Py.A[r]]
    )


def _dehom_prim(pool, fid) -> Optional[Poly]:
    p = pool.polys[fid].subs_one(0)
    if p.is_zero() or p.is_constant():
        return None
    _, prim = p.primitive()
    return prim


def _interior_points(verts: Sequence[tuple], n: int, count: int, seed: int = 20240801) -> List[tuple]:
    """Random rational strictly-interior points of the polytope with vertices
    ``verts`` in dimension ``n``: positive convex combinations of the
    vertices (all weights > 0)."""
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        ws = [Fraction(rng.randint(1, 50)) for _ in verts]
        tot = sum(ws)
        pt = tuple(
            sum(w * v[j] for w, v in zip(ws, verts)) / tot for j in range(n)
        )
        pts.append(pt)
    return pts


def _factor_into_products(
    poly: Poly, inst: DBPInstance, nv: int
) -> List[Tuple[Fraction, Tuple[int, ...]]]:
    """Express poly (over x-part of the (x,y)-space) as a non-negative
    combination of products of P-row expressions.  Greedy exact division
    first (covers the simple-polytope case where each numerator is a single
    product); falls back to exact LP coefficient matching."""
    if poly.is_zero():
        return []
    row_exprs = [_p_row_expr(inst, i, nv) for i in range(inst.P.m)]
    rem = poly
    factors: List[int] = []
    progress = True
    while progress and not rem.is_constant():
        progress = False
        for i, re in enumerate(row_exprs):
            q = rem.exact_div(re)
            if q is not None and not q.is_zero():
                rem = q
                factors.append(i)
                progress = True
                break
    if rem.is_constant():
        w = rem.constant_value()
        if w > 0:
            return [(w, tuple(sorted(factors)))]
        if w == 0:
            return []
    # LP fallback: poly = sum c_T prod_T with c >= 0 over row multisets
    deg = poly.degree()
    import itertools as _it

    cols: List[Tuple[tuple, Poly]] = [((), Poly.const(nv, 1))]
    for size in range(1, deg + 1):
        for T in _it.combinations_with_replacement(range(inst.P.m), size):
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


def extract_certificate(
    inst: DBPInstance,
    hull: LPSolution,
    coords: BarycentricCoords,
    hull_problem: Optional[LPProblem] = None,
) -> Certificate:
    """Closed-form certificate from the hull LP duals and the symbolic
    coordinates.  The coordinate columns must follow the same vertex order as
    the hull LP columns (the canonical oracle order)."""
    if hull.status != "optimal":
        raise ValueError("hull LP must be optimal")
    verts = coords.vertices
    if hull_problem is None:
        hull_problem = build_hull_lp(inst, vertices=verts)
    p = len(verts)
    if f"lam{p-1}" not in hull.primal or f"lam{p}" in hull.primal:
        raise OrderMismatch("hull LP columns do not match coordinate columns")
    # duals: S on ymem rows, delta on the simplex row, gamma from reduced costs
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

    # z: least common denominator of the lambda over the tracked factors
    pool = coords.state.pool
    maxmult: Dict[tuple, Tuple[Poly, int]] = {}
    per_lam: List[Dict[tuple, int]] = []
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
        per_lam.append(counts)
    nv_hom = inst.P.n + 1
    z_hom = Poly.const(nv_hom, 1)
    for prim, mult in maxmult.values():
        for _ in range(mult):
            z_hom = z_hom * prim
    # orient z positive on the interior (vertex average)
    center = tuple(
        sum(v[j] for v in verts) / Fraction(len(verts)) for j in range(inst.P.n)
    )
    if z_hom.eval((ONE,) + center) < 0:
        z_hom = -z_hom
    # map to certificate space (x1..xn, y1..yny); the x0 slot has degree 0 in
    # every dehomogenized poly, so its image is irrelevant
    nv = inst.n + inst.ny
    hom_to_cert = [0] + list(range(inst.n))
    z_cert = z_hom.remap(nv, hom_to_cert)

    terms: List[CertTerm] = []
    zl_cache: List[Poly] = []
    for i in range(p):
        lam = coords.lam[i]
        q = z_hom.exact_div(lam.den)
        if q is None:
            raise CertificateStructureError("z is not divisible by a lambda denominator")
        zlam_hom = lam.num * q
        zl_cache.append(zlam_hom.remap(nv, hom_to_cert))
    for (r, i), s in sorted(S.items()):
        for w, pf in _factor_into_products(zl_cache[i], inst, nv):
            terms.append(CertTerm(weight=s * w, pfactors=pf, yfactor=r))
    for i in range(p):
        if gamma[i]:
            if gamma[i] < 0:
                raise CertificateStructureError("negative reduced cost on lambda")
            for w, pf in _factor_into_products(zl_cache[i], inst, nv):
                terms.append(CertTerm(weight=gamma[i] * w, pfactors=pf, yfactor=None))
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


def verify_certificate(
    inst: DBPInstance, cert: Certificate, seed: int = 20240801
) -> VerifyResult:
    """True iff (a) all weights are non-negative, (b) the polynomial identity
    z(x)(obj - delta) = q(x,y) holds exactly, and (c) z is positive at the
    vertex average and 20 random interior rational points.  The result
    carries the identity's residual, computed before any check."""
    nv = cert.n + cert.ny
    obj = inst.objective_poly() - Poly.const(nv, cert.delta)
    residual = cert.zpoly * obj - cert.identity_rhs(inst)
    if any(t.weight < 0 for t in cert.terms):
        return VerifyResult(False, "negative weight", residual)
    if not residual.is_zero():
        return VerifyResult(False, "identity residual nonzero", residual)
    from .polyhedra import enumerate_vertices_oracle

    verts = enumerate_vertices_oracle(inst.P)
    center = tuple(
        sum(v[j] for v in verts) / Fraction(len(verts)) for j in range(inst.P.n)
    )
    zx = cert.zpoly

    def z_at(pt):
        return zx.eval(tuple(pt) + (ZERO,) * cert.ny)

    if z_at(center) <= 0:
        return VerifyResult(False, "z not positive at the vertex average", residual)
    for pt in _interior_points(verts, inst.P.n, 20, seed=seed):
        if z_at(pt) <= 0:
            return VerifyResult(False, f"z not positive at an interior sample", residual)
    return VerifyResult(True, "", residual)
