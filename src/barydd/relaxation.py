"""Relaxation builders: convex-hull LP, level-k DD hierarchies, the linear
subset of the algebraic hierarchy, and RLT baselines.

All models are exact-rational LPs solved by the embedded simplex.  Row tags
carry provenance so duals map back to the constraints they came from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .dd_engine import DDRun, EmptyInterior, dd_run
from .exactmath import Poly, RatFun, rat_from_str, rat_to_str
from .lp import LPProblem, LPSolution, lp_solve
from .polyhedra import (
    HPolyhedron,
    NotFullRank,
    dehomogenize,
    dehomogenize_columns,
    enumerate_vertices_oracle,
    interior_point,
    is_bounded,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class UnboundedInput(ValueError):
    """A polytope required to be bounded has a recession ray."""


class LevelTooLow(ValueError):
    def __init__(self, k: int, kbar: Optional[int], what: str):
        self.k = k
        self.kbar = kbar
        usable = (
            f"minimum usable level kbar = {kbar}"
            if kbar is not None
            else "no step of the order empties the lineality space"
        )
        super().__init__(f"level {k} too low: {what}; {usable}")


class NotBox(ValueError):
    """Box RLT flavor requires P = [0,1]^n."""


# --------------------------------------------------------------------------
# instances
# --------------------------------------------------------------------------


@dataclass
class DBPInstance:
    """min x'Qy + cx.x + cy.y + c0 over x in P, y in Py."""

    Q: tuple  # n x ny
    cx: tuple
    cy: tuple
    c0: Fraction
    P: HPolyhedron
    Py: HPolyhedron

    @staticmethod
    def make(Q, P, Py, cx=None, cy=None, c0=0) -> "DBPInstance":
        n, ny = P.n, Py.n
        Q = tuple(tuple(Fraction(v) for v in row) for row in Q)
        cx = tuple(Fraction(v) for v in cx) if cx else (ZERO,) * n
        cy = tuple(Fraction(v) for v in cy) if cy else (ZERO,) * ny
        if len(Q) != n or any(len(row) != ny for row in Q):
            raise ValueError(f"Q must be {n} x {ny}, the dimensions of P and Py")
        if len(cx) != n or len(cy) != ny:
            raise ValueError(f"cx must have length {n} and cy length {ny}")
        return DBPInstance(Q, cx, cy, Fraction(c0), P, Py)

    @property
    def n(self) -> int:
        return self.P.n

    @property
    def ny(self) -> int:
        return self.Py.n

    def objective_in_x(self) -> List[Poly]:
        """The objective by its coefficients in y, each a Poly over
        x1..xn: entry 0 is the y-free part cx.x + c0, entry 1 + l the
        coefficient (Q^T x)_l + cy_l of y_l."""
        return [Poly.affine(self.n, self.c0, self.cx)] + [
            Poly.affine(self.n, self.cy[l], [row[l] for row in self.Q])
            for l in range(self.ny)
        ]

    def in_xy(self, pieces: Sequence[Poly]) -> Poly:
        """pieces[0] + sum_l pieces[1 + l] * y_l as a Poly over
        (x1..xn, y1..yny), for pieces over x1..xn."""
        terms = {}
        for k, piece in enumerate(pieces):
            y = tuple(int(k == 1 + l) for l in range(self.ny))
            for e, c in piece.terms.items():
                terms[e + y] = c
        return Poly(self.n + self.ny, terms)

    def to_json(self) -> dict:
        return {
            "Q": [[rat_to_str(v) for v in row] for row in self.Q],
            "cx": [rat_to_str(v) for v in self.cx],
            "cy": [rat_to_str(v) for v in self.cy],
            "c0": rat_to_str(self.c0),
            "P": self.P.to_json(),
            "Py": self.Py.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "DBPInstance":
        P = HPolyhedron.from_json(data["P"])
        Py = HPolyhedron.from_json(data["Py"])
        return DBPInstance.make(
            [[rat_from_str(v) for v in row] for row in data["Q"]],
            P,
            Py,
            cx=[rat_from_str(v) for v in data.get("cx", [])] or None,
            cy=[rat_from_str(v) for v in data.get("cy", [])] or None,
            c0=rat_from_str(data.get("c0", 0)),
        )


@dataclass
class GFun:
    """One g_i: affine (single piece) or max of affine pieces in y.
    A piece is (const, y-coefficients)."""

    pieces: List[Tuple[Fraction, tuple]]

    @property
    def affine(self) -> bool:
        return len(self.pieces) == 1

    @staticmethod
    def make_affine(const, coeffs) -> "GFun":
        return GFun([(Fraction(const), tuple(Fraction(c) for c in coeffs))])


@dataclass
class ACInstance:
    """min g_0(y) + sum_i x_i g_i(y) over x in P, y in Py (polyhedral C)."""

    P: HPolyhedron
    Py: HPolyhedron
    g: List[GFun]  # length n+1, g[0] first
    varrho: int  # g_1..g_varrho affine; for i > varrho, P subseteq {x_i >= 0}

    def __post_init__(self):
        if len(self.g) != self.P.n + 1:
            raise ValueError("need n+1 objective functions g_0..g_n")
        for i in range(1, self.varrho + 1):
            if not self.g[i].affine:
                raise ValueError(f"g_{i} must be affine (i <= varrho)")

    @property
    def n(self) -> int:
        return self.P.n

    @property
    def ny(self) -> int:
        return self.Py.n


def dbp_as_ac(inst: DBPInstance) -> ACInstance:
    g = [GFun.make_affine(inst.c0, inst.cy)]
    for i in range(inst.n):
        g.append(GFun.make_affine(inst.cx[i], inst.Q[i]))
    return ACInstance(inst.P, inst.Py, g, inst.n)


# --------------------------------------------------------------------------
# barycentric coordinates aligned with the vertex oracle
# --------------------------------------------------------------------------


@dataclass
class BarycentricCoords:
    P: HPolyhedron
    vertices: List[tuple]  # oracle order
    lam: List[RatFun]  # dehomogenized, over (x0, x) with x0 unused
    den_factors: List[tuple]  # pool-id multisets of the homogeneous dens
    run: DDRun  # pruned in every state; its final state gives lam


def _facet_rows(P: HPolyhedron, vertices: Sequence[tuple]) -> List[int]:
    """The rows of P that define its facets, one row per facet, in row
    order: a row is a facet row when the vertices it is tight at have
    affine rank n - 1, that is when their points (1, v) have rank n, and
    of the rows tight at the same vertices only the first is kept.

    An all-zero row that holds everywhere (0.x <= 0, 0.x = 0) is skipped.
    Empty when some other row is tight at every vertex: P has no vertex
    (it is empty, or its rows have rank below n), or a row holds with
    equality on all of P (an '=' row), which the DD run over every row
    reports.  So it is empty whenever the vertices do not span n
    dimensions, since a row tight at n affinely independent vertices then
    holds at all of them.  In integers: each vertex v = N / d is the
    point (d, N) and each row the integer-scaled row of ``P.int_rows``."""
    n = P.n
    if n == 0:
        return []
    pts = []
    for v in vertices:
        num, d = linalg.over_lcm(v)
        pts.append((d,) + num)
    rows, seen = [], set()
    for i, (rhs, coeffs) in enumerate(P.int_rows):
        if rhs >= 0 and not any(coeffs):
            continue  # 0.x <= rhs holds everywhere: no facet, no constraint
        tight = tuple(
            j for j, (d, *num) in enumerate(pts)
            if rhs * d == sum(a * x for a, x in zip(coeffs, num))
        )
        if len(tight) == len(pts):
            return []
        if tight not in seen and len(tight) >= n and len(linalg.echelon([pts[j] for j in tight])[1]) == n:
            seen.add(tight)
            rows.append(i)
    return rows


def barycentric_for_polytope(P: HPolyhedron) -> BarycentricCoords:
    """Symbolic barycentric coordinates of the polytope P: one DD run over
    P's facet rows in their row order (``_facet_rows`` of the vertex
    oracle's vertices), pruned in every state as ``dd --prune`` is, its
    final columns dehomogenized and put in the vertex oracle's order.  A
    redundant row costs no DD step.  The coordinates are those of the run
    that processes the facet rows first and the other rows after them,
    whose steps change neither the columns nor the coordinates; in 3-D and
    above they can differ from those of the default order when a redundant
    row sits between facets.
    When ``_facet_rows`` is empty (the vertices do not span n dimensions,
    a row is tight at every vertex, or no row is a facet row), the run
    takes every row in the default order, so each error below reads as it
    does for that run.

    Raises EmptyInterior when P has no interior point, which the run shows
    as a step that found no ray strictly inside its row (``E`` not empty),
    NotFullRank when the rows of P have rank below n, and UnboundedInput
    when P has a recession ray (a column with x0 = 0, or lineality left by
    the facet rows of an unbounded P) or the columns do not match the
    oracle's vertices.  So the coordinates prove P bounded."""
    try:
        oracle, rank_error = enumerate_vertices_oracle(P), None
    except NotFullRank as exc:
        oracle, rank_error = [], exc
    run = dd_run(P, order=_facet_rows(P, oracle) or None, prune=True)
    state = run.final
    if state.E:
        raise EmptyInterior(f"P has no interior point: row {state.E[0]} holds with equality on all of P")
    # no lineality and no column with x0 = 0: the rows run bound a polytope
    # that contains P, which ``build_hull_lp`` then takes as proved bounded.
    # With rows of rank below n the oracle's error is the one reported.
    if any(col[0] == 0 for col in state.R) or (state.L and rank_error is None):
        raise UnboundedInput("polytope has a recession ray; cannot dehomogenize")
    if rank_error is not None:
        raise rank_error
    V, lam = dehomogenize(state.R, list(state.mu))
    pts = [tuple(c[1:]) for c in V]
    if sorted(pts) != oracle:
        raise UnboundedInput("dehomogenized columns do not match the vertex set")
    idx = {pt: i for i, pt in enumerate(pts)}
    ordered = [idx[v] for v in oracle]
    return BarycentricCoords(
        P=P,
        vertices=list(oracle),
        lam=[lam[i] for i in ordered],
        den_factors=[state.fmu[i].den for i in ordered],
        run=run,
    )


# --------------------------------------------------------------------------
# hull LP
# --------------------------------------------------------------------------


def build_hull_lp(
    inst: DBPInstance, vertices: Optional[Sequence[tuple]] = None
) -> LPProblem:
    """The vertex-representation convex-hull LP: variables lambda in the
    simplex and scaled copies Y, rows (b^y -A^y)(lambda'; Y) >= 0, y = Y e,
    x = V lambda, objective Trace(Q Y V') plus affine terms.  It is the
    vertex form (``_vertex_form_lp``) over the points (1; v) of P's
    vertices, given or from the oracle.  A caller that gives the vertices
    has proved P bounded (``barycentric_for_polytope`` does), so then only
    Py is checked."""
    if (vertices is None and not is_bounded(inst.P)) or not is_bounded(inst.Py):
        raise UnboundedInput("hull LP needs bounded P and Py")
    V = list(vertices) if vertices is not None else enumerate_vertices_oracle(inst.P)
    return _vertex_form_lp(dbp_as_ac(inst), [(ONE,) + tuple(v) for v in V], name="hull")


# --------------------------------------------------------------------------
# level-k hierarchy (vertex form over P^k)
# --------------------------------------------------------------------------


def build_level_lp(inst, k: int) -> LPProblem:
    """Level-k relaxation over the outer approximation from the first k
    rows.  Uses the affine-convex form, which only needs the lineality
    space to be empty at level k (ray columns are allowed); for a pure
    bilinear instance all g_i are affine so the form is exact at k = m.
    Instances with non-affine g use the alternate initialization, keeping the
    generator rows that scale them non-negative.  DD runs only through step
    max(k, kbar) (see LevelRun.make)."""
    return LevelRun.make(inst, None, k).lp(k)


@dataclass
class LevelRun:
    """One DD run over a row order, read as the level hierarchy: the level-k
    LP is built from the state after step k."""

    ac: ACInstance
    run: DDRun

    @staticmethod
    def make(inst, order: Optional[Sequence[int]] = None, k: Optional[int] = None) -> "LevelRun":
        """DD over the order (all rows by default).  Without k every row of
        the order is processed.  With k, which must be in 0..len(order), the
        run stops after step max(k, kbar), kbar being the first step whose
        lineality space is empty; when no step empties it, the whole order
        runs, so LevelTooLow still reports kbar.  The run starts from
        x_i >= 0 for i > varrho (``dd_init``): varrho = n, the
        default start, when every g is affine, and ``ac.varrho`` otherwise,
        the alternate start that keeps the generator rows scaling a
        non-affine g non-negative.  That start keeps the order, so a stopped
        run holds exactly the first states of the whole run."""
        ac = dbp_as_ac(inst) if isinstance(inst, DBPInstance) else inst
        order = list(order) if order is not None else list(range(ac.P.m))
        stop = None
        if k is not None:
            if not 0 <= k <= len(order):
                raise ValueError(f"level {k} is not in 0..{len(order)}, the order length")
            stop = lambda st: st.k >= k and st.q == 0  # noqa: E731
        varrho = ac.n if all(g.affine for g in ac.g) else ac.varrho
        return LevelRun(ac, dd_run(ac.P, order=order, varrho=varrho, stop=stop))

    @property
    def kbar(self) -> Optional[int]:
        """The smallest step count with empty lineality, if the run has one."""
        return next((t for t, st in enumerate(self.run.states) if st.q == 0), None)

    def lp(self, k: int) -> LPProblem:
        """The level-k LP from the state after step k."""
        kbar = self.kbar
        if kbar is None or k < kbar:
            raise LevelTooLow(k, kbar, "lineality space not empty at this level")
        return _vertex_form_lp(self.ac, dehomogenize_columns(self.run.states[k].R), name=f"level{k}")

    def gap_table(self, solved: Optional[Dict[int, LPSolution]] = None) -> List[dict]:
        """(k, status, value) of every usable level the run reaches.  solved
        maps a level to a solution of its LP; that level is neither built
        nor solved again."""
        solved = solved or {}
        kbar = self.kbar
        if kbar is None:
            return []
        table = []
        for k in range(kbar, len(self.run.states)):
            sol = solved[k] if k in solved else lp_solve(self.lp(k))
            table.append(
                {
                    "level": k,
                    "status": sol.status,
                    "value": rat_to_str(sol.value) if sol.status == "optimal" else None,
                }
            )
        return table


def _vertex_form_lp(ac: ACInstance, W: Sequence[tuple], name: str) -> LPProblem:
    """LP over dehomogenized columns W (first entry 1 for points, 0 for rays):
    vars lambda, Y; rows membership, linear precision, y-definition."""
    n, ny = ac.n, ac.ny
    p = len(W)
    prob = LPProblem(sense="min", name=name)
    for i in range(p):
        prob.add_var(f"lam{i}", lb=ZERO)
    for i in range(p):
        for l in range(ny):
            prob.add_var(f"Y{l}_{i}")
    for j in range(n):
        prob.add_var(f"x{j}")
    for l in range(ny):
        prob.add_var(f"y{l}")
    # epigraph pieces for non-affine g
    obj: Dict[str, Fraction] = {}
    for i, w in enumerate(W):
        for jrow in range(n + 1):
            gj = ac.g[jrow]
            coef = w[0] if jrow == 0 else w[jrow]
            if coef == 0:
                continue
            if gj.affine:
                c0, cs = gj.pieces[0]
                if c0:
                    obj[f"lam{i}"] = obj.get(f"lam{i}", ZERO) + coef * c0
                for l, c in enumerate(cs):
                    if c:
                        obj[f"Y{l}_{i}"] = obj.get(f"Y{l}_{i}", ZERO) + coef * c
            else:
                if coef < 0:
                    raise ValueError(
                        "non-affine objective piece scaled by a negative "
                        "generator entry; use the alternate initialization"
                    )
                tname = f"t{jrow}_{i}"
                prob.add_var(tname)
                obj[tname] = obj.get(tname, ZERO) + coef
                for s, (c0, cs) in enumerate(gj.pieces):
                    coeffs = {tname: ONE, f"lam{i}": -c0}
                    for l, c in enumerate(cs):
                        if c:
                            coeffs[f"Y{l}_{i}"] = -c
                    prob.add_row(coeffs, ">=", ZERO, name=f"epi[{jrow},{i},{s}]",
                                 tag=("epi", jrow, i, s))
    prob.objective = obj
    for r in range(ac.Py.m):
        for i in range(p):
            coeffs = {f"lam{i}": ac.Py.b[r]}
            for l in range(ny):
                a = ac.Py.A[r][l]
                if a:
                    coeffs[f"Y{l}_{i}"] = -a
            prob.add_row(coeffs, ">=", ZERO, name=f"ymem[{r},{i}]", tag=("ymem", r, i))
    # linear precision: row 0 gives sum over point columns = 1
    coeffs = {f"lam{i}": W[i][0] for i in range(p) if W[i][0]}
    prob.add_row(coeffs, "=", ONE, name="simplex", tag=("simplex",))
    for j in range(n):
        coeffs = {f"x{j}": ONE}
        for i in range(p):
            if W[i][j + 1]:
                coeffs[f"lam{i}"] = -W[i][j + 1]
        prob.add_row(coeffs, "=", ZERO, name=f"xdef[{j}]", tag=("xdef", j))
    for l in range(ny):
        coeffs = {f"y{l}": ONE}
        for i in range(p):
            coeffs[f"Y{l}_{i}"] = -ONE
        prob.add_row(coeffs, "=", ZERO, name=f"ydef[{l}]", tag=("ydef", l))
    return prob


def gap_table(inst) -> List[dict]:
    """Solve every usable level and report (k, status, value).  DD runs once,
    over all rows in their order; each level is built from the state after
    its step."""
    return LevelRun.make(inst).gap_table()


# --------------------------------------------------------------------------
# the linear subset of the algebraic hierarchy
# --------------------------------------------------------------------------


@dataclass
class RelaxModel:
    problem: LPProblem
    level: int
    orders: List[tuple]
    wnames: Dict[tuple, str]  # (den key, alpha, l or None) -> variable name
    wdens: Dict[tuple, Poly]  # den key -> dehomogenized denominator
    meta: dict = field(default_factory=dict)


class _WRegistry:
    """Shared linearization variables w_{d,alpha,l} for atoms x^alpha y_l / d.
    A denominator d is a primitive form, interned once by its key
    (``Poly.key``) as a small id, so identical denominators arising under
    different orders share variables.  ``names`` maps (den id, alpha, l) to
    a variable, and ``dens`` the key of each denominator that has a
    variable to its form, both in the order the variables were made."""

    def __init__(self, prob: LPProblem):
        self.prob = prob
        self.keys: List[tuple] = []  # den id -> key
        self.forms: List[Poly] = []  # den id -> form
        self.ids: Dict[tuple, int] = {}  # key -> den id
        self.names: Dict[tuple, str] = {}
        self.dens: Dict[tuple, Poly] = {}

    def den_id(self, form: Poly) -> int:
        key = form.key()
        if key not in self.ids:
            self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.forms.append(form)
        return self.ids[key]

    def var(self, d: int, alpha: tuple, l: Optional[int]) -> str:
        name = self.names.get((d, alpha, l))
        if name is None:
            name = self.names[d, alpha, l] = f"w{len(self.names)}"
            self.dens.setdefault(self.keys[d], self.forms[d])
            self.prob.add_var(name)
        return name

    def wnames(self) -> Dict[tuple, str]:
        """``names`` keyed by the denominators' keys."""
        return {(self.keys[d], alpha, l): name for (d, alpha, l), name in self.names.items()}


class _Den:
    """A dehomogenized denominator D over (x0, x), x0 absent: D = sd *
    form with form primitive (``Poly.primitive``), the den id of form, and
    the common monomial factor of D over x (``mono``)."""

    __slots__ = ("poly", "sd", "id", "trivial", "mono")

    def __init__(self, poly: Poly, wreg: _WRegistry):
        self.poly = poly
        self.sd, form = poly.primitive()
        self.id = wreg.den_id(form)
        self.trivial = form.is_constant()
        self.mono = poly.monomial_content()[1:]


class _Lin:
    """A coordinate N / D, dehomogenized and linearized in integers: N / D
    = sum_alpha a_alpha x^alpha / (S form), S > 0, with the common monomial
    factor of N and D cancelled as ``RatFun`` cancels it.  The atom x^alpha
    y_l / form is the variable w_{form, alpha, l}, except over a constant
    form: there x^0 is the constant 1 when l is None and y_l otherwise, and
    x_j is x_j when l is None."""

    __slots__ = ("den", "terms", "S", "named")

    def __init__(self, den: Optional[_Den], terms: List[Tuple[tuple, int]], S: int):
        self.den = den
        self.terms = terms  # (alpha, a), alpha over x1..xn
        self.S = S
        self.named: Dict[Optional[int], tuple] = {}

    def degree(self) -> int:
        """The degree of N; -1 when N / D is zero."""
        return max((sum(alpha) for alpha, _ in self.terms), default=-1)

    def negated(self) -> "_Lin":
        return _Lin(self.den, [(alpha, -a) for alpha, a in self.terms], self.S)

    def at(self, wreg: _WRegistry, l: Optional[int]):
        """lin(N / D y_l), lin(N / D) when l is None: its (variable, a)
        pairs and its constant, over S.  Made once per l, which registers
        the variables in term order."""
        got = self.named.get(l)
        if got is None:
            pairs, const = [], 0
            trivial = bool(self.terms) and self.den.trivial
            for alpha, a in self.terms:
                if trivial:
                    deg = sum(alpha)
                    if deg == 0:
                        if l is None:
                            const += a
                        else:
                            pairs.append((f"y{l}", a))
                        continue
                    if deg == 1 and l is None:
                        pairs.append((f"x{alpha.index(1)}", a))
                        continue
                pairs.append((wreg.var(self.den.id, alpha, l), a))
            got = self.named[l] = (pairs, const)
        return got


def _dehomogenized(p: Poly) -> Tuple[Dict[tuple, int], int]:
    """p at x0 = 1 over one common denominator: (N, q) with p(1, x) =
    sum_alpha N[alpha] x^alpha / q, alpha over x1..xn.  Terms merge as
    ``Poly.subs_one`` merges them, so N keeps that term order."""
    nums, q = linalg.over_lcm(p.terms.values())
    out: Dict[tuple, int] = {}
    for e, c in zip(p.terms, nums):
        alpha = e[1:]
        s = out.get(alpha, 0) + c
        if s:
            out[alpha] = s
        else:
            out.pop(alpha, None)
    return out, q


def _linearized(N: Dict[tuple, int], q: int, den: _Den, sign: int, wreg: _WRegistry) -> _Lin:
    """sign * N / (q D) as a ``_Lin``, N from ``_dehomogenized``: N / (q D)
    is what ``RatFun`` makes of it, num / (s form) with num's coefficients
    integers, and a_alpha / S the coefficient num_alpha / s that the atom
    x^alpha / form takes."""
    if not N:
        return _Lin(None, [], 1)
    if any(den.mono):
        m = tuple(min(k, min(alpha[i] for alpha in N)) for i, k in enumerate(den.mono))
        if any(m):
            N = {tuple(map(sub, alpha, m)): a for alpha, a in N.items()}
            den = _Den(den.poly.div_monomial((0,) + m), wreg)
    S, r = q * den.sd.numerator, sign * den.sd.denominator
    if S < 0:
        S, r = -S, -r
    return _Lin(den, [(alpha, a * r) for alpha, a in N.items()], S)


class _RunLins:
    """The coordinates of one DD run, linearized on first use: each
    state's mu and theta from their stored form (``fmu``, ``ftheta``: a
    numerator over a multiset of pool ids), each denominator's product
    once per run."""

    def __init__(self, run: DDRun, wreg: _WRegistry):
        self.run = run
        self.wreg = wreg
        self.pool = run.final.pool
        self.dens: Dict[tuple, _Den] = {}  # pool-id multiset -> _Den
        self.lins: Dict[tuple, List[_Lin]] = {}  # (t, 'fmu' | 'ftheta') -> coordinates

    def den(self, ids: tuple) -> _Den:
        if ids not in self.dens:
            self.dens[ids] = _Den(self.pool.product(ids).subs_one(0), self.wreg)
        return self.dens[ids]

    def coords(self, t: int, kind: str) -> List[_Lin]:
        """mu (kind 'fmu') or theta ('ftheta') of state t."""
        if (t, kind) not in self.lins:
            self.lins[t, kind] = [
                _linearized(*_dehomogenized(f.num), self.den(f.den), 1, self.wreg)
                for f in getattr(self.run.states[t], kind)
            ]
        return self.lins[t, kind]

    def summands(self, i: int) -> List[_Lin]:
        """The top-level summands w * prod(cone forms) / prod(cone forms)
        of the final state's constraint-product view of coordinate i."""
        pool, view = self.pool, self.run.final.cpr[i]
        den, dsign = self.den(view.den), pool.cone_weight(1, view.den)
        out = []
        for w, fids in view.terms:
            N, q = _dehomogenized(pool.product(fids))
            out.append(_linearized(
                {alpha: a * w.numerator for alpha, a in N.items()}, q * w.denominator,
                den, dsign * pool.cone_weight(1, fids), self.wreg,
            ))
        return out


def _lin_row(wreg: _WRegistry, terms, first: Sequence[str] = ()):
    """The row sum of scale * lin(f y_l) (lin(f) when l is None) over terms
    (f, l, scale), after coefficient 1 on each variable of first, as
    (coefficients, right-hand side): the constants of the linearizations
    move to the right-hand side.  The sum is taken in integers over one
    common denominator; each coefficient becomes a Fraction once."""
    ms, L = linalg.ratios_over_lcm(
        [(scale.numerator, f.S * scale.denominator) for f, _, scale in terms]
    )
    acc = dict.fromkeys(first, L)
    const = 0
    for (f, l, _), m in zip(terms, ms):
        pairs, c = f.at(wreg, l)
        const += m * c
        for v, a in pairs:
            acc[v] = acc.get(v, 0) + m * a
    return {v: Fraction(a, L) for v, a in acc.items() if a}, Fraction(-const, L)


def build_de_linear(
    inst: DBPInstance,
    k: int,
    orders: Sequence[Sequence[int]],
    theta_cap: Optional[int] = None,
    jobs: int = 1,
) -> RelaxModel:
    """Linear subset of the algebraic hierarchy at level k over a set of
    constraint orders.

    Per order: scaled y-membership rows for every coordinate (aggregate and
    one row per top-level summand of the constraint-product view), coordinate
    non-negativity, the inter-level affine recursions for mu and mu*y', and
    constraint-product sign rows for all row subsets up to theta_cap over
    every denominator seen.  Linearization variables are shared across orders
    whenever the (denominator, exponent, y-index) key coincides.  z_j is in
    the objective only when row j of Q is not zero, since only then does a
    row bound it.

    Each exact step runs once.  Each coordinate of each state, mu and theta,
    is dehomogenized from its stored form and linearized once per build
    (``_RunLins``), into integer atoms over its denominator's primitive
    form, and these serve every l in {None} u y.  Each row is summed in
    integers over one common denominator; Fractions appear only in the
    coefficients and right-hand side given to ``LPProblem.add_row``.  Each
    product of P's row expressions over a row subset is made once, from
    the product of its prefix, and serves every denominator.

    The sign rows are oriented by each denominator's sign at an interior
    point of P, so P must have one: EmptyInterior otherwise.  Without an
    order no row bounds z, so orders must not be empty: ValueError.  The
    orders run one after another in this process, so jobs must be 1:
    ValueError otherwise.
    """
    n, ny = inst.n, inst.ny
    P = inst.P
    if jobs != 1:
        raise ValueError(f"jobs = {jobs}: the orders run in one process, so jobs must be 1")
    orders = [tuple(o) for o in orders]
    if not orders:
        raise ValueError("build_de_linear needs at least one order")
    for o in orders:
        if len(o) != k:
            raise ValueError("each order must have length k")
    inside = interior_point(P)
    if inside is None:
        raise EmptyInterior("P has no interior point, at which DE orients its sign rows")
    prob = LPProblem(sense="min", name=f"de{k}")
    for j in range(n):
        prob.add_var(f"x{j}")
    for l in range(ny):
        prob.add_var(f"y{l}")
    for j in range(n):
        prob.add_var(f"z{j}")
    wreg = _WRegistry(prob)

    orders = sorted(orders)  # deterministic merge regardless of build order
    runs = [dd_run(P, order=o) for o in orders]
    lins = [_RunLins(run, wreg) for run in runs]
    eta = max(
        [1] + [f.degree() for rl in lins for t in range(1, len(rl.run.states)) for f in rl.coords(t, "fmu")]
    )
    cap = theta_cap if theta_cap is not None else eta

    ycols = list(range(ny))
    for o, run, rl in zip(orders, runs, lins):
        final = run.final
        mu = rl.coords(len(run.states) - 1, "fmu")
        theta = rl.coords(len(run.states) - 1, "ftheta")
        # objective rows z_j >= sum_i R_{j+1,i} Q_j. (y mu_i) (+ L part)
        for j in range(n):
            if not any(inst.Q[j]):
                continue
            coeffs, rhs = _lin_row(wreg, [
                (f, l, -col[j + 1] * inst.Q[j][l])
                for cols, fs in ((final.R, mu), (final.L, theta))
                for col, f in zip(cols, fs) if col[j + 1]
                for l in ycols if inst.Q[j][l]
            ], (f"z{j}",))
            prob.add_row(coeffs, ">=", rhs, name=f"obj[{j}]ς{o}", tag=("obj", o, j))
        # membership and non-negativity rows per coordinate
        for i in range(final.p):
            pieces = [mu[i]]
            if final.cpr[i] is not None and len(final.cpr[i].terms) > 1:
                pieces += rl.summands(i)
            for piece_no, g in enumerate(pieces):
                coeffs, rhs = _lin_row(wreg, [(g, None, ONE)])
                if piece_no == 0:
                    prob.add_row(coeffs, ">=", rhs, name=f"nn[{i}]ς{o}",
                                 tag=("nonneg", o, i))
                for r in range(inst.Py.m):
                    A = inst.Py.A[r]
                    coeffs, rhs = _lin_row(
                        wreg, [(g, None, inst.Py.b[r])] + [(g, l, -A[l]) for l in ycols if A[l]]
                    )
                    prob.add_row(
                        coeffs, ">=", rhs,
                        name=f"yscale[{r},{i},{piece_no}]ς{o}",
                        tag=("yscale", o, r, i, piece_no),
                    )
        # inter-level recursion rows, t = 1..k over the (unpruned) states
        for t in range(1, len(run.entries) + 1):
            prev = run.states[t - 1]
            entry = run.entries[t - 1]
            if entry.case == "ray" and not entry.Npos:
                continue  # the dropped coordinates vanish on the cone
            th_prev = list(rl.coords(t - 1, "ftheta"))
            mu_prev = rl.coords(t - 1, "fmu")
            if entry.flip:
                th_prev[entry.xi] = th_prev[entry.xi].negated()
            th_next = rl.coords(t, "ftheta")
            mu_next = rl.coords(t, "fmu")
            for l in [None] + ycols:
                for j in range(prev.q):
                    coeffs, rhs = _lin_row(
                        wreg,
                        [(th_prev[j], l, ONE)]
                        + [(c, l, -a) for c, a in zip(th_next, entry.F[j]) if a]
                        + [(c, l, -a) for c, a in zip(mu_next, entry.G[j]) if a],
                    )
                    prob.add_row(coeffs, "=", rhs, name=f"recθ[{t},{j},{l}]ς{o}",
                                 tag=("rec_theta", o, t, j, l))
                for r in range(prev.p):
                    coeffs, rhs = _lin_row(
                        wreg,
                        [(mu_prev[entry.perm[r]], l, ONE)]
                        + [(c, l, -a) for c, a in zip(mu_next, entry.D[r]) if a],
                    )
                    prob.add_row(coeffs, "=", rhs, name=f"recμ[{t},{r},{l}]ς{o}",
                                 tag=("rec_mu", o, t, r, l))

    # constraint-product sign rows over every denominator seen (including
    # 1).  A registered denominator is a primitive form, whose sign is fixed
    # by its leading coefficient and not by its sign on P: each row is
    # oriented by the denominator's sign at an interior point of P.
    one = Poly.const(n + 1, 1)
    forms = dict(wreg.dens)
    forms.setdefault(one.key(), one)
    row_exprs = [
        Poly.affine(n + 1, P.b[i], [ZERO] + [-c for c in P.A[i]]) for i in range(P.m)
    ]
    # the row subsets up to theta_cap by size, each product made once, from
    # its prefix's, and dehomogenized once for every denominator
    products = {(): one}
    for size in range(1, cap + 1):
        for theta_set in itertools.combinations(range(P.m), size):
            products[theta_set] = products[theta_set[:-1]] * row_exprs[theta_set[-1]]
    nums = {theta_set: _dehomogenized(prod) for theta_set, prod in products.items()}
    for dkey, form in sorted(forms.items(), key=lambda kv: kv[0]):
        den = _Den(form, wreg)
        sign = -1 if form.eval((ONE,) + inside) < 0 else 1
        for theta_set, (N, q) in nums.items():
            coeffs, rhs = _lin_row(wreg, [(_linearized(N, q, den, sign, wreg), None, ONE)])
            prob.add_row(coeffs, ">=", rhs,
                         name=f"prod{theta_set}/den",
                         tag=("prodcons", dkey, theta_set))

    prob.objective = {f"z{j}": ONE for j in range(n) if any(inst.Q[j])}
    for j in range(n):
        if inst.cx[j]:
            prob.objective[f"x{j}"] = inst.cx[j]
    for l in range(ny):
        if inst.cy[l]:
            prob.objective[f"y{l}"] = inst.cy[l]
    prob.obj_const = inst.c0
    return RelaxModel(
        problem=prob,
        level=k,
        orders=list(orders),
        wnames=wreg.wnames(),
        wdens=dict(wreg.dens),
        meta={"eta": eta, "theta_cap": cap},
    )


# --------------------------------------------------------------------------
# RLT baselines
# --------------------------------------------------------------------------


def build_rlt_baseline(inst: DBPInstance, flavor: str = "level1_general", k: int = 1) -> LPProblem:
    if flavor == "level1_general":
        return _rlt_level1(inst)
    if flavor == "box_level_k":
        return _rlt_box(inst, k)
    raise ValueError(f"unknown flavor {flavor!r}")


def _rlt_level1(inst: DBPInstance) -> LPProblem:
    """First-level RLT: original rows plus every product of a P-row with a
    Py-row, linearized with variables xy_{jl}."""
    n, ny = inst.n, inst.ny
    prob = LPProblem(sense="min", name="rlt1")
    for j in range(n):
        prob.add_var(f"x{j}")
    for l in range(ny):
        prob.add_var(f"y{l}")
    for j in range(n):
        for l in range(ny):
            prob.add_var(f"xy{j}_{l}")
    obj: Dict[str, Fraction] = {}
    for j in range(n):
        if inst.cx[j]:
            obj[f"x{j}"] = inst.cx[j]
    for l in range(ny):
        if inst.cy[l]:
            obj[f"y{l}"] = inst.cy[l]
    for j in range(n):
        for l in range(ny):
            if inst.Q[j][l]:
                obj[f"xy{j}_{l}"] = inst.Q[j][l]
    prob.objective = obj
    prob.obj_const = inst.c0
    for i in range(inst.P.m):
        prob.add_row(
            {f"x{j}": inst.P.A[i][j] for j in range(n) if inst.P.A[i][j]},
            "<=",
            inst.P.b[i],
            name=f"P[{i}]",
            tag=("P", i),
        )
    for r in range(inst.Py.m):
        prob.add_row(
            {f"y{l}": inst.Py.A[r][l] for l in range(ny) if inst.Py.A[r][l]},
            "<=",
            inst.Py.b[r],
            name=f"Py[{r}]",
            tag=("Py", r),
        )
    # (b_i - A_i x)(b_r - A_r y) >= 0 expanded over xy
    for i in range(inst.P.m):
        for r in range(inst.Py.m):
            coeffs: Dict[str, Fraction] = {}
            const = inst.P.b[i] * inst.Py.b[r]
            for j in range(n):
                if inst.P.A[i][j]:
                    coeffs[f"x{j}"] = coeffs.get(f"x{j}", ZERO) - inst.P.A[i][j] * inst.Py.b[r]
            for l in range(ny):
                if inst.Py.A[r][l]:
                    coeffs[f"y{l}"] = coeffs.get(f"y{l}", ZERO) - inst.P.b[i] * inst.Py.A[r][l]
            for j in range(n):
                for l in range(ny):
                    c = inst.P.A[i][j] * inst.Py.A[r][l]
                    if c:
                        coeffs[f"xy{j}_{l}"] = coeffs.get(f"xy{j}_{l}", ZERO) + c
            prob.add_row(coeffs, ">=", -const, name=f"prod[{i},{r}]",
                         tag=("prod", i, r))
    return prob


def _check_box(P: HPolyhedron):
    verts = enumerate_vertices_oracle(P)
    n = P.n
    want = sorted(
        tuple(Fraction(b) for b in bits)
        for bits in itertools.product([0, 1], repeat=n)
    )
    if sorted(verts) != want:
        raise NotBox("box RLT flavor requires P = [0,1]^n")


def expand_product_factor(S: tuple, Sp: tuple) -> List[Tuple[tuple, int]]:
    """x^S (1-x)^Sp = sum over T subseteq Sp of (-1)^|T| x^{S u T}, as
    (sorted index tuple S u T, sign) pairs."""
    out = []
    for r in range(len(Sp) + 1):
        for T in itertools.combinations(Sp, r):
            out.append((tuple(sorted(set(S) | set(T))), (-1) ** r))
    return out


@dataclass
class CouplingRow:
    """A row xcoeffs.x + ycoeffs.y (sense) rhs."""

    xcoeffs: tuple  # over all block coordinates, concatenated
    ycoeffs: tuple
    sense: str  # '<=', '>=' or '='
    rhs: Fraction


def sherali_adams_01(
    n: int,
    ny: int,
    rows: Sequence[CouplingRow],
    obj_x: Sequence,
    obj_y: Sequence,
    obj_const,
    k: int,
    Q: Optional[Sequence[Sequence]] = None,
) -> LPProblem:
    """Level-k Sherali-Adams (1990) for a mixed 0-1 LP over x in {0,1}^n
    and y: every product factor x^S (1-x)^S', |S u S'| = min(k, n), gives
    the row factor >= 0 (named factor{S},{Sp}) and, times each row r, the row
    factor * (rhs - a.x - c.y), >= 0 for a '<=' row, <= 0 for a '>=' row
    and = 0 for an '=' row (named ymem{S},{Sp},{r}).  They are linearized
    over the multilinear monomials X_T = x^T and Y_T,l = x^T y_l (Y_(),l
    is y_l), up to degree min(k+1, n) when some row has an x term and
    min(k, n) otherwise.  The objective is obj_x.x + obj_y.y + obj_const,
    plus Q[j][l] on Y_(j),l.  Over the unit box, with the rows of Py, this
    is level-k RLT (``_rlt_box``)."""
    prob = LPProblem(sense="min", name=f"sa{k}")
    top = min(k + any(c for row in rows for c in row.xcoeffs), n)
    monos = [
        tuple(T)
        for size in range(1, top + 1)
        for T in itertools.combinations(range(n), size)
    ]
    for l in range(ny):
        prob.add_var(f"y{l}")
    for T in monos:
        prob.add_var(f"X{T}")
    for T in monos:
        for l in range(ny):
            prob.add_var(f"Y{T}_{l}")

    def yv(T, l):
        return f"Y{T}_{l}" if T else f"y{l}"

    for S0 in itertools.combinations(range(n), min(k, n)):
        for bits in itertools.product([0, 1], repeat=len(S0)):
            S = tuple(t for t, b in zip(S0, bits) if b)
            Sp = tuple(t for t, b in zip(S0, bits) if not b)
            factor = expand_product_factor(S, Sp)
            # factor >= 0
            coeffs: Dict[str, Fraction] = {}
            const = ZERO
            for T, sign in factor:
                if T:
                    coeffs[f"X{T}"] = coeffs.get(f"X{T}", ZERO) + sign
                else:
                    const += sign
            prob.add_row(coeffs, ">=", -const, name=f"factor{S},{Sp}",
                         tag=("factor", S, Sp))
            # factor * (rhs - a.x - c.y) for every row
            for r, row in enumerate(rows):
                rc: Dict[str, Fraction] = {}
                rconst = ZERO
                for T, sign in factor:
                    if T:
                        rc[f"X{T}"] = rc.get(f"X{T}", ZERO) + sign * row.rhs
                    else:
                        rconst += sign * row.rhs
                    for j, c in enumerate(row.xcoeffs):
                        if c:
                            tv = f"X{tuple(sorted(set(T) | {j}))}"
                            rc[tv] = rc.get(tv, ZERO) - sign * c
                    for l, c in enumerate(row.ycoeffs):
                        if c:
                            rc[yv(T, l)] = rc.get(yv(T, l), ZERO) - sign * c
                sense = {"<=": ">=", ">=": "<=", "=": "="}[row.sense]
                prob.add_row(rc, sense, -rconst, name=f"ymem{S},{Sp},{r}",
                             tag=("ymem", S, Sp, r))
    obj: Dict[str, Fraction] = {}
    for l in range(ny):
        if Fraction(obj_y[l]):
            obj[f"y{l}"] = Fraction(obj_y[l])
    for j in range(n):
        if Fraction(obj_x[j]):
            obj[f"X{(j,)}"] = Fraction(obj_x[j])
        for l in range(ny):
            if Q is not None and Q[j][l]:
                obj[f"Y{(j,)}_{l}"] = Fraction(Q[j][l])
    prob.objective = obj
    prob.obj_const = Fraction(obj_const)
    return prob


def _rlt_box(inst: DBPInstance, k: int) -> LPProblem:
    """Level-k RLT over the unit box: level-k Sherali-Adams on the rows of
    Py, which have no x terms, with Q[j][l] on the monomial Y_(j),l."""
    _check_box(inst.P)
    if not 1 <= k <= inst.n:
        raise ValueError("box level must be in 1..n")
    no_x = (ZERO,) * inst.n
    rows = [CouplingRow(no_x, inst.Py.A[r], "<=", inst.Py.b[r]) for r in range(inst.Py.m)]
    prob = sherali_adams_01(inst.n, inst.ny, rows, inst.cx, inst.cy, inst.c0, k, Q=inst.Q)
    prob.name = f"rltbox{k}"
    return prob


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------


def solve_and_report(problem) -> dict:
    """Exact solve with a provenance-tagged report."""
    prob = problem.problem if isinstance(problem, RelaxModel) else problem
    return solution_report(prob, lp_solve(prob))


def solution_report(prob: LPProblem, sol: LPSolution) -> dict:
    """Provenance-tagged report of sol, an exact solution of prob: value,
    primal and the nonzero duals with their row tags, or the Farkas vector,
    or the ray."""
    report = {"status": sol.status, "name": prob.name}
    if sol.status == "optimal":
        report["value"] = rat_to_str(sol.value)
        report["primal"] = {v: rat_to_str(x) for v, x in sol.primal.items()}
        report["dual"] = [
            {
                "row": row.name,
                "tag": list(row.tag) if isinstance(row.tag, tuple) else row.tag,
                "value": rat_to_str(y),
            }
            for row, y in zip(prob.rows, sol.dual)
            if y != 0
        ]
    elif sol.status == "infeasible":
        report["farkas"] = [rat_to_str(u) for u in sol.farkas]
    else:
        report["ray"] = {v: rat_to_str(x) for v, x in (sol.ray or {}).items() if x}
    return report
