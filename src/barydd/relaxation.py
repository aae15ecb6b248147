"""Relaxation builders: convex-hull LP, level-k DD hierarchies, the linear
subset of the algebraic hierarchy, RLT baselines, and envelope evaluation.

All models are exact-rational LPs solved by the embedded simplex.  Row tags
carry provenance so duals map back to the constraints they came from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .dd_engine import DDRun, cpr_numerator, dd_run
from .exactmath import Poly, RatFun, rat_from_str, rat_to_str
from .lp import LPProblem, LPSolution, LPVerificationError, lp_solve
from .polyhedra import (
    HPolyhedron,
    dehomogenize_columns,
    enumerate_vertices_oracle,
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
        super().__init__(
            f"level {k} too low: {what}; minimum usable level kbar = {kbar}"
        )


class NotBox(ValueError):
    """Box RLT flavor requires P = [0,1]^n."""


class InfeasiblePoint(ValueError):
    """Queried point lies outside the polytope."""


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
        Q = tuple(tuple(Fraction(v) for v in row) for row in Q)
        n = len(Q)
        ny = len(Q[0]) if Q else Py.n
        cx = tuple(Fraction(v) for v in cx) if cx else (ZERO,) * n
        cy = tuple(Fraction(v) for v in cy) if cy else (ZERO,) * ny
        if n != P.n or ny != Py.n:
            raise ValueError("Q dimensions must match P and Py")
        return DBPInstance(Q, cx, cy, Fraction(c0), P, Py)

    @property
    def n(self) -> int:
        return self.P.n

    @property
    def ny(self) -> int:
        return self.Py.n

    def objective_value(self, x, y) -> Fraction:
        x = [Fraction(v) for v in x]
        y = [Fraction(v) for v in y]
        val = self.c0
        val += sum(c * v for c, v in zip(self.cx, x))
        val += sum(c * v for c, v in zip(self.cy, y))
        for j in range(self.n):
            for l in range(self.ny):
                val += self.Q[j][l] * x[j] * y[l]
        return val

    def objective_poly(self) -> Poly:
        """Objective as a Poly over (x1..xn, y1..yny)."""
        nv = self.n + self.ny
        p = Poly.const(nv, self.c0)
        for j in range(self.n):
            if self.cx[j]:
                p = p + Poly.variable(nv, j).scale(self.cx[j])
        for l in range(self.ny):
            if self.cy[l]:
                p = p + Poly.variable(nv, self.n + l).scale(self.cy[l])
        for j in range(self.n):
            for l in range(self.ny):
                if self.Q[j][l]:
                    p = p + (
                        Poly.variable(nv, j) * Poly.variable(nv, self.n + l)
                    ).scale(self.Q[j][l])
        return p

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

    @staticmethod
    def make_max(pieces) -> "GFun":
        return GFun([(Fraction(c0), tuple(Fraction(c) for c in cs)) for c0, cs in pieces])


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
    run: DDRun
    state: object  # pruned DDState


def barycentric_for_polytope(
    P: HPolyhedron, order: Optional[Sequence[int]] = None, prune: bool = True
) -> BarycentricCoords:
    from .dd_engine import prune_redundant
    from .polyhedra import dehomogenize

    run = dd_run(P, order=order)
    state = prune_redundant(run.final) if prune else run.final
    if any(col[0] == 0 for col in state.R):
        raise UnboundedInput("polytope has a recession ray; cannot dehomogenize")
    V, lam = dehomogenize(state.R, list(state.mu))
    pts = [tuple(c[1:]) for c in V]
    oracle = enumerate_vertices_oracle(P)
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
        state=state,
    )


# --------------------------------------------------------------------------
# hull LP and envelope
# --------------------------------------------------------------------------


def build_hull_lp(
    inst: DBPInstance, vertices: Optional[Sequence[tuple]] = None
) -> LPProblem:
    """The vertex-representation convex-hull LP: variables lambda in the
    simplex and scaled copies Y, rows (b^y -A^y)(lambda'; Y) >= 0, y = Y e,
    x = V lambda, objective Trace(Q Y V') plus affine terms.  It is the
    vertex form (``_vertex_form_lp``) over the points (1; v) of P's
    vertices, given or from the oracle."""
    if not is_bounded(inst.P) or not is_bounded(inst.Py):
        raise UnboundedInput("hull LP needs bounded P and Py")
    V = list(vertices) if vertices is not None else enumerate_vertices_oracle(inst.P)
    return _vertex_form_lp(dbp_as_ac(inst), [(ONE,) + tuple(v) for v in V], name="hull")


def envelope_eval(inst: DBPInstance, xbar: Sequence, ybar: Sequence) -> Fraction:
    """Convex envelope of the objective over P x Py at (xbar, ybar): the hull
    LP with x fixed and sum_i Y_:,i fixed."""
    xbar = [Fraction(v) for v in xbar]
    ybar = [Fraction(v) for v in ybar]
    if not inst.P.contains(xbar):
        raise InfeasiblePoint(f"x not in P")
    if not inst.Py.contains(ybar):
        raise InfeasiblePoint(f"y not in Py")
    prob = build_hull_lp(inst)
    for j in range(inst.n):
        prob.add_row({f"x{j}": ONE}, "=", xbar[j], name=f"fix_x{j}")
    for l in range(inst.ny):
        prob.add_row({f"y{l}": ONE}, "=", ybar[l], name=f"fix_y{l}")
    sol = lp_solve(prob)
    if sol.status != "optimal":
        # x and y lie in the bounded P and Py, so the LP has an optimum
        raise LPVerificationError(f"envelope LP at a point of P x Py is {sol.status}")
    return sol.value


# --------------------------------------------------------------------------
# level-k hierarchy (vertex form over P^k)
# --------------------------------------------------------------------------


def build_level_lp(
    inst,
    k: int,
    order: Optional[Sequence[int]] = None,
    prune: bool = False,
) -> LPProblem:
    """Level-k relaxation over the outer approximation from the first k rows
    of the order.  Uses the affine-convex form, which only needs the lineality
    space to be empty at level k (ray columns are allowed); for a pure
    bilinear instance all g_i are affine so the form is exact at k = m.
    Instances with non-affine g use the alternate initialization, keeping the
    generator rows that scale them non-negative.  DD runs only through step
    max(k, kbar) of the order (see LevelRun.make)."""
    return LevelRun.make(inst, order, k).lp(k, prune)


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
        runs, so LevelTooLow still reports kbar.  Both inits used here
        (default, and partial_orthant for non-affine g) keep the order, so a
        stopped run holds exactly the first states of the whole run."""
        ac = dbp_as_ac(inst) if isinstance(inst, DBPInstance) else inst
        order = list(order) if order is not None else list(range(ac.P.m))
        stop = None
        if k is not None:
            if not 0 <= k <= len(order):
                raise ValueError(f"level {k} is not in 0..{len(order)}, the order length")
            stop = lambda st: st.k >= k and st.q == 0  # noqa: E731
        if all(g.affine for g in ac.g):
            return LevelRun(ac, dd_run(ac.P, order=order, stop=stop))
        return LevelRun(
            ac, dd_run(ac.P, order=order, init="partial_orthant", varrho=ac.varrho, stop=stop)
        )

    @property
    def kbar(self) -> Optional[int]:
        """The smallest step count with empty lineality, if the run has one."""
        return next((t for t, st in enumerate(self.run.states) if st.q == 0), None)

    def lp(self, k: int, prune: bool = False) -> LPProblem:
        """The level-k LP from the state after step k."""
        kbar = self.kbar
        if kbar is None or k < kbar:
            raise LevelTooLow(k, kbar, "lineality space not empty at this level")
        st = self.run.states[k]
        if prune:
            from .dd_engine import prune_redundant

            st = prune_redundant(st)
        return _vertex_form_lp(self.ac, dehomogenize_columns(st.R), name=f"level{k}")

    def gap_table(
        self, prune: bool = False, solved: Optional[Dict[int, LPSolution]] = None
    ) -> List[dict]:
        """(k, status, value) of every usable level the run reaches.  solved
        maps a level to a solution of its LP (built with the same prune);
        that level is neither built nor solved again."""
        solved = solved or {}
        kbar = self.kbar
        if kbar is None:
            return []
        table = []
        for k in range(kbar, len(self.run.states)):
            sol = solved[k] if k in solved else lp_solve(self.lp(k, prune))
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


def gap_table(
    inst, order: Optional[Sequence[int]] = None, prune: bool = False
) -> List[dict]:
    """Solve every usable level and report (k, status, value).  DD runs once,
    over the whole order; each level is built from the state after its
    step."""
    return LevelRun.make(inst, order).gap_table(prune)


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
    Denominators are keyed by their primitive form so identical denominators
    arising under different orders share variables."""

    def __init__(self, prob: LPProblem, n: int, ny: int):
        self.prob = prob
        self.n = n
        self.ny = ny
        self.names: Dict[tuple, str] = {}
        self.dens: Dict[tuple, Poly] = {}
        self.linearized: Dict[tuple, tuple] = {}  # see _lin_ratfun

    def var(self, dprim: Poly, alpha: tuple, l: Optional[int]) -> str:
        dkey = dprim.key()
        key = (dkey, alpha, l)
        if key not in self.names:
            name = f"w{len(self.names)}"
            self.names[key] = name
            self.dens[dkey] = dprim
            self.prob.add_var(name)
        return self.names[key]


def _lin_ratfun(wreg: _WRegistry, f: RatFun, l: Optional[int]):
    """Linearize a dehomogenized rational function (times y_l when l given)
    into (coeffs dict, constant); callers must not modify the dict.  Each
    (num, den, l), terms in order, is linearized once per registry: a repeat
    would register no new variable, so the first result stands for it and
    the w numbering follows the first calls."""
    key = (tuple(f.num.terms.items()), tuple(f.den.terms.items()), l)
    if key not in wreg.linearized:
        wreg.linearized[key] = _linearize(wreg, f, l)
    return wreg.linearized[key]


def _linearize(wreg: _WRegistry, f: RatFun, l: Optional[int]):
    coeffs: Dict[str, Fraction] = {}
    const = ZERO
    if f.is_zero():
        return coeffs, const
    s, dprim = f.den.primitive()  # s > 0: den leading coefficient is positive
    trivial = dprim.is_constant()
    for e, c in f.num.terms.items():
        alpha = e[1:]  # drop x0 (already substituted to 1)
        val = c / s
        deg = sum(alpha)
        if trivial:
            if deg == 0:
                if l is None:
                    const += val
                else:
                    coeffs[f"y{l}"] = coeffs.get(f"y{l}", ZERO) + val
                continue
            if deg == 1 and l is None:
                j = alpha.index(1)
                coeffs[f"x{j}"] = coeffs.get(f"x{j}", ZERO) + val
                continue
        name = wreg.var(dprim, alpha, l)
        coeffs[name] = coeffs.get(name, ZERO) + val
    return coeffs, const


def _lin_row(wreg: _WRegistry, terms, coeffs: Optional[Dict[str, Fraction]] = None):
    """The row sum of scale * lin(f y_l) (lin(f) when l is None) over terms
    (f, l, scale), added to coeffs, as (coefficients, right-hand side): the
    constants of the linearizations move to the right-hand side."""
    coeffs = dict(coeffs or {})
    const = ZERO
    for f, l, scale in terms:
        cfs, cst = _lin_ratfun(wreg, f, l)
        for v, c in cfs.items():
            coeffs[v] = coeffs.get(v, ZERO) + scale * c
        const += scale * cst
    return coeffs, -const


def _run_order_worker(pjson: dict, order: tuple):
    """Top-level worker so order runs can execute in parallel processes."""
    P = HPolyhedron.from_json(pjson)
    return dd_run(P, order=list(order))


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
    whenever the (denominator, exponent, y-index) key coincides.
    """
    n, ny = inst.n, inst.ny
    P = inst.P
    orders = [tuple(o) for o in orders]
    for o in orders:
        if len(o) != k:
            raise ValueError("each order must have length k")
    prob = LPProblem(sense="min", name=f"de{k}")
    for j in range(n):
        prob.add_var(f"x{j}")
    for l in range(ny):
        prob.add_var(f"y{l}")
    for j in range(n):
        prob.add_var(f"z{j}")
    wreg = _WRegistry(prob, n, ny)

    orders = sorted(orders)  # deterministic merge regardless of build order
    if jobs > 1 and len(orders) > 1:
        import multiprocessing as mp

        with mp.Pool(min(jobs, len(orders))) as pool:
            runs = pool.starmap(
                _run_order_worker, [(P.to_json(), o) for o in orders]
            )
    else:
        runs = [dd_run(P, order=o) for o in orders]
    eta = 1
    for run in runs:
        for st in run.states[1:]:
            for m in st.mu:
                eta = max(eta, m.subs_one(0).num.degree())
    cap = theta_cap if theta_cap is not None else eta

    ycols = list(range(ny))
    for o, run in zip(orders, runs):
        final = run.final
        dehom_mu = [m.subs_one(0) for m in final.mu]
        dehom_theta = [t.subs_one(0) for t in final.theta]
        # objective rows z_j >= sum_i R_{j+1,i} Q_j. (y mu_i) (+ L part)
        for j in range(n):
            if all(q == 0 for q in inst.Q[j]):
                continue
            coeffs, rhs = _lin_row(wreg, [
                (f, l, -col[j + 1] * inst.Q[j][l])
                for cols, fs in ((final.R, dehom_mu), (final.L, dehom_theta))
                for col, f in zip(cols, fs) if col[j + 1]
                for l in ycols if inst.Q[j][l]
            ], {f"z{j}": ONE})
            prob.add_row(coeffs, ">=", rhs, name=f"obj[{j}]ς{o}", tag=("obj", o, j))
        # membership and non-negativity rows per coordinate
        for i in range(final.p):
            pieces = [dehom_mu[i]]
            if final.cpr[i] is not None and len(final.cpr[i].terms) > 1:
                pool = final.pool
                dpoly = pool.cone_product(final.cpr[i].den).subs_one(0)
                for w, fids in final.cpr[i].terms:
                    pieces.append(RatFun(pool.cone_product(fids).subs_one(0).scale(w), dpoly))
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
            nxt = run.states[t]
            entry = run.entries[t - 1]
            if entry.case == "ray" and not entry.Npos:
                continue  # dropped coordinates are handled as implied zeros
            th_prev = [f.subs_one(0) for f in prev.theta]
            mu_prev = [f.subs_one(0) for f in prev.mu]
            if entry.flip:
                th_prev[entry.xi] = th_prev[entry.xi].scale(-1)
            th_next = [f.subs_one(0) for f in nxt.theta]
            mu_next = [f.subs_one(0) for f in nxt.mu]
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

    # constraint-product sign rows over every denominator seen (including 1)
    nvfull = n + 1
    one = Poly.const(nvfull, 1)
    dens_map = dict(wreg.dens)
    dens_map.setdefault(one.key(), one)
    dens = sorted(dens_map.items(), key=lambda kv: kv[0])
    row_exprs = [
        Poly.affine(nvfull, P.b[i], [ZERO] + [-c for c in P.A[i]]) for i in range(P.m)
    ]
    for dkey, dpoly in dens:
        for size in range(0, cap + 1):
            for theta_set in itertools.combinations(range(P.m), size):
                num = Poly.const(nvfull, 1)
                for i in theta_set:
                    num = num * row_exprs[i]
                coeffs, rhs = _lin_row(wreg, [(RatFun(num, dpoly), None, ONE)])
                prob.add_row(coeffs, ">=", rhs,
                             name=f"prod{theta_set}/den",
                             tag=("prodcons", dkey, theta_set))

    prob.objective = {f"z{j}": ONE for j in range(n)}
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
        wnames=dict(wreg.names),
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
    sense: str  # '<=' or '='  (cone = non-negative orthant plus equalities)
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
    factor * (rhs - a.x - c.y) >= 0, or = 0 for an '=' row (named
    ymem{S},{Sp},{r}).  They are linearized over the multilinear monomials
    X_T = x^T and Y_T,l = x^T y_l (Y_(),l is y_l), up to degree
    min(k+1, n) when some row has an x term and min(k, n) otherwise.  The
    objective is obj_x.x + obj_y.y + obj_const, plus Q[j][l] on Y_(j),l.
    Over the unit box, with the rows of Py, this is level-k RLT
    (``_rlt_box``)."""
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
                sense = ">=" if row.sense == "<=" else "="
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


def solve_and_report(problem, pivot_rule: str = "bland") -> dict:
    """Exact solve with a provenance-tagged report."""
    prob = problem.problem if isinstance(problem, RelaxModel) else problem
    return solution_report(prob, lp_solve(prob, pivot_rule=pivot_rule))


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
