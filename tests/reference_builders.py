"""The relaxation builders as they were before they shared one
Sherali-Adams builder and one assembly of the FDP and DE rows, kept as
references: the shared code must build the same LPs, row for row.  The DE
reference runs its orders serially and has its own linearization
(``_WRegistry``, ``_lin_ratfun``, ``_linearize``): each dehomogenized
coordinate a normalized RatFun, linearized in Fractions per (coordinate, l).
The substituted-indicator model of the
FDP hierarchy has no builder in the package, and no command reaches it:
``reference_substitute_indicators`` is its one copy."""

import itertools
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from barydd.dd_engine import dd_run
from barydd.exactmath import Poly, RatFun
from barydd.facial import FDPInstance, _subsets, check_vertex_disjoint
from barydd.lp import LPProblem, lp_solve
from barydd.polyhedra import enumerate_vertices_oracle, interior_point
from barydd.relaxation import DBPInstance, RelaxModel, _check_box, expand_product_factor

ZERO = Fraction(0)
ONE = Fraction(1)


def lp_rows(prob):
    """Every row of prob, its coefficients in order, for comparison."""
    return [(list(r.coeffs.items()), r.sense, r.rhs, r.name, r.tag) for r in prob.rows]


def assert_same_lp(got, want):
    """Same name, sense, variables and bounds, rows in order (coefficients
    in order, sense, rhs, name, tag), objective up to explicit zeros and
    objective constant."""
    assert (got.name, got.sense, got.obj_const) == (want.name, want.sense, want.obj_const)
    assert (got.variables, got.lb) == (want.variables, want.lb)
    assert lp_rows(got) == lp_rows(want)
    nonzero = lambda obj: {v: c for v, c in obj.items() if c}  # noqa: E731
    assert nonzero(got.objective) == nonzero(want.objective)


def _merge(into: Dict[str, Fraction], frm: Dict[str, Fraction], scale=ONE):
    for k, v in frm.items():
        into[k] = into.get(k, ZERO) + scale * v


class _WRegistry:
    """Shared linearization variables w_{d,alpha,l} for atoms x^alpha y_l / d.
    Denominators are keyed by their primitive form so identical denominators
    arising under different orders share variables."""

    def __init__(self, prob: LPProblem):
        self.prob = prob
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


def reference_de_linear(
    inst: DBPInstance,
    k: int,
    orders: Sequence[Sequence[int]],
    theta_cap: Optional[int] = None,
) -> RelaxModel:
    """Linear subset of the algebraic hierarchy at level k over a set of
    constraint orders.

    Per order: for each coordinate mu_i of the final state, one
    non-negativity row and one scaled y-membership row per row of Py, the
    inter-level affine recursions for mu and mu*y', and
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
    wreg = _WRegistry(prob)

    orders = sorted(orders)  # deterministic merge regardless of build order
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
            coeffs: Dict[str, Fraction] = {f"z{j}": ONE}
            const = ZERO
            for i, col in enumerate(final.R):
                r = col[j + 1]
                if not r:
                    continue
                for l in ycols:
                    if inst.Q[j][l]:
                        cfs, cst = _lin_ratfun(wreg, dehom_mu[i], l)
                        _merge(coeffs, cfs, -r * inst.Q[j][l])
                        const += r * inst.Q[j][l] * cst
            for ci, col in enumerate(final.L):
                r = col[j + 1]
                if not r:
                    continue
                for l in ycols:
                    if inst.Q[j][l]:
                        cfs, cst = _lin_ratfun(wreg, dehom_theta[ci], l)
                        _merge(coeffs, cfs, -r * inst.Q[j][l])
                        const += r * inst.Q[j][l] * cst
            prob.add_row(coeffs, ">=", const, name=f"obj[{j}]ς{o}", tag=("obj", o, j))
        # membership and non-negativity rows per coordinate
        for i, g in enumerate(dehom_mu):
            gl, gc = _lin_ratfun(wreg, g, None)
            prob.add_row(dict(gl), ">=", -gc, name=f"nn[{i}]ς{o}", tag=("nonneg", o, i))
            for r in range(inst.Py.m):
                coeffs: Dict[str, Fraction] = {}
                const = ZERO
                _merge(coeffs, gl, inst.Py.b[r])
                const -= inst.Py.b[r] * gc
                for l in range(ny):
                    a = inst.Py.A[r][l]
                    if a:
                        cfs, cst = _lin_ratfun(wreg, g, l)
                        _merge(coeffs, cfs, -a)
                        const += a * cst
                prob.add_row(
                    coeffs, ">=", const,
                    name=f"yscale[{r},{i},0]ς{o}",
                    tag=("yscale", o, r, i, 0),
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
                    lhs: Dict[str, Fraction] = {}
                    const = ZERO
                    cfs, cst = _lin_ratfun(wreg, th_prev[j], l)
                    _merge(lhs, cfs)
                    const += cst
                    for c, fcoef in zip(th_next, entry.F[j]):
                        if fcoef:
                            cfs, cst = _lin_ratfun(wreg, c, l)
                            _merge(lhs, cfs, -fcoef)
                            const -= fcoef * cst
                    for c, gcoef in zip(mu_next, entry.G[j]):
                        if gcoef:
                            cfs, cst = _lin_ratfun(wreg, c, l)
                            _merge(lhs, cfs, -gcoef)
                            const -= gcoef * cst
                    prob.add_row(lhs, "=", -const, name=f"recθ[{t},{j},{l}]ς{o}",
                                 tag=("rec_theta", o, t, j, l))
                for r in range(prev.p):
                    lhs = {}
                    const = ZERO
                    cfs, cst = _lin_ratfun(wreg, mu_prev[entry.perm[r]], l)
                    _merge(lhs, cfs)
                    const += cst
                    for c, dcoef in zip(mu_next, entry.D[r]):
                        if dcoef:
                            cfs, cst = _lin_ratfun(wreg, c, l)
                            _merge(lhs, cfs, -dcoef)
                            const -= dcoef * cst
                    prob.add_row(lhs, "=", -const, name=f"recμ[{t},{r},{l}]ς{o}",
                                 tag=("rec_mu", o, t, r, l))

    # constraint-product sign rows over every denominator seen (including
    # 1), each oriented by its sign at an interior point of P
    nvfull = n + 1
    one = Poly.const(nvfull, 1)
    dens_map = dict(wreg.dens)
    dens_map.setdefault(one.key(), one)
    dens = sorted(dens_map.items(), key=lambda kv: kv[0])
    row_exprs = [
        Poly.affine(nvfull, P.b[i], [ZERO] + [-c for c in P.A[i]]) for i in range(P.m)
    ]
    inside = interior_point(P)
    for dkey, dpoly in dens:
        if inside is not None and dpoly.eval((ONE,) + inside) < 0:
            dpoly = dpoly.scale(-1)
        for size in range(0, cap + 1):
            for theta_set in itertools.combinations(range(P.m), size):
                num = Poly.const(nvfull, 1)
                for i in theta_set:
                    num = num * row_exprs[i]
                g = RatFun(num, dpoly)
                gl, gc = _lin_ratfun(wreg, g, None)
                prob.add_row(dict(gl), ">=", -gc,
                             name=f"prod{theta_set}/den",
                             tag=("prodcons", dkey, theta_set))

    # z_j only where its obj row bounds it
    prob.objective = {f"z{j}": ONE for j in range(n) if not all(q == 0 for q in inst.Q[j])}
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


def reference_rlt_box(inst: DBPInstance, k: int) -> LPProblem:
    """Level-k RLT over the unit box via monomial linearizations X_S, Y_S,l:
    product factors expanded through the inclusion-exclusion transform."""
    _check_box(inst.P)
    n, ny = inst.n, inst.ny
    if not 1 <= k <= n:
        raise ValueError("box level must be in 1..n")
    prob = LPProblem(sense="min", name=f"rltbox{k}")
    subsets = [
        tuple(S)
        for size in range(1, k + 1)
        for S in itertools.combinations(range(n), size)
    ]
    for l in range(ny):
        prob.add_var(f"y{l}")
    for S in subsets:
        prob.add_var(f"X{S}")
    for S in [()] + subsets:
        for l in range(ny):
            if S:
                prob.add_var(f"Y{S}_{l}")

    def xvar(S: tuple) -> Optional[str]:
        return f"X{S}" if S else None

    def yvar(S: tuple, l: int) -> str:
        return f"Y{S}_{l}" if S else f"y{l}"

    for S0 in itertools.combinations(range(n), k):
        for bits in itertools.product([0, 1], repeat=k):
            S = tuple(s for s, b in zip(S0, bits) if b)
            Sp = tuple(s for s, b in zip(S0, bits) if not b)
            expansion = expand_product_factor(S, Sp)
            coeffs: Dict[str, Fraction] = {}
            const = ZERO
            for T, sign in expansion:
                v = xvar(T)
                if v is None:
                    const += sign
                else:
                    coeffs[v] = coeffs.get(v, ZERO) + sign
            prob.add_row(dict(coeffs), ">=", -const, name=f"factor{S},{Sp}",
                         tag=("factor", S, Sp))
            for r in range(inst.Py.m):
                rc: Dict[str, Fraction] = {}
                rconst = ZERO
                for T, sign in expansion:
                    v = xvar(T)
                    if v is None:
                        rconst += sign * inst.Py.b[r]
                    else:
                        rc[v] = rc.get(v, ZERO) + sign * inst.Py.b[r]
                    for l in range(ny):
                        a = inst.Py.A[r][l]
                        if a:
                            yv = yvar(T, l)
                            rc[yv] = rc.get(yv, ZERO) - sign * a
                prob.add_row(rc, ">=", -rconst, name=f"ymem{S},{Sp},{r}",
                             tag=("ymem", S, Sp, r))
    obj: Dict[str, Fraction] = {}
    for l in range(ny):
        if inst.cy[l]:
            obj[f"y{l}"] = inst.cy[l]
    for j in range(n):
        if inst.cx[j]:
            obj[f"X{(j,)}"] = obj.get(f"X{(j,)}", ZERO) + inst.cx[j]
        for l in range(ny):
            if inst.Q[j][l]:
                obj[f"Y{(j,)}_{l}"] = obj.get(f"Y{(j,)}_{l}", ZERO) + inst.Q[j][l]
    prob.objective = obj
    prob.obj_const = inst.c0
    return prob


def _face_cut(inst: FDPInstance, i: int, j: int) -> Tuple[Fraction, tuple]:
    """(tau, pi) for face j of block i; synthesized from the vertex list when
    only that was given (sum of tight rows of the block polytope)."""
    face = inst.blocks[i].faces[j]
    if face.tau is not None:
        return face.tau, face.pi
    P = inst.blocks[i].P
    verts = enumerate_vertices_oracle(P)
    E = face.vertices
    tight = [
        r
        for r in range(P.m)
        if all(sum(P.A[r][t] * verts[v][t] for t in range(P.n)) == P.b[r] for v in E)
    ]
    if not tight:
        raise ValueError(f"no supporting rows for face {j} of block {i}")
    tau = sum(P.b[r] for r in tight)
    pi = tuple(sum(P.A[r][t] for r in tight) for t in range(P.n))
    return tau, pi


def reference_fdr_level(inst: FDPInstance, k: int) -> LPProblem:
    """underline-FDR^k: per (S, s) an indicator u0 >= 0 and liftings ux, w;
    gamma-scaled coupling rows, aggregation to (1; x; y), gamma-scaled block
    membership, and the face-definition rows."""
    if not 1 <= k <= inst.np:
        raise ValueError("level must be in 1..n_p")
    Es = check_vertex_disjoint(inst)
    n, ny = inst.n, inst.ny
    prob = LPProblem(sense="min", name=f"fdr{k}")
    for j in range(n):
        prob.add_var(f"x{j}")
    for l in range(ny):
        prob.add_var(f"y{l}")
    combos = []
    for S in _subsets(inst.np, k):
        for s in itertools.product(*[range(len(inst.blocks[i].faces)) for i in S]):
            combos.append((S, s))
            tag = f"{S},{s}"
            prob.add_var(f"g[{tag}]", lb=ZERO)
            for j in range(n):
                prob.add_var(f"u{j}[{tag}]")
            for l in range(ny):
                prob.add_var(f"w{l}[{tag}]")
    for S, s in combos:
        tag = f"{S},{s}"
        # gamma-scaled coupling rows
        for ridx, row in enumerate(inst.coupling):
            coeffs: Dict[str, Fraction] = {f"g[{tag}]": -row.rhs}
            for j, c in enumerate(row.xcoeffs):
                if c:
                    coeffs[f"u{j}[{tag}]"] = c
            for l, c in enumerate(row.ycoeffs):
                if c:
                    coeffs[f"w{l}[{tag}]"] = coeffs.get(f"w{l}[{tag}]", ZERO) + c
            prob.add_row(coeffs, row.sense, ZERO, name=f"cone[{ridx}]{tag}",
                         tag=("cone", S, s, ridx))
        # gamma-scaled block membership for every block
        for ip in range(inst.np):
            lo, hi = inst.block_slice(ip)
            Pb = inst.blocks[ip].P
            for r in range(Pb.m):
                coeffs = {f"g[{tag}]": -Pb.b[r]}
                for t in range(Pb.n):
                    if Pb.A[r][t]:
                        coeffs[f"u{lo+t}[{tag}]"] = Pb.A[r][t]
                prob.add_row(coeffs, "<=", ZERO, name=f"scaleP[{ip},{r}]{tag}",
                             tag=("scaleP", S, s, ip, r))
        # face definition rows for selected blocks
        for pos, ip in enumerate(S):
            tau, pi = _face_cut(inst, ip, s[pos])
            lo, hi = inst.block_slice(ip)
            coeffs = {f"g[{tag}]": tau}
            for t, c in enumerate(pi):
                if c:
                    coeffs[f"u{lo+t}[{tag}]"] = -c
            prob.add_row(coeffs, "<=", ZERO, name=f"face[{ip}]{tag}",
                         tag=("face", S, s, ip))
    # aggregation rows per S
    for S in _subsets(inst.np, k):
        sel = [c for c in combos if c[0] == S]
        prob.add_row(
            {f"g[{S},{s}]": ONE for _, s in sel}, "=", ONE, name=f"sum1[{S}]",
            tag=("sum1", S),
        )
        for j in range(n):
            coeffs = {f"u{j}[{S},{s}]": ONE for _, s in sel}
            coeffs[f"x{j}"] = -ONE
            prob.add_row(coeffs, "=", ZERO, name=f"sumx[{S},{j}]", tag=("sumx", S, j))
        for l in range(ny):
            coeffs = {f"w{l}[{S},{s}]": ONE for _, s in sel}
            coeffs[f"y{l}"] = -ONE
            prob.add_row(coeffs, "=", ZERO, name=f"sumy[{S},{l}]", tag=("sumy", S, l))
    prob.objective = {}
    for j in range(n):
        if inst.obj_x[j]:
            prob.objective[f"x{j}"] = inst.obj_x[j]
    for l in range(ny):
        if inst.obj_y[l]:
            prob.objective[f"y{l}"] = inst.obj_y[l]
    prob.obj_const = inst.obj_const
    return prob


def reference_brute_force_fdp(inst: FDPInstance) -> Optional[Fraction]:
    """Exact disjunctive optimum: enumerate every face combination and solve
    the face-restricted LP; None when every piece is infeasible."""
    Es = check_vertex_disjoint(inst)
    best = None
    for s in itertools.product(*[range(len(b.faces)) for b in inst.blocks]):
        prob = LPProblem(sense="min")
        for j in range(inst.n):
            prob.add_var(f"x{j}")
        for l in range(inst.ny):
            prob.add_var(f"y{l}")
        for j in range(inst.n):
            if inst.obj_x[j]:
                prob.objective[f"x{j}"] = inst.obj_x[j]
        for l in range(inst.ny):
            if inst.obj_y[l]:
                prob.objective[f"y{l}"] = inst.obj_y[l]
        prob.obj_const = inst.obj_const
        for ridx, row in enumerate(inst.coupling):
            coeffs = {}
            for j, c in enumerate(row.xcoeffs):
                if c:
                    coeffs[f"x{j}"] = c
            for l, c in enumerate(row.ycoeffs):
                if c:
                    coeffs[f"y{l}"] = coeffs.get(f"y{l}", ZERO) + c
            prob.add_row(coeffs, row.sense, row.rhs)
        for ip in range(inst.np):
            lo, hi = inst.block_slice(ip)
            Pb = inst.blocks[ip].P
            for r in range(Pb.m):
                prob.add_row(
                    {f"x{lo+t}": Pb.A[r][t] for t in range(Pb.n) if Pb.A[r][t]},
                    "<=",
                    Pb.b[r],
                )
            tau, pi = _face_cut(inst, ip, s[ip])
            prob.add_row(
                {f"x{lo+t}": pi[t] for t in range(Pb.n) if pi[t]}, "=", tau
            )
        sol = lp_solve(prob)
        if sol.status == "optimal" and (best is None or sol.value < best):
            best = sol.value
    return best


def reference_substitute_indicators(inst: FDPInstance, k: int) -> LPProblem:
    """The level-k model after substituting barycentric indicators: product
    liftings Lam^S_r over vertex tuples with per-product scaled rows, the
    annihilation of mismatched products, and cross-subset consistency rows
    that make summing out any block give the same lower-level liftings."""
    if not 1 <= k <= inst.np:
        raise ValueError("level must be in 1..n_p")
    Es = check_vertex_disjoint(inst)
    n, ny = inst.n, inst.ny
    verts = [enumerate_vertices_oracle(b.P) for b in inst.blocks]
    prob = LPProblem(sense="min", name=f"fdrsub{k}")
    for j in range(n):
        prob.add_var(f"x{j}")
    for l in range(ny):
        prob.add_var(f"y{l}")

    def rtags(S):
        return list(itertools.product(*[range(len(verts[i])) for i in S]))

    subsets = list(_subsets(inst.np, k))
    for S in subsets:
        others = [i for i in range(inst.np) if i not in S]
        for r in rtags(S):
            key = f"[{S},{r}]"
            prob.add_var(f"L{key}", lb=ZERO)
            for ip in others:
                lo, hi = inst.block_slice(ip)
                for t in range(hi - lo):
                    prob.add_var(f"U{lo+t}{key}")
            for l in range(ny):
                prob.add_var(f"W{l}{key}")

    def lam_x_coeff(S, r, j):
        """Contribution of Lam^S_r to lin(prod lambda * x_j): a constant times
        L (when j is a selected-block coordinate) or the U variable."""
        for pos, ip in enumerate(S):
            lo, hi = inst.block_slice(ip)
            if lo <= j < hi:
                return (f"L[{S},{r}]", verts[ip][r[pos]][j - lo])
        return (f"U{j}[{S},{r}]", ONE)

    for S in subsets:
        others = [i for i in range(inst.np) if i not in S]
        tags = rtags(S)
        # per-product scaled rows
        for r in tags:
            key = f"[{S},{r}]"
            for ridx, row in enumerate(inst.coupling):
                coeffs: Dict[str, Fraction] = {f"L{key}": -row.rhs}
                for j, c in enumerate(row.xcoeffs):
                    if c:
                        name, scale = lam_x_coeff(S, r, j)
                        coeffs[name] = coeffs.get(name, ZERO) + c * scale
                for l, c in enumerate(row.ycoeffs):
                    if c:
                        coeffs[f"W{l}{key}"] = coeffs.get(f"W{l}{key}", ZERO) + c
                prob.add_row(coeffs, row.sense, ZERO,
                             name=f"cone[{ridx}]{key}", tag=("cone", S, r, ridx))
            for ip in others:
                lo, hi = inst.block_slice(ip)
                Pb = inst.blocks[ip].P
                for rr in range(Pb.m):
                    coeffs = {f"L{key}": -Pb.b[rr]}
                    for t in range(Pb.n):
                        if Pb.A[rr][t]:
                            coeffs[f"U{lo+t}{key}"] = Pb.A[rr][t]
                    prob.add_row(coeffs, "<=", ZERO,
                                 name=f"scaleP[{ip},{rr}]{key}",
                                 tag=("scaleP", S, r, ip, rr))
        # linear precision of the product coordinates over all vertex tuples
        prob.add_row({f"L[{S},{r}]": ONE for r in tags}, "=", ONE,
                     name=f"unit[{S}]", tag=("unit", S))
        for j in range(n):
            coeffs = {f"x{j}": -ONE}
            for r in tags:
                name, scale = lam_x_coeff(S, r, j)
                if scale:
                    coeffs[name] = coeffs.get(name, ZERO) + scale
            prob.add_row(coeffs, "=", ZERO, name=f"lp[{S},{j}]", tag=("lp", S, j))
        for l in range(ny):
            coeffs = {f"y{l}": -ONE}
            for r in tags:
                coeffs[f"W{l}[{S},{r}]"] = ONE
            prob.add_row(coeffs, "=", ZERO, name=f"lpy[{S},{l}]", tag=("lpy", S, l))
        # facial aggregation: gamma^{S,s} sums the products over the selected
        # faces' vertex tuples; summing over selections must reproduce
        # (1; x; y) -- with L >= 0 this forces every face-inconsistent
        # product to zero (the substituted face-definition rows are the
        # identically-zero annihilation products and are omitted)
        fc = set()
        for s in itertools.product(*[range(len(inst.blocks[i].faces)) for i in S]):
            for r in itertools.product(*[Es[i][si] for i, si in zip(S, s)]):
                fc.add(r)
        prob.add_row({f"L[{S},{r}]": ONE for r in sorted(fc)}, "=", ONE,
                     name=f"fcsum[{S}]", tag=("fcsum", S))
        for j in range(n):
            coeffs = {f"x{j}": -ONE}
            for r in sorted(fc):
                name, scale = lam_x_coeff(S, r, j)
                if scale:
                    coeffs[name] = coeffs.get(name, ZERO) + scale
            prob.add_row(coeffs, "=", ZERO, name=f"fcx[{S},{j}]", tag=("fcx", S, j))
        for l in range(ny):
            coeffs = {f"y{l}": -ONE}
            for r in sorted(fc):
                coeffs[f"W{l}[{S},{r}]"] = ONE
            prob.add_row(coeffs, "=", ZERO, name=f"fcy[{S},{l}]", tag=("fcy", S, l))

    # cross-subset consistency: summing out block l1 of S' u {l1} equals
    # summing out block l2 of S' u {l2} for every (k-1)-subset S'
    if k >= 1:
        for Sp in itertools.combinations(range(inst.np), k - 1):
            rest = [i for i in range(inst.np) if i not in Sp]
            for a_i in range(len(rest)):
                for b_i in range(a_i + 1, len(rest)):
                    l1, l2 = rest[a_i], rest[b_i]
                    S1 = tuple(sorted(Sp + (l1,)))
                    S2 = tuple(sorted(Sp + (l2,)))
                    p1 = S1.index(l1)
                    p2 = S2.index(l2)
                    for rp in itertools.product(*[range(len(verts[i])) for i in Sp]):
                        def embed(S, pos, v, rp=rp):
                            out = list(rp)
                            out.insert(pos, v)
                            return tuple(out)

                        def sum_over(S, pos, nverts, name_fn):
                            return {
                                name_fn(f"[{S},{embed(S, pos, v)}]"): ONE
                                for v in range(nverts)
                            }

                        # lin(prod_{S'} lambda) both ways
                        c1 = sum_over(S1, p1, len(verts[l1]), lambda key: f"L{key}")
                        c2 = sum_over(S2, p2, len(verts[l2]), lambda key: f"L{key}")
                        coeffs = dict(c1)
                        for nm, v in c2.items():
                            coeffs[nm] = coeffs.get(nm, ZERO) - v
                        prob.add_row(coeffs, "=", ZERO,
                                     name=f"cons[{Sp},{rp},{l1},{l2}]",
                                     tag=("cons", Sp, rp, l1, l2))
                        # lifted with x_j for blocks outside both subsets and
                        # for the summed-out blocks themselves
                        for j in range(n):
                            def lift(S, pos, lother):
                                out: Dict[str, Fraction] = {}
                                for v in range(len(verts[S[pos]])):
                                    r = embed(S, pos, v)
                                    name, scale = lam_x_coeff(S, r, j)
                                    if scale:
                                        out[name] = out.get(name, ZERO) + scale
                                return out

                            in_sp = any(
                                inst.block_slice(i)[0] <= j < inst.block_slice(i)[1]
                                for i in Sp
                            )
                            if in_sp:
                                continue  # constant multiples of the L rows above
                            d1 = lift(S1, p1, l2)
                            d2 = lift(S2, p2, l1)
                            coeffs = dict(d1)
                            for nm, v in d2.items():
                                coeffs[nm] = coeffs.get(nm, ZERO) - v
                            if coeffs:
                                prob.add_row(coeffs, "=", ZERO,
                                             name=f"consx[{Sp},{rp},{l1},{l2},{j}]",
                                             tag=("consx", Sp, rp, l1, l2, j))
                        for l in range(ny):
                            cy1 = sum_over(S1, p1, len(verts[l1]), lambda key: f"W{l}{key}")
                            cy2 = sum_over(S2, p2, len(verts[l2]), lambda key: f"W{l}{key}")
                            coeffs = dict(cy1)
                            for nm, v in cy2.items():
                                coeffs[nm] = coeffs.get(nm, ZERO) - v
                            prob.add_row(coeffs, "=", ZERO,
                                         name=f"consy[{Sp},{rp},{l1},{l2},{l}]",
                                         tag=("consy", Sp, rp, l1, l2, l))

    prob.objective = {}
    for j in range(n):
        if inst.obj_x[j]:
            prob.objective[f"x{j}"] = inst.obj_x[j]
    for l in range(ny):
        if inst.obj_y[l]:
            prob.objective[f"y{l}"] = inst.obj_y[l]
    prob.obj_const = inst.obj_const
    return prob
