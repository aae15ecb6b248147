"""Double description with symbolic barycentric coordinates.

The algorithm processes one inequality of the homogenized cone per step and
maintains rays R, lineality directions L and their coordinate functions mu,
theta so that R.mu + L.theta = (x0; x) holds as an identity of rational
functions, with mu >= 0 on the cone.

Two kinds of step exist.  When the new row is not orthogonal to the lineality
space, one lineality direction becomes a ray and the coordinates transform
affinely.  Otherwise rays are classified by the sign of their slack beta and
the infeasible ones are replaced by pairwise combinations; the coordinate
update divides by N_tot = sum_{i in N+} beta_i mu_i, which is where rational
functions (rather than polynomials) enter.

Denominators are maintained in factored form against a per-run pool of
primitive polynomials, and every coordinate update divides out pool factors
that cancel exactly.  This keeps expressions in the reduced form the theory
predicts without ever computing a multivariate gcd.  A state stores each
coordinate once, in this factored form (``Frf``: a numerator over a
multiset of pool ids); ``DDState.mu`` and ``DDState.theta``, the
coordinates as normalized rational functions, are derived from it when
first read.

Each coordinate also carries a constraint-product view (CPR): a non-negative
combination of products of pool factors over a factored denominator, where
each factor is taken in the sign that is non-negative on the cone.  It is
maintained alongside the reduced form and feeds the structural relaxation
rows and certificate extraction.

Pruning (``prune_redundant``) removes the columns that are not extreme rays
and folds their coordinates into the others.  In a state without lineality
a column is kept, without an LP, when the constraint rows tight at it have
rank d - 1, the algebraic extremality test of double description (Motzkin
et al. 1953; Fukuda and Prodon 1996), computed in integers.  Every other
column, and every column of a state with lineality or of the partial_orthant
init, gets one exact LP: its Bland-order solution, when feasible, gives the
fold weights.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .exactmath import Poly, RatFun, rf_equal
from .lp import LPProblem, lp_solve
from .polyhedra import HomCone, HPolyhedron, homogenize

ZERO = Fraction(0)
ONE = Fraction(1)


class EmptyInterior(RuntimeError):
    """No rays remain and the lineality space is empty: the cone is {0}."""


class Phase1BasisError(ArithmeticError):
    """The exact check of a phase-1 basis failed: its basis block is
    singular, or the unprocessed rows do not satisfy ``Ups B^-1 N = Psi``.
    Raised explicitly, so ``python -O`` cannot strip the check."""


class InitPreconditionViolated(ValueError):
    """Requested initialization needs x_i >= 0 rows that are not explicit."""


# --------------------------------------------------------------------------
# factor pool and factored rational functions
# --------------------------------------------------------------------------


class FactorPool:
    """Append-only registry of primitive polynomials used as factors.

    Entries 0..n are the variable leaves x0..xn.  Each entry stores a
    cone_sign: the sign s such that s * poly is non-negative on the cone
    (variables and constraint expressions are non-negative; pooled N_tot
    numerators get their sign from the construction site).
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.polys: List[Poly] = []
        self.kinds: List[str] = []
        self.cone_sign: List[int] = []
        # 'sum' entries proven non-negative on the cone (quotient argument at
        # the N_tot pooling site); leaves are non-negative by definition
        self.certified: set = set()
        self._index: Dict[tuple, int] = {}
        for i in range(nvars):
            self._register(Poly.variable(nvars, i), "var", 1)

    def _register(self, prim: Poly, kind: str, sign: int) -> int:
        key = prim.key()
        if key in self._index:
            return self._index[key]
        self.polys.append(prim)
        self.kinds.append(kind)
        self.cone_sign.append(sign)
        self._index[key] = len(self.polys) - 1
        return len(self.polys) - 1

    def factorize(self, p: Poly, kind: str = "sum") -> Tuple[Fraction, Tuple[int, ...]]:
        """p = scalar * prod(pool[ids]) with pool entries primitive; residuals
        not matching an existing entry are pooled under `kind` (cone sign of a
        new residual defaults to the sign of its scalar so that the cone-form
        product is a positive multiple of p; adjust via set_cone_sign)."""
        if p.is_zero():
            raise ValueError("cannot pool the zero polynomial")
        ids: List[int] = []
        mono = p.monomial_content()
        if any(mono):
            p = p.div_monomial(mono)
            for i, k in enumerate(mono):
                ids.extend([i] * k)
        scalar, prim = p.primitive()
        # one scan over the pool: an entry that does not divide prim does not
        # divide any quotient of it, so only the entry that just divided is
        # tried again
        j = self.nvars
        while j < len(self.polys) and not prim.is_constant():
            q = prim.exact_div(self.polys[j])
            if q is not None and not q.is_zero():
                s2, prim = q.primitive()
                ids.append(j)
                scalar *= s2
            else:
                j += 1
        if not prim.is_constant():
            sign_so_far = 1
            for j in ids:
                sign_so_far *= self.cone_sign[j]
            want = 1 if scalar * sign_so_far > 0 else -1
            ids.append(self._register(prim, kind, want))
        else:
            scalar *= prim.constant_value()
        return scalar, tuple(sorted(ids))

    def product(self, ids: Sequence[int]) -> Poly:
        out = Poly.const(self.nvars, 1)
        for i in ids:
            out = out * self.polys[i]
        return out

    def cone_form(self, fid: int) -> Poly:
        p = self.polys[fid]
        return p if self.cone_sign[fid] == 1 else -p

    def cone_product(self, ids: Sequence[int]) -> Poly:
        out = Poly.const(self.nvars, 1)
        for i in ids:
            out = out * self.cone_form(i)
        return out

    def cone_weight(self, scalar: Fraction, ids: Sequence[int]) -> Fraction:
        """w such that scalar * prod(polys) = w * prod(cone forms)."""
        s = 1
        for i in ids:
            s *= self.cone_sign[i]
        return scalar * s


@dataclass(frozen=True)
class Frf:
    """num / prod(pool[den]) with exact cancellation of pool factors."""

    num: Poly
    den: Tuple[int, ...]  # sorted multiset of pool ids

    def is_zero(self) -> bool:
        return self.num.is_zero()


def _reduce(pool: FactorPool, num: Poly, den: Sequence[int]) -> Frf:
    if num.is_zero():
        return Frf(num, ())
    out = sorted(den)
    # one scan, as in FactorPool.factorize: a failed divisor is not retried,
    # nor are its further copies in the multiset
    i = 0
    while i < len(out):
        q = num.exact_div(pool.polys[out[i]])
        if q is None:
            i = bisect_right(out, out[i])
        else:
            num = q
            out.pop(i)
    return Frf(num, tuple(out))


def _lcm_multiset(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    ca: Dict[int, int] = {}
    for i in a:
        ca[i] = ca.get(i, 0) + 1
    cb: Dict[int, int] = {}
    for i in b:
        cb[i] = cb.get(i, 0) + 1
    out: List[int] = []
    for i in sorted(set(ca) | set(cb)):
        out.extend([i] * max(ca.get(i, 0), cb.get(i, 0)))
    return tuple(out)


def _diff_multiset(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    out = list(a)
    for i in b:
        out.remove(i)
    return tuple(out)


def frf_scale(f: Frf, c) -> Frf:
    return Frf(f.num.scale(c), f.den) if c else Frf(Poly.zero(f.num.nvars), ())


def frf_add(pool: FactorPool, a: Frf, b: Frf) -> Frf:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    common = _lcm_multiset(a.den, b.den)
    num = a.num * pool.product(_diff_multiset(common, a.den)) + b.num * pool.product(
        _diff_multiset(common, b.den)
    )
    return _reduce(pool, num, common)


def frf_mul(pool: FactorPool, a: Frf, b: Frf) -> Frf:
    return _reduce(pool, a.num * b.num, tuple(sorted(a.den + b.den)))


def frf_div(
    pool: FactorPool, a: Frf, b: Frf, b_factors: Tuple[Fraction, Tuple[int, ...]]
) -> Frf:
    """a / b, where b_factors = pool.factorize(b.num): a caller dividing by
    one b many times factors it once."""
    scalar, ids = b_factors
    num = a.num.scale(1 / scalar) * pool.product(b.den)
    return _reduce(pool, num, tuple(sorted(a.den + ids)))


def frf_to_ratfun(pool: FactorPool, f: Frf) -> RatFun:
    return RatFun(f.num, pool.product(f.den))


# constraint-product view ---------------------------------------------------


@dataclass(frozen=True)
class CPR:
    """sum_t w_t * prod(cone_form[fids_t]) / prod(cone_form[den]), w_t >= 0."""

    terms: Tuple[Tuple[Fraction, Tuple[int, ...]], ...]
    den: Tuple[int, ...]


def cpr_scale(c: CPR, w) -> CPR:
    w = Fraction(w)
    if w < 0:
        raise ValueError("negative weight would break the constraint-product view")
    if w == 0:
        return CPR((), c.den)
    return CPR(tuple((t * w, f) for t, f in c.terms), c.den)


def cpr_combine(parts: Sequence[Tuple[Fraction, CPR]]) -> CPR:
    """Non-negative combination over the lcm of the denominators."""
    den: Tuple[int, ...] = ()
    for _, c in parts:
        den = _lcm_multiset(den, c.den)
    terms: List[Tuple[Fraction, Tuple[int, ...]]] = []
    for w, c in parts:
        if w < 0:
            raise ValueError("negative combination weight")
        if w == 0:
            continue
        extra = _diff_multiset(den, c.den)
        for t, f in c.terms:
            terms.append((t * w, tuple(sorted(f + extra))))
    return CPR(tuple(terms), den)


def cpr_mul(a: CPR, b: CPR) -> CPR:
    terms = tuple(
        (ta * tb, tuple(sorted(fa + fb))) for ta, fa in a.terms for tb, fb in b.terms
    )
    return CPR(terms, tuple(sorted(a.den + b.den)))


def cpr_numerator(pool: FactorPool, c: CPR) -> Poly:
    out = Poly.zero(pool.nvars)
    for w, fids in c.terms:
        out = out + pool.cone_product(fids).scale(w)
    return out


def cpr_value(pool: FactorPool, c: CPR) -> RatFun:
    return RatFun(cpr_numerator(pool, c), pool.cone_product(c.den))


def cpr_structurally_nonneg(pool: FactorPool, c: CPR) -> bool:
    """All weights >= 0 and every factor either a constraint-expression /
    variable leaf or a pooled sum certified non-negative at its creation."""

    def factor_ok(fid: int) -> bool:
        return pool.kinds[fid] in ("var", "constraint") or fid in pool.certified

    for w, fids in c.terms:
        if w < 0 or not all(factor_ok(f) for f in fids):
            return False
    return all(factor_ok(f) for f in c.den)


# --------------------------------------------------------------------------
# DD state and ledger
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Phase1Basis:
    rho: int
    rows_used: Tuple[int, ...]
    basis_cols: Tuple[int, ...]  # variable permutation, x0 first
    Bmat: tuple
    Nmat: tuple
    Upsilon: tuple
    Psi: tuple
    change_of_vars: tuple  # (n+1) x (n+1): (sigma; psi) -> (x0; x)


@dataclass(frozen=True)
class ImpliedZero:
    row: int
    column: Tuple[Fraction, ...]
    name: str
    fmu: Frf


@dataclass(frozen=True)
class DDState:
    """The state after k steps: ray columns R with coordinates fmu and their
    constraint-product views cpr, lineality columns L with coordinates
    ftheta.  fmu and ftheta are the stored form, factored over the pool;
    mu and theta, the same coordinates as normalized RatFuns, are derived
    on first read.  The pool only grows, so the pool ids in an Frf stay
    valid, and ``replace`` builds a new state that derives its own."""

    cone: HomCone
    k: int
    R: Tuple[tuple, ...]
    L: Tuple[tuple, ...]
    E: Tuple[int, ...]
    processed: Tuple[int, ...]
    pool: FactorPool
    fmu: Tuple[Frf, ...]
    ftheta: Tuple[Frf, ...]
    cpr: Tuple[Optional[CPR], ...]
    implied_zero: Tuple[ImpliedZero, ...] = ()
    phase1: Optional[Phase1Basis] = None
    init_mode: str = "default"

    @property
    def p(self) -> int:
        return len(self.R)

    @property
    def q(self) -> int:
        return len(self.L)

    @cached_property
    def mu(self) -> Tuple[RatFun, ...]:
        return tuple(frf_to_ratfun(self.pool, f) for f in self.fmu)

    @cached_property
    def theta(self) -> Tuple[RatFun, ...]:
        return tuple(frf_to_ratfun(self.pool, f) for f in self.ftheta)

    @property
    def had_empty_npos(self) -> bool:
        """Some step found N+ empty; only such a step grows E."""
        return bool(self.E)


@dataclass(frozen=True)
class LedgerEntry:
    k: int
    row: int
    case: str  # 'lineality' | 'ray'
    beta: Tuple[Fraction, ...]
    xi: Optional[int] = None
    flip: bool = False
    alpha: Optional[Tuple[Fraction, ...]] = None  # post-flip
    Nzero: Tuple[int, ...] = ()
    Npos: Tuple[int, ...] = ()
    Nneg: Tuple[int, ...] = ()
    Ntot: Optional[RatFun] = None
    F: tuple = ()
    G: tuple = ()
    D: tuple = ()
    perm: Tuple[int, ...] = ()  # reordered position -> previous mu index
    dropped: Tuple[int, ...] = ()  # previous mu indices dropped (N+ empty)

    def to_json(self) -> dict:
        from .exactmath import rat_to_str

        return {
            "k": self.k,
            "row": self.row,
            "case": self.case,
            "xi": self.xi,
            "flip": self.flip,
            "alpha": [rat_to_str(a) for a in self.alpha] if self.alpha else None,
            "beta": [rat_to_str(b) for b in self.beta],
            "Nzero": list(self.Nzero),
            "Npos": list(self.Npos),
            "Nneg": list(self.Nneg),
            "Ntot": self.Ntot.to_json() if self.Ntot is not None else None,
            "F": [[rat_to_str(x) for x in row] for row in self.F],
            "G": [[rat_to_str(x) for x in row] for row in self.G],
            "D": [[rat_to_str(x) for x in row] for row in self.D],
            "perm": list(self.perm),
            "dropped": list(self.dropped),
        }


# --------------------------------------------------------------------------
# initialization
# --------------------------------------------------------------------------


def _orthant_certified(cone: HomCone, i: int) -> bool:
    """True when some explicit row says x_i >= 0 (b = 0, A row = -c e_i)."""
    n = cone.n
    for row in cone.Abar:
        if row[0] != 0:
            continue
        if row[i] > 0 and all(row[j] == 0 for j in range(1, n + 1) if j != i):
            return True
    return False


def _seed_pool(cone: HomCone) -> FactorPool:
    pool = FactorPool(cone.n + 1)
    for i in range(cone.m):
        p = cone.row_poly(i)
        if not p.is_zero():
            pool.factorize(p, "constraint")
    return pool


def dd_init(
    cone: HomCone,
    mode: str = "default",
    order: Optional[Sequence[int]] = None,
    varrho: Optional[int] = None,
):
    """Initial DD state.  Returns (state, init_entries, remaining_order).

    Modes: 'default' (lineality = all of x-space), 'orthant' (x >= 0 already
    processed), 'partial_orthant' (x_i >= 0 for i > varrho already processed),
    'phase1' (lineality-eliminating steps run up front, reordering rows of
    the given order so the first ones are not orthogonal to L).
    """
    n = cone.n
    nv = n + 1
    pool = _seed_pool(cone)
    full_order = list(order) if order is not None else list(range(cone.m))
    if len(set(full_order)) != len(full_order):
        raise ValueError("order must consist of distinct row indices")

    if mode in ("default", "phase1"):
        R = (tuple(ONE if j == 0 else ZERO for j in range(nv)),)
        L = tuple(
            tuple(ONE if j == i else ZERO for j in range(nv)) for i in range(1, nv)
        )
        fmu = (Frf(Poly.variable(nv, 0), ()),)
        ftheta = tuple(Frf(Poly.variable(nv, i), ()) for i in range(1, nv))
        cpr = (CPR(((ONE, (0,)),), ()),)
        state = DDState(cone, 0, R, L, (), (), pool, fmu, ftheta, cpr, init_mode=mode)
        if mode == "default":
            return state, [], full_order
        return _run_phase1(state, full_order)

    if mode in ("orthant", "partial_orthant"):
        rho = 0 if mode == "orthant" else int(varrho)
        for i in range(rho + 1, n + 1):
            if not _orthant_certified(cone, i):
                raise InitPreconditionViolated(
                    f"x_{i} >= 0 is not certified by an explicit row"
                )
        L = tuple(
            tuple(ONE if j == i else ZERO for j in range(nv)) for i in range(1, rho + 1)
        )
        ray_vars = [0] + list(range(rho + 1, n + 1))
        R = tuple(tuple(ONE if j == i else ZERO for j in range(nv)) for i in ray_vars)
        fmu = tuple(Frf(Poly.variable(nv, i), ()) for i in ray_vars)
        ftheta = tuple(Frf(Poly.variable(nv, i), ()) for i in range(1, rho + 1))
        cpr = tuple(CPR(((ONE, (i,)),), ()) for i in ray_vars)
        state = DDState(cone, 0, R, L, (), (), pool, fmu, ftheta, cpr, init_mode=mode)
        return state, [], full_order

    raise ValueError(f"unknown init mode {mode!r}")


def _run_phase1(state: DDState, order: List[int]):
    """Process rows not orthogonal to L first (swap-forward within order)."""
    entries = []
    remaining = list(order)
    while state.q > 0:
        pick = None
        for idx, r in enumerate(remaining):
            alpha = [linalg.dot(state.cone.Abar[r], col) for col in state.L]
            if any(a != 0 for a in alpha):
                pick = idx
                break
        if pick is None:
            break
        r = remaining.pop(pick)
        state, entry = dd_step(state, r)
        entries.append(entry)
    basis = _phase1_basis(state)
    state = replace(state, phase1=basis, init_mode="phase1")
    return state, entries, remaining


def _phase1_basis(state: DDState) -> Phase1Basis:
    cone = state.cone
    n = cone.n
    rows_used = state.processed
    stacked = [[ONE] + [ZERO] * n] + [list(cone.Abar[r]) for r in rows_used]
    basis_cols = [0]
    for c in range(1, n + 1):
        if len(basis_cols) == len(stacked):
            break
        cand = basis_cols + [c]
        sub = [[row[j] for j in cand] for row in stacked]
        if linalg.rank(sub) == len(cand):
            basis_cols.append(c)
    rest = [c for c in range(n + 1) if c not in basis_cols]
    B = [[stacked[i][j] for j in basis_cols] for i in range(len(basis_cols))]
    N = [[stacked[i][j] for j in rest] for i in range(len(basis_cols))]
    rem_rows = [r for r in range(cone.m) if r not in rows_used]
    Ups = [[cone.Abar[r][j] for j in basis_cols] for r in rem_rows]
    Psi = [[cone.Abar[r][j] for j in rest] for r in rem_rows]
    Binv = linalg.inverse(B)
    if Binv is None:
        raise Phase1BasisError("phase-1 basis must be invertible")
    if Ups and rest and linalg.mat_mul(linalg.mat_mul(Ups, Binv), N) != Psi:
        raise Phase1BasisError("Ups B^-1 N != Psi")
    nb = len(basis_cols)
    cov = [[ZERO] * (n + 1) for _ in range(n + 1)]
    mBinvN = [[-x for x in row] for row in linalg.mat_mul(Binv, N)] if rest else None
    for bi, c in enumerate(basis_cols):
        for j in range(nb):
            cov[c][j] = Binv[bi][j]
        if rest:
            for j in range(len(rest)):
                cov[c][nb + j] = mBinvN[bi][j]
    for ri, c in enumerate(rest):
        cov[c][nb + ri] = ONE
    return Phase1Basis(
        rho=len(rows_used),
        rows_used=tuple(rows_used),
        basis_cols=tuple(basis_cols),
        Bmat=tuple(tuple(r) for r in B),
        Nmat=tuple(tuple(r) for r in N),
        Upsilon=tuple(tuple(r) for r in Ups),
        Psi=tuple(tuple(r) for r in Psi),
        change_of_vars=tuple(tuple(r) for r in cov),
    )


# --------------------------------------------------------------------------
# one step
# --------------------------------------------------------------------------


def dd_step(state: DDState, row: int) -> Tuple[DDState, LedgerEntry]:
    if row in state.processed:
        raise ValueError(f"row {row} already processed")
    arow = state.cone.Abar[row]
    alpha = [linalg.dot(arow, col) for col in state.L]
    beta = [linalg.dot(arow, col) for col in state.R]
    if state.q > 0 and any(a != 0 for a in alpha):
        return _step_lineality(state, row, alpha, beta)
    return _step_ray(state, row, beta)


def _step_lineality(state, row, alpha, beta):
    pool = state.pool
    q, p = state.q, state.p
    xi = next(i for i, a in enumerate(alpha) if a != 0)
    flip = alpha[xi] < 0
    Lcols = [list(c) for c in state.L]
    theta = list(state.ftheta)
    if flip:
        Lcols[xi] = [-x for x in Lcols[xi]]
        theta[xi] = frf_scale(theta[xi], -1)
        alpha = list(alpha)
        alpha[xi] = -alpha[xi]
    a = alpha[xi]  # > 0
    first = theta[xi]
    for j in range(xi + 1, q):
        if alpha[j]:
            first = frf_add(pool, first, frf_scale(theta[j], Fraction(alpha[j]) / a))
    for j in range(p):
        if beta[j]:
            first = frf_add(pool, first, frf_scale(state.fmu[j], Fraction(beta[j]) / a))
    new_fmu = [first] + [frf_scale(f, 1 / a) for f in state.fmu]
    new_ftheta = [theta[j] for j in range(xi)] + [
        frf_scale(theta[j], 1 / a) for j in range(xi + 1, q)
    ]
    Lxi = Lcols[xi]
    new_R = [tuple(Lxi)] + [
        tuple(a * rc - beta[j] * lc for rc, lc in zip(state.R[j], Lxi))
        for j in range(p)
    ]
    new_L = [tuple(Lcols[j]) for j in range(xi)] + [
        tuple(a * c1 - alpha[j] * c2 for c1, c2 in zip(Lcols[j], Lxi))
        for j in range(xi + 1, q)
    ]
    # constraint-product view: the new first coordinate is row_expr / a
    # (valid while linear precision holds as an identity, i.e. while no
    # implied equalities have been recorded)
    new_cpr: List[Optional[CPR]]
    if state.had_empty_npos:
        new_cpr = [None]
    else:
        scal, ids = pool.factorize(state.cone.row_poly(row), "constraint")
        w = pool.cone_weight(scal, ids) / a
        new_cpr = [CPR(((w, ids),), ()) if w > 0 else None]
    new_cpr += [
        cpr_scale(c, Fraction(1) / a) if c is not None else None for c in state.cpr
    ]
    F = [[ZERO] * (q - 1) for _ in range(q)]
    for j in range(xi):
        F[j][j] = ONE
    for i in range(xi + 1, q):
        F[xi][i - 1] = -alpha[i]
        F[i][i - 1] = a
    G = [[ZERO] * (p + 1) for _ in range(q)]
    G[xi][0] = ONE
    for j in range(p):
        G[xi][1 + j] = -beta[j]
    D = [[ZERO] * (p + 1) for _ in range(p)]
    for j in range(p):
        D[j][j + 1] = a
    entry = LedgerEntry(
        k=state.k + 1,
        row=row,
        case="lineality",
        beta=tuple(beta),
        xi=xi,
        flip=flip,
        alpha=tuple(alpha),
        F=tuple(tuple(r) for r in F),
        G=tuple(tuple(r) for r in G),
        D=tuple(tuple(r) for r in D),
        perm=tuple(range(p)),
    )
    new_state = replace(
        state,
        k=state.k + 1,
        R=tuple(new_R),
        L=tuple(new_L),
        processed=state.processed + (row,),
        fmu=tuple(new_fmu),
        ftheta=tuple(new_ftheta),
        cpr=tuple(new_cpr),
    )
    return new_state, entry


def _step_ray(state, row, beta):
    pool = state.pool
    p = state.p
    Nneg = tuple(i for i in range(p) if beta[i] < 0)
    Nzero = tuple(i for i in range(p) if beta[i] == 0)
    Npos = tuple(i for i in range(p) if beta[i] > 0)
    perm = Nzero + Npos + Nneg

    if not Npos:
        dropped = tuple(
            ImpliedZero(
                row=row,
                column=state.R[j],
                name=f"mu[{state.k}][{j}]",
                fmu=state.fmu[j],
            )
            for j in Nneg
        )
        if not Nzero and state.q == 0:
            raise EmptyInterior(f"no rays remain after processing row {row}")
        D = [[ZERO] * len(Nzero) for _ in range(p)]
        for c, j in enumerate(Nzero):
            D[perm.index(j)][c] = ONE
        entry = LedgerEntry(
            k=state.k + 1,
            row=row,
            case="ray",
            beta=tuple(beta),
            Nzero=Nzero,
            Npos=Npos,
            Nneg=Nneg,
            F=tuple(
                tuple(ONE if i == j else ZERO for j in range(state.q))
                for i in range(state.q)
            ),
            G=tuple(tuple([ZERO] * len(Nzero)) for _ in range(state.q)),
            D=tuple(tuple(r) for r in D),
            perm=perm,
            dropped=Nneg,
        )
        new_state = replace(
            state,
            k=state.k + 1,
            R=tuple(state.R[j] for j in Nzero),
            E=state.E + (row,),
            processed=state.processed + (row,),
            fmu=tuple(state.fmu[j] for j in Nzero),
            cpr=tuple(state.cpr[j] for j in Nzero),
            implied_zero=state.implied_zero + dropped,
        )
        return new_state, entry

    ntot = Frf(Poly.zero(pool.nvars), ())
    for i in Npos:
        ntot = frf_add(pool, ntot, frf_scale(state.fmu[i], beta[i]))
    sneg = Frf(Poly.zero(pool.nvars), ())
    for j in Nneg:
        sneg = frf_add(pool, sneg, frf_scale(state.fmu[j], beta[j]))

    cpr_ok = not state.had_empty_npos and all(
        state.cpr[i] is not None for i in Npos + Nneg
    )
    if cpr_ok:
        ntot_cpr = cpr_combine([(Fraction(beta[i]), state.cpr[i]) for i in Npos])
        m_poly = cpr_numerator(pool, ntot_cpr)
        nscal, nids = pool.factorize(m_poly, "sum")
        ntot_w = pool.cone_weight(nscal, nids)
        rscal, rids = pool.factorize(state.cone.row_poly(row), "constraint")
        row_w = pool.cone_weight(rscal, rids)
        if ntot_w <= 0 or row_w <= 0:
            # sign bookkeeping of a pre-existing pool entry does not match
            # this site; drop the structural view rather than mis-sign it
            cpr_ok = False
        else:
            # the non-negative combination m_poly divided by the certified
            # co-factors certifies any single fresh residual on the cone
            fresh = [
                f
                for f in set(nids)
                if pool.kinds[f] == "sum" and f not in pool.certified
            ]
            if len(fresh) == 1:
                pool.certified.add(fresh[0])

            def over_ntot(c: CPR) -> CPR:
                # c / N_tot, N_tot = ntot_w cone(nids) / cone(ntot_cpr.den)
                terms = tuple(
                    (w / ntot_w, tuple(sorted(f + ntot_cpr.den))) for w, f in c.terms
                )
                return CPR(terms, tuple(sorted(c.den + nids)))

    # N_tot divides every new coordinate and is factored once; after the
    # constraint-product registrations above, since registration order
    # fixes the pool id of a new residual
    ntot_factors = None
    if Nneg:
        if ntot.is_zero():
            raise ZeroDivisionError("division by zero coordinate")
        ntot_factors = pool.factorize(ntot.num)
    new_fmu: List[Frf] = [state.fmu[j] for j in Nzero]
    new_cpr: List[Optional[CPR]] = [state.cpr[j] for j in Nzero]
    for i in Npos:
        term = (
            frf_div(pool, frf_mul(pool, state.fmu[i], sneg), ntot, ntot_factors)
            if Nneg
            else Frf(Poly.zero(pool.nvars), ())
        )
        new_fmu.append(frf_add(pool, state.fmu[i], term))
        if cpr_ok:
            prod = cpr_mul(state.cpr[i], CPR(((row_w, rids),), ()))
            new_cpr.append(over_ntot(prod))
        else:
            new_cpr.append(None)
    for i in Npos:
        for j in Nneg:
            new_fmu.append(
                frf_div(pool, frf_mul(pool, state.fmu[i], state.fmu[j]), ntot, ntot_factors)
            )
            if cpr_ok:
                new_cpr.append(over_ntot(cpr_mul(state.cpr[i], state.cpr[j])))
            else:
                new_cpr.append(None)

    new_R = (
        [state.R[j] for j in Nzero]
        + [state.R[i] for i in Npos]
        + [
            tuple(beta[i] * rj - beta[j] * ri for ri, rj in zip(state.R[i], state.R[j]))
            for i in Npos
            for j in Nneg
        ]
    )
    nz, npp, nn = len(Nzero), len(Npos), len(Nneg)
    pk1 = nz + npp + npp * nn
    D = [[ZERO] * pk1 for _ in range(p)]
    for c, j in enumerate(Nzero):
        D[perm.index(j)][c] = ONE
    for c, i in enumerate(Npos):
        r = perm.index(i)
        D[r][nz + c] = ONE
        for jj, j in enumerate(Nneg):
            D[r][nz + npp + c * nn + jj] = -beta[j]
    for jj, j in enumerate(Nneg):
        r = perm.index(j)
        for c, i in enumerate(Npos):
            D[r][nz + npp + c * nn + jj] = beta[i]
    q = state.q
    entry = LedgerEntry(
        k=state.k + 1,
        row=row,
        case="ray",
        beta=tuple(beta),
        Nzero=Nzero,
        Npos=Npos,
        Nneg=Nneg,
        Ntot=frf_to_ratfun(pool, ntot),
        F=tuple(tuple(ONE if i == j else ZERO for j in range(q)) for i in range(q)),
        G=tuple(tuple([ZERO] * pk1) for _ in range(q)),
        D=tuple(tuple(r) for r in D),
        perm=perm,
    )
    new_state = replace(
        state,
        k=state.k + 1,
        R=tuple(new_R),
        processed=state.processed + (row,),
        fmu=tuple(new_fmu),
        cpr=tuple(new_cpr),
    )
    return new_state, entry


# --------------------------------------------------------------------------
# full runs and pruning
# --------------------------------------------------------------------------


@dataclass
class DDRun:
    P: Optional[HPolyhedron]
    cone: HomCone
    order: Tuple[int, ...]  # all rows processed, init-consumed first
    states: List[DDState]  # the state after each step, pruned when prune is on
    entries: List[LedgerEntry]

    @property
    def final(self) -> DDState:
        return self.states[-1]

    def dehomogenized(self):
        from .polyhedra import dehomogenize

        return dehomogenize(self.final.R, list(self.final.mu))


def dd_run(
    P,
    order: Optional[Sequence[int]] = None,
    prune: bool = False,
    init: str = "default",
    varrho: Optional[int] = None,
    stop: Optional[Callable[[DDState], bool]] = None,
) -> DDRun:
    """Run the algorithm over the given row order (0-based indices).

    P may be an HPolyhedron (homogenized here) or a HomCone.  With phase1
    init, rows not orthogonal to the lineality space are pulled forward out
    of the order; the remaining rows are processed in the order given.
    The run keeps one state per step; with prune, that is the pruned state
    (``prune_redundant``), and the next step starts from it.  With stop,
    the run ends at the first kept state, the initial one included, for
    which stop(state) is true; the rows after it are not processed.
    """
    if isinstance(P, HPolyhedron):
        cone = homogenize(P)
        poly = P
    else:
        cone = P
        poly = None
    state, init_entries, remaining = dd_init(cone, init, order, varrho)
    states = [state]
    entries = list(init_entries)
    for row in remaining:
        if stop is not None and stop(states[-1]):
            break
        raw, entry = dd_step(states[-1], row)
        entries.append(entry)
        states.append(prune_redundant(raw) if prune else raw)
    return DDRun(
        P=poly,
        cone=cone,
        order=states[0].processed + tuple(remaining[: len(states) - 1]),
        states=states,
        entries=entries,
    )


def _int_vector(v) -> Tuple[int, ...]:
    """v scaled by the lcm of its denominators: a positive multiple of v
    with integer entries."""
    lcm = 1
    for x in v:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    return tuple(x.numerator * (lcm // x.denominator) for x in v)


def _canonical_column(col) -> tuple:
    ints = _int_vector(col)
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        return tuple(col)
    return tuple(Fraction(v, g) for v in ints)


def _cone_rows(state: DDState) -> Optional[List[Tuple[int, ...]]]:
    """Integer-scaled rows a with a.r >= 0 for every ray column r of a state
    without lineality: x0 >= 0, x_i >= 0 for the orthant init, and the
    processed rows of Abar.  None for a state with lineality, and for the
    partial_orthant init, whose x_i >= 0 rows the state does not record."""
    if state.q or state.init_mode == "partial_orthant":
        return None
    nv = state.cone.n + 1
    units = range(nv) if state.init_mode == "orthant" else range(1)
    rows = [tuple(int(i == j) for j in range(nv)) for i in units]
    rows += [_int_vector(state.cone.Abar[i]) for i in state.processed]
    return rows


def _is_extreme(col: Tuple[int, ...], rows: Sequence[Tuple[int, ...]]) -> bool:
    """True when the rows tight at the nonzero column col have rank d - 1.

    col then spans a one-dimensional face of {x : rows.x >= 0}; a
    non-negative combination of cone members equal to col uses only members
    of that face, that is positive multiples of col (Motzkin et al. 1953;
    Fukuda and Prodon 1996).  False means only that the test is
    inconclusive."""
    if not any(col):
        return False
    tight = [a for a in rows if not sum(x * y for x, y in zip(a, col))]
    return len(tight) >= len(col) - 1 and linalg.int_rank(tight) == len(col) - 1


def _fold(pool: FactorPool, fmu: list, cpr: list, t: int, j: int, w) -> None:
    """Coordinate j, weighted by w > 0, joins coordinate t."""
    fmu[t] = frf_add(pool, fmu[t], frf_scale(fmu[j], w))
    if cpr[t] is not None and cpr[j] is not None:
        cpr[t] = cpr_combine([(ONE, cpr[t]), (w, cpr[j])])
    else:
        cpr[t] = None


def prune_redundant(state: DDState) -> DDState:
    """Remove the ray columns that are not extreme rays, folding each one's
    coordinate into the retained columns, so retained coordinates never
    decrease.

    Columns equal up to positive scaling are merged first.  Then each column
    is tested in turn.  In a state without lineality, a column at which the
    tight constraint rows have rank d - 1 is an extreme ray (``_is_extreme``,
    in integers) and is kept.  Every other column gets an exact LP for a
    non-negative combination of the other columns; when one exists, its
    Bland-order solution gives the fold weights and the column goes.  A fold
    only shrinks the set of the other columns, so a column kept before it
    stays kept and the scan goes on from the removed column's place."""
    pool = state.pool
    R, fmu, cpr = list(state.R), list(state.fmu), list(state.cpr)
    first: Dict[tuple, int] = {}
    merged = []
    for j, col in enumerate(R):
        i = first.setdefault(_canonical_column(col), j)
        if i != j:
            k0 = next(t for t, x in enumerate(R[i]) if x != 0)
            _fold(pool, fmu, cpr, i, j, col[k0] / R[i][k0])
            merged.append(j)
    for j in reversed(merged):
        del R[j], fmu[j], cpr[j]
    rows = _cone_rows(state)
    j = 0
    while j < len(R):
        if rows is not None and _is_extreme(_int_vector(R[j]), rows):
            j += 1
            continue
        others = [t for t in range(len(R)) if t != j]
        if not others:
            j += 1
            continue
        prob = LPProblem(sense="min")
        for t in others:
            prob.add_var(f"nu{t}", lb=ZERO)
        for coord in range(len(R[j])):
            prob.add_row(
                {f"nu{t}": R[t][coord] for t in others},
                "=",
                R[j][coord],
                name=f"c{coord}",
            )
        sol = lp_solve(prob)
        if sol.status != "optimal":
            j += 1
            continue
        for t in others:
            w = sol.primal[f"nu{t}"]
            if w:
                _fold(pool, fmu, cpr, t, j, w)
        del R[j], fmu[j], cpr[j]
    return replace(state, R=tuple(R), fmu=tuple(fmu), cpr=tuple(cpr))


# --------------------------------------------------------------------------
# ledger verification
# --------------------------------------------------------------------------


def ledger_verify(state_prev: DDState, state_next: DDState, entry: LedgerEntry) -> bool:
    """Check the affine inter-level relation symbolically (when it holds by
    construction) and the generator relation numerically for one step."""
    for row in entry.D:
        if any(x < 0 for x in row):
            return False
    q, p = state_prev.q, state_prev.p
    theta_prev = list(state_prev.theta)
    Lprev = [list(c) for c in state_prev.L]
    if entry.case == "lineality" and entry.flip:
        theta_prev[entry.xi] = theta_prev[entry.xi].scale(-1)
        Lprev[entry.xi] = [-x for x in Lprev[entry.xi]]

    if entry.case == "ray" and not entry.Npos:
        names = {iz.name for iz in state_next.implied_zero}
        for j in entry.dropped:
            if f"mu[{state_prev.k}][{j}]" not in names:
                return False
        for c, j in enumerate(entry.Nzero):
            if not rf_equal(state_prev.mu[j], state_next.mu[c]):
                return False
        return _check_generator_relation(Lprev, state_prev, state_next, entry)

    new_theta = list(state_next.theta)
    new_mu = list(state_next.mu)
    nv = state_prev.cone.n + 1
    for j in range(q):
        rhs = RatFun.const(nv, 0)
        for c, f in zip(new_theta, entry.F[j]):
            if f:
                rhs = rhs + c.scale(f)
        for c, g in zip(new_mu, entry.G[j]):
            if g:
                rhs = rhs + c.scale(g)
        if not rf_equal(theta_prev[j], rhs):
            return False
    for r in range(p):
        acc = RatFun.const(nv, 0)
        for c, d in zip(new_mu, entry.D[r]):
            if d:
                acc = acc + c.scale(d)
        if not rf_equal(state_prev.mu[entry.perm[r]], acc):
            return False
    return _check_generator_relation(Lprev, state_prev, state_next, entry)


def _check_generator_relation(Lprev, state_prev, state_next, entry) -> bool:
    """(L^{k+1} R^{k+1}) == (L^k R^k) P^T [F G; 0 D] exactly."""
    q, p = state_prev.q, state_prev.p
    nv = state_prev.cone.n + 1
    prev_L = [tuple(c) for c in Lprev]
    prev_R = [state_prev.R[entry.perm[r]] for r in range(p)]
    for cnew in range(state_next.q):
        acc = [ZERO] * nv
        for j in range(q):
            f = entry.F[j][cnew]
            if f:
                acc = [a + f * x for a, x in zip(acc, prev_L[j])]
        if tuple(acc) != tuple(state_next.L[cnew]):
            return False
    for cnew in range(state_next.p):
        acc = [ZERO] * nv
        for j in range(q):
            g = entry.G[j][cnew]
            if g:
                acc = [a + g * x for a, x in zip(acc, prev_L[j])]
        for r in range(p):
            d = entry.D[r][cnew]
            if d:
                acc = [a + d * x for a, x in zip(acc, prev_R[r])]
        if tuple(acc) != tuple(state_next.R[cnew]):
            return False
    return True
