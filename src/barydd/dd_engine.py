"""Double description with symbolic barycentric coordinates.

The algorithm processes one inequality of the homogenized cone per step and
maintains rays R, lineality directions L and their coordinate functions mu,
theta so that R.mu + L.theta = (x0; x) holds as an identity of rational
functions, with mu >= 0 on the cone.

Every run starts from the cone x0 >= 0, x_i >= 0 for i > varrho
(``dd_init``): rays x0 and x_i for i > varrho, lineality directions
x_1..x_varrho.  varrho = n, the default, needs no row of P; a smaller
varrho needs each x_i >= 0 for i > varrho as an explicit row.  The
paper's phase 1, which first processes rows that shrink the lineality
space, is a row order over this start (``phase1_order``).

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
maintained alongside the reduced form, and no module outside this one reads
it: DE builds its rows from the reduced form alone.

Pruning (``prune_redundant``) removes the columns that are not extreme rays
and folds their coordinates into the others.  One test decides, in every
state: a column is kept when the constraint rows tight at it have rank
d - 1 - q, the algebraic extremality test of double description (Motzkin
et al. 1953; Fukuda and Prodon 1996), computed in integers.  A column that
fails it is a non-negative combination of the other columns, and one exact
LP computes the weights of its fold: its Bland-order solution.

A run has two layers.  The double description itself is computed when a
state is made: the columns R and L, E, ``processed``, and the ledger's
numeric fields (beta, the N sets, F, G, D, ``perm``, xi, ``flip``,
``dropped``); so are pruning's decisions, which read only R.  The
coordinate layer is derived on first read: the factor pool (its seeding and
every registration, ``certified`` included), ``fmu``, ``ftheta``, ``cpr``,
``LedgerEntry.Ntot``, and pruning's folds.  Reading any of these, or
``mu``, ``theta`` or ``pool``, on any state or ledger entry of a run
derives the coordinates of every state the run has made so far, state by
state in step order, so pool ids and coordinates are those an eager run
makes, whatever is read first.  A caller that reads only the columns (the
level-k LP, ``LevelRun``) does no polynomial arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .exactmath import Poly, RatFun, rat_to_str
from .lp import LPProblem, lp_solve
from .polyhedra import HomCone, HPolyhedron, homogenize

ZERO = Fraction(0)
ONE = Fraction(1)


class EmptyInterior(RuntimeError):
    """No rays remain and the lineality space is empty: the cone is {0}."""


class InitPreconditionViolated(ValueError):
    """Requested initialization needs x_i >= 0 rows that are not explicit,
    or a varrho outside 0..n."""


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
        product is a positive multiple of p; adjust via set_cone_sign).

        A linear form is looked up, not divided: once its monomial content
        is gone, a primitive form of degree 1 is divisible by no variable,
        and a non-constant pool entry (primitive, positive leading
        coefficient) divides it only if it equals it, which registering
        the form finds.  A form of higher degree is divided by the pool
        entries in one scan."""
        if p.is_zero():
            raise ValueError("cannot pool the zero polynomial")
        ids: List[int] = []
        mono = p.monomial_content()
        if any(mono):
            p = p.div_monomial(mono)
            for i, k in enumerate(mono):
                ids.extend([i] * k)
        scalar, prim = p.primitive()
        if prim.degree() > 1:
            # one scan over the pool: an entry that does not divide prim does
            # not divide any quotient of it, so only the entry that just
            # divided is tried again
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

    def cone_product(self, ids: Sequence[int]) -> Poly:
        """The product of the cone forms of ``ids``, each factor times its
        ``cone_sign``."""
        out = self.product(ids)
        return out if self.cone_weight(1, ids) > 0 else -out

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


# --------------------------------------------------------------------------
# DD state and ledger
# --------------------------------------------------------------------------


_PENDING = object()


class _Coords:
    """The coordinate layer of one run: its factor pool, made by the first
    derivation, and the derivations not run yet, in the order their states
    were made.  Each sets the coordinate fields of one state (and ``Ntot``
    of its ledger entry) from those of the state it was made from."""

    def __init__(self):
        self.pool: Optional[FactorPool] = None
        self.pending: List[Callable[[], None]] = []

    def derive(self) -> None:
        """Run every pending derivation, in order.  A read inside one finds
        nothing pending; after an exception the rest stay pending."""
        pending, self.pending = self.pending, []
        try:
            while pending:
                pending[0]()
                del pending[0]
        finally:
            self.pending = pending


class _Derived:
    """A field of the coordinate layer: given when its object is made, or
    left out and then set by a derivation of the object's run
    (``obj.coords``), which the first read runs."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner):
        if obj is None:
            return _PENDING  # the dataclass default: derived
        value = obj.__dict__.get(self.name, _PENDING)
        if value is _PENDING:
            obj.coords.derive()
            value = obj.__dict__[self.name]
        return value

    def __set__(self, obj, value):
        if value is not _PENDING:
            obj.__dict__[self.name] = value


@dataclass(frozen=True)
class DDState:
    """The state after k steps: ray columns R with coordinates fmu and their
    constraint-product views cpr, lineality columns L with coordinates
    ftheta.  fmu and ftheta are the stored form, factored over the pool;
    mu and theta, the same coordinates as normalized RatFuns, are derived
    on first read.  The pool only grows, so the pool ids in an Frf stay
    valid, and ``replace`` builds a new state that derives its own.

    The run started from x0 >= 0 and x_i >= 0 for i > varrho (``dd_init``).
    R, L, E and ``processed`` are set when the state is made; k, the step
    count, is the number of processed rows.  fmu, ftheta, cpr and the pool
    belong to the run's coordinate layer (``coords``) and are derived on
    first read (see the module docstring), unless they are given to the
    constructor or to ``replace``.  A coordinate that a step drops is
    recorded once, in the step's ledger entry (``LedgerEntry.dropped``)."""

    cone: HomCone
    R: Tuple[tuple, ...]
    L: Tuple[tuple, ...]
    E: Tuple[int, ...]
    processed: Tuple[int, ...]
    varrho: int
    coords: _Coords
    fmu: Tuple[Frf, ...] = _Derived()
    ftheta: Tuple[Frf, ...] = _Derived()
    cpr: Tuple[Optional[CPR], ...] = _Derived()

    @property
    def k(self) -> int:
        return len(self.processed)

    @property
    def pool(self) -> FactorPool:
        self.coords.derive()
        return self.coords.pool

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


def _defer(state: DDState, derive: Callable[[], dict]) -> None:
    """The coordinate fields of ``state`` are ``derive()``, run in order
    with the other derivations of its run."""
    state.coords.pending.append(lambda: vars(state).update(derive()))


def _successor(state: DDState, derive: Callable[[], dict], **eager) -> DDState:
    """A state of the same run with the fields of ``state``, those in
    ``eager`` and the coordinate fields that ``derive()`` returns replaced."""
    fields = dict(
        cone=state.cone, R=state.R, L=state.L, E=state.E,
        processed=state.processed, varrho=state.varrho, coords=state.coords,
    )
    fields.update(eager)
    new = DDState(**fields)
    _defer(new, lambda: {"fmu": state.fmu, "ftheta": state.ftheta, "cpr": state.cpr, **derive()})
    return new


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
    Ntot: Optional[RatFun] = _Derived()  # None unless a ray step with N+
    F: tuple = ()
    G: tuple = ()
    D: tuple = ()
    perm: Tuple[int, ...] = ()  # reordered position -> previous mu index
    dropped: Tuple[int, ...] = ()  # previous mu indices dropped (N+ empty)
    coords: Optional[_Coords] = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
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


def dd_init(cone: HomCone, varrho: int) -> DDState:
    """The start of every run: the cone x0 >= 0, x_i >= 0 for i > varrho,
    with rays x0 and x_i for i > varrho and lineality x_1..x_varrho.

    varrho must lie in 0..n, and each x_i >= 0 for i > varrho must be an
    explicit row of the cone (else InitPreconditionViolated).  Those rows
    are not marked processed: a run that meets one takes an ordinary ray
    step, whose N- is empty since every column already satisfies the row.
    varrho = n starts from x0 >= 0 alone, varrho = 0 from the orthant."""
    n = cone.n
    nv = n + 1
    if not (isinstance(varrho, int) and 0 <= varrho <= n):
        raise InitPreconditionViolated(f"varrho = {varrho} is outside 0..{n}")
    for i in range(varrho + 1, nv):
        if not _orthant_certified(cone, i):
            raise InitPreconditionViolated(f"x_{i} >= 0 is not certified by an explicit row")
    ray_vars, lin_vars = [0, *range(varrho + 1, nv)], range(1, varrho + 1)

    def unit(i):
        return tuple(ONE if j == i else ZERO for j in range(nv))

    coords = _Coords()
    state = DDState(
        cone=cone, R=tuple(unit(i) for i in ray_vars), L=tuple(unit(i) for i in lin_vars),
        E=(), processed=(), varrho=varrho, coords=coords,
    )

    def derive():
        coords.pool = _seed_pool(cone)
        return dict(
            fmu=tuple(Frf(Poly.variable(nv, i), ()) for i in ray_vars),
            ftheta=tuple(Frf(Poly.variable(nv, i), ()) for i in lin_vars),
            cpr=tuple(CPR(((ONE, (i,)),), ()) for i in ray_vars),
        )

    _defer(state, derive)
    return state


def phase1_order(P: HPolyhedron, order: Sequence[int]) -> List[int]:
    """The order with the rows of phase 1 moved forward: in order, each row
    whose x-part is linearly independent of those of the rows before it
    that were moved, up to n rows; the other rows follow in their order.

    From the default start these rows are exactly the lineality steps: the
    lineality space is the x-space orthogonal to the processed rows, so a
    row is orthogonal to it just when its x-part lies in the span of
    theirs.  This is the double-description start from independent rows
    (Fukuda and Prodon 1996)."""
    columns = list(zip(*(P.int_rows[r][1] for r in order)))
    first = [order[c] for c in linalg.echelon(columns)[1]]
    return first + [r for r in order if r not in first]


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
    q, p = state.q, state.p
    xi = next(i for i, a in enumerate(alpha) if a != 0)
    flip = alpha[xi] < 0
    Lcols = [list(c) for c in state.L]
    if flip:
        Lcols[xi] = [-x for x in Lcols[xi]]
        alpha = list(alpha)
        alpha[xi] = -alpha[xi]
    a = alpha[xi]  # > 0
    Lxi = Lcols[xi]
    new_R = [tuple(Lxi)] + [
        tuple(a * rc - beta[j] * lc for rc, lc in zip(state.R[j], Lxi))
        for j in range(p)
    ]
    new_L = [tuple(Lcols[j]) for j in range(xi)] + [
        tuple(a * c1 - alpha[j] * c2 for c1, c2 in zip(Lcols[j], Lxi))
        for j in range(xi + 1, q)
    ]

    def derive():
        pool = state.coords.pool
        theta = list(state.ftheta)
        if flip:
            theta[xi] = frf_scale(theta[xi], -1)
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
        return dict(fmu=tuple(new_fmu), ftheta=tuple(new_ftheta), cpr=tuple(new_cpr))

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
        Ntot=None,
        F=tuple(tuple(r) for r in F),
        G=tuple(tuple(r) for r in G),
        D=tuple(tuple(r) for r in D),
        perm=tuple(range(p)),
    )
    new_state = _successor(
        state,
        derive,
        R=tuple(new_R),
        L=tuple(new_L),
        processed=state.processed + (row,),
    )
    return new_state, entry


def _step_ray(state, row, beta):
    """The ray update.  With N+ empty it makes no new column and no N_tot:
    N0 stays, and N- drops out, recorded as the entry's ``dropped``
    columns (their coordinates vanish on the cone), and the row joins E."""
    p, q = state.p, state.q
    Nneg = tuple(i for i in range(p) if beta[i] < 0)
    Nzero = tuple(i for i in range(p) if beta[i] == 0)
    Npos = tuple(i for i in range(p) if beta[i] > 0)
    if not Npos and not Nzero and not q:
        raise EmptyInterior(f"no rays remain after processing row {row}")
    perm = Nzero + Npos + Nneg
    dropped = () if Npos else Nneg
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
    # row r of D belongs to perm[r]: N0, then N+, then N-
    for c in range(nz + npp):
        D[c][c] = ONE
    for c in range(npp):
        for jj, j in enumerate(Nneg):
            D[nz + c][nz + npp + c * nn + jj] = -beta[j]
    for jj, j in enumerate(Nneg):
        for c, i in enumerate(Npos):
            D[nz + npp + jj][nz + npp + c * nn + jj] = beta[i]
    entry = LedgerEntry(
        k=state.k + 1,
        row=row,
        case="ray",
        beta=tuple(beta),
        Nzero=Nzero,
        Npos=Npos,
        Nneg=Nneg,
        Ntot=_PENDING if Npos else None,
        F=tuple(tuple(ONE if i == j else ZERO for j in range(q)) for i in range(q)),
        G=tuple(tuple([ZERO] * pk1) for _ in range(q)),
        D=tuple(tuple(r) for r in D),
        perm=perm,
        dropped=dropped,
        coords=state.coords,
    )

    def derive():
        pool = state.coords.pool
        fmu, cpr = state.fmu, state.cpr
        new_fmu: List[Frf] = [fmu[j] for j in Nzero]
        new_cpr: List[Optional[CPR]] = [cpr[j] for j in Nzero]
        if not Npos:
            return dict(fmu=tuple(new_fmu), cpr=tuple(new_cpr))
        ntot = Frf(Poly.zero(pool.nvars), ())
        for i in Npos:
            ntot = frf_add(pool, ntot, frf_scale(fmu[i], beta[i]))
        sneg = Frf(Poly.zero(pool.nvars), ())
        for j in Nneg:
            sneg = frf_add(pool, sneg, frf_scale(fmu[j], beta[j]))

        cpr_ok = not state.had_empty_npos and all(cpr[i] is not None for i in Npos + Nneg)
        if cpr_ok:
            ntot_cpr = cpr_combine([(Fraction(beta[i]), cpr[i]) for i in Npos])
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
        for i in Npos:
            term = (
                frf_div(pool, frf_mul(pool, fmu[i], sneg), ntot, ntot_factors)
                if Nneg
                else Frf(Poly.zero(pool.nvars), ())
            )
            new_fmu.append(frf_add(pool, fmu[i], term))
            if cpr_ok:
                prod = cpr_mul(cpr[i], CPR(((row_w, rids),), ()))
                new_cpr.append(over_ntot(prod))
            else:
                new_cpr.append(None)
        for i in Npos:
            for j in Nneg:
                new_fmu.append(
                    frf_div(pool, frf_mul(pool, fmu[i], fmu[j]), ntot, ntot_factors)
                )
                if cpr_ok:
                    new_cpr.append(over_ntot(cpr_mul(cpr[i], cpr[j])))
                else:
                    new_cpr.append(None)
        vars(entry)["Ntot"] = frf_to_ratfun(pool, ntot)
        return dict(fmu=tuple(new_fmu), cpr=tuple(new_cpr))

    new_state = _successor(
        state,
        derive,
        R=tuple(new_R),
        E=state.E if Npos else state.E + (row,),
        processed=state.processed + (row,),
    )
    return new_state, entry


# --------------------------------------------------------------------------
# full runs and pruning
# --------------------------------------------------------------------------


@dataclass
class DDRun:
    cone: HomCone
    order: Tuple[int, ...]  # the rows processed, in order
    states: List[DDState]  # the state after each step, pruned when prune is on
    entries: List[LedgerEntry]  # entries[i]: the step from states[i] to states[i + 1]

    @property
    def final(self) -> DDState:
        return self.states[-1]


def dd_run(
    P: HPolyhedron,
    order: Optional[Sequence[int]] = None,
    prune: bool = False,
    varrho: Optional[int] = None,
    stop: Optional[Callable[[DDState], bool]] = None,
) -> DDRun:
    """Run the algorithm over the given row order (0-based indices, all rows
    by default) from the start x0 >= 0, x_i >= 0 for i > varrho
    (``dd_init``; varrho = n by default).

    P is an HPolyhedron; the run works on its homogenization.  The run
    keeps one state per step; with prune, that is the pruned state
    (``prune_redundant``), and the next step starts from it.  With stop,
    the run ends at the first kept state, the initial one included, for
    which stop(state) is true; the rows after it are not processed.
    """
    cone = homogenize(P)
    order = list(order) if order is not None else list(range(cone.m))
    if len(set(order)) != len(order):
        raise ValueError("order must consist of distinct row indices")
    states = [dd_init(cone, cone.n if varrho is None else varrho)]
    entries = []
    for row in order:
        if stop is not None and stop(states[-1]):
            break
        raw, entry = dd_step(states[-1], row)
        entries.append(entry)
        states.append(prune_redundant(raw) if prune else raw)
    return DDRun(cone=cone, order=tuple(order[: len(entries)]), states=states, entries=entries)


def _int_vector(v) -> Tuple[int, ...]:
    """v scaled by the lcm of its denominators: a positive multiple of v
    with integer entries."""
    return linalg.over_lcm(v)[0]


def _canonical_column(col) -> tuple:
    ints = _int_vector(col)
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        return tuple(col)
    return tuple(Fraction(v, g) for v in ints)


def _cone_rows(state: DDState) -> List[Tuple[int, ...]]:
    """Integer-scaled rows that cut out the cone of a state, each with
    a.r >= 0 for every ray column r and a.l = 0 for every lineality
    column l: x0 >= 0, the start's x_i >= 0 for i > varrho, and the
    processed rows of Abar."""
    nv = state.cone.n + 1
    units = [0, *range(state.varrho + 1, nv)]
    rows = [tuple(int(i == j) for j in range(nv)) for i in units]
    rows += [_int_vector(state.cone.Abar[i]) for i in state.processed]
    return rows


def _is_extreme(col: Tuple[int, ...], rows: Sequence[Tuple[int, ...]], q: int) -> bool:
    """True when the rows tight at the column col of a state with q
    lineality columns have rank d - 1 - q: col is then an extreme ray of
    cone(R), and otherwise, once columns equal up to positive scaling are
    merged, a non-negative combination of the other columns of R.

    Why.  Let C = {x : rows.x >= 0} = cone(R) + span(L), the cone of the
    state (``_cone_rows``).
    - span(R) and span(L) meet only in 0: the start's columns are distinct
      unit vectors, a lineality step turns one column of L into a ray and
      keeps the sum direct, and ray steps and pruning only combine or drop
      columns of R.
    - span(L) = ker(rows), the lineality space of C: at the start both are
      spanned by x_1..x_varrho, a lineality step cuts both by the new row,
      and a ray step's row is orthogonal to span(L).  So C/L is pointed,
      and cone(R) is isomorphic to it.
    - The face of C spanned by col and L is cut out by the rows tight at
      col and has dimension q + 1 just when col is extreme in C/L, that is
      when those rows have rank d - 1 - q (Motzkin et al. 1953; Fukuda and
      Prodon 1996).
    - If col is extreme, a combination col = sum w_t R_t, w >= 0, makes
      each R_t with w_t > 0 equal to a positive multiple of col modulo L,
      hence equal to it (the sum is direct), which merging rules out.  If
      it is not, col modulo L is a sum of extreme rays of C/L, each the
      class of another column; the difference lies in span(R) and span(L),
      so it is 0.
    So the pruning LP of a column that fails the test is always optimal,
    and only its weights are read."""
    tight = [a for a in rows if not sum(x * y for x, y in zip(a, col))]
    rank = len(col) - 1 - q
    return len(tight) >= rank and len(linalg.echelon(tight)[1]) == rank


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
    is tested in turn.  A column at which the tight constraint rows have
    rank d - 1 - q is an extreme ray (``_is_extreme``, in integers) and is
    kept.  Every other column is a non-negative combination of the other
    columns, and an exact LP finds one: its Bland-order solution gives the
    fold weights, and the column goes.  An LP that is not optimal
    contradicts the test and raises ArithmeticError.  A fold only shrinks
    the set of the other columns, so a column kept before it stays kept
    and the scan goes on from the removed column's place.

    The decisions read only R; the folds and removals are recorded and
    replayed on the coordinates when they are derived."""
    R = list(state.R)
    # (t, j, w): column j, weighted by w, joins column t; (None, j, None):
    # column j goes
    ops: List[tuple] = []
    first: Dict[tuple, int] = {}
    merged = []
    for j, col in enumerate(R):
        i = first.setdefault(_canonical_column(col), j)
        if i != j:
            k0 = next(t for t, x in enumerate(R[i]) if x != 0)
            ops.append((i, j, col[k0] / R[i][k0]))
            merged.append(j)
    for j in reversed(merged):
        del R[j]
        ops.append((None, j, None))
    rows = _cone_rows(state)
    j = 0
    while j < len(R):
        if _is_extreme(_int_vector(R[j]), rows, state.q):
            j += 1
            continue
        others = [t for t in range(len(R)) if t != j]
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
            raise ArithmeticError(f"column {j} fails the rank test but its pruning LP is {sol.status}")
        for t in others:
            w = sol.primal[f"nu{t}"]
            if w:
                ops.append((t, j, w))
        del R[j]
        ops.append((None, j, None))

    def derive():
        fmu, cpr = list(state.fmu), list(state.cpr)
        for t, j, w in ops:
            if t is None:
                del fmu[j], cpr[j]
            else:
                _fold(state.coords.pool, fmu, cpr, t, j, w)
        return dict(fmu=tuple(fmu), cpr=tuple(cpr))

    return _successor(state, derive, R=tuple(R))


# --------------------------------------------------------------------------
# ledger verification
# --------------------------------------------------------------------------


def _vanishes(pool: FactorPool, terms: Sequence[Tuple[Fraction, Frf]]) -> bool:
    """True when sum_t c_t f_t is the zero function, over the pairs (c_t,
    f_t) of a rational and an Frf of ``pool``: each f_t is brought to the
    lcm of the denominators' multisets of pool ids, and the scaled
    numerators sum to the zero polynomial."""
    terms = [(c, f) for c, f in terms if c and not f.is_zero()]
    den: Tuple[int, ...] = ()
    for _, f in terms:
        den = _lcm_multiset(den, f.den)
    total = Poly.zero(pool.nvars)
    for c, f in terms:
        total = total + f.num.scale(c) * pool.product(_diff_multiset(den, f.den))
    return total.is_zero()


def linear_precision(state: DDState, rows: Sequence[int]) -> bool:
    """True when R mu + L theta = (x0; x) holds as an identity of rational
    functions at each coordinate r in ``rows`` (0 for x0, i for x_i),
    checked on the stored form (``_vanishes``)."""
    nv = state.cone.n + 1
    cols = list(zip(state.R, state.fmu)) + list(zip(state.L, state.ftheta))
    return all(
        _vanishes(
            state.pool, [(col[r], f) for col, f in cols] + [(-ONE, Frf(Poly.variable(nv, r), ()))]
        )
        for r in rows
    )


def ledger_verify(state_prev: DDState, state_next: DDState, entry: LedgerEntry) -> bool:
    """Check one step: the affine inter-level relations theta_prev = F
    theta_next + G mu_next and mu_prev = D mu_next (after the step's
    permutation and flip) as identities, each row on the stored form over
    one common denominator (``_vanishes``; the states are of one run and
    share its pool), and the generator relation numerically.  A coordinate
    the step drops (``entry.dropped``) vanishes on the cone, not as an
    identity, so its D row, which is zero, is not checked against it."""
    for row in entry.D:
        if any(x < 0 for x in row):
            return False
    q, p = state_prev.q, state_prev.p
    pool = state_prev.pool
    theta_prev = list(state_prev.ftheta)
    Lprev = [list(c) for c in state_prev.L]
    if entry.case == "lineality" and entry.flip:
        theta_prev[entry.xi] = frf_scale(theta_prev[entry.xi], -1)
        Lprev[entry.xi] = [-x for x in Lprev[entry.xi]]

    new_theta, new_mu = state_next.ftheta, state_next.fmu
    for j in range(q):
        terms = [(ONE, theta_prev[j])]
        terms += [(-f, c) for c, f in zip(new_theta, entry.F[j])]
        terms += [(-g, c) for c, g in zip(new_mu, entry.G[j])]
        if not _vanishes(pool, terms):
            return False
    for r in range(p):
        if entry.perm[r] in entry.dropped:
            continue
        terms = [(ONE, state_prev.fmu[entry.perm[r]])]
        terms += [(-d, c) for c, d in zip(new_mu, entry.D[r])]
        if not _vanishes(pool, terms):
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
