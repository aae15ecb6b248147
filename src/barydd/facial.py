"""Relaxation hierarchy for facial disjunctive sets.

A facial disjunctive instance couples block variables x_i, each restricted to
one of several vertex-disjoint faces of its polytope P_i, with free variables
y through linear rows.  The level-k relaxation introduces, per k-subset S of
blocks and per face selection s, an indicator gamma^{S,s} and linearizations
u^{S,s} (of gamma*(1;x)) and w^{S,s} (of gamma*y).

The substituted model replaces the indicators by barycentric indicators
(sums of barycentric coordinates over a face's vertices) and expands the
liftings over products of per-block coordinates, which annihilate across
mismatched faces; cross-subset consistency rows make the aggregation
identities independent of which block is summed out.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactmath import RatFun, rat_from_str, rat_to_str
from .lp import LPProblem, lp_solve
from .polyhedra import HPolyhedron, enumerate_vertices_oracle
from .relaxation import CouplingRow, barycentric_for_polytope

ZERO = Fraction(0)
ONE = Fraction(1)


class FacesShareVertices(ValueError):
    """Assumption violated: two faces of one block share a vertex."""


class InvalidFace(ValueError):
    """A face that does not describe a face of its block: a cut that is not
    valid for the block, a cut that disagrees with the face's vertex list,
    or a vertex list with no supporting block row."""


class CheckedFaces(NamedTuple):
    """Per block: its vertices, the vertex-index set E_i(j) of each face
    and each face's cut (tau, pi)."""

    verts: List[List[tuple]]
    sets: List[List[Tuple[int, ...]]]
    cuts: List[List[Tuple[Fraction, tuple]]]


@dataclass
class Face:
    """A face given by a valid cut tau - pi.x <= 0 (with tau - pi.x >= 0
    valid for the block), by an explicit vertex index list, or both."""

    tau: Optional[Fraction] = None
    pi: Optional[tuple] = None
    vertices: Optional[Tuple[int, ...]] = None

    @staticmethod
    def from_cut(tau, pi) -> "Face":
        return Face(tau=Fraction(tau), pi=tuple(Fraction(c) for c in pi))

    @staticmethod
    def from_vertices(idx) -> "Face":
        return Face(vertices=tuple(sorted(idx)))


@dataclass
class FDPBlock:
    P: HPolyhedron
    faces: List[Face]


@dataclass
class FDPInstance:
    blocks: List[FDPBlock]
    coupling: List[CouplingRow]
    obj_x: tuple
    obj_y: tuple
    obj_const: Fraction
    ny: int

    @property
    def np(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(b.P.n for b in self.blocks)

    @functools.cached_property
    def checked_faces(self) -> CheckedFaces:
        """``_checked_faces`` of this instance, computed on first use and
        shared by every later caller: the blocks and faces must not change
        after that, and the result is not to be modified."""
        return _checked_faces(self)

    def block_slice(self, i: int) -> Tuple[int, int]:
        start = sum(self.blocks[t].P.n for t in range(i))
        return start, start + self.blocks[i].P.n

    def to_json(self) -> dict:
        return {
            "blocks": [
                {
                    "P": b.P.to_json(),
                    "faces": [
                        {"tau": rat_to_str(f.tau), "pi": [rat_to_str(c) for c in f.pi]}
                        if f.tau is not None
                        else {"vertices": list(f.vertices)}
                        for f in b.faces
                    ],
                }
                for b in self.blocks
            ],
            "coupling": [
                {
                    "x_coeffs": [rat_to_str(c) for c in r.xcoeffs],
                    "y_coeffs": [rat_to_str(c) for c in r.ycoeffs],
                    "sense": r.sense,
                    "rhs": rat_to_str(r.rhs),
                }
                for r in self.coupling
            ],
            "objective": {
                "x": [rat_to_str(c) for c in self.obj_x],
                "y": [rat_to_str(c) for c in self.obj_y],
                "const": rat_to_str(self.obj_const),
            },
            "ny": self.ny,
        }

    @staticmethod
    def from_json(data: dict) -> "FDPInstance":
        blocks = []
        for b in data["blocks"]:
            P = HPolyhedron.from_json(b["P"])
            faces = []
            for f in b["faces"]:
                if "tau" in f:
                    face = Face.from_cut(rat_from_str(f["tau"]), [rat_from_str(c) for c in f["pi"]])
                    if "vertices" in f:
                        face.vertices = tuple(sorted(f["vertices"]))
                else:
                    face = Face.from_vertices(f["vertices"])
                faces.append(face)
            blocks.append(FDPBlock(P, faces))
        ny = int(data["ny"])
        coupling = [
            CouplingRow(
                tuple(rat_from_str(c) for c in r["x_coeffs"]),
                tuple(rat_from_str(c) for c in r["y_coeffs"]),
                r.get("sense", "<="),
                rat_from_str(r["rhs"]),
            )
            for r in data.get("coupling", [])
        ]
        obj = data["objective"]
        return FDPInstance(
            blocks=blocks,
            coupling=coupling,
            obj_x=tuple(rat_from_str(c) for c in obj["x"]),
            obj_y=tuple(rat_from_str(c) for c in obj["y"]),
            obj_const=rat_from_str(obj.get("const", 0)),
            ny=ny,
        )


# --------------------------------------------------------------------------
# vertex sets E_i(j) and the disjointness assumption
# --------------------------------------------------------------------------


def block_vertices(inst: FDPInstance, i: int) -> List[tuple]:
    return enumerate_vertices_oracle(inst.blocks[i].P)


def face_vertex_sets(inst: FDPInstance, i: int) -> List[Tuple[int, ...]]:
    """E_i(j): indices of block-i vertices on face j, from the cut (zero
    slack) or the explicit list; when both are given they must agree."""
    return _face_sets(inst, i, block_vertices(inst, i))


def _face_sets(inst: FDPInstance, i: int, verts: List[tuple]) -> List[Tuple[int, ...]]:
    out = []
    for j, face in enumerate(inst.blocks[i].faces):
        from_cut = None
        if face.tau is not None:
            slacks = [
                face.tau - sum(p * v[t] for t, p in enumerate(face.pi))
                for v in verts
            ]
            if any(s < 0 for s in slacks):
                raise InvalidFace(
                    f"face cut {j} of block {i} is not valid for the block"
                )
            from_cut = tuple(idx for idx, s in enumerate(slacks) if s == 0)
        if face.vertices is not None:
            if from_cut is not None and from_cut != face.vertices:
                raise InvalidFace(
                    f"face {j} of block {i}: cut and vertex list disagree"
                )
            out.append(face.vertices)
        else:
            out.append(from_cut)
    return out


def check_vertex_disjoint(inst: FDPInstance) -> List[List[Tuple[int, ...]]]:
    """Verify faces of each block are pairwise vertex-disjoint and nonempty
    (else FacesShareVertices) and are faces of the block (else InvalidFace);
    returns the E_i(j) sets."""
    return inst.checked_faces.sets


def _checked_faces(inst: FDPInstance) -> CheckedFaces:
    """Each block's vertices, from one oracle call per block, its E_i(j)
    sets, checked as in ``check_vertex_disjoint``, and its face cuts.
    Raises FacesShareVertices or InvalidFace."""
    all_verts, all_sets = [], []
    for i in range(inst.np):
        verts = block_vertices(inst, i)
        sets = _face_sets(inst, i, verts)
        for j, E in enumerate(sets):
            if not E:
                raise FacesShareVertices(
                    f"face {j} of block {i} contains no vertex"
                )
        for j1 in range(len(sets)):
            for j2 in range(j1 + 1, len(sets)):
                if set(sets[j1]) & set(sets[j2]):
                    raise FacesShareVertices(
                        f"faces {j1} and {j2} of block {i} share a vertex"
                    )
        all_verts.append(verts)
        all_sets.append(sets)
    return CheckedFaces(all_verts, all_sets, _face_cuts(inst, all_verts))


def _face_cuts(inst: FDPInstance, verts: List[List[tuple]]) -> List[List[Tuple[Fraction, tuple]]]:
    """(tau, pi) for face j of block i at [i][j]; synthesized from the
    vertex list when only that was given (sum of tight rows of the block
    polytope)."""
    cuts = []
    for i, block in enumerate(inst.blocks):
        P = block.P
        cuts.append([])
        for j, face in enumerate(block.faces):
            if face.tau is not None:
                cuts[i].append((face.tau, face.pi))
                continue
            tight = [
                r
                for r in range(P.m)
                if all(sum(P.A[r][t] * verts[i][v][t] for t in range(P.n)) == P.b[r]
                       for v in face.vertices)
            ]
            if not tight:
                raise InvalidFace(f"no supporting rows for face {j} of block {i}")
            tau = sum(P.b[r] for r in tight)
            pi = tuple(sum(P.A[r][t] for r in tight) for t in range(P.n))
            cuts[i].append((tau, pi))
    return cuts


# --------------------------------------------------------------------------
# the objective and the rows that every model writes
# --------------------------------------------------------------------------


def _xy_problem(inst: FDPInstance, name: str = "") -> LPProblem:
    """A min LP with the variables x_j and y_l and the instance's objective."""
    prob = LPProblem(sense="min", name=name)
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
    return prob


@dataclass
class _Lifting:
    """The variables a model writes the instance's rows in: x_j is factor *
    variable for (variable, factor) = x(j), and y_l is y(l).  With a
    scaling variable g the right-hand side moves onto it: a row becomes
    ... - rhs g (sense) 0.  Rows are named kind[idx]key and tagged
    (kind, *tag, *idx)."""

    x: Callable[[int], Tuple[str, Fraction]]
    y: Callable[[int], str]
    g: Optional[str] = None
    key: str = ""
    tag: tuple = ()

    def row(self, prob: LPProblem, kind: str, idx: tuple, xc, yc, sense: str, rhs):
        """The row sum_j xc_j x_j + sum_l yc_l y_l (sense) rhs, with xc as
        (j, coefficient) pairs."""
        coeffs: Dict[str, Fraction] = {self.g: -rhs} if self.g is not None else {}
        for j, c in xc:
            if c:
                v, f = self.x(j)
                coeffs[v] = coeffs.get(v, ZERO) + c * f
        for l, c in enumerate(yc):
            if c:
                coeffs[self.y(l)] = coeffs.get(self.y(l), ZERO) + c
        prob.add_row(coeffs, sense, ZERO if self.g is not None else rhs,
                     name=f"{kind}[{','.join(map(str, idx))}]{self.key}",
                     tag=(kind,) + self.tag + idx)

    def coupling_rows(self, prob: LPProblem, inst: FDPInstance):
        for ridx, row in enumerate(inst.coupling):
            self.row(prob, "cone", (ridx,), enumerate(row.xcoeffs), row.ycoeffs, row.sense, row.rhs)

    def block_rows(self, prob: LPProblem, inst: FDPInstance, ip: int):
        """The rows of block ip's polytope."""
        P = inst.blocks[ip].P
        for r in range(P.m):
            self.row(prob, "scaleP", (ip, r), enumerate(P.A[r], inst.block_slice(ip)[0]), (),
                     "<=", P.b[r])


# --------------------------------------------------------------------------
# the level-k relaxation
# --------------------------------------------------------------------------


def _subsets(np_: int, k: int):
    return itertools.combinations(range(np_), k)


def _selections(inst: FDPInstance, S: Sequence[int]):
    """Every choice of one face per block of S."""
    return itertools.product(*[range(len(inst.blocks[i].faces)) for i in S])


def build_fdr_level(inst: FDPInstance, k: int) -> LPProblem:
    """underline-FDR^k: per (S, s) an indicator u0 >= 0 and liftings ux, w;
    gamma-scaled coupling rows, aggregation to (1; x; y), gamma-scaled block
    membership, and the face-definition rows."""
    if not 1 <= k <= inst.np:
        raise ValueError("level must be in 1..n_p")
    cuts = inst.checked_faces.cuts
    n, ny = inst.n, inst.ny
    prob = _xy_problem(inst, f"fdr{k}")
    sels = {S: list(_selections(inst, S)) for S in _subsets(inst.np, k)}
    for S, ss in sels.items():
        for s in ss:
            tag = f"{S},{s}"
            prob.add_var(f"g[{tag}]", lb=ZERO)
            for j in range(n):
                prob.add_var(f"u{j}[{tag}]")
            for l in range(ny):
                prob.add_var(f"w{l}[{tag}]")
    for S, ss in sels.items():
        for s in ss:
            tag = f"{S},{s}"
            lift = _Lifting(
                x=lambda j, tag=tag: (f"u{j}[{tag}]", ONE),
                y=lambda l, tag=tag: f"w{l}[{tag}]",
                g=f"g[{tag}]", key=tag, tag=(S, s),
            )
            lift.coupling_rows(prob, inst)
            for ip in range(inst.np):
                lift.block_rows(prob, inst, ip)
            # face definition rows tau - pi.x <= 0 for the selected blocks
            for ip, face_j in zip(S, s):
                tau, pi = cuts[ip][face_j]
                lo = inst.block_slice(ip)[0]
                lift.row(prob, "face", (ip,), enumerate((-p for p in pi), lo), (), "<=", -tau)
    # aggregation rows per S
    for S, ss in sels.items():
        prob.add_row(
            {f"g[{S},{s}]": ONE for s in ss}, "=", ONE, name=f"sum1[{S}]",
            tag=("sum1", S),
        )
        for j in range(n):
            coeffs = {f"u{j}[{S},{s}]": ONE for s in ss}
            coeffs[f"x{j}"] = -ONE
            prob.add_row(coeffs, "=", ZERO, name=f"sumx[{S},{j}]", tag=("sumx", S, j))
        for l in range(ny):
            coeffs = {f"w{l}[{S},{s}]": ONE for s in ss}
            coeffs[f"y{l}"] = -ONE
            prob.add_row(coeffs, "=", ZERO, name=f"sumy[{S},{l}]", tag=("sumy", S, l))
    return prob


def brute_force_fdp(inst: FDPInstance) -> Optional[Fraction]:
    """Exact disjunctive optimum: enumerate every face combination and solve
    the face-restricted LP; None when every piece is infeasible."""
    cuts = inst.checked_faces.cuts
    lift = _Lifting(x=lambda j: (f"x{j}", ONE), y=lambda l: f"y{l}")
    best = None
    for s in _selections(inst, range(inst.np)):
        prob = _xy_problem(inst)
        lift.coupling_rows(prob, inst)
        for ip in range(inst.np):
            lift.block_rows(prob, inst, ip)
            tau, pi = cuts[ip][s[ip]]
            lift.row(prob, "face", (ip,), enumerate(pi, inst.block_slice(ip)[0]), (), "=", tau)
        sol = lp_solve(prob)
        if sol.status == "optimal" and (best is None or sol.value < best):
            best = sol.value
    return best


# --------------------------------------------------------------------------
# barycentric indicators and the substituted model
# --------------------------------------------------------------------------


@dataclass
class Indicator:
    S: tuple
    s: tuple
    eta: RatFun  # over (x0, all block coordinates)
    vertex_sets: List[Tuple[int, ...]]  # E_i(s_i) for i in S


def _block_coords(inst: FDPInstance, i: int):
    """Barycentric coordinates of block i embedded in the full x-space."""
    bc = barycentric_for_polytope(inst.blocks[i].P)
    lo, hi = inst.block_slice(i)
    nv = inst.n + 1
    var_map = [0] + [1 + lo + t for t in range(inst.blocks[i].P.n)]
    lams = [f.remap(nv, var_map) for f in bc.lam]
    return bc.vertices, lams


def barycentric_indicator(inst: FDPInstance, S: Sequence[int], s: Sequence[int]) -> Indicator:
    """eta^{S,s} = prod_{i in S} sum_{r in E_i(s_i)} lambda_{ir}: evaluates to
    1 on the selected faces and 0 on competing faces, for feasible x."""
    Es = check_vertex_disjoint(inst)
    S = tuple(S)
    s = tuple(s)
    nv = inst.n + 1
    eta = RatFun.const(nv, 1)
    vertex_sets = []
    for ip, face_j in zip(S, s):
        _, lams = _block_coords(inst, ip)
        E = Es[ip][face_j]
        vertex_sets.append(E)
        part = RatFun.const(nv, 0)
        for r in E:
            part = part + lams[r]
        eta = eta * part
    return Indicator(S=S, s=s, eta=eta, vertex_sets=vertex_sets)


def substitute_indicators(inst: FDPInstance, k: int) -> LPProblem:
    """The level-k model after substituting barycentric indicators: product
    liftings Lam^S_r over vertex tuples with per-product scaled rows, the
    annihilation of mismatched products, and cross-subset consistency rows
    that make summing out any block give the same lower-level liftings."""
    if not 1 <= k <= inst.np:
        raise ValueError("level must be in 1..n_p")
    verts, Es, _ = inst.checked_faces
    n, ny = inst.n, inst.ny
    prob = _xy_problem(inst, f"fdrsub{k}")

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

    def sum_rows(S, rs, names):
        """lin(sum over r in rs of Lam^S_r (1; x; y)) = (1; x; y)."""
        one, xs, ys = names
        prob.add_row({f"L[{S},{r}]": ONE for r in rs}, "=", ONE,
                     name=f"{one}[{S}]", tag=(one, S))
        for j in range(n):
            coeffs = {f"x{j}": -ONE}
            for r in rs:
                name, scale = lam_x_coeff(S, r, j)
                if scale:
                    coeffs[name] = coeffs.get(name, ZERO) + scale
            prob.add_row(coeffs, "=", ZERO, name=f"{xs}[{S},{j}]", tag=(xs, S, j))
        for l in range(ny):
            coeffs = {f"y{l}": -ONE}
            for r in rs:
                coeffs[f"W{l}[{S},{r}]"] = ONE
            prob.add_row(coeffs, "=", ZERO, name=f"{ys}[{S},{l}]", tag=(ys, S, l))

    for S in subsets:
        others = [i for i in range(inst.np) if i not in S]
        tags = rtags(S)
        # per-product scaled rows
        for r in tags:
            key = f"[{S},{r}]"
            lift = _Lifting(
                x=functools.partial(lam_x_coeff, S, r),
                y=lambda l, key=key: f"W{l}{key}",
                g=f"L{key}", key=key, tag=(S, r),
            )
            lift.coupling_rows(prob, inst)
            for ip in others:
                lift.block_rows(prob, inst, ip)
        # linear precision of the product coordinates over all vertex tuples
        sum_rows(S, tags, ("unit", "lp", "lpy"))
        # facial aggregation: gamma^{S,s} sums the products over the selected
        # faces' vertex tuples; summing over selections must reproduce
        # (1; x; y) -- with L >= 0 this forces every face-inconsistent
        # product to zero (the substituted face-definition rows are the
        # identically-zero annihilation products and are omitted)
        fc = set()
        for s in _selections(inst, S):
            fc.update(itertools.product(*[Es[i][si] for i, si in zip(S, s)]))
        sum_rows(S, sorted(fc), ("fcsum", "fcx", "fcy"))

    # cross-subset consistency: summing out block l1 of S' u {l1} equals
    # summing out block l2 of S' u {l2} for every (k-1)-subset S'
    for Sp in itertools.combinations(range(inst.np), k - 1):
        rest = [i for i in range(inst.np) if i not in Sp]
        in_sp = {j for i in Sp for j in range(*inst.block_slice(i))}
        for l1, l2 in itertools.combinations(rest, 2):
            S1 = tuple(sorted(Sp + (l1,)))
            S2 = tuple(sorted(Sp + (l2,)))
            p1 = S1.index(l1)
            p2 = S2.index(l2)
            for rp in itertools.product(*[range(len(verts[i])) for i in Sp]):
                def diff(term, rp=rp):
                    """lin(term summed over block l1 of S1) minus the same
                    over block l2 of S2; term(S, r) gives (variable, scale)."""
                    coeffs: Dict[str, Fraction] = {}
                    for S, pos, sign in ((S1, p1, ONE), (S2, p2, -ONE)):
                        for v in range(len(verts[S[pos]])):
                            name, scale = term(S, rp[:pos] + (v,) + rp[pos:])
                            if scale:
                                coeffs[name] = coeffs.get(name, ZERO) + sign * scale
                    return coeffs

                # lin(prod_{S'} lambda) both ways
                prob.add_row(diff(lambda S, r: (f"L[{S},{r}]", ONE)), "=", ZERO,
                             name=f"cons[{Sp},{rp},{l1},{l2}]",
                             tag=("cons", Sp, rp, l1, l2))
                # lifted with x_j for blocks outside both subsets and
                # for the summed-out blocks themselves
                for j in range(n):
                    if j in in_sp:
                        continue  # constant multiples of the L rows above
                    coeffs = diff(lambda S, r, j=j: lam_x_coeff(S, r, j))
                    if coeffs:
                        prob.add_row(coeffs, "=", ZERO,
                                     name=f"consx[{Sp},{rp},{l1},{l2},{j}]",
                                     tag=("consx", Sp, rp, l1, l2, j))
                for l in range(ny):
                    prob.add_row(diff(lambda S, r, l=l: (f"W{l}[{S},{r}]", ONE)), "=", ZERO,
                                 name=f"consy[{Sp},{rp},{l1},{l2},{l}]",
                                 tag=("consy", Sp, rp, l1, l2, l))
    return prob


