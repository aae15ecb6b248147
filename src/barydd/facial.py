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

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .dd_engine import dd_run, prune_redundant
from .exactmath import Poly, RatFun, rat_from_str, rat_to_str, rf_equal
from .lp import LPProblem, lp_solve
from .polyhedra import HPolyhedron, dehomogenize, enumerate_vertices_oracle
from .relaxation import barycentric_for_polytope, expand_product_factor

ZERO = Fraction(0)
ONE = Fraction(1)


class FacesShareVertices(ValueError):
    """Assumption violated: two faces of one block share a vertex."""


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
class CouplingRow:
    xcoeffs: tuple  # over all block coordinates, concatenated
    ycoeffs: tuple
    sense: str  # '<=' or '='  (cone = non-negative orthant plus equalities)
    rhs: Fraction


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
    verts = block_vertices(inst, i)
    out = []
    for j, face in enumerate(inst.blocks[i].faces):
        from_cut = None
        if face.tau is not None:
            slacks = [
                face.tau - sum(p * v[t] for t, p in enumerate(face.pi))
                for v in verts
            ]
            if any(s < 0 for s in slacks):
                raise ValueError(
                    f"face cut {j} of block {i} is not valid for the block"
                )
            from_cut = tuple(idx for idx, s in enumerate(slacks) if s == 0)
        if face.vertices is not None:
            if from_cut is not None and from_cut != face.vertices:
                raise ValueError(
                    f"face {j} of block {i}: cut and vertex list disagree"
                )
            out.append(face.vertices)
        else:
            out.append(from_cut)
    return out


def check_vertex_disjoint(inst: FDPInstance) -> List[List[Tuple[int, ...]]]:
    """Verify faces of each block are pairwise vertex-disjoint and nonempty;
    returns the E_i(j) sets."""
    all_sets = []
    for i in range(inst.np):
        sets = face_vertex_sets(inst, i)
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
        all_sets.append(sets)
    return all_sets


def _face_cut(inst: FDPInstance, i: int, j: int) -> Tuple[Fraction, tuple]:
    """(tau, pi) for face j of block i; synthesized from the vertex list when
    only that was given (sum of tight rows of the block polytope)."""
    face = inst.blocks[i].faces[j]
    if face.tau is not None:
        return face.tau, face.pi
    P = inst.blocks[i].P
    verts = block_vertices(inst, i)
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


# --------------------------------------------------------------------------
# the level-k relaxation
# --------------------------------------------------------------------------


def _subsets(np_: int, k: int):
    return itertools.combinations(range(np_), k)


def build_fdr_level(inst: FDPInstance, k: int) -> LPProblem:
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


def brute_force_fdp(inst: FDPInstance) -> Optional[Fraction]:
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


# --------------------------------------------------------------------------
# barycentric indicators and the substituted model
# --------------------------------------------------------------------------


@dataclass
class Indicator:
    S: tuple
    s: tuple
    eta: RatFun  # over (x0, all block coordinates)
    vertex_sets: List[Tuple[int, ...]]  # E_i(s_i) for i in S
    lambdas: Dict[int, List[RatFun]]  # block -> per-vertex coordinates


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
    lambdas: Dict[int, List[RatFun]] = {}
    vertex_sets = []
    for ip, face_j in zip(S, s):
        _, lams = _block_coords(inst, ip)
        lambdas[ip] = lams
        E = Es[ip][face_j]
        vertex_sets.append(E)
        part = RatFun.const(nv, 0)
        for r in E:
            part = part + lams[r]
        eta = eta * part
    return Indicator(S=S, s=s, eta=eta, vertex_sets=vertex_sets, lambdas=lambdas)


def substitute_indicators(inst: FDPInstance, k: int) -> LPProblem:
    """The level-k model after substituting barycentric indicators: product
    liftings Lam^S_r over vertex tuples with per-product scaled rows, the
    annihilation of mismatched products, and cross-subset consistency rows
    that make summing out any block give the same lower-level liftings."""
    if not 1 <= k <= inst.np:
        raise ValueError("level must be in 1..n_p")
    Es = check_vertex_disjoint(inst)
    n, ny = inst.n, inst.ny
    verts = [block_vertices(inst, i) for i in range(inst.np)]
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


# --------------------------------------------------------------------------
# mixed 0-1 Sherali-Adams comparison oracle
# --------------------------------------------------------------------------


def sherali_adams_01(
    n: int,
    ny: int,
    rows: Sequence[CouplingRow],
    obj_x: Sequence,
    obj_y: Sequence,
    obj_const,
    k: int,
) -> LPProblem:
    """Level-k Sherali-Adams for a mixed 0-1 LP over x in {0,1}^n: every row
    (and 0 <= x_i <= 1) is multiplied by every product factor x^S (1-x)^S',
    |S u S'| = k, and linearized over multilinear monomial variables."""
    prob = LPProblem(sense="min", name=f"sa{k}")
    monos = [
        tuple(T)
        for size in range(1, min(k + 1, n) + 1)
        for T in itertools.combinations(range(n), size)
    ]
    for l in range(ny):
        prob.add_var(f"y{l}")
    for T in monos:
        prob.add_var(f"X{T}")
    for T in [()] + monos:
        for l in range(ny):
            if T:
                prob.add_var(f"Y{T}_{l}")

    def xv(T):
        return f"X{T}" if T else None

    def yv(T, l):
        return f"Y{T}_{l}" if T else f"y{l}"

    def mono_mul(T, j):
        return tuple(sorted(set(T) | {j}))

    for S0 in itertools.combinations(range(n), min(k, n)):
        for bits in itertools.product([0, 1], repeat=len(S0)):
            S = tuple(t for t, b in zip(S0, bits) if b)
            Sp = tuple(t for t, b in zip(S0, bits) if not b)
            factor = expand_product_factor(S, Sp)
            # factor >= 0
            coeffs: Dict[str, Fraction] = {}
            const = ZERO
            for T, sign in factor:
                v = xv(T)
                if v is None:
                    const += sign
                else:
                    coeffs[v] = coeffs.get(v, ZERO) + sign
            prob.add_row(dict(coeffs), ">=", -const, name=f"f{S},{Sp}")
            # factor * row for every coupling row
            for ridx, row in enumerate(rows):
                rc: Dict[str, Fraction] = {}
                rconst = ZERO
                for T, sign in factor:
                    v = xv(T)
                    if v is None:
                        rconst += sign * row.rhs
                    else:
                        rc[v] = rc.get(v, ZERO) + sign * row.rhs
                    for j, c in enumerate(row.xcoeffs):
                        if c:
                            tv = xv(mono_mul(T, j))
                            rc[tv] = rc.get(tv, ZERO) - sign * c
                    for l, c in enumerate(row.ycoeffs):
                        if c:
                            yvv = yv(T, l)
                            rc[yvv] = rc.get(yvv, ZERO) - sign * c
                sense = ">=" if row.sense == "<=" else "="
                prob.add_row(rc, sense, -rconst, name=f"r{ridx}{S},{Sp}")
    obj: Dict[str, Fraction] = {}
    for j in range(n):
        if Fraction(obj_x[j]):
            obj[f"X{(j,)}"] = obj.get(f"X{(j,)}", ZERO) + Fraction(obj_x[j])
    for l in range(ny):
        if Fraction(obj_y[l]):
            obj[f"y{l}"] = Fraction(obj_y[l])
    prob.objective = obj
    prob.obj_const = Fraction(obj_const)
    return prob
