"""Relaxation hierarchy for facial disjunctive sets.

A facial disjunctive instance couples block variables x_i, each restricted to
one of several vertex-disjoint faces of its polytope P_i, with free variables
y through linear rows.  The level-k relaxation introduces, per k-subset S of
blocks and per face selection s, an indicator gamma^{S,s} and linearizations
u^{S,s} (of gamma*(1;x)) and w^{S,s} (of gamma*y).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactmath import rat_from_str, rat_to_str
from .lp import LPProblem, lp_solve
from .polyhedra import HPolyhedron, enumerate_vertices_oracle
from .relaxation import CouplingRow

ZERO = Fraction(0)
ONE = Fraction(1)


class FacesShareVertices(ValueError):
    """Assumption violated: two faces of one block share a vertex."""


class InvalidFace(ValueError):
    """A face that does not describe a face of its block: a cut that is not
    valid for the block, a cut that disagrees with the face's vertex list,
    or a vertex list with no supporting block row."""


class CheckedFaces(NamedTuple):
    """Per block: the vertex-index set E_i(j) of each face and each
    face's cut (tau, pi)."""

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
        inst = FDPInstance(
            blocks=blocks,
            coupling=coupling,
            obj_x=tuple(rat_from_str(c) for c in obj["x"]),
            obj_y=tuple(rat_from_str(c) for c in obj["y"]),
            obj_const=rat_from_str(obj.get("const", 0)),
            ny=ny,
        )
        _check_shape(inst)
        return inst


def _check_shape(inst: FDPInstance):
    """Raise ValueError unless every length and sense of ``inst`` fits its
    blocks and ny: each face cut's pi has the block's n entries, each
    coupling row n x-coefficients, ny y-coefficients and a sense '<=', '>='
    or '=', and the objective n x- and ny y-coefficients."""
    n, ny = inst.n, inst.ny
    for i, block in enumerate(inst.blocks):
        for j, face in enumerate(block.faces):
            if face.pi is not None and len(face.pi) != block.P.n:
                raise ValueError(f"face {j} of block {i}: pi must have length {block.P.n}")
    for r, row in enumerate(inst.coupling):
        if len(row.xcoeffs) != n or len(row.ycoeffs) != ny:
            raise ValueError(f"coupling row {r}: x_coeffs must have length {n} and y_coeffs length {ny}")
        if row.sense not in ("<=", ">=", "="):
            raise ValueError(f"coupling row {r}: bad sense {row.sense!r}")
    if len(inst.obj_x) != n or len(inst.obj_y) != ny:
        raise ValueError(f"objective x must have length {n} and y length {ny}")


# --------------------------------------------------------------------------
# vertex sets E_i(j) and the disjointness assumption
# --------------------------------------------------------------------------


def block_vertices(inst: FDPInstance, i: int) -> List[tuple]:
    return enumerate_vertices_oracle(inst.blocks[i].P)


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
    """Each block's E_i(j) sets, from its vertices (one oracle call per
    block) and checked as in ``check_vertex_disjoint``, and its face cuts.
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
    return CheckedFaces(all_sets, _face_cuts(inst, all_verts))


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
