"""Seeded input files for the benchmark workloads.

Every random instance is drawn once from a fixed generator seed (listed in
README.md), so its size and make-up never change.  In the coords and
certify workloads the run seed then relabels the variables of each instance
with a random permutation.  A relabelled instance is a different input file
with the same combinatorial structure, so its cost does not swing with the
seed the way a fresh draw of these sizes does.  The bounds workload uses its
instances verbatim: there the variable order sets the exact simplex's pivot
path, and with it the run time, by up to a factor of two.

Files are written in the JSON formats that ``barydd`` reads: polytopes as
``{"constraints": [{"coeffs", "sense", "rhs"}]}``, bilinear programs (DBPs)
as ``{"Q", "cx", "cy", "c0", "P", "Py"}`` and facial disjunctive programs
(FDPs) as ``{"blocks", "coupling", "objective", "ny"}``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# (n, m) of the random polytopes of the coords workload
COORDS_SIZES = [(2, 6), (2, 8), (3, 6), (3, 7), (3, 8), (4, 7), (4, 8)]
BOX_DIMS = [3, 4, 5]
# (n, m, ny, my) of the random DBPs of the certify workload
CERTIFY_SIZES = (
    [(2, m, 2, my) for m in (4, 5, 6) for my in (4, 5)]
    + [(3, m, 2, 4) for m in (5, 6)]
    + [(2, 5, 3, 5)]
)
# block count -> generator seed of the 0-1 FDPs of the bounds workload
FDP_SEEDS = {2: 2, 3: 8}


@dataclass
class Polytope:
    """Ax <= b with integer data."""

    A: List[List[int]]
    b: List[int]

    def relabel(self, perm: List[int]) -> "Polytope":
        """Variable j of the result is variable perm[j] of self."""
        return Polytope([[row[p] for p in perm] for row in self.A], list(self.b))

    def to_json(self) -> dict:
        return {
            "constraints": [
                {"coeffs": [str(c) for c in row], "sense": "<=", "rhs": str(r)}
                for row, r in zip(self.A, self.b)
            ]
        }


@dataclass
class DBP:
    """min x'Qy + cx.x + cy.y + c0 over x in P, y in Py."""

    Q: List[List[int]]
    cx: List[int]
    cy: List[int]
    c0: int
    P: Polytope
    Py: Polytope

    def relabel(self, px: List[int], py: List[int]) -> "DBP":
        return DBP(
            Q=[[self.Q[i][l] for l in py] for i in px],
            cx=[self.cx[i] for i in px],
            cy=[self.cy[l] for l in py],
            c0=self.c0,
            P=self.P.relabel(px),
            Py=self.Py.relabel(py),
        )

    def to_json(self) -> dict:
        return {
            "Q": [[str(v) for v in row] for row in self.Q],
            "cx": [str(v) for v in self.cx],
            "cy": [str(v) for v in self.cy],
            "c0": str(self.c0),
            "P": self.P.to_json(),
            "Py": self.Py.to_json(),
        }


@dataclass
class FDP01:
    """0-1 FDP: each block is the interval [0, 1] with faces x = 0 and
    x = 1; coupling rows xcoeffs.x + ycoeffs.y <= rhs; minimize
    obj_x.x + obj_y.y."""

    coupling: List[Tuple[List[int], List[int], int]]
    obj_x: List[int]
    obj_y: List[int]

    @property
    def nblocks(self) -> int:
        return len(self.obj_x)

    @property
    def ny(self) -> int:
        return len(self.obj_y)

    def to_json(self) -> dict:
        interval = {"constraints": [
            {"coeffs": ["1"], "sense": "<=", "rhs": "1"},
            {"coeffs": ["-1"], "sense": "<=", "rhs": "0"},
        ]}
        faces = [{"tau": "0", "pi": ["-1"]}, {"tau": "1", "pi": ["1"]}]
        return {
            "blocks": [{"P": interval, "faces": faces} for _ in range(self.nblocks)],
            "coupling": [
                {
                    "x_coeffs": [str(c) for c in xc],
                    "y_coeffs": [str(c) for c in yc],
                    "sense": "<=",
                    "rhs": str(rhs),
                }
                for xc, yc, rhs in self.coupling
            ],
            "objective": {
                "x": [str(c) for c in self.obj_x],
                "y": [str(c) for c in self.obj_y],
                "const": "0",
            },
            "ny": self.ny,
        }


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


def box(n: int) -> Polytope:
    """[0,1]^n with rows -x_i <= 0, then x_i <= 1."""
    A = [[-int(j == i) for j in range(n)] for i in range(n)]
    A += [[int(j == i) for j in range(n)] for i in range(n)]
    return Polytope(A, [0] * n + [1] * n)


def orthant_polytope(n: int, m: int, rng: random.Random) -> Polytope:
    """Rows x >= 0, then m - n rows with coefficients in [1,5] and
    right-hand sides in [5,20]."""
    A = [[-int(j == i) for j in range(n)] for i in range(n)]
    b = [0] * n
    for _ in range(m - n):
        A.append([rng.randint(1, 5) for _ in range(n)])
        b.append(rng.randint(5, 20))
    return Polytope(A, b)


def random_dbp(n: int, m: int, ny: int, my: int) -> DBP:
    """P and Py from orthant_polytope; Q, cx and cy in [-5,5]."""
    rng = random.Random(int(f"{n}{m}{ny}{my}"))
    P = orthant_polytope(n, m, rng)
    Py = orthant_polytope(ny, my, rng)
    Q = [[rng.randint(-5, 5) for _ in range(ny)] for _ in range(n)]
    cx = [rng.randint(-5, 5) for _ in range(n)]
    cy = [rng.randint(-5, 5) for _ in range(ny)]
    return DBP(Q, cx, cy, 0, P, Py)


def zero_one_fdp(nblocks: int, rng: random.Random, ny: int = 1) -> FDP01:
    """Two coupling rows with coefficients in [-2,2] and rhs in [1,4], the
    bounds -1 <= y <= 1, and objective coefficients in [-3,3].  Draws in the
    same order as ``zero_one_instance`` in tests/test_facial.py."""
    coupling = []
    for _ in range(2):
        xc = [rng.randint(-2, 2) for _ in range(nblocks)]
        yc = [rng.randint(-2, 2) for _ in range(ny)]
        coupling.append((xc, yc, rng.randint(1, 4)))
    for l in range(ny):
        e = [int(t == l) for t in range(ny)]
        coupling.append(([0] * nblocks, e, 1))
        coupling.append(([0] * nblocks, [-c for c in e], 1))
    obj_x = [rng.randint(-3, 3) for _ in range(nblocks)]
    obj_y = [rng.randint(-3, 3) for _ in range(ny)]
    return FDP01(coupling, obj_x, obj_y)


def dbp_62() -> DBP:
    """The paper's bilinear example, optimum -360.  Used verbatim."""
    return DBP(
        Q=[[-27, -108], [90, -32]],
        cx=[180, -180],
        cy=[-180, 204],
        c0=0,
        P=Polytope([[-1, 1], [3, -2], [3, 4], [-1, 0]], [2, 6, 15, 0]),
        Py=Polytope([[-1, 1], [3, -2], [3, 4], [-1, 0], [0, -1]], [2, 6, 15, 0, 0]),
    )


# --------------------------------------------------------------------------
# per-workload input sets
# --------------------------------------------------------------------------


@dataclass
class Inputs:
    """Input files of one workload: name -> (path, instance)."""

    files: Dict[str, Tuple[str, object]] = field(default_factory=dict)

    def add(self, workdir: str, name: str, obj) -> None:
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(obj.to_json(), fh, indent=1)
        self.files[name] = (path, obj)

    def path(self, name: str) -> str:
        return self.files[name][0]

    def obj(self, name: str):
        return self.files[name][1]


def _perm(rng: random.Random, n: int) -> List[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def make_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    rng = random.Random(seed)
    out = Inputs()
    if workload == "coords":
        for n in BOX_DIMS:
            out.add(workdir, f"box{n}", box(n).relabel(_perm(rng, n)))
        for n, m in COORDS_SIZES:
            P = orthant_polytope(n, m, random.Random(100 * n + m))
            out.add(workdir, f"poly{n}_{m}", P.relabel(_perm(rng, n)))
    elif workload == "bounds":
        out.add(workdir, "dbp62", dbp_62())
        # used verbatim: the block order sets the exact simplex's pivot path
        for nb, s in FDP_SEEDS.items():
            out.add(workdir, f"fdp{nb}", zero_one_fdp(nb, random.Random(s)))
    elif workload == "certify":
        out.add(workdir, "dbp62", dbp_62())
        for n, m, ny, my in CERTIFY_SIZES:
            d = random_dbp(n, m, ny, my)
            out.add(workdir, f"dbp{n}{m}{ny}{my}", d.relabel(_perm(rng, n), _perm(rng, ny)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out
