"""barydd: symbolic barycentric coordinates of polyhedra via double
description, exact-rational LP relaxation hierarchies for disjoint bilinear /
affine-convex / facial-disjunctive programs, and algebraic optimality
certificates."""

from .exactmath import (
    DenominatorVanishes,
    DivisionByZeroFunction,
    Poly,
    Rat,
    RatFun,
    rf_combine,
    rf_equal,
    rf_eval,
)
from .polyhedra import (
    HomCone,
    HPolyhedron,
    NotFullRank,
    dehomogenize,
    enumerate_vertices_oracle,
    homogenize,
)
from .dd_engine import (
    DDRun,
    DDState,
    EmptyInterior,
    InitPreconditionViolated,
    LedgerEntry,
    Phase1Basis,
    Phase1BasisError,
    dd_init,
    dd_run,
    dd_step,
    ledger_verify,
    prune_redundant,
)
from .lp import (
    LPProblem,
    LPRow,
    LPSolution,
    LPVerificationError,
    lp_solve,
)

__version__ = "0.1.0"
