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
    NotSimple,
    Phase1Basis,
    Phase1BasisError,
    closed_form_box,
    closed_form_tworow,
    dd_init,
    dd_run,
    dd_step,
    ledger_verify,
    product_coords,
    prune_redundant,
    warren_simple,
)
from .lp import (
    LPProblem,
    LPRow,
    LPSolution,
    LPVerificationError,
    lp_feasible,
    lp_solve,
)

__version__ = "0.1.0"
