"""Shared fixtures: the worked examples used as golden data throughout."""

import functools
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
import sympy

from barydd import HPolyhedron
from barydd.relaxation import DBPInstance


@pytest.fixture(scope="session")
def poly_51():
    """Simple 3-polytope with 8 vertices; rows ordered x >= 0 first so the
    natural order reproduces the printed coordinates."""
    return HPolyhedron.make(
        A=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 4, 0], [2, 1, 0], [1, 1, 1]],
        b=[0, 0, 0, 2, 2, 3],
    )


@pytest.fixture(scope="session")
def poly_53():
    """x >= 0, x1+4x2+x3 <= 7, 2x1+x2+x3 <= 5, x1+x2+x3 <= 4."""
    return HPolyhedron.make(
        A=[[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 4, 1], [2, 1, 1], [1, 1, 1]],
        b=[0, 0, 0, 7, 5, 4],
    )


@pytest.fixture(scope="session")
def poly_41():
    """3x1-x2>=0, -x1+4x2>=0, 1+10x1-10x2>=0, 1+x1-3x2>=0."""
    return HPolyhedron.make(
        A=[[-3, 1], [1, -4], [-10, 10], [-1, 3]],
        b=[0, 0, 1, 1],
    )


@pytest.fixture(scope="session")
def dbp_62():
    """The bilinear program with optimal value -360."""
    P = HPolyhedron.make([[-1, 1], [3, -2], [3, 4], [-1, 0]], [2, 6, 15, 0])
    Py = HPolyhedron.make(
        [[-1, 1], [3, -2], [3, 4], [-1, 0], [0, -1]], [2, 6, 15, 0, 0]
    )
    return DBPInstance.make(
        Q=[[-27, -108], [90, -32]],
        P=P,
        Py=Py,
        cx=[180, -180],
        cy=[-180, 204],
        c0=0,
    )


def orthant_polytope(n, m, rng):
    """x >= 0, then m - n rows with coefficients in [1, 5] and right-hand
    sides in [5, 20], drawn row by row: the generator of the benchmark's
    random polytopes."""
    A = [[-int(j == i) for j in range(n)] for i in range(n)]
    b = [0] * n
    for _ in range(m - n):
        A.append([rng.randint(1, 5) for _ in range(n)])
        b.append(rng.randint(5, 20))
    return HPolyhedron.make(A, b)


def sympy_rref(rows, ncols=None):
    """The reduced row echelon form of a rational matrix by sympy, the
    reference for ``barydd.linalg``: (rows of Fractions, pivot columns).
    ``ncols`` gives the width of a matrix without rows."""
    ncols = len(rows[0]) if rows else ncols
    red, pivots = sympy.Matrix(len(rows), ncols, [x for row in rows for x in row]).rref()
    return [[F(int(x.p), int(x.q)) for x in red.row(i)] for i in range(red.rows)], list(pivots)


def box_polytope(n):
    """[0,1]^n with rows (-x_i <= 0) then (x_i <= 1)."""
    rows = []
    rhs = []
    for i in range(n):
        row = [F(0)] * n
        row[i] = F(-1)
        rows.append(row)
        rhs.append(F(0))
    for i in range(n):
        row = [F(0)] * n
        row[i] = F(1)
        rows.append(row)
        rhs.append(F(1))
    return HPolyhedron.make(rows, rhs)


@pytest.fixture(scope="session")
def unit_box():
    return box_polytope


def run_optimized(code):
    """Run ``code`` under ``python -O``, which strips ``assert`` statements,
    with this process's import path; return its standard output."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@functools.lru_cache(maxsize=None)
def bench_inputs():
    """``bench/inputs.py``, the generator of the benchmark's input files,
    loaded as a module (it is only read)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("bench_inputs", os.path.join(root, "bench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
