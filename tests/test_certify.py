"""Certificate extraction and exact verification."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from barydd import HPolyhedron, NotFullRank, certify, cli, enumerate_vertices_oracle
from barydd.certify import (
    Certificate,
    CertificateStructureError,
    CertTerm,
    OrderMismatch,
    extract_certificate,
    verify_certificate,
)
from barydd.exactmath import Poly
from barydd.lp import lp_solve
from barydd.relaxation import (
    DBPInstance,
    barycentric_for_polytope,
    build_hull_lp,
)
from closed_forms import identity_rhs, objective_poly
from conftest import bench_inputs, box_polytope, orthant_polytope, run_optimized, sympy_rref


def certified(inst):
    coords = barycentric_for_polytope(inst.P)
    prob = build_hull_lp(inst, vertices=coords.vertices)
    sol = lp_solve(prob)
    assert sol.status == "optimal"
    cert = extract_certificate(inst, sol, coords, hull_problem=prob)
    return cert, sol


class TestGolden62:
    def test_delta_and_z(self, dbp_62):
        cert, _ = certified(dbp_62)
        assert cert.delta == -360
        want = Poly.affine(4, 150, [33, -40, 0, 0])
        scale = cert.zpoly.exact_div(want)
        assert scale is not None and scale.is_constant()
        assert scale.constant_value() > 0

    def test_weights(self, dbp_62):
        cert, _ = certified(dbp_62)
        assert sorted(t.weight for t in cert.terms) == [140, 300, 441, 756]
        assert all(t.yfactor is not None for t in cert.terms)
        assert all(len(t.pfactors) == 2 for t in cert.terms)

    def test_verifies(self, dbp_62):
        cert, _ = certified(dbp_62)
        res = verify_certificate(dbp_62, cert)
        assert res.ok, res.diagnostic

    def test_identity_exact(self, dbp_62):
        cert, _ = certified(dbp_62)
        nv = cert.n + cert.ny
        lhs = cert.zpoly * (objective_poly(dbp_62) - Poly.const(nv, cert.delta))
        assert lhs == identity_rhs(dbp_62, cert)

    def test_json_roundtrip(self, dbp_62):
        cert, _ = certified(dbp_62)
        back = Certificate.from_json(cert.to_json())
        assert verify_certificate(dbp_62, back).ok

    def test_render_mentions_delta(self, dbp_62):
        cert, _ = certified(dbp_62)
        assert "-360" in cert.render(dbp_62)


class TestTampering:
    def test_negated_weight(self, dbp_62):
        cert, _ = certified(dbp_62)
        cert.terms[0] = CertTerm(
            -cert.terms[0].weight, cert.terms[0].pfactors, cert.terms[0].yfactor
        )
        res = verify_certificate(dbp_62, cert)
        assert not res.ok and res.diagnostic == "negative weight"

    def test_shifted_delta(self, dbp_62):
        cert, _ = certified(dbp_62)
        cert.delta = cert.delta + 1
        res = verify_certificate(dbp_62, cert)
        assert not res.ok and res.diagnostic == "identity residual nonzero"

    def test_dropped_term(self, dbp_62):
        cert, _ = certified(dbp_62)
        cert.terms = cert.terms[1:]
        assert not verify_certificate(dbp_62, cert).ok

    def test_missing_simplex_row_survives_optimize_flag(self):
        code = (
            "from barydd import HPolyhedron, lp_solve\n"
            "from barydd.certify import CertificateStructureError, extract_certificate\n"
            "from barydd.relaxation import DBPInstance, barycentric_for_polytope, build_hull_lp\n"
            "I = HPolyhedron.make([[-1], [1]], [0, 1])\n"
            "inst = DBPInstance.make(Q=[[1]], P=I, Py=I, cx=[0], cy=[0], c0=0)\n"
            "coords = barycentric_for_polytope(inst.P)\n"
            "prob = build_hull_lp(inst, vertices=coords.vertices)\n"
            "sol = lp_solve(prob)\n"
            "for row in prob.rows:\n"
            "    if row.tag == ('simplex',):\n        row.tag = None\n"
            "try:\n    extract_certificate(inst, sol, coords, hull_problem=prob)\n"
            "except CertificateStructureError:\n    print('raised')\n"
        )
        assert run_optimized(code) == "raised"


class TestCliVerify:
    """``certify --verify`` prints the residual that verify_certificate
    computed: the same text as expanding the identity once more."""

    @pytest.mark.parametrize(
        "tamper, diagnostic",
        [
            (lambda c: None, None),
            (lambda c: setattr(c, "terms", [
                CertTerm(-t.weight, t.pfactors, t.yfactor) if i == 0 else t
                for i, t in enumerate(c.terms)
            ]), "negative weight"),
            (lambda c: setattr(c, "terms", c.terms[1:]), "identity residual nonzero"),
        ],
        ids=["pass", "negative_weight", "dropped_term"],
    )
    def test_residual_line(self, dbp_62, tmp_path, monkeypatch, capsys, tamper, diagnostic):
        path = tmp_path / "dbp62.json"
        path.write_text(json.dumps(dbp_62.to_json()))

        def extract(*args, **kwargs):
            cert = extract_certificate(*args, **kwargs)
            tamper(cert)
            return cert

        monkeypatch.setattr(cli, "extract_certificate", extract)
        rc = cli.main(["certify", str(path), "--verify"])
        cert, _ = certified(dbp_62)
        tamper(cert)
        nv = cert.n + cert.ny
        residual = cert.zpoly * (
            objective_poly(dbp_62) - Poly.const(nv, cert.delta)
        ) - identity_rhs(dbp_62, cert)
        shown = "0" if residual.is_zero() else repr(residual)
        verdict = "PASS" if diagnostic is None else f"FAIL: {diagnostic}"
        assert capsys.readouterr().out == f"delta = -360\nidentity residual: {shown}\n{verdict}\n"
        assert rc == (0 if diagnostic is None else cli.EXIT_VERIFY)

    def test_constant_first_row(self, dbp_62, tmp_path):
        # a constant row expression divides every polynomial: first in P's
        # rows, it kept the greedy factorization from ever finishing
        data = dbp_62.to_json()
        data["P"]["constraints"].insert(0, {"coeffs": ["0", "0"], "sense": "<=", "rhs": "2"})
        path = tmp_path / "zero_row.json"
        path.write_text(json.dumps(data))
        out = subprocess.run(
            [sys.executable, "-m", "barydd.cli", "certify", str(path), "--verify"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == "delta = -360\nidentity residual: 0\nPASS\n"


class TestOracleCalls:
    """``certify --out --verify`` enumerates P's vertices once: the
    verification reuses the vertex list of the coordinates.  ``--check``,
    which has no coordinates, runs the oracle itself.  The coordinates prove
    P bounded, so only Py gets a recession-ray LP, and DD makes one step per
    facet row of P."""

    @staticmethod
    def count_oracle(monkeypatch):
        from barydd import polyhedra, relaxation

        calls = []
        real = polyhedra.enumerate_vertices_oracle

        def counted(P):
            calls.append(P)
            return real(P)

        monkeypatch.setattr(polyhedra, "enumerate_vertices_oracle", counted)
        monkeypatch.setattr(relaxation, "enumerate_vertices_oracle", counted)
        monkeypatch.setattr(certify, "enumerate_vertices_oracle", counted)
        return calls

    def test_one_call_per_job(self, dbp_62, tmp_path, monkeypatch, capsys):
        inp = tmp_path / "dbp62.json"
        inp.write_text(json.dumps(dbp_62.to_json()))
        out = tmp_path / "cert.json"
        calls = self.count_oracle(monkeypatch)
        assert cli.main(["certify", str(inp), "--out", str(out), "--verify"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.endswith("identity residual: 0\nPASS\n")
        calls.clear()
        assert cli.main(["certify", str(inp), "--check", str(out)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == "PASS\n"

    def test_one_recession_lp_and_a_step_per_facet(self, dbp_62, tmp_path, monkeypatch, capsys):
        from barydd import dd_engine, polyhedra

        data = dbp_62.to_json()
        # x1 <= 100 between the facet rows: redundant
        data["P"]["constraints"].insert(2, {"coeffs": ["1", "0"], "sense": "<=", "rhs": "100"})
        inp = tmp_path / "dbp62.json"
        inp.write_text(json.dumps(data))
        out = tmp_path / "cert.json"
        oracle = self.count_oracle(monkeypatch)
        rays, steps = [], []
        real_ray, real_step = polyhedra.recession_ray, dd_engine.dd_step
        monkeypatch.setattr(polyhedra, "recession_ray", lambda P: rays.append(P) or real_ray(P))
        monkeypatch.setattr(dd_engine, "dd_step", lambda st, row: steps.append(row) or real_step(st, row))
        assert cli.main(["certify", str(inp), "--out", str(out), "--verify"]) == 0
        assert capsys.readouterr().out == "delta = -360\nidentity residual: 0\nPASS\n"
        assert len(oracle) == 1
        assert rays == [dbp_62.Py]
        assert steps == [0, 1, 3, 4]
        oracle.clear()
        rays.clear()
        steps.clear()
        assert cli.main(["certify", str(inp), "--check", str(out)]) == 0
        assert (len(oracle), rays, steps) == (1, [], [])

    def test_given_vertices_same_result(self, dbp_62):
        cert, _ = certified(dbp_62)
        verts = enumerate_vertices_oracle(dbp_62.P)
        for tamper in (None, lambda c: setattr(c, "delta", c.delta + 1)):
            if tamper:
                tamper(cert)
            a = verify_certificate(dbp_62, cert)
            b = verify_certificate(dbp_62, cert, vertices=verts)
            assert (a.ok, a.diagnostic, a.residual) == (b.ok, b.diagnostic, b.residual)


class TestDegenerate:
    def test_zero_Q_constant_z(self, dbp_62):
        inst = DBPInstance.make(
            Q=[[0, 0], [0, 0]], P=dbp_62.P, Py=dbp_62.Py, cx=[1, 2], cy=[1, 0]
        )
        cert, sol = certified(inst)
        res = verify_certificate(inst, cert)
        assert res.ok, res.diagnostic
        # P is simple so the minimal coordinates are affine-free rational
        # functions with a common linear denominator; z can be any positive
        # multiple of it (a constant when everything cancels)
        assert cert.delta == sol.value


def random_2x2_instance(rng):
    while True:
        A = [[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        b = [F(rng.randint(1, 4)) for _ in range(2)]
        for i in range(2):
            row = [F(0)] * 2
            row[i] = F(1)
            A.append(row[:])
            b.append(F(rng.randint(1, 3)))
            row = [F(0)] * 2
            row[i] = F(-1)
            A.append(row)
            b.append(F(rng.randint(0, 2)))
        P = HPolyhedron.make(A[:], b[:])
        try:
            verts = enumerate_vertices_oracle(P)
        except NotFullRank:
            continue
        if len(verts) < 3:
            continue
        from barydd.polyhedra import is_bounded

        if not is_bounded(P):
            continue
        return P


class TestRoundTrip:
    def test_random_instances(self, unit_box):
        rng = random.Random(2024)
        done = 0
        while done < 4:
            P = random_2x2_instance(rng)
            Py = random_2x2_instance(rng)
            Q = [[F(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
            inst = DBPInstance.make(Q=Q, P=P, Py=Py)
            try:
                cert, sol = certified(inst)
            except CertificateStructureError:
                continue  # non-simple P falls outside this sweep
            res = verify_certificate(inst, cert)
            assert res.ok, res.diagnostic
            # soundness spot check: obj - delta >= 0 at random feasible pairs
            vx = enumerate_vertices_oracle(P)
            vy = enumerate_vertices_oracle(Py)
            for _ in range(50):
                wx = [F(rng.randint(0, 5)) for _ in vx]
                wy = [F(rng.randint(0, 5)) for _ in vy]
                if sum(wx) == 0 or sum(wy) == 0:
                    continue
                x = tuple(
                    sum(w * v[j] for w, v in zip(wx, vx)) / sum(wx) for j in range(2)
                )
                y = tuple(
                    sum(w * v[j] for w, v in zip(wy, vy)) / sum(wy) for j in range(2)
                )
                assert objective_poly(inst).eval(x + y) - cert.delta >= 0
            done += 1

    def test_degree_conformance(self, dbp_62):
        cert, _ = certified(dbp_62)
        m, n = dbp_62.P.m, dbp_62.P.n
        assert cert.zpoly.degree() <= (3 ** (m - n) - 1) // 2


class TestOrderMismatch:
    def test_wrong_columns(self, dbp_62):
        coords = barycentric_for_polytope(dbp_62.P)
        prob = build_hull_lp(dbp_62, vertices=coords.vertices[:-1])
        sol = lp_solve(prob)
        with pytest.raises(OrderMismatch):
            extract_certificate(dbp_62, sol, coords, hull_problem=prob)


def certify_sweep():
    """Four random 2x2 DBPs whose certificate extraction succeeds."""
    rng = random.Random(2024)
    out = []
    while len(out) < 4:
        P, Py = random_2x2_instance(rng), random_2x2_instance(rng)
        Q = [[F(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        inst = DBPInstance.make(Q=Q, P=P, Py=Py)
        try:
            certified(inst)
        except CertificateStructureError:
            continue
        out.append(inst)
    return out


def py_row_expr(inst, r):
    """b_r - A_r.y as a Poly over (x1..xn, y1..yny)."""
    return Poly.affine(
        inst.n + inst.ny, inst.Py.b[r], [F(0)] * inst.n + [-a for a in inst.Py.A[r]]
    )


class TestCheaperPipeline:
    """The certificate pipeline against the Fraction formulas and
    per-term loops it replaces."""

    def test_interior_points_match_fraction_formula(self, monkeypatch):
        def reference(verts, n, count, seed):
            rng = random.Random(seed)
            pts = []
            for _ in range(count):
                ws = [F(rng.randint(1, 50)) for _ in verts]
                tot = sum(ws)
                pts.append(tuple(sum(w * v[j] for w, v in zip(ws, verts)) / tot for j in range(n)))
            return pts

        rng = random.Random(3)
        for trial in range(60):
            n = rng.randint(1, 4)
            verts = [
                tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
                for _ in range(rng.randint(1, 7))
            ]
            seed = rng.randrange(10**6)
            monkeypatch.setattr(certify, "INTERIOR_SEED", seed)
            assert certify.interior_points(verts, n, 20) == reference(verts, n, 20, seed)

    def test_extract_factors_each_vertex_once(self, dbp_62, monkeypatch):
        real = certify._factor_into_products
        for inst in [dbp_62] + certify_sweep():
            coords = barycentric_for_polytope(inst.P)
            prob = build_hull_lp(inst, vertices=coords.vertices)
            sol = lp_solve(prob)
            # the reference: factor z * lambda_i again for every dual
            delta, S, gamma = certify._hull_duals(sol, prob, len(coords.vertices))
            z, zl = certify._weighted_numerators(inst, coords)
            nv = inst.n + inst.ny
            rows = [certify._p_row_expr(inst, i, nv) for i in range(inst.P.m)]
            terms = [CertTerm(s * w, pf, r) for (r, i), s in sorted(S.items())
                     for w, pf in real(zl[i], rows)]
            terms += [CertTerm(gamma[i] * w, pf, None) for i in range(len(zl)) if gamma[i]
                      for w, pf in real(zl[i], rows)]
            want = Certificate(delta=delta, zpoly=z, terms=terms, n=inst.n, ny=inst.ny)

            factored = []

            def counting(poly, row_exprs):
                factored.append(poly)
                return real(poly, row_exprs)

            monkeypatch.setattr(certify, "_factor_into_products", counting)
            cert = extract_certificate(inst, sol, coords, hull_problem=prob)
            monkeypatch.setattr(certify, "_factor_into_products", real)
            used = {i for _, i in S} | {i for i in gamma if gamma[i]}
            assert Counter(factored) == Counter(zl[i] for i in used)
            assert cert == want

    def test_identity_rhs_matches_term_expansion(self, dbp_62):
        def reference(cert, inst):
            nv = cert.n + cert.ny
            rhs = Poly.zero(nv)
            for t in cert.terms:
                p = Poly.const(nv, t.weight)
                for i in t.pfactors:
                    p = p * certify._p_row_expr(inst, i, nv)
                if t.yfactor is not None:
                    p = p * py_row_expr(inst, t.yfactor)
                rhs = rhs + p
            return rhs

        rng = random.Random(9)
        for inst in [dbp_62] + certify_sweep():
            cert, _ = certified(inst)
            assert identity_rhs(inst, cert) == reference(cert, inst)
            # shared, repeated, unsorted and empty products, with and
            # without a Py factor
            cert.terms = [
                CertTerm(
                    F(rng.randint(-5, 5), rng.randint(1, 4)),
                    tuple(rng.randrange(inst.P.m) for _ in range(rng.randint(0, 3))),
                    rng.choice([None] + list(range(inst.Py.m))),
                )
                for _ in range(30)
            ]
            assert identity_rhs(inst, cert) == reference(cert, inst)


# --------------------------------------------------------------------------
# coordinates from P's facet rows only
# --------------------------------------------------------------------------


def value(poly, pt):
    """poly at pt, summed term by term from its exponent dict."""
    total = F(0)
    for expo, c in poly.terms.items():
        term = c
        for x, e in zip(pt, expo):
            term *= x ** e
        total += term
    return total


def tight_rank_facets(P, verts):
    """Rows of P whose tight vertices (1, v) have rank n, duplicates
    included, by sympy's elimination."""
    facets = []
    for i, (row, rhs) in enumerate(zip(P.A, P.b)):
        tight = [[F(1)] + list(v) for v in verts if sum(a * x for a, x in zip(row, v)) == rhs]
        if tight and len(sympy_rref(tight)[1]) == P.n:
            facets.append(i)
    return facets


def polytope_with_redundant_rows(rng, n, kind):
    """x >= 0 and rows with positive coefficients ('bounded'), or n + 1 rows
    through (1, ..., 1) ('apex'); then, each at a random position, redundant
    rows: a loose row, a positive combination of two rows with a larger
    right-hand side, and a scaled duplicate of a row."""
    rows = [([-int(j == i) for j in range(n)], 0) for i in range(n)]
    if kind == "bounded":
        for _ in range(rng.randint(2, 3)):
            rows.append(([rng.randint(1, 4) for _ in range(n)], rng.randint(4, 12)))
    else:
        for _ in range(n + 1):
            row = [rng.randint(1, 3) for _ in range(n)]
            rows.append((row, sum(row)))
    (a, r), (c, s) = rng.sample(rows[n:], 2)
    redundant = [
        ([rng.randint(0, 2) for _ in range(n)], 100),
        ([x + y for x, y in zip(a, c)], r + s + rng.randint(0, 3)),
    ]
    a, r = rng.choice(rows)
    k = rng.randint(1, 3)
    redundant.append(([k * x for x in a], k * r))
    for row in redundant:
        rows.insert(rng.randint(1, len(rows) - 1), row)
    return HPolyhedron.make([row for row, _ in rows], [rhs for _, rhs in rows])


def facet_cases():
    """Seeded 2-D and 3-D cases, and a degenerate 3-D apex (x >= 0 and four
    rows through (1, 1, 1)), once with a duplicate row and once with a
    loose row between its rows.  The facets-first run over every row pays
    for each redundant row it processes, seconds per row on a 3-D apex, so
    the 3-D cases hold few redundant rows."""
    cases = []
    for seed in range(11):
        rng = random.Random(f"facets-{seed}")
        n = 2 if seed < 8 else 3
        kind = "apex" if n == 2 and seed % 4 == 3 else "bounded"
        cases.append((f"{kind}{n}d-{seed}", polytope_with_redundant_rows(rng, n, kind)))
    apex = [([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, -1], 0), ([3, 2, 3], 8),
            ([2, 3, 3], 8), ([1, 1, 3], 5), ([3, 2, 1], 6)]
    for name, row in [("apex3d-duplicate", ([6, 4, 6], 16)), ("apex3d-loose", ([1, 1, 1], 100))]:
        rows = apex[:4] + [row] + apex[4:]
        cases.append((name, HPolyhedron.make([r for r, _ in rows], [b for _, b in rows])))
    return cases


class TestFacetRows:
    """``barycentric_for_polytope`` runs DD over P's facet rows only.  Its
    coordinates are barycentric coordinates of P on the oracle's vertices,
    equal to those of a run over every row with the facet rows first."""

    CASES = facet_cases()

    @pytest.mark.parametrize("name, P", CASES, ids=[c[0] for c in CASES])
    def test_coordinates(self, name, P):
        from barydd import dd_run
        from barydd.dd_engine import prune_redundant
        from barydd.exactmath import rf_equal
        from barydd.polyhedra import dehomogenize

        verts = enumerate_vertices_oracle(P)
        coords = barycentric_for_polytope(P)
        assert coords.vertices == verts
        facets = tight_rank_facets(P, verts)
        # one step per facet: a later row tight at the same vertices, and
        # every redundant row, is skipped
        tight = [frozenset(v for v in verts if sum(a * x for a, x in zip(P.A[i], v)) == P.b[i]) for i in facets]
        assert list(coords.run.order) == [i for k, i in enumerate(facets) if tight[k] not in tight[:k]]
        assert len(coords.run.order) < P.m

        n = P.n
        rng = random.Random(name)
        for j, lam in enumerate(coords.lam):
            for i, v in enumerate(verts):
                assert value(lam.num, (F(1),) + v) == (i == j) * value(lam.den, (F(1),) + v)
        for _ in range(5):
            ws = [F(rng.randint(1, 20)) for _ in verts]
            x = tuple(sum(w * v[j] for w, v in zip(ws, verts)) / sum(ws) for j in range(n))
            vals = [value(lam.num, (F(1),) + x) / value(lam.den, (F(1),) + x) for lam in coords.lam]
            assert all(t > 0 for t in vals)
            assert sum(vals) == 1
            assert tuple(sum(t * v[j] for t, v in zip(vals, verts)) for j in range(n)) == x

        order = facets + [i for i in range(P.m) if i not in facets]
        state = prune_redundant(dd_run(P, order=order).final)
        V, lam = dehomogenize(state.R, list(state.mu))
        by_vertex = {tuple(c[1:]): f for c, f in zip(V, lam)}
        assert sorted(by_vertex) == verts
        for v, f in zip(verts, coords.lam):
            assert rf_equal(f, by_vertex[v])

    def test_apex_in_a_slow_order(self):
        # the 3-D apex with its rows in the order 7,3,5,1,6,4,2, all seven of
        # them facets: a run that prunes only its final state takes over
        # 20 s, one that prunes every state about 1.5 s
        from barydd.exactmath import DenominatorVanishes

        rows = [([3, 2, 1], 6), ([0, 0, -1], 0), ([2, 3, 3], 8), ([-1, 0, 0], 0),
                ([1, 1, 3], 5), ([3, 2, 3], 8), ([0, -1, 0], 0)]
        P = HPolyhedron.make([r for r, _ in rows], [b for _, b in rows])
        verts = enumerate_vertices_oracle(P)
        coords = barycentric_for_polytope(P)
        assert list(coords.run.order) == list(range(7))
        assert len(verts) == 9 and coords.vertices == verts
        # partition of unity (row 0) and linear precision (rows 1..3): the
        # homogeneous coordinates satisfy R mu = (x0; x), checked over the
        # lcm of their denominators: summing the RatFuns takes half a minute
        st = coords.run.final
        common = Counter()
        for f in st.fmu:
            common |= Counter(f.den)
        whole = st.pool.product(list(common.elements()))
        for r in range(4):
            acc = Poly.zero(4)
            for col, f in zip(st.R, st.fmu):
                cofactor = st.pool.product(list((common - Counter(f.den)).elements()))
                acc = acc + (f.num * cofactor).scale(col[r])
            assert acc == Poly.variable(4, r) * whole, r
        # vertex indicators, by the exact limit from the vertex average
        # where a denominator vanishes
        centre = (F(1),) + tuple(sum(v[j] for v in verts) / len(verts) for j in range(3))
        for j, lam in enumerate(coords.lam):
            for i, v in enumerate(verts):
                try:
                    got = lam.eval((F(1),) + v)
                except DenominatorVanishes:
                    got = lam.limit((F(1),) + v, centre)
                assert got == (i == j), (j, v)

    # on the 3-D apex, extraction falls back to the coefficient LP of
    # ``_factor_into_products``, which takes minutes
    CERTIFIED = [c for c in CASES if not c[0].startswith("apex3d")]

    @pytest.mark.parametrize("name, P", CERTIFIED, ids=[c[0] for c in CERTIFIED])
    def test_certify_round_trip(self, name, P, tmp_path, capsys):
        rng = random.Random(name)
        Py = HPolyhedron.make([[-1, 0], [0, -1], [1, 1]], [0, 0, 2])
        Q = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(P.n)]
        inst = DBPInstance.make(Q=Q, P=P, Py=Py, cx=[rng.randint(-3, 3) for _ in range(P.n)])
        best = min(
            objective_poly(inst).eval(x + y)
            for x in enumerate_vertices_oracle(P)
            for y in enumerate_vertices_oracle(Py)
        )
        inp, out = tmp_path / "inst.json", tmp_path / "cert.json"
        inp.write_text(json.dumps(inst.to_json()))
        assert cli.main(["certify", str(inp), "--out", str(out), "--verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"delta = {best}" and lines[-1] == "PASS"
        assert F(json.loads(out.read_text())["delta"]) == best
        assert cli.main(["certify", str(inp), "--check", str(out)]) == 0
        assert capsys.readouterr().out == "PASS\n"


class TestStress:
    """DBPs whose P is one of the DD stress polytopes, which take seconds
    to minutes over every row in the default order and about a second or
    less over their facet rows."""

    CAP_S = 30

    @pytest.mark.parametrize("n, m, seed", [(2, 8, 11208), (3, 9, 309), (3, 10, 310), (4, 9, 409)])
    def test_certifies_within_cap(self, n, m, seed, tmp_path):
        rng = random.Random(seed)
        P = orthant_polytope(n, m, random.Random(seed))
        Py = orthant_polytope(2, 4, random.Random(204))
        Q = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(n)]
        inst = DBPInstance.make(Q=Q, P=P, Py=Py, cx=[rng.randint(-5, 5) for _ in range(n)])
        best = min(
            objective_poly(inst).eval(x + y)
            for x in enumerate_vertices_oracle(P)
            for y in enumerate_vertices_oracle(Py)
        )
        inp = tmp_path / "inst.json"
        inp.write_text(json.dumps(inst.to_json()))
        out = subprocess.run(
            [sys.executable, "-m", "barydd.cli", "certify", str(inp), "--out", str(tmp_path / "c.json"), "--verify"],
            capture_output=True, text=True, timeout=self.CAP_S,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == f"delta = {best}\nidentity residual: 0\nPASS\n"


class TestCertifyErrors:
    """Exit code and stderr line of ``certify`` on a P that has no
    coordinates.  DD runs over every row when P is empty or flat, and the
    oracle's rank error waits for the DD checks, so each error reads as it
    does for a run over every row.  An all-zero row that holds everywhere
    (``zero_row``) is no facet and no error: P certifies, with exit 0."""

    @pytest.mark.parametrize(
        "rows, code, err",
        [
            ([([-1, 0], "<=", 0), ([1, 0], "<=", 1)],
             2, "assumption violated: no n linearly independent rows"),
            ([([-1, 0], "<=", 0), ([0, -1], "<=", 0)],
             2, "assumption violated: polytope has a recession ray; cannot dehomogenize"),
            # vertices (0, 1), (1/2, 1/2), (2, 0) span the plane; -x1 - x2 <= 0
            # is redundant
            ([([-1, 0], "<=", 0), ([0, -1], "<=", 0), ([-1, -1], "<=", 0),
              ([-1, -1], "<=", -1), ([-1, -3], "<=", -2)],
             2, "assumption violated: polytope has a recession ray; cannot dehomogenize"),
            ([([1, 0], "<=", -1), ([-1, 0], "<=", 0), ([0, 1], "<=", 1), ([0, -1], "<=", 0)],
             3, "empty interior: no rays remain after processing row 3"),
            # the '=' row is parsed as rows 2 and 3
            ([([-1, 1], "<=", 2), ([3, -2], "<=", 6), ([3, 4], "=", 15), ([-1, 0], "<=", 0)],
             3, "empty interior: P has no interior point: row 3 holds with equality on all of P"),
            ([([-1, 0], "<=", 0), ([0, -1], "<=", 0), ([0, 0], "<=", 0), ([1, 1], "<=", 1)],
             0, None),
            ([([-1, 0], "<=", 0), ([0, -1], "<=", 0), ([0, 0], "=", 0), ([1, 1], "<=", 1)],
             0, None),
            ([([-1, 0], "<=", 0), ([0, -1], "<=", 0), ([0, 0], "<=", -1), ([1, 1], "<=", 1)],
             3, "empty interior: no rays remain after processing row 3"),
        ],
        ids=["strip", "unbounded", "unbounded_redundant", "empty", "equality_row", "zero_row",
             "zero_equality_row", "violated_zero_row"],
    )
    def test_exit_and_stderr(self, rows, code, err, dbp_62, tmp_path, capsys):
        data = dbp_62.to_json()
        data["P"] = {"constraints": [
            {"coeffs": [str(a) for a in c], "sense": sense, "rhs": str(r)} for c, sense, r in rows
        ]}
        inp = tmp_path / "inst.json"
        inp.write_text(json.dumps(data))
        assert cli.main(["certify", str(inp), "--out", str(tmp_path / "c.json"), "--verify"]) == code
        if err is not None:
            assert capsys.readouterr() == ("", err + "\n")
            return
        inst = DBPInstance.from_json(data)
        best = min(
            objective_poly(inst).eval(x + y)
            for x in enumerate_vertices_oracle(inst.P)
            for y in enumerate_vertices_oracle(inst.Py)
        )
        assert capsys.readouterr() == (f"delta = {best}\nidentity residual: 0\nPASS\n", "")


# --------------------------------------------------------------------------
# the identity by coefficients in y, and z's sign at the vertices
# --------------------------------------------------------------------------


def xy_objective(inst):
    """The objective over (x, y), term by term."""
    nv = inst.n + inst.ny
    p = Poly.const(nv, inst.c0)
    for j in range(inst.n):
        p = p + Poly.variable(nv, j).scale(inst.cx[j])
        for l in range(inst.ny):
            p = p + (Poly.variable(nv, j) * Poly.variable(nv, inst.n + l)).scale(inst.Q[j][l])
    for l in range(inst.ny):
        p = p + Poly.variable(nv, inst.n + l).scale(inst.cy[l])
    return p


def xy_residual(inst, cert):
    """z(x)(obj - delta) - q(x, y) expanded over (x, y): the terms that share
    a product of P rows are summed into one factor, linear in y, before it
    multiplies the product."""
    nv = cert.n + cert.ny
    ysums = {}
    for t in cert.terms:
        y = Poly.const(nv, 1) if t.yfactor is None else py_row_expr(inst, t.yfactor)
        ysums[t.pfactors] = ysums.get(t.pfactors, Poly.zero(nv)) + y.scale(t.weight)
    rhs = Poly.zero(nv)
    for pf, y in ysums.items():
        p = Poly.const(nv, 1)
        for i in pf:
            p = p * certify._p_row_expr(inst, i, nv)
        rhs = rhs + p * y
    return cert.zpoly * (xy_objective(inst) - Poly.const(nv, cert.delta)) - rhs


def bench_certify_instances(seed, workdir):
    """name -> (input path, DBPInstance) of the benchmark's certify workload,
    its files written to ``workdir``."""
    workdir.mkdir(exist_ok=True)
    inputs = bench_inputs().make_inputs("certify", seed, str(workdir))
    out = {}
    for name, (path, _) in inputs.files.items():
        with open(path) as fh:
            out[name] = (path, DBPInstance.from_json(json.load(fh)))
    return out


class TestIdentityByY:
    """``verify_certificate`` compares the identity's coefficients in y,
    each over x alone; its residual is the one expanded over (x, y)."""

    TAMPER = {
        "none": lambda c: None,
        "negated_weight": lambda c: setattr(c, "terms", [CertTerm(-c.terms[0].weight, c.terms[0].pfactors, c.terms[0].yfactor)] + c.terms[1:]),
        "dropped_term": lambda c: setattr(c, "terms", c.terms[1:]),
        "shifted_delta": lambda c: setattr(c, "delta", c.delta + 1),
        "weight_plus_one": lambda c: setattr(c, "terms", [CertTerm(c.terms[-1].weight + 1, c.terms[-1].pfactors, c.terms[-1].yfactor)] + c.terms[:-1]),
    }

    def test_against_xy_expansion(self, dbp_62, tmp_path):
        instances = [dbp_62] + certify_sweep()
        for seed in (1, 7):
            instances += [inst for _, inst in bench_certify_instances(seed, tmp_path / str(seed)).values()]
        for inst in instances:
            cert, _ = certified(inst)
            assert xy_objective(inst) == objective_poly(inst)
            for name, tamper in self.TAMPER.items():
                c = Certificate.from_json(cert.to_json())
                tamper(c)
                want = xy_residual(inst, c)
                zx = c.zpoly.remap(inst.n, range(inst.n))
                obj = inst.objective_in_x()
                obj[0] = obj[0] - Poly.const(inst.n, c.delta)
                by_y = inst.in_xy([zx * o - q for o, q in zip(obj, c.rhs_in_x(inst))])
                assert by_y == want, name
                assert want.is_zero() == (name == "none"), name
                res = verify_certificate(inst, c)
                assert res.residual == want, name
                assert res.ok == (name == "none"), name


class TestExactZSign:
    """z is checked at P's vertices, which is exact for an affine z; a z of
    degree 2 or more also at the seeded interior samples.  The instance has
    a constant objective equal to delta and a certificate without terms, so
    the identity holds for every z: only the sign check decides."""

    # dbp_62's P: vertices (0, -3), (0, 2), (1, 3), (3, 3/2), average (1, 7/8)
    P = HPolyhedron.make([[-1, 1], [3, -2], [3, 4], [-1, 0]], [2, 6, 15, 0])

    def verdict(self, z):
        """The diagnostic, or PASS, for z over x or over (x, y1)."""
        Py = HPolyhedron.make([[-1], [1]], [0, 1])
        inst = DBPInstance.make(Q=[[0], [0]], P=self.P, Py=Py, cx=[0, 0], cy=[0], c0=7)
        zpoly = z if z.nvars == 3 else z.remap(3, [0, 1])
        res = verify_certificate(inst, Certificate(delta=F(7), zpoly=zpoly, terms=[], n=2, ny=1))
        return res.diagnostic if not res.ok else "PASS"

    def samples_and_average(self):
        verts = enumerate_vertices_oracle(self.P)
        return certify.interior_points(verts, 2, 20) + [certify.vertex_average(verts)]

    def test_affine_negative_at_a_vertex(self):
        # x2 + 2: -1 at (0, -3), positive at the average and every sample
        z = Poly.affine(2, 2, [0, 1])
        assert all(z.eval(pt) > 0 for pt in self.samples_and_average())
        assert self.verdict(z) == "z negative at a vertex"

    def test_affine_zero_at_a_vertex(self):
        # x2 + 3 vanishes at (0, -3), a boundary point: z > 0 inside P
        assert self.verdict(Poly.affine(2, 3, [0, 1])) == "PASS"

    @pytest.mark.parametrize("c", [0, -1])
    def test_constant_not_positive(self, c):
        assert self.verdict(Poly.const(2, c)) == "z not positive at the vertex average"

    def test_degree_two_negative_at_a_sample(self):
        # x1 (2 x2 - 1): 0, 0, 5 and 6 at the vertices, 3/4 at the average,
        # negative inside P where x2 < 1/2
        z = Poly.variable(2, 0) * Poly.affine(2, -1, [0, 2])
        verts = enumerate_vertices_oracle(self.P)
        assert all(z.eval(v) >= 0 for v in verts) and z.eval(certify.vertex_average(verts)) > 0
        assert self.verdict(z) == "z not positive at an interior sample"

    def test_degree_two_goes_through_the_samples(self):
        # (x2 + 2)(x1 + 1) is -1 at (0, -3) and positive at every sample:
        # the vertices catch it for every degree of z
        z = Poly.affine(2, 2, [0, 1]) * Poly.affine(2, 1, [1, 0])
        assert all(z.eval(pt) > 0 for pt in self.samples_and_average())
        assert self.verdict(z) == "z negative at a vertex"

    def test_z_over_y_does_not_fit(self):
        # 1 + y1 is positive at every sample with y = 0, but a certificate's
        # z is a function of x
        assert self.verdict(Poly.affine(3, 1, [0, 0, 1])) == "z depends on y"


class TestGoldenBenchmarkCertify:
    """The 20 ``certify`` jobs of the benchmark on seed 1, run in this
    process: exit code, standard output and the SHA-256 of each written
    certificate, as recorded before verification compared coefficients in
    y and checked an affine z at the vertices."""

    # name -> (printed delta, SHA-256 of the .cert.json)
    WRITTEN = {
        "dbp62": ("-360", "8cfc08eb4a2ef8694d3bb8710792d7f07d29a040fa0392a8c867755b4f6d8981"),
        "dbp2424": ("-59/5", "f9842cef808fdd8157184a4efcb4e416772c6960f4e1629658d1d18ff7ee882f"),
        "dbp2425": ("-9", "52d154009a0c31fa73fe2a0ac881e31b1a259faa020f9afa85514278379b4422"),
        "dbp2524": ("-5239/120", "f724f5e4befecf7aa81700acc179de9e0cb01d9e0a01e82ce7226c9f9c659fcd"),
        "dbp2525": ("-765/7", "35b046fade673cea1ad1e97478a8560fbfedd15d5406b81adfa569259358a043"),
        "dbp2624": ("-50", "3329867f177afaeb25277e97fa98333bf525a66d86fcdb85b1489a93b7c1924b"),
        "dbp2625": ("-113/5", "c5aef8bdc1d2104dd85184fce207c376729215bbfca07f2ae01910e805431b7b"),
        "dbp3524": ("-335/2", "1556792736bdd61ae25e990fca88366f82b1dbd9a749251ea408daaf82773da6"),
        "dbp3624": ("-40", "79a5dc39a0ec6892c5039415bcd78284bf81b3d3dbe54c59a8bffda387f8781e"),
        "dbp2535": ("-77", "d3fe3fe4599ddd3aaaa477232fcbadd408cc0207f15ce65c2137682e017e811b"),
    }

    def test_seed_1(self, tmp_path, capsys):
        instances = bench_certify_instances(1, tmp_path)
        assert list(instances) == list(self.WRITTEN)
        for name, (path, _) in instances.items():
            delta, digest = self.WRITTEN[name]
            cert = tmp_path / (name + ".cert.json")
            assert cli.main(["certify", path, "--out", str(cert), "--verify"]) == 0
            assert capsys.readouterr().out == f"delta = {delta}\nidentity residual: 0\nPASS\n"
            assert hashlib.sha256(cert.read_bytes()).hexdigest() == digest, name
            assert cli.main(["certify", path, "--check", str(cert)]) == 0
            assert capsys.readouterr().out == "PASS\n"
