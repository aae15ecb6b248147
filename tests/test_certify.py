"""Certificate extraction and exact verification."""

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
from conftest import box_polytope, run_optimized


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
        lhs = cert.zpoly * (dbp_62.objective_poly() - Poly.const(nv, cert.delta))
        assert lhs == cert.identity_rhs(dbp_62)

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
            dbp_62.objective_poly() - Poly.const(nv, cert.delta)
        ) - cert.identity_rhs(dbp_62)
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
    which has no coordinates, runs the oracle itself."""

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
                assert inst.objective_poly().eval(x + y) - cert.delta >= 0
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


class TestCheaperPipeline:
    """The certificate pipeline against the Fraction formulas and
    per-term loops it replaces."""

    def test_interior_points_match_fraction_formula(self):
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
            assert certify._interior_points(verts, n, 20, seed) == reference(verts, n, 20, seed)

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
                    p = p * certify._py_row_expr(inst, t.yfactor, nv)
                rhs = rhs + p
            return rhs

        rng = random.Random(9)
        for inst in [dbp_62] + certify_sweep():
            cert, _ = certified(inst)
            assert cert.identity_rhs(inst) == reference(cert, inst)
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
            assert cert.identity_rhs(inst) == reference(cert, inst)
