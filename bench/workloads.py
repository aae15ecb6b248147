"""The three fixed job lists and the checks of their outputs.

A job is one ``barydd`` CLI command.  Its output is its exit code, its
standard output and the bytes of the artifact files it writes.  Each
workload checks the outputs against the oracles in ``oracles.py`` and counts
the size of its exact output (``out_terms``).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import oracles
from inputs import Inputs


@dataclass
class Job:
    name: str
    argv: List[str]
    artifacts: List[str] = field(default_factory=list)


@dataclass
class Output:
    rc: Optional[int]
    stdout: str
    artifacts: Dict[str, bytes]
    error: str = ""

    def same_as(self, other: "Output") -> bool:
        return (self.rc, self.stdout, self.artifacts) == (other.rc, other.stdout, other.artifacts)


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _value(text: str) -> Optional[Fraction]:
    """A printed LP value; None stands for 'unbounded' (minus infinity)."""
    text = text.strip()
    if text == "unbounded":
        return None
    return Fraction(text)


def _not_above(v: Optional[Fraction], bound: Optional[Fraction]) -> bool:
    if v is None:
        return True
    return bound is not None and v <= bound


# --------------------------------------------------------------------------
# coords: dd --prune --out on boxes and random polytopes
# --------------------------------------------------------------------------


class Coords:
    name = "coords"

    def jobs(self, inputs: Inputs, workdir: str) -> List[Job]:
        out = []
        for name in inputs.files:
            art = os.path.join(workdir, name + ".coords.json")
            out.append(Job(f"dd.{name}", ["dd", inputs.path(name), "--prune", "--out", art], [art]))
        return out

    def check(self, inputs: Inputs, jobs: List[Job], outs: Dict[str, Output], seed: int):
        """Returns ({job: error or ''}, out_terms)."""
        errors, terms = {}, 0
        for job in jobs:
            name = job.name.split(".", 1)[1]
            try:
                o = outs[job.name]
                require(o.rc == 0, f"exit code {o.rc}")
                dump = json.loads(o.artifacts[job.artifacts[0]])
                terms += sum(len(f["num"]) + len(f["den"]) for f in dump["mu"] + dump["theta"])
                self._check_one(inputs.obj(name), dump, random.Random(f"{seed}-{name}"))
                errors[job.name] = ""
            except (CheckFailed, KeyError, ValueError, ZeroDivisionError) as exc:
                errors[job.name] = f"{type(exc).__name__}: {exc}"
        return errors, terms

    @staticmethod
    def _check_one(P, dump: dict, rng: random.Random) -> None:
        require(dump["L"] == [] and dump["theta"] == [], "lineality left in a polytope")
        R = [[Fraction(s) for s in col] for col in dump["R"]]
        require(all(col[0] > 0 for col in R), "a ray column with x0 = 0")
        pts = [tuple(c / col[0] for c in col[1:]) for col in R]
        V = oracles.vertices(P.A, P.b)
        require(sorted(pts) == V, "dehomogenized rays differ from the vertex set")
        for x in oracles.interior_points(V, 3, rng):
            hx = (Fraction(1),) + x
            lam = [oracles.eval_ratfun(f, hx) * col[0] for f, col in zip(dump["mu"], R)]
            require(all(v > 0 for v in lam), "a coordinate is not positive inside")
            require(sum(lam) == 1, "partition of unity")
            for j in range(len(x)):
                require(sum(l * p[j] for l, p in zip(lam, pts)) == x[j], "linear precision")


# --------------------------------------------------------------------------
# bounds: relaxation values on dbp_62 and two 0-1 FDPs
# --------------------------------------------------------------------------


@dataclass
class BoundJob:
    """How to rebuild and judge the LP of a bounds job."""

    inst: str
    kind: str  # hull | ddr | rlt1 | de | fdr | fdr-check
    level: Optional[int] = None
    report: Optional[str] = None


class Bounds:
    name = "bounds"

    def __init__(self):
        self.spec: Dict[str, BoundJob] = {}

    def jobs(self, inputs: Inputs, workdir: str) -> List[Job]:
        d, f2, f3 = inputs.path("dbp62"), inputs.path("fdp2"), inputs.path("fdp3")
        rep_ddr = os.path.join(workdir, "ddr4.report.json")
        rep_fdr = os.path.join(workdir, "fdr2.report.json")
        table = [
            ("dbp62.hull", ["solve", d, "--method", "hull"], BoundJob("dbp62", "hull")),
            # level 1 is below kbar = 2 for dbp_62 and exits 4 by design
            ("dbp62.ddr2", ["solve", d, "--method", "ddr", "--level", "2"], BoundJob("dbp62", "ddr", 2)),
            ("dbp62.ddr4.report", ["solve", d, "--method", "ddr", "--level", "4", "--report", rep_ddr],
             BoundJob("dbp62", "ddr", 4, rep_ddr)),
            ("dbp62.rlt1", ["solve", d, "--method", "rlt1"], BoundJob("dbp62", "rlt1")),
            ("dbp62.de1", ["solve", d, "--method", "de", "--level", "1", "--jobs", "1"], BoundJob("dbp62", "de", 1)),
            ("fdp2.fdr1", ["solve", f2, "--method", "fdr", "--level", "1"], BoundJob("fdp2", "fdr", 1)),
            ("fdp2.fdr2.report", ["solve", f2, "--method", "fdr", "--level", "2", "--report", rep_fdr],
             BoundJob("fdp2", "fdr", 2, rep_fdr)),
            ("fdp2.check2", ["fdr-check", f2, "--level", "2", "--brute"], BoundJob("fdp2", "fdr-check", 2)),
            ("fdp3.fdr1", ["solve", f3, "--method", "fdr", "--level", "1"], BoundJob("fdp3", "fdr", 1)),
        ]
        self.spec = {name: spec for name, _, spec in table}
        return [Job(name, argv, [spec.report] if spec.report else []) for name, argv, spec in table]

    @staticmethod
    def _build(inst_json: dict, spec: BoundJob, level: Optional[int] = None):
        """The LP the CLI solves for this job, from the same public builders."""
        from barydd.facial import FDPInstance, build_fdr_level
        from barydd.relaxation import (
            DBPInstance, build_de_linear, build_hull_lp, build_level_lp, build_rlt_baseline,
        )

        k = level if level is not None else spec.level
        if spec.kind in ("fdr", "fdr-check"):
            return build_fdr_level(FDPInstance.from_json(inst_json), k)
        inst = DBPInstance.from_json(inst_json)
        if spec.kind == "hull":
            return build_hull_lp(inst)
        if spec.kind == "ddr":
            return build_level_lp(inst, k)
        if spec.kind == "rlt1":
            return build_rlt_baseline(inst, "level1_general")
        orders = sorted(itertools.combinations(range(inst.P.m), k))
        return build_de_linear(inst, k, orders, jobs=1).problem

    @staticmethod
    def _judge(prob, value: Optional[Fraction]) -> int:
        """HiGHS agreement; returns the LP's nonzero count."""
        status, v = oracles.highs_solve(prob)
        if value is None:
            require(status == "unbounded", f"exact unbounded, HiGHS {status}")
        else:
            require(status == "optimal", f"exact optimal, HiGHS {status}")
            require(oracles.agrees(value, v), f"value {value} vs HiGHS {v}")
        return sum(len(row.coeffs) for row in prob.rows)

    def check(self, inputs: Inputs, jobs: List[Job], outs: Dict[str, Output], seed: int):
        optimum = {
            "dbp62": oracles.dbp_optimum(inputs.obj("dbp62").to_json()),
            "fdp2": oracles.fdp01_optimum(inputs.obj("fdp2").to_json()),
            "fdp3": oracles.fdp01_optimum(inputs.obj("fdp3").to_json()),
        }
        full_level = {"dbp62": len(inputs.obj("dbp62").P.A), "fdp2": 2, "fdp3": 3}
        errors, terms, values = {}, 0, {}
        for job in jobs:
            spec = self.spec[job.name]
            try:
                o = outs[job.name]
                require(o.rc == 0, f"exit code {o.rc}")
                inst_json = inputs.obj(spec.inst).to_json()
                opt = optimum[spec.inst]
                lines = o.stdout.splitlines()
                if spec.kind == "fdr-check":
                    got = dict(l.split(": ", 1) for l in lines if ": " in l)
                    value = _value(got[f"FDR^{spec.level} value"])
                    require(Fraction(got["disjunctive optimum"]) == opt, "brute-force optimum differs")
                    require(lines[-1] == "PASS exactness", "no PASS exactness line")
                else:
                    value = _value(lines[0])
                values[job.name] = value
                require(_not_above(value, opt), f"value {value} above the optimum {opt}")
                exact = spec.kind == "hull" or spec.level == full_level[spec.inst]
                if exact:
                    require(value == opt, f"value {value} is not the optimum {opt}")
                terms += self._judge(self._build(inst_json, spec), value)
                if spec.report:
                    rep = json.loads(o.artifacts[spec.report])
                    require(_value(rep["value"]) == value, "report value differs from the printed value")
                    prev = None
                    for row in rep.get("gap_table", []):
                        v = _value(row["value"]) if row["status"] == "optimal" else None
                        require(row["status"] in ("optimal", "unbounded"), f"level {row['level']} {row['status']}")
                        require(prev is None or (v is not None and v >= prev), "gap table decreases")
                        prev = v
                        require(_not_above(v, opt), "gap table value above the optimum")
                        terms += self._judge(self._build(inst_json, spec, row["level"]), v)
                    if "gap_table" in rep:
                        require(prev == opt, "last gap table level is not the optimum")
                errors[job.name] = ""
            except (CheckFailed, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
                errors[job.name] = f"{type(exc).__name__}: {exc}"
        # FDR values on one instance do not decrease with the level
        if values.get("fdp2.fdr1") is not None and values.get("fdp2.fdr2.report") is not None:
            if values["fdp2.fdr1"] > values["fdp2.fdr2.report"]:
                errors["fdp2.fdr2.report"] = "FDR level 2 below level 1"
        return errors, terms


# --------------------------------------------------------------------------
# certify: write a certificate with --verify, then read it back with --check
# --------------------------------------------------------------------------


class Certify:
    name = "certify"

    def jobs(self, inputs: Inputs, workdir: str) -> List[Job]:
        out = []
        for name in inputs.files:
            cert = os.path.join(workdir, name + ".cert.json")
            out.append(Job(f"{name}.write", ["certify", inputs.path(name), "--out", cert, "--verify"], [cert]))
            out.append(Job(f"{name}.check", ["certify", inputs.path(name), "--check", cert]))
        return out

    def check(self, inputs: Inputs, jobs: List[Job], outs: Dict[str, Output], seed: int):
        errors, terms = {}, 0
        for job in jobs:
            name, step = job.name.rsplit(".", 1)
            try:
                o = outs[job.name]
                require(o.rc == 0, f"exit code {o.rc}")
                lines = o.stdout.splitlines()
                require(lines and lines[-1] == "PASS", "no PASS line")
                if step == "write":
                    inst = inputs.obj(name).to_json()
                    cert = json.loads(o.artifacts[job.artifacts[0]])
                    delta = Fraction(cert["delta"])
                    require(f"delta = {cert['delta']}" in lines, "printed delta differs from the artifact")
                    require(delta == oracles.dbp_optimum(inst), "delta is not the brute-force optimum")
                    require(all(Fraction(t["weight"]) >= 0 for t in cert["terms"]), "negative weight")
                    require(oracles.certificate_identity_holds(inst, cert), "identity does not hold")
                    terms += len(cert["terms"]) + len(cert["z"])
                errors[job.name] = ""
            except (CheckFailed, KeyError, ValueError, ZeroDivisionError) as exc:
                errors[job.name] = f"{type(exc).__name__}: {exc}"
        return errors, terms


WORKLOADS: Dict[str, Callable] = {"coords": Coords, "bounds": Bounds, "certify": Certify}
