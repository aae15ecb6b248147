"""Command-line surface: barydd dd | solve | certify | fdr-check |
verify-identities.

All numeric output is exact fractions; `solve --approx` appends a decimal
rendering to the value without ever replacing it.  Row orders on the
command line are 1-based to match printed constraint numbering; the Python
API is 0-based.

Exit codes: 0 ok, 2 bad input (a parse error, a file whose top level or
part is not of the expected JSON type, a certificate file with a missing
key, a bad rational (also a zero denominator, exponent notation such as
1e5, or true/false) or a non-integer row index, a --level outside the
method's range, an --init other than default, orthant, phase1 or
partial:R with R in 0..n, a --samples that is not a non-negative integer,
for `solve --method de` an --orders that names no order, a negative
--theta-cap or a --jobs below 1, a violated assumption such as an
unbounded P or Py for `certify` and `solve --method hull` or an x_i >= 0
row that the orthant and partial:R inits need but P does not state, an FDP
face that is not a face of its block for `solve --method fdr` and
`fdr-check` (a cut not valid for the block, a cut that disagrees with the
face's vertex list, or a vertex list with no supporting row), a file that
cannot be read or written), 3 empty interior, 4 level too low (the
message reports the minimum usable level), 5 certificate verification
failure (also a certificate whose variable counts differ from the
instance's, or that names a row index outside the instance's rows).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import __version__
from .dd_engine import (
    EmptyInterior,
    InitPreconditionViolated,
    dd_run,
    ledger_verify,
    prune_redundant,
)
from .exactmath import DenominatorVanishes, RatFun, rat_to_str, rf_equal
from .lp import lp_solve
from .polyhedra import HPolyhedron, NotFullRank, dehomogenize, enumerate_vertices_oracle
from .relaxation import (
    DBPInstance,
    LevelRun,
    LevelTooLow,
    NotBox,
    UnboundedInput,
    build_de_linear,
    build_hull_lp,
    build_level_lp,
    build_rlt_baseline,
    solution_report,
)
from .certify import Certificate, extract_certificate, verify_certificate
from .facial import (
    FDPInstance,
    FacesShareVertices,
    InvalidFace,
    brute_force_fdp,
    build_fdr_level,
    check_vertex_disjoint,
)
from .relaxation import barycentric_for_polytope

EXIT_PARSE = 2
EXIT_EMPTY = 3
EXIT_LEVEL = 4
EXIT_VERIFY = 5

ORDERS_WARN = 64  # all-k-subsets beyond this many orders prints a warning


def _seed() -> int:
    return int(os.environ.get("BARYDD_SEED", "20240801"))


# what a from_json raises on a file of the wrong shape or content
BAD_FILE = (AttributeError, KeyError, TypeError, ValueError)


def _load_json(path: str, what: str) -> dict:
    """The JSON object in ``path``; a file that cannot be read or parsed, or
    whose top level is not an object, exits with EXIT_PARSE."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        print(
            f"parse error in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_PARSE)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    if not isinstance(data, dict):
        print(f"bad {what} file: the top level is not a JSON object", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return data


def _parse_indices(text: str, m: int, what: str) -> tuple:
    """Comma-separated row numbers 1..m, each at most once, as 0-based
    indices; anything else exits with EXIT_PARSE."""
    try:
        idx = tuple(int(t) - 1 for t in text.split(",") if t.strip())
    except ValueError:
        print(f"bad {what} {text!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    if any(i < 0 or i >= m for i in idx):
        print(f"{what} indices must be in 1..{m}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    if len(set(idx)) != len(idx):
        print(f"{what} repeats a row in {text!r}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return idx


def _parse_order(text: Optional[str], m: int) -> Optional[List[int]]:
    if text is None:
        return None
    return list(_parse_indices(text.replace(";", ","), m, "--order"))


def _parse_orders(text: str, m: int, k: int) -> List[tuple]:
    if text == "all-k-subsets":
        # a subset is an unordered choice; use ascending representatives
        orders = sorted(tuple(c) for c in itertools.combinations(range(m), k))
        if len(orders) > ORDERS_WARN:
            print(
                f"warning: all-k-subsets expands to {len(orders)} orders",
                file=sys.stderr,
            )
        return orders
    out = [_parse_indices(block, m, "--orders") for block in text.split(";") if block.strip()]
    if not out:
        print(f"bad --orders {text!r}: no order given", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    for o in out:
        if len(o) != k:
            print(f"bad order {o} (need length {k})", file=sys.stderr)
            raise SystemExit(EXIT_PARSE)
    return out


def _parse_int(text: str, what: str, lo: int, hi: Optional[int] = None) -> int:
    """An integer in lo..hi (no upper bound when hi is None); anything else
    exits with EXIT_PARSE."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < lo or (hi is not None and value > hi):
        want = f"in {lo}..{hi}" if hi is not None else f"of at least {lo}"
        print(f"bad {what} {text!r}: must be an integer {want}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return value


def _parse_init(text: str, n: int) -> tuple:
    """--init as (mode, varrho) for ``dd_run``: default, orthant, phase1 or
    partial:R with R in 0..n; anything else exits with EXIT_PARSE."""
    if text in ("default", "orthant", "phase1"):
        return text, None
    if text.startswith("partial:"):
        return "partial_orthant", _parse_int(text[len("partial:"):], "--init partial:R", 0, n)
    print(f"bad --init {text!r}: must be default, orthant, partial:R or phase1", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _check_range(value: int, what: str, lo: int, hi: Optional[int] = None) -> int:
    """value if it lies in lo..hi (no upper bound when hi is None);
    otherwise exits with EXIT_PARSE."""
    if value < lo or (hi is not None and value > hi):
        want = f"in {lo}..{hi}" if hi is not None else f"at least {lo}"
        print(f"{what} {value} is out of range: must be {want}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return value


def _write_artifact(path: str, payload: dict):
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _manifest(command: str, input_path: str, options: dict, artifacts: List[str], t0: float) -> dict:
    import hashlib  # here, not at the top: it adds about 3.6 MB of RSS to every run

    with open(input_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "command": command,
        "input": input_path,
        "input_sha256": digest,
        "options": options,
        "artifacts": artifacts,
        "wall_time_s": round(time.time() - t0, 6),
        "version": __version__,
    }


def _maybe_approx(value: Fraction, approx: bool) -> str:
    s = rat_to_str(value)
    if approx and value.denominator != 1:
        s += f" (~{float(value):.9g})"
    return s


# --------------------------------------------------------------------------
# dd
# --------------------------------------------------------------------------


def cmd_dd(args) -> int:
    t0 = time.time()
    data = _load_json(args.input, "polytope")
    try:
        P = HPolyhedron.from_json(data)
    except BAD_FILE as exc:
        print(f"bad polytope file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    order = _parse_order(args.order, P.m)
    init, varrho = _parse_init(args.init, P.n)
    try:
        run = dd_run(P, order=order, prune=args.prune, init=init, varrho=varrho)
    except EmptyInterior as exc:
        print(f"empty interior: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except InitPreconditionViolated as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_PARSE
    st = run.final
    dump = {
        "order": [i + 1 for i in run.order],
        "R": [[rat_to_str(x) for x in col] for col in st.R],
        "L": [[rat_to_str(x) for x in col] for col in st.L],
        "mu": [f.to_json() for f in st.mu],
        "theta": [f.to_json() for f in st.theta],
        "ledger": [e.to_json() for e in run.entries],
        "implied_zero": [iz.name for iz in st.implied_zero],
        "E": [i + 1 for i in st.E],
    }
    if args.out:
        _write_artifact(args.out, dump)
        _write_artifact(
            args.out + ".manifest.json",
            _manifest(
                "dd",
                args.input,
                {"order": args.order, "init": args.init, "prune": args.prune},
                [args.out],
                t0,
            ),
        )
    print("order:", ",".join(str(i + 1) for i in run.order))
    print(f"columns: {st.p} rays, {st.q} lineality")
    if not args.out:
        json.dump(dump, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


def cmd_solve(args) -> int:
    t0 = time.time()
    data = _load_json(args.input, "instance")
    method = args.method
    try:
        if method == "fdr":
            inst = FDPInstance.from_json(data)
        else:
            inst = DBPInstance.from_json(data)
    except BAD_FILE as exc:
        print(f"bad instance file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if method == "hull":
            prob = build_hull_lp(inst)
        elif method == "ddr":
            order = _parse_order(args.order, inst.P.m)
            k = args.level if args.level is not None else inst.P.m
            _check_range(k, "--level", 0, inst.P.m if order is None else len(order))
            if args.report:
                # one run over the whole order; the gap table builds every
                # level from it
                levels = LevelRun.make(inst, order)
                prob = levels.lp(k)
            else:
                prob = build_level_lp(inst, k, order=order)
        elif method == "de":
            k = _check_range(args.level if args.level is not None else 1, "--level", 1, inst.P.m)
            if args.theta_cap is not None:
                _check_range(args.theta_cap, "--theta-cap", 0)
            _check_range(args.jobs, "--jobs", 1)
            orders = _parse_orders(args.orders or "all-k-subsets", inst.P.m, k)
            model = build_de_linear(
                inst, k, orders, theta_cap=args.theta_cap, jobs=args.jobs
            )
            prob = model.problem
        elif method == "rlt1":
            prob = build_rlt_baseline(inst, "level1_general")
        elif method == "rltbox":
            k = _check_range(args.level if args.level is not None else 1, "--level", 1, inst.n)
            prob = build_rlt_baseline(inst, "box_level_k", k=k)
        elif method == "fdr":
            k = _check_range(args.level if args.level is not None else 1, "--level", 1, inst.np)
            prob = build_fdr_level(inst, k)
        else:
            print(f"unknown method {method}", file=sys.stderr)
            return EXIT_PARSE
    except LevelTooLow as exc:
        print(f"level too low: {exc}", file=sys.stderr)
        return EXIT_LEVEL
    except (FacesShareVertices, NotBox, UnboundedInput) as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidFace as exc:
        print(f"bad instance file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sol = lp_solve(prob)
    if args.report:
        report = solution_report(prob, sol)
        if method == "ddr":
            report["gap_table"] = levels.gap_table(solved={k: sol})
        _write_artifact(args.report, report)
        _write_artifact(
            args.report + ".manifest.json",
            _manifest(
                "solve",
                args.input,
                {
                    "method": method,
                    "level": args.level,
                    "order": args.order,
                    "orders": args.orders,
                    "theta_cap": args.theta_cap,
                },
                [args.report],
                t0,
            ),
        )
    if sol.status == "optimal":
        print(_maybe_approx(sol.value, args.approx))
    else:
        print(sol.status)
    return 0


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------


def cmd_certify(args) -> int:
    t0 = time.time()
    data = _load_json(args.input, "instance")
    try:
        inst = DBPInstance.from_json(data)
    except BAD_FILE as exc:
        print(f"bad instance file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.check:
        try:
            cert = Certificate.from_json(_load_json(args.check, "certificate"))
        except BAD_FILE as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            print(f"bad certificate file: {what}", file=sys.stderr)
            return EXIT_PARSE
    try:
        if args.check:
            res = verify_certificate(inst, cert, seed=_seed())
            print("PASS" if res.ok else f"FAIL: {res.diagnostic}")
            return 0 if res.ok else EXIT_VERIFY
        coords = barycentric_for_polytope(inst.P)
        prob = build_hull_lp(inst, vertices=coords.vertices)
    except (UnboundedInput, NotFullRank) as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sol = lp_solve(prob)
    if sol.status != "optimal":
        print(f"hull LP not optimal: {sol.status}", file=sys.stderr)
        return EXIT_VERIFY
    cert = extract_certificate(inst, sol, coords, hull_problem=prob)
    payload = cert.to_json()
    payload["rendering"] = cert.render(inst).splitlines()
    if args.out:
        _write_artifact(args.out, payload)
        _write_artifact(
            args.out + ".manifest.json",
            _manifest("certify", args.input, {"verify": args.verify}, [args.out], t0),
        )
    print(f"delta = {rat_to_str(cert.delta)}")
    if args.verify:
        res = verify_certificate(inst, cert, seed=_seed(), vertices=coords.vertices)
        residual = res.residual
        print(f"identity residual: {'0' if residual.is_zero() else repr(residual)}")
        print("PASS" if res.ok else f"FAIL: {res.diagnostic}")
        if not res.ok:
            return EXIT_VERIFY
    return 0


# --------------------------------------------------------------------------
# fdr-check
# --------------------------------------------------------------------------


def cmd_fdr_check(args) -> int:
    data = _load_json(args.input, "FDP")
    try:
        inst = FDPInstance.from_json(data)
    except BAD_FILE as exc:
        print(f"bad FDP file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.level is not None:
        _check_range(args.level, "--level", 1, inst.np)
    try:
        sets = check_vertex_disjoint(inst)
    except FacesShareVertices as exc:
        print(f"FAIL assumption: {exc}")
        return 1
    except InvalidFace as exc:
        print(f"bad FDP file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    for i, block_sets in enumerate(sets):
        for j, E in enumerate(block_sets):
            print(f"block {i} face {j}: vertices {list(E)}")
    print("PASS assumption: faces are vertex-disjoint")
    if args.level is not None:
        prob = build_fdr_level(inst, args.level)
        sol = lp_solve(prob)
        val = rat_to_str(sol.value) if sol.status == "optimal" else sol.status
        print(f"FDR^{args.level} value: {val}")
        if args.brute:
            bf = brute_force_fdp(inst)
            print(f"disjunctive optimum: {rat_to_str(bf) if bf is not None else 'infeasible'}")
            if args.level == inst.np and sol.status == "optimal" and bf is not None:
                ok = sol.value == bf
                print("PASS exactness" if ok else "FAIL exactness")
                return 0 if ok else 1
    return 0


# --------------------------------------------------------------------------
# verify-identities
# --------------------------------------------------------------------------


def cmd_verify_identities(args) -> int:
    data = _load_json(args.input, "polytope")
    try:
        P = HPolyhedron.from_json(data)
    except BAD_FILE as exc:
        print(f"bad polytope file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    order = _parse_order(args.order, P.m)
    samples = _parse_int(args.samples, "--samples", 0)
    rng = random.Random(_seed())
    checks = []
    try:
        run = dd_run(P, order=order)
    except EmptyInterior as exc:
        print(f"empty interior: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    st = run.final
    nv = P.n + 1

    # linear precision as a symbolic identity
    ok = True
    for r in range(nv):
        acc = RatFun.const(nv, 0)
        for col, f in zip(st.R, st.mu):
            if col[r]:
                acc = acc + f.scale(col[r])
        for col, f in zip(st.L, st.theta):
            if col[r]:
                acc = acc + f.scale(col[r])
        if not rf_equal(acc, RatFun.variable(nv, r)):
            ok = False
    checks.append(("linear precision (symbolic)", ok))

    ok = all(
        ledger_verify(run.states[i], run.states[i + 1], run.entries[i])
        for i in range(len(run.entries))
    )
    checks.append(("ledger identities", ok))
    checks.append(
        ("D >= 0 in every entry", all(all(all(x >= 0 for x in row) for row in e.D) for e in run.entries))
    )

    ray_steps = sum(1 for e in run.entries if e.case == "ray")
    bound_num = (3**ray_steps + 1) // 2
    bound_den = (3**ray_steps - 1) // 2 if ray_steps else 0
    ok = all(
        m.num.degree() <= bound_num and m.den.degree() <= max(bound_den, 0)
        for m in st.mu
    )
    checks.append(("degree bounds", ok))

    bounded = all(col[0] > 0 for col in st.R) and st.q == 0
    if bounded:
        pruned = prune_redundant(st)
        V, lam = dehomogenize(pruned.R, list(pruned.mu))
        pts = [tuple(c[1:]) for c in V]
        total = RatFun.const(nv, 0)
        for f in lam:
            total = total + f
        checks.append(("partition of unity", rf_equal(total, RatFun.const(nv, 1))))
        oracle = enumerate_vertices_oracle(P)
        checks.append(("pruned set = vertex oracle", sorted(pts) == oracle))
        ok = True
        for j, fj in enumerate(lam):
            for i, pt in enumerate(pts):
                if fj.eval((Fraction(1),) + pt) != (1 if i == j else 0):
                    ok = False
        checks.append(("vertex indicator", ok))
        # interior positivity at sampled points
        ok = True
        for _ in range(samples):
            ws = [Fraction(rng.randint(1, 40)) for _ in pts]
            tot = sum(ws)
            x = tuple(sum(w * p[j] for w, p in zip(ws, pts)) / tot for j in range(P.n))
            for f in lam:
                try:
                    if f.eval((Fraction(1),) + x) <= 0:
                        ok = False
                except DenominatorVanishes:
                    ok = False
        checks.append((f"interior positivity ({samples} samples)", ok))

    width = max(len(name) for name, _ in checks) + 2
    failed = False
    for name, ok in checks:
        print(f"{name:<{width}} {'PASS' if ok else 'FAIL'}")
        failed = failed or not ok
    return 1 if failed else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="barydd", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dd", help="double description with symbolic coordinates")
    p.add_argument("input")
    p.add_argument("--order", help="1-based row order, e.g. 4,5,6,1,2,3")
    p.add_argument(
        "--init",
        default="default",
        help="default | orthant | partial:R | phase1",
    )
    p.add_argument("--prune", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dd)

    p = sub.add_parser("solve", help="build and solve a relaxation")
    p.add_argument("input")
    p.add_argument("--method", required=True,
                   choices=["hull", "ddr", "de", "rlt1", "rltbox", "fdr"])
    p.add_argument("--level", type=int)
    p.add_argument("--order", help="1-based row order for ddr")
    p.add_argument("--orders", help="semicolon-separated 1-based orders, or all-k-subsets")
    p.add_argument("--theta-cap", type=int, dest="theta_cap")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report")
    p.add_argument("--approx", action="store_true",
                   help="append a decimal rendering to the value")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="extract / verify an optimality certificate")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--check", help="verify an existing certificate file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("fdr-check", help="check facial-disjunctive assumptions")
    p.add_argument("input")
    p.add_argument("--level", type=int)
    p.add_argument("--brute", action="store_true")
    p.set_defaults(func=cmd_fdr_check)

    p = sub.add_parser("verify-identities", help="run the invariant suite on a polytope")
    p.add_argument("input")
    p.add_argument("--order")
    p.add_argument("--samples", default="20")
    p.set_defaults(func=cmd_verify_identities)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except LevelTooLow as exc:
        print(f"level too low: {exc}", file=sys.stderr)
        return EXIT_LEVEL
    except EmptyInterior as exc:
        print(f"empty interior: {exc}", file=sys.stderr)
        return EXIT_EMPTY


if __name__ == "__main__":
    raise SystemExit(main())
