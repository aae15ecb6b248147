"""Command-line surface: barydd dd | solve | certify | fdr-check |
verify-identities.

All numeric output is exact fractions; `solve --approx` appends a decimal
rendering to the value without ever replacing it.  Row orders on the
command line are 1-based to match printed constraint numbering; the Python
API is 0-based.  `dd --init` picks the start x0 >= 0, x_i >= 0 for
i > R of double description: default is R = n, orthant R = 0 and partial:R
that R; phase1 is the default start over the order with its first
independent rows moved forward.

Exit codes: 0 ok, 1 a failed check of `fdr-check` or `verify-identities`,
2 bad input (a parse error, a file whose top level or part is not of the
expected JSON type, a certificate file with a missing key, a bad rational
(also a zero denominator, exponent notation such as 1e5, true/false, null,
an array or an object) or a non-integer row index, a DBP whose Q is not n x
ny or whose cx or cy does not have length n or ny, an FDP file whose ny
is not a non-negative integer, whose objective x or y, coupling x_coeffs
or y_coeffs or face pi does not have the length of the blocks' total n,
ny or the block's n, or whose coupling row has a sense other than <=, >=
or =, a --level outside the method's range, an --init other than default, orthant, phase1 or partial:R
with R in 0..n, a --samples that is not a non-negative integer, for `solve --method de` an
--orders that names no order, a negative --theta-cap or a --jobs other than 1, a
violated assumption such as an unbounded P or Py for `certify` and `solve
--method hull`, a polytope or FDP block whose rows have rank below n for
`certify`, `solve --method rltbox`, `solve --method fdr` and `fdr-check`, or
an x_i >= 0 row that the orthant and partial:R inits need but P does not
state, an FDP face that is not a face of its block for `solve --method fdr`
and `fdr-check` (a cut not valid for the block, a cut that disagrees with
the face's vertex list, a vertex list that does not hold distinct integers
in 0..|V|-1, |V| the block's vertex count, or a vertex list with no
supporting row), a file that cannot be read or written), 3 empty interior (also a P with no
interior point for `certify` and `solve --method de`), 4 level too low
(the message reports the minimum usable level, or that no step of the
order empties the lineality space), 5 certificate verification failure
(also a certificate whose variable counts differ from the instance's, or
that names a row index outside the instance's rows, and a hull LP that is not
optimal).  Which input error exits with which code and stderr line is
decided in one place, the table EXIT_FOR that `main` consults; codes 1 and
5 are results that the commands print on stdout and return.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from fractions import Fraction
from typing import Callable, List, Optional

from . import __version__
from .dd_engine import (
    EmptyInterior,
    InitPreconditionViolated,
    dd_run,
    ledger_verify,
    linear_precision,
    phase1_order,
    prune_redundant,
)
from .exactmath import DenominatorVanishes, rat_to_str
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
    build_rlt_baseline,
    solution_report,
)
from .certify import Certificate, extract_certificate, interior_points, vertex_average, verify_certificate
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


class BadInput(Exception):
    """Bad input that the CLI itself finds: an option value, or a file that
    cannot be read, parsed or written.  The message is the whole stderr
    line."""


ASSUMPTION = (EXIT_PARSE, "assumption violated: ")

# The one place where an exception becomes an exit code and a stderr line:
# each input error, its exit code and the prefix of its message, where
# {what} is the command's file noun.  Any other exception is a bug and keeps
# its traceback.
EXIT_FOR = {
    BadInput: (EXIT_PARSE, ""),
    LevelTooLow: (EXIT_LEVEL, "level too low: "),
    EmptyInterior: (EXIT_EMPTY, "empty interior: "),
    UnboundedInput: ASSUMPTION,
    NotBox: ASSUMPTION,
    NotFullRank: ASSUMPTION,
    InitPreconditionViolated: ASSUMPTION,
    FacesShareVertices: ASSUMPTION,
    InvalidFace: (EXIT_PARSE, "bad {what} file: "),
}

# what a from_json raises on a file of the wrong shape or content
BAD_FILE = (AttributeError, KeyError, TypeError, ValueError)


def _load(path: str, what: str, parse: Callable[[dict], object]):
    """``parse`` of the JSON object in ``path``.  A file that cannot be read
    or parsed, whose top level is not an object, or that ``parse`` rejects
    raises BadInput naming the file as a ``what`` file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BadInput(f"parse error in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (OSError, UnicodeDecodeError) as exc:
        raise BadInput(f"cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise BadInput(f"bad {what} file: the top level is not a JSON object")
    try:
        return parse(data)
    except BAD_FILE as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise BadInput(f"bad {what} file: {detail}")


def _parse_indices(text: str, m: int, what: str) -> tuple:
    """Comma-separated row numbers 1..m, each at most once, as 0-based
    indices; anything else raises BadInput."""
    try:
        idx = tuple(int(t) - 1 for t in text.split(",") if t.strip())
    except ValueError:
        raise BadInput(f"bad {what} {text!r}")
    if any(i < 0 or i >= m for i in idx):
        raise BadInput(f"{what} indices must be in 1..{m}")
    if len(set(idx)) != len(idx):
        raise BadInput(f"{what} repeats a row in {text!r}")
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
        raise BadInput(f"bad --orders {text!r}: no order given")
    for o in out:
        if len(o) != k:
            raise BadInput(f"bad order {o} (need length {k})")
    return out


def _parse_int(text: str, what: str, lo: int, hi: Optional[int] = None) -> int:
    """An integer in lo..hi (no upper bound when hi is None); anything else
    raises BadInput."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < lo or (hi is not None and value > hi):
        want = f"in {lo}..{hi}" if hi is not None else f"of at least {lo}"
        raise BadInput(f"bad {what} {text!r}: must be an integer {want}")
    return value


def _parse_init(text: str, P: HPolyhedron, order: Optional[List[int]]) -> tuple:
    """--init as (order, varrho) for ``dd_run``: default is varrho = n,
    orthant varrho = 0, partial:R varrho = R with R in 0..n, and phase1 the
    default start over the order with its first independent rows moved
    forward (``phase1_order``); anything else raises BadInput."""
    if text == "phase1":
        return phase1_order(P, order if order is not None else range(P.m)), P.n
    if text in ("default", "orthant"):
        return order, P.n if text == "default" else 0
    if text.startswith("partial:"):
        return order, _parse_int(text[len("partial:"):], "--init partial:R", 0, P.n)
    raise BadInput(f"bad --init {text!r}: must be default, orthant, partial:R or phase1")


def _check_range(value: int, what: str, lo: int, hi: Optional[int] = None) -> int:
    """value if it lies in lo..hi (no upper bound when hi is None);
    otherwise raises BadInput."""
    if value < lo or (hi is not None and value > hi):
        want = f"in {lo}..{hi}" if hi is not None else f"at least {lo}"
        raise BadInput(f"{what} {value} is out of range: must be {want}")
    return value


def _write_artifact(path: str, payload: dict):
    """payload as indented JSON with sorted keys, in one write."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadInput(f"cannot write {path}: {exc}")


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of data, from CPython's built-in module
    (``_sha256`` up to 3.11, ``_sha2`` from 3.12): ``hashlib`` loads
    OpenSSL, about 3.6 MB of RSS.  ``hashlib`` only where neither exists."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _manifest(command: str, input_path: str, options: dict, artifacts: List[str], t0: float) -> dict:
    with open(input_path, "rb") as fh:
        digest = _sha256_hex(fh.read())
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
        s += f" (~{_approx(value)})"
    return s


def _approx(value: Fraction) -> str:
    """The nonzero value to 9 significant digits, rounded half to even and
    printed as ``format(x, ".9g")`` prints a float x.  It is worked out in
    integers, so a value beyond the range of a float prints too."""
    x = abs(value)
    e = len(str(x.numerator)) - len(str(x.denominator))
    if x < Fraction(10) ** e:
        e -= 1  # now 10**e <= x < 10**(e + 1)
    digits = round(x / Fraction(10) ** (e - 8))
    if digits == 10**9:
        digits, e = 10**8, e + 1
    s, sign = str(digits), "-" if value < 0 else ""
    if -4 <= e < 9:  # fixed point, where %g chooses it
        s = "0" * -e + s if e < 0 else s
        whole, frac = s[: max(e, 0) + 1], s[max(e, 0) + 1 :].rstrip("0")
        return sign + whole + ("." + frac if frac else "")
    frac = s[1:].rstrip("0")
    return f"{sign}{s[0]}{'.' + frac if frac else ''}e{e:+03d}"


# --------------------------------------------------------------------------
# dd
# --------------------------------------------------------------------------


def cmd_dd(args) -> int:
    t0 = time.time()
    P = _load(args.input, args.what, HPolyhedron.from_json)
    order, varrho = _parse_init(args.init, P, _parse_order(args.order, P.m))
    run = dd_run(P, order=order, prune=args.prune, varrho=varrho)
    st = run.final
    dump = {
        "order": [i + 1 for i in run.order],
        "R": [[rat_to_str(x) for x in col] for col in st.R],
        "L": [[rat_to_str(x) for x in col] for col in st.L],
        "mu": [f.to_json() for f in st.mu],
        "theta": [f.to_json() for f in st.theta],
        "ledger": [e.to_json() for e in run.entries],
        "implied_zero": [f"mu[{e.k - 1}][{j}]" for e in run.entries for j in e.dropped],
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
    method = args.method
    parse = FDPInstance.from_json if method == "fdr" else DBPInstance.from_json
    inst = _load(args.input, args.what, parse)
    if method == "hull":
        prob = build_hull_lp(inst)
    elif method == "ddr":
        order = _parse_order(args.order, inst.P.m)
        top = inst.P.m if order is None else len(order)
        k = _check_range(args.level if args.level is not None else top, "--level", 0, top)
        # with a report, one run over the whole order: the gap table
        # builds every level from it
        levels = LevelRun.make(inst, order, None if args.report else k)
        prob = levels.lp(k)
    elif method == "de":
        k = _check_range(args.level if args.level is not None else 1, "--level", 1, inst.P.m)
        if args.theta_cap is not None:
            _check_range(args.theta_cap, "--theta-cap", 0)
        _check_range(args.jobs, "--jobs", 1, 1)
        orders = _parse_orders(args.orders or "all-k-subsets", inst.P.m, k)
        prob = build_de_linear(inst, k, orders, theta_cap=args.theta_cap).problem
    elif method == "rlt1":
        prob = build_rlt_baseline(inst, "level1_general")
    elif method == "rltbox":
        k = _check_range(args.level if args.level is not None else 1, "--level", 1, inst.n)
        prob = build_rlt_baseline(inst, "box_level_k", k=k)
    else:  # fdr
        k = _check_range(args.level if args.level is not None else 1, "--level", 1, inst.np)
        prob = build_fdr_level(inst, k)
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
    inst = _load(args.input, args.what, DBPInstance.from_json)
    if args.check:
        res = verify_certificate(inst, _load(args.check, "certificate", Certificate.from_json))
        print("PASS" if res.ok else f"FAIL: {res.diagnostic}")
        return 0 if res.ok else EXIT_VERIFY
    coords = barycentric_for_polytope(inst.P)
    prob = build_hull_lp(inst, vertices=coords.vertices)
    sol = lp_solve(prob)
    if sol.status != "optimal":
        print(f"hull LP not optimal: {sol.status}")
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
        res = verify_certificate(inst, cert, vertices=coords.vertices)
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
    inst = _load(args.input, args.what, FDPInstance.from_json)
    if args.level is not None:
        _check_range(args.level, "--level", 1, inst.np)
    try:
        sets = check_vertex_disjoint(inst)
    except FacesShareVertices as exc:
        print(f"FAIL assumption: {exc}")
        return 1
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
    P = _load(args.input, args.what, HPolyhedron.from_json)
    order = _parse_order(args.order, P.m)
    samples = _parse_int(args.samples, "--samples", 0)
    checks = []
    run = dd_run(P, order=order)
    st = run.final

    # linear precision as a symbolic identity, R mu + L theta = (x0; x),
    # on the stored coordinates
    checks.append(("linear precision (symbolic)", linear_precision(st, range(P.n + 1))))

    # every step's F/G and D relations, each row over one common
    # denominator, and its generator relation
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
        # each mu is homogeneous of degree 1, so the x0 row of linear
        # precision at x0 = 1 says that the lam sum to 1
        checks.append(("partition of unity", linear_precision(pruned, [0])))
        oracle = enumerate_vertices_oracle(P)
        checks.append(("pruned set = vertex oracle", sorted(pts) == oracle))
        # at a vertex where a denominator vanishes, the value is the exact
        # limit along the segment from the vertex average; a pole fails
        centre = (Fraction(1),) + vertex_average(pts)
        ok = True
        for j, fj in enumerate(lam):
            for i, pt in enumerate(pts):
                x = (Fraction(1),) + pt
                try:
                    value = fj.eval(x)
                except DenominatorVanishes:
                    value = fj.limit(x, centre)
                if value != (1 if i == j else 0):
                    ok = False
        checks.append(("vertex indicator", ok))
        # interior positivity at sampled points
        ok = True
        for x in interior_points(pts, P.n, samples):
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later ``main`` call: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="barydd", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dd", help="double description with symbolic coordinates")
    p.add_argument("input")
    p.add_argument("--order", help="1-based row order, e.g. 4,5,6,1,2,3")
    p.add_argument(
        "--init",
        default="default",
        help="default | orthant | partial:R | phase1; phase1 is the default "
        "start over the order with its first independent rows moved forward",
    )
    p.add_argument("--prune", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dd, what="polytope")

    p = sub.add_parser("solve", help="build and solve a relaxation")
    p.add_argument("input")
    p.add_argument("--method", required=True,
                   choices=["hull", "ddr", "de", "rlt1", "rltbox", "fdr"])
    p.add_argument("--level", type=int)
    p.add_argument("--order", help="1-based row order for ddr")
    p.add_argument("--orders", help="semicolon-separated 1-based orders, or all-k-subsets")
    p.add_argument("--theta-cap", type=int, dest="theta_cap")
    p.add_argument("--jobs", type=int, default=1,
                   help="must be 1: the DE orders run in this process")
    p.add_argument("--report")
    p.add_argument("--approx", action="store_true",
                   help="append a decimal rendering to the value")
    p.set_defaults(func=cmd_solve, what="instance")

    p = sub.add_parser("certify", help="extract / verify an optimality certificate")
    p.add_argument("input")
    p.add_argument("--out")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--check", help="verify an existing certificate file")
    p.set_defaults(func=cmd_certify, what="instance")

    p = sub.add_parser("fdr-check", help="check facial-disjunctive assumptions")
    p.add_argument("input")
    p.add_argument("--level", type=int)
    p.add_argument("--brute", action="store_true")
    p.set_defaults(func=cmd_fdr_check, what="FDP")

    p = sub.add_parser("verify-identities", help="run the invariant suite on a polytope")
    p.add_argument("input")
    p.add_argument("--order")
    p.add_argument("--samples", default="20")
    p.set_defaults(func=cmd_verify_identities, what="polytope")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_FOR) as exc:
        code, prefix = next(v for t, v in EXIT_FOR.items() if isinstance(exc, t))
        print(prefix.format(what=args.what) + str(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
