"""Per-layer tracing by wrapping public functions of ``barydd`` from outside.

Each wrapped call is a span with a name, a duration and a parent (the
innermost wrapped call it ran under).  A span's self time is its duration
minus the durations of its child spans.  Modules import functions by name
(``from .lp import lp_solve``), so a function is replaced at every module
attribute that is bound to it, not only where it is defined.  Wrappers are
installed only for traced passes and removed afterwards.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# layer -> [(owner, attribute)], owner being a module path or "module:Class"
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "cli": [("barydd.cli", "main")],
    "polyhedra": [
        ("barydd.polyhedra", "enumerate_vertices_oracle"),
        ("barydd.polyhedra", "recession_ray"),
        ("barydd.polyhedra", "is_bounded"),
    ],
    "dd_engine": [
        ("barydd.dd_engine", "dd_run"),
        ("barydd.dd_engine", "dd_step"),
        ("barydd.dd_engine", "prune_redundant"),
    ],
    "exactmath": [
        ("barydd.exactmath:Poly", "__mul__"),
        ("barydd.exactmath:Poly", "exact_div"),
    ],
    "lp": [("barydd.lp", "lp_solve")],
    "relaxation": [
        ("barydd.relaxation", "build_hull_lp"),
        ("barydd.relaxation", "build_level_lp"),
        ("barydd.relaxation", "build_de_linear"),
        ("barydd.relaxation", "build_rlt_baseline"),
        ("barydd.relaxation", "barycentric_for_polytope"),
        ("barydd.relaxation", "gap_table"),
        ("barydd.relaxation", "solve_and_report"),
    ],
    "facial": [
        ("barydd.facial", "build_fdr_level"),
        ("barydd.facial", "check_vertex_disjoint"),
        ("barydd.facial", "brute_force_fdp"),
    ],
    "certify": [
        ("barydd.certify", "extract_certificate"),
        ("barydd.certify", "verify_certificate"),
    ],
}

# every per-layer metric, in output order, with its unit
METRICS: List[Tuple[str, str]] = [
    ("cli.self_s", "s"),
    ("polyhedra.oracle_calls", "count"),
    ("polyhedra.oracle_s", "s"),
    ("dd_engine.runs", "count"),
    ("dd_engine.steps", "count"),
    ("dd_engine.step_s", "s"),
    ("dd_engine.prune_calls", "count"),
    ("dd_engine.prune_self_s", "s"),
    ("dd_engine.rays_max", "count"),
    ("dd_engine.cpr_terms", "count"),
    ("dd_engine.pool_size", "count"),
    ("exactmath.mul_calls", "count"),
    ("exactmath.mul_s", "s"),
    ("exactmath.exact_div_calls", "count"),
    ("exactmath.exact_div_s", "s"),
    ("lp.calls", "count"),
    ("lp.self_s", "s"),
    ("lp.max_call_s", "s"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.nnz", "count"),
    ("relaxation.build_self_s", "s"),
    ("relaxation.builds", "count"),
    ("facial.build_self_s", "s"),
    ("facial.brute_s", "s"),
    ("certify.extract_self_s", "s"),
    ("certify.verify_self_s", "s"),
    ("certify.terms", "count"),
    ("trace.overhead_pct", "%"),
]


class FuncStats:
    __slots__ = ("calls", "total", "self", "max", "parents")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.max = 0.0
        self.parents: Dict[str, int] = defaultdict(int)


class Tracer:
    """Collects spans of one traced pass.  Use as a context manager."""

    def __init__(self):
        self.funcs: Dict[str, FuncStats] = defaultdict(FuncStats)
        self.layer_outer: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # [name, layer, child_time]
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------
    def _wrap(self, name: str, layer: str, fn: Callable, on_call=None, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            h0 = perf_counter()
            if on_call is not None:
                on_call(tracer, args, kwargs)
            frame = [name, layer, 0.0]
            stack.append(frame)
            tracer._depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._depth[layer] -= 1
                dur = t1 - t0
                st = tracer.funcs[name]
                st.calls += 1
                st.total += dur
                st.self += dur - frame[2]
                st.max = max(st.max, dur)
                st.parents[parent[0] if parent else "-"] += 1
                if tracer._depth[layer] == 0:
                    tracer.layer_outer[layer] += dur
                # the parent's self time excludes this span and its hooks
                if parent is not None:
                    parent[2] += t1 - h0
            if on_result is not None:
                h1 = perf_counter()
                on_result(tracer, result)
                if parent is not None:
                    parent[2] += perf_counter() - h1
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------
    def __enter__(self):
        hooks = {
            "lp.lp_solve": (_lp_sizes, None),
            "dd_engine.dd_step": (None, _step_result),
            "dd_engine.dd_run": (None, _run_result),
            "certify.extract_certificate": (None, _cert_result),
        }
        for layer, entries in LAYERS.items():
            for owner_path, attr in entries:
                modname, _, clsname = owner_path.partition(":")
                owner = sys.modules[modname]
                if clsname:
                    owner = getattr(owner, clsname)
                orig = getattr(owner, attr)
                name = f"{layer}.{attr}"
                on_call, on_result = hooks.get(name, (None, None))
                wrapped = self._wrap(name, layer, orig, on_call, on_result)
                if clsname:
                    self._patch(owner, attr, wrapped)
                else:
                    self._patch_everywhere(orig, wrapped)
        return self

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if modname != "barydd" and not modname.startswith("barydd."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, new)

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        return False

    # -- per-layer metrics -----------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        f = self.funcs

        def calls(*names):
            return sum(f[n].calls for n in names if n in f)

        def total(*names):
            return sum(f[n].total for n in names if n in f)

        def self_s(*names):
            return sum(f[n].self for n in names if n in f)

        def layer_names(layer):
            return [f"{layer}.{attr}" for _, attr in LAYERS[layer]]

        rel = layer_names("relaxation")
        fac = [n for n in layer_names("facial") if n != "facial.brute_force_fdp"]
        c = self.counts
        return {
            "cli.self_s": self_s("cli.main"),
            "polyhedra.oracle_calls": calls("polyhedra.enumerate_vertices_oracle"),
            "polyhedra.oracle_s": self.layer_outer.get("polyhedra", 0.0),
            "dd_engine.runs": calls("dd_engine.dd_run"),
            "dd_engine.steps": calls("dd_engine.dd_step"),
            "dd_engine.step_s": total("dd_engine.dd_step"),
            "dd_engine.prune_calls": calls("dd_engine.prune_redundant"),
            "dd_engine.prune_self_s": self_s("dd_engine.prune_redundant"),
            "dd_engine.rays_max": c["rays_max"],
            "dd_engine.cpr_terms": c["cpr_terms"],
            "dd_engine.pool_size": c["pool_size"],
            "exactmath.mul_calls": calls("exactmath.__mul__"),
            "exactmath.mul_s": total("exactmath.__mul__"),
            "exactmath.exact_div_calls": calls("exactmath.exact_div"),
            "exactmath.exact_div_s": total("exactmath.exact_div"),
            "lp.calls": calls("lp.lp_solve"),
            "lp.self_s": self_s("lp.lp_solve"),
            "lp.max_call_s": f["lp.lp_solve"].max if "lp.lp_solve" in f else 0.0,
            "lp.rows": c["lp_rows"],
            "lp.cols": c["lp_cols"],
            "lp.nnz": c["lp_nnz"],
            "relaxation.build_self_s": self_s(*rel),
            "relaxation.builds": calls(*[n for n in rel if n.startswith("relaxation.build_")]),
            "facial.build_self_s": self_s(*fac),
            "facial.brute_s": total("facial.brute_force_fdp"),
            "certify.extract_self_s": self_s("certify.extract_certificate"),
            "certify.verify_self_s": self_s("certify.verify_certificate"),
            "certify.terms": c["cert_terms"],
        }

    def table(self) -> List[dict]:
        return [
            {
                "span": name,
                "calls": st.calls,
                "total_s": st.total,
                "self_s": st.self,
                "max_s": st.max,
                "parents": dict(st.parents),
            }
            for name, st in sorted(self.funcs.items(), key=lambda kv: -kv[1].self)
        ]


# -- hooks: sizes read from public arguments and results ----------------------


def _lp_sizes(tracer: Tracer, args, kwargs) -> None:
    prob = args[0] if args else kwargs["problem"]
    tracer.counts["lp_rows"] += len(prob.rows)
    tracer.counts["lp_cols"] += len(prob.variables)
    tracer.counts["lp_nnz"] += sum(len(row.coeffs) for row in prob.rows)


def _step_result(tracer: Tracer, result) -> None:
    state = result[0]
    tracer.counts["rays_max"] = max(tracer.counts["rays_max"], len(state.R))


def _run_result(tracer: Tracer, run) -> None:
    st = run.final
    tracer.counts["rays_max"] = max(tracer.counts["rays_max"], len(st.R))
    tracer.counts["cpr_terms"] += sum(len(c.terms) for c in st.cpr if c is not None)
    tracer.counts["pool_size"] += len(st.pool.polys)


def _cert_result(tracer: Tracer, cert) -> None:
    tracer.counts["cert_terms"] += len(cert.terms)
