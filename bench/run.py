"""Fixed-work benchmark of the ``barydd`` command line.

    python3 bench/run.py --workload coords|bounds|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The runner imports ``barydd`` from
``src/``, writes the workload's input files from the seed, and calls
``barydd.cli.main(argv)`` in this process, one job at a time.  It repeats
whole passes of the workload's fixed job list until S seconds have passed
(at least one pass).  Only the ``main`` call of each job is timed.  After
the timed passes every job's output is checked against the oracles in
``oracles.py``.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced passes alternate, the metrics are the per-layer ones
from the traced passes, and ``trace.overhead_pct`` compares the two.  Job
timings and the per-span table go to ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from typing import Dict, List, Tuple

from inputs import make_inputs
from spans import METRICS, Tracer
from workloads import WORKLOADS, Output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
JOB_CAP_S = 30  # a job running longer than this fails and is abandoned
SETUP_REPEATS = 3  # input generation is repeated and its median taken

END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("out_terms", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class JobTimeout(BaseException):
    """Raised by the interval timer inside a job that exceeds JOB_CAP_S.
    A BaseException, so that no handler inside the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["coords", "bounds", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def run_job(job, cli):
    """Run one job; returns (seconds, Output)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        error = f"exceeded {JOB_CAP_S} s"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc(limit=4)
    dt = time.perf_counter() - t0
    arts = {}
    for path in job.artifacts:
        try:
            with open(path, "rb") as fh:
                arts[path] = fh.read()
        except OSError:
            arts[path] = b""
    return dt, Output(rc, out.getvalue(), arts, error or err.getvalue())


def run_pass(jobs, cli) -> List[Tuple[str, float, object]]:
    gc.collect()  # each pass starts from a collected heap, outside the timing
    return [(job.name,) + run_job(job, cli) for job in jobs]


def judge(wl, inputs, jobs, passes, seed):
    """Check outputs.  The first pass's outputs are checked against the
    oracles; every other attempt must reproduce them exactly.  Returns
    (correct, attempted, failed, out_terms, reasons)."""
    ref = {name: o for name, _, o in passes[0]}
    errors, out_terms = wl.check(inputs, jobs, ref, seed)
    correct, attempted, failed = True, 0, 0
    reasons: Dict[str, str] = {}
    for p in passes:
        for name, _, o in p:
            attempted += 1
            wrong = False
            if o.rc != 0:  # raised, timed out or exited with an error code
                why = o.error.strip() or f"exit code {o.rc}"
            elif ref[name].rc != 0:
                why = "the first pass of this job failed"
            elif errors[name] or not o.same_as(ref[name]):
                why, wrong = errors[name] or "output differs from the first pass", True
            else:
                continue
            failed += 1
            correct = correct and not wrong
            reasons.setdefault(name, why)
    return correct, attempted, failed, out_terms, reasons


def typical_time(xs: List[float]) -> float:
    """A job's time at the machine's base speed: the 90th percentile of its
    times over the passes.  The measuring machine runs at a steady base
    speed, with bursts about 1.7x faster that last tens of seconds.  A high
    percentile reads the base speed unless bursts cover nearly the whole
    run, so it spreads less between runs than the mean or the median does
    (README.md, "Spread between runs")."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def write_json(name: str, payload: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize or not __debug__:
        print(
            "refusing to run under python -O or PYTHONOPTIMIZE: it removes the "
            "assert-based exact checks in barydd.lp, a different program",
            file=sys.stderr,
        )
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "barydd", "cli.py")):
        print(f"no barydd sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import barydd.cli as cli  # the import every CLI user pays

    import_s = time.perf_counter() - t0
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        gen_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = make_inputs(args.workload, args.seed, workdir)
            gen_times.append(time.perf_counter() - t)
        wl = WORKLOADS[args.workload]()
        jobs = wl.jobs(inputs, workdir)
        t = time.perf_counter()
        run_pass(jobs, cli)  # warm-up, untimed
        setup_s = import_s + statistics.median(gen_times) + (time.perf_counter() - t)

        if args.trace:
            return traced_run(args, wl, inputs, jobs, cli)
        passes = []
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < args.seconds:
            passes.append(run_pass(jobs, cli))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, attempted, failed, out_terms, reasons = judge(wl, inputs, jobs, passes, args.seed)
        job_s = {job.name: [dt for p in passes for name, dt, _ in p if name == job.name] for job in jobs}
        typical = {name: typical_time(ts) for name, ts in job_s.items()}
        values = {
            "jobs_per_s": len(jobs) / sum(typical.values()),
            "job_p50_s": statistics.median(typical.values()),
            "out_terms": out_terms,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        write_json(
            f"run-{args.workload}-seed{args.seed}.json",
            {
                "pass_s": [sum(dt for _, dt, _ in p) for p in passes],
                "job_s": job_s,
                "failed": reasons,
                "metrics": values,
            },
        )
        report(correct, attempted, failed, reasons, {k: (values[k], u) for k, u in END_TO_END})
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, wl, inputs, jobs, cli) -> int:
    untraced, traced, tracers = [], [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < args.seconds:
        untraced.append(run_pass(jobs, cli))
        tracer = Tracer()
        with tracer:
            traced.append(run_pass(jobs, cli))
        tracers.append(tracer)
    correct, attempted, failed, _, reasons = judge(wl, inputs, jobs, untraced + traced, args.seed)
    plain_s = sum(dt for p in untraced for _, dt, _ in p)
    traced_s = sum(dt for p in traced for _, dt, _ in p)
    per_pass = [tr.metrics() for tr in tracers]
    # counts repeat exactly from pass to pass; times are medians over passes
    values = {
        name: per_pass[0][name] if unit == "count" else statistics.median(m[name] for m in per_pass)
        for name, unit in METRICS
        if name in per_pass[0]
    }
    values["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    write_json(
        f"trace-{args.workload}-seed{args.seed}.json",
        {
            "passes": len(traced),
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "metrics": values,
            "spans": tracers[0].table(),
        },
    )
    report(correct, attempted, failed, reasons, {k: (values[k], u) for k, u in METRICS})
    return 0


def report(correct, attempted, failed, reasons, metrics) -> None:
    for name, why in reasons.items():
        print(f"failed job {name}: {why.strip()}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    raise SystemExit(main())
