"""One benchmark worker: import `iwt`, run a job list back to back, report.

Started by run.py as a fresh process per repetition, so caches start cold
as they do for a command-line user and warm across the jobs of one
worker.  The job list arrives as JSON on stdin; the report is the last
line of stdout.  A job is either an `iwt` command line, run through
`iwt.cli.main` in this process, or a library step of the synthetic tower
(see LIB_JOBS).

    python3 bench/worker.py < spec.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def digest(values):
    """sha256 of a sequence of integers (or of nested sequences of them)."""
    return hashlib.sha256(json.dumps(values, default=list).encode()).hexdigest()


# -- library jobs of the synthetic tower ------------------------------------
# Each takes the job spec and a state dict shared by the jobs of one worker,
# and returns a summary computed after its timed region ends.

def _synth_peel(job, state):
    from iwt.iwasawa_algebra import FormParams
    from iwt.mazur_tate import synthesize_queue
    from iwt.sharp_flat import decompose
    params = FormParams(job["p"], job["ap"], job["eps"], job["precision"])
    level = job["level"]
    seq = synthesize_queue(job["seed"], params, level)
    state["theta"] = seq[level]
    state["approx"] = decompose(seq[level], seq[level - 1], params,
                                hatted=job["hatted"])
    return lambda: {"theta": digest(state["theta"].coeffs),
                    "sharp_flat": digest([state["approx"].sharp.coeffs,
                                          state["approx"].flat.coeffs])}


def _synth_vanishing(job, state):
    # Twist the pair by T (m = 0) and Phi_{p^m} for each m in job["twist"],
    # so those orders are at least 1 and the division loop repeats.
    from dataclasses import replace

    from iwt.iwasawa_algebra import LambdaElement, cyclotomic_phi
    from iwt.sharp_flat import vector_vanishing_orders
    approx = state["approx"]
    p, level, precision = approx.params.p, approx.level, approx.params.precision
    factor = LambdaElement.one(p, level, precision)
    for m in job["twist"]:
        factor = factor * (cyclotomic_phi(p, m, level, precision) if m
                           else LambdaElement(p, level, precision, [0, 1]))
    twisted = replace(approx, sharp=approx.sharp * factor, flat=approx.flat * factor)
    report = vector_vanishing_orders(twisted, range(job["m_max"] + 1))
    return lambda: {"orders": {str(m): k for m, k in sorted(report.orders.items())},
                    "rank_estimate": report.rank_estimate}


def _synth_zeta(job, state):
    from iwt.cyclotomic_ext import eval_lambda_at_zeta
    approx = state["approx"]
    values = [eval_lambda_at_zeta(x, j) for x in (approx.sharp, approx.flat)
              for j in job["j"]]
    return lambda: {"zeta": digest([v.coeffs for v in values])}


LIB_JOBS = {"synth-peel": _synth_peel, "synth-vanishing": _synth_vanishing,
            "synth-zeta": _synth_zeta}


def run_job(job, state, cli, span):
    """Run one job inside `span`; returns (milliseconds, outcome dict)."""
    out, err = io.StringIO(), io.StringIO()
    summarize, error = None, None
    t0 = time.perf_counter_ns()
    with span:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if job["kind"] == "cli":
                    rc = cli.main(job["argv"])
                else:
                    summarize = LIB_JOBS[job["kind"]](job, state)
                    rc = 0
        except SystemExit as exc:  # argparse rejecting the command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the job; the worker keeps going
            rc, error = 1, traceback.format_exc(limit=4)
    ms = (time.perf_counter_ns() - t0) / 1e6
    outcome = {"rc": rc, "error": error or err.getvalue()[-400:] or None,
               "fail_lines": sum(line.startswith("FAIL") for line
                                 in out.getvalue().splitlines())}
    if summarize is not None:
        outcome["info"] = summarize()
    return ms, outcome


# -- machine speed --------------------------------------------------------------
# The host's speed swings by up to 2x over seconds to minutes (other tenants
# share its cores).  A fixed pure-Python reference, run between jobs, tracks
# those swings; each job's time is scaled by REFERENCE_S over the mean of the
# reference runs around it, i.e. to a machine where the reference takes 15 ms.

REFERENCE_S = 0.015
REFERENCE_EVERY_S = 0.1
_BIG = 7 ** 30000


def reference_s():
    """Seconds taken by a fixed mix of interpreted and big-integer arithmetic."""
    t0 = time.perf_counter_ns()
    acc, m = 1, 3 ** 40
    for i in range(30000):
        acc = (acc * 31 + i * i) % m
    for _ in range(3):
        _BIG * _BIG
    return (time.perf_counter_ns() - t0) / 1e9


def main():
    sys.path.insert(0, SRC)
    import iwt.cli as cli
    imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    last_reference = reference_s()
    setup_scale = REFERENCE_S / last_reference

    spec = json.load(sys.stdin)
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import JOB_SPAN, Tracer
        tracer = Tracer()
        tracer.install()

    state, jobs, pending, unreferenced_s = {}, [], [], 0.0
    for index, job in enumerate(spec["jobs"]):
        span = tracer.span(JOB_SPAN + job["name"]) if tracer \
            else contextlib.nullcontext()
        ms, outcome = run_job(job, state, cli, span)
        jobs.append({"name": job["name"], "ms": ms, **outcome})
        pending.append(jobs[-1])
        unreferenced_s += ms / 1000
        if unreferenced_s >= REFERENCE_EVERY_S or index == len(spec["jobs"]) - 1:
            reference = reference_s()
            for entry in pending:
                entry["scale"] = 2 * REFERENCE_S / (last_reference + reference)
            last_reference, pending, unreferenced_s = reference, [], 0.0

    report = {"imported_ns": imported_ns, "setup_scale": setup_scale, "jobs": jobs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        report["trace"] = tracer.summary()
        if spec.get("trace_path"):
            tracer.write(spec["trace_path"])
    print(json.dumps(report))


if __name__ == "__main__":
    main()
