"""Benchmark of `iwt`: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload tower-table --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition starts a fresh worker
process (bench/worker.py) that imports `iwt` and runs the workload's job
list back to back: one closed-loop client, one worker at a time.  Extra
workers that only import `iwt` are started between repetitions to sample
set-up time.  Repetitions continue while the next one is expected to end
within --seconds.  Every job's output is checked after its worker ends.
Times are scaled to a reference machine speed measured by each worker
(see worker.py).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 repetitions alternate untraced and
traced, and the metrics are the per-layer ones plus the tracing
overhead.  The exit code is nonzero, with no result printed, when the
benchmark cannot run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_job  # noqa: E402
from tracer import CACHES, COUNTERS, JOB_SPAN, MODULES, TRACED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out"
SETUP_SPAWNS_PER_REP = 3
RUN_LIMIT_S = 165  # a run must end within 180 s, whatever a worker does
HIT_RATIOS = ("iwasawa_algebra._reduction_poly", "iwasawa_algebra._phi_coeffs")

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
              "job_p50_ms": "ms", "job_p90_ms": "ms"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, path in TRACED:
        units[f"{module}.{path}.calls"] = "count"
        units[f"{module}.{path}.self_s"] = "s"
    for name, (counter, _) in COUNTERS.items():
        units[f"{name}.{counter}"] = "bit" if counter == "packed_bits" else "count"
    for module in MODULES:
        units[f"{module}.errors"] = "count"
    for module, attr in CACHES:
        units[f"{module}.{attr}.hits"] = "count"
        units[f"{module}.{attr}.misses"] = "count"
    for name in HIT_RATIOS:
        units[f"{name}.hit_ratio"] = "ratio"
    units["trace.untraced_self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class WorkerFailed(RuntimeError):
    pass


def spawn(jobs, trace=False, trace_path=None, timeout=RUN_LIMIT_S):
    """Run one worker to completion; returns (setup seconds, report)."""
    spec = json.dumps({"jobs": jobs, "trace": trace,
                       "trace_path": str(trace_path) if trace_path else None})
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(spec, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker still running after {timeout:.0f} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    return (report["imported_ns"] - start_ns) / 1e9, report


def percentile(values, q):
    """Percentile q (0..100) interpolated between the two nearest values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def layer_metrics(summary, scale):
    """Flat per-layer metrics of one traced worker; times scaled by `scale`."""
    values, layers = {}, summary["layers"]
    for module, path in TRACED:
        entry = layers[f"{module}.{path}"]
        values[f"{module}.{path}.calls"] = entry["calls"]
        values[f"{module}.{path}.self_s"] = entry["self_s"] * scale
    values.update(summary["counters"])
    for module, count in summary["errors"].items():
        values[f"{module}.errors"] = count
    for name, info in summary["caches"].items():
        values[f"{name}.hits"] = info["hits"]
        values[f"{name}.misses"] = info["misses"]
    for name in HIT_RATIOS:
        info = summary["caches"][name]
        total = info["hits"] + info["misses"]
        values[f"{name}.hit_ratio"] = info["hits"] / total if total else 0.0
    # time inside the jobs but outside every traced function
    values["trace.untraced_self_s"] = scale * sum(
        entry["self_s"] for name, entry in layers.items() if name.startswith(JOB_SPAN))
    return values


def trace_problems(report, values, scale):
    """Checks of a traced worker's spans and of the metrics drawn from them.

    The reported self times plus the untraced remainder must make up the
    jobs' wall time, which each job clocks around its own span: a span
    that no metric reports, or a lost or overlapping span, opens a gap.
    """
    summary = report["trace"]
    problems = list(summary["install_problems"])
    if summary["negative_self_spans"]:
        problems.append(f"{summary['negative_self_spans']} spans overlap their parent")
    reported = values["trace.untraced_self_s"] + sum(
        value for name, value in values.items() if name.endswith(".self_s"))
    wall = scale * sum(job["ms"] for job in report["jobs"]) / 1000
    if abs(reported - wall) > scale * summary["tolerance_s"]:
        problems.append(f"reported self times sum to {reported:.6f} s, "
                        f"the jobs' wall time is {wall:.6f} s")
    return problems


def measure(workload, seed, seconds, trace):
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = WORKLOADS[workload](seed, ROOT, work)
        # per job, for untraced (False) and traced (True) repetitions:
        # (wall ms, ms scaled to the reference speed)
        job_ms = {False: [[] for _ in jobs], True: [[] for _ in jobs]}
        setups, rss, layers, problems, missing = [], [], [], [], set()
        attempted = failed = rep = 0
        start = time.monotonic()

        def left():
            return RUN_LIMIT_S - (time.monotonic() - start)

        while True:
            for _ in range(SETUP_SPAWNS_PER_REP):
                setups.append(spawn([], timeout=left()))
            traced = trace and rep % 2 == 1
            shutil.rmtree(work / "out", ignore_errors=True)
            t0 = time.monotonic()
            setup_s, report = spawn(jobs, traced, OUT / f"trace-{workload}.json",
                                    timeout=left())
            rep_s = time.monotonic() - t0
            setups.append((setup_s, report))
            for i, (job, outcome) in enumerate(zip(jobs, report["jobs"], strict=True)):
                attempted += 1
                job_ms[traced][i].append((outcome["ms"], outcome["ms"] * outcome["scale"]))
                job_problems = check_job(job, outcome)
                if job_problems:
                    failed += 1
                    problems.append(f"rep {rep} job {job['name']}: {job_problems}")
            if traced:
                wall = sum(job["ms"] for job in report["jobs"])
                scale = sum(job["ms"] * job["scale"] for job in report["jobs"]) / wall
                layers.append(layer_metrics(report["trace"], scale))
                problems += trace_problems(report, layers[-1], scale)
                missing.update(report["trace"]["missing"])
            else:
                rss.append(report["peak_rss_mb"])
            rep += 1
            if (not trace or rep >= 2) and time.monotonic() - start + rep_s > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A job's latency is its median over the repetitions, and solve_s sums
    # those medians: speed swings last seconds, and per-job medians filter
    # them better than the median of whole job lists.
    def typical(mode, scaled):
        return [statistics.median(ms[scaled] for ms in per_job)
                for per_job in job_ms[mode] if per_job]

    if trace:
        values = {name: statistics.median(v[name] for v in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = (sum(typical(True, 1)) - sum(typical(False, 1))) / 1000
        units = per_layer_units()
    else:
        latency = typical(False, 1)
        values = {"setup_s": statistics.median(s * r["setup_scale"] for s, r in setups),
                  "solve_s": sum(latency) / 1000,
                  "peak_rss_mb": statistics.median(rss),
                  "job_p50_ms": percentile(latency, 50),
                  "job_p90_ms": percentile(latency, 90)}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    samples = {"reps": rep, "setup_spawns": len(setups), "jobs": len(jobs),
               "wall_setup_s": statistics.median(s for s, _ in setups),
               "wall_solve_s": sum(typical(False, 0)) / 1000}
    if trace:
        # traced names the package no longer defines report 0 calls
        samples["trace_missing"] = sorted(missing)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, problems, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "iwt" / "cli.py").is_file():
        print(f"benchmark: no iwt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, problems, samples = measure(args.workload, args.seed,
                                            args.seconds, bool(args.trace))
    except (WorkerFailed, OSError, ValueError) as exc:
        print(f"benchmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    env = {"git_sha": git_sha(), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, **samples,
           "failed_frac": result["failed"] / result["attempted"]}
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print("env: " + json.dumps(env, sort_keys=True))
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"env": env, **result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
