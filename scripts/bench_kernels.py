#!/usr/bin/env python3
"""Time the ring and table kernels of `iwt`, and compare two checkouts end to end.

    python3 scripts/bench_kernels.py
    python3 scripts/bench_kernels.py --parent DIR --out BENCH_table_path.json

The first form times the kernels of this checkout's `src/iwt` and
prints one JSON document, at the points (p, n, M) of POINTS:

* ring multiply of two dense elements (in the group basis: one Kronecker
  product and a fold mod X^N - 1), `phi_multiply` (times the completed
  Phi_{p^n}, plain for p = 2: p nonzero group coefficients), exact
  division by Phi_{p^n}, `project_pi`, `lift_nu`, evaluation at
  zeta_{p^2} and, as `eval_at_zeta_top`, at zeta_{p^n}: the fold and
  reduction mod Phi_{p^n} of the largest ring the level reaches, then
  the shift to pi-coefficients;
* the basis change: `t_to_group` builds an element from T-coefficients
  and reads its group-basis vector, `group_to_t` the reverse;
  `from_unit_basis` and `to_unit_basis` alone;
* `taylor_shift_p1` and `taylor_shift_m1`: the bare `poly_taylor_shift`
  by +1 and -1 of a length-N residue vector, the kernel under the basis
  change;
* `kronecker_product`: the bare `poly_mul` of two length-N residue
  vectors, the packed product without the ring relation;
* the table path on a table of maxN = N(n) (n+1 for odd p, n+2 for
  p = 2) from `bench/gen_table.py`: `json.loads` plus
  `ingest_modular_symbols` of its text (`loads_ingest`),
  `ingest_modular_symbols` alone of the parsed document (`ingest`, the
  column pass) and of the same table with every value k spelled k/1
  (`ingest_fractions`, as in the 37a fixture: the entry-by-entry loop),
  `theta_sequence` up to level n at precision M, and `cli.build_parser`
  (the same work at every point);
* `verify_battery`: `det_identity_check` plus `functional_equation_check`
  at level min(n, 3) and precision M, the two step-product checks of
  `iwt verify`;
* the peel and the invariants on that table's tower (tame index 0):
  `peel_top`, `decompose_pair` on the top pair (Theta_n, Theta_{n-1});
  `invariants_top`, `iwasawa_invariants` of both components of that
  peel, each rebuilt from its group-basis vector by `from_unit_basis`
  on every call, so that no T-coefficient view is left over from an
  earlier call;
* the crossover of the sparse multiply, where `polyops` has it: a dense
  vector times one with w nonzero entries, w in (1, p, 2p, 4p), mod
  X^N - 1, by rotations (`sparse_rotate_w`) and by a Kronecker product
  and a fold (`sparse_kronecker_w`).  The ring takes rotations for
  w <= p.

At (3, 7, 15) the table has the shape of the tower-table workload, and
at (2, 6, 14) and (5, 3, 11) of curve-sweep tables.  `cold_ms` is the
median over fresh calls made right after every `lru_cache` table of the
package is cleared; `warm_ms` is the median over calls after one
warm-up.  Both are scaled by the benchmark's machine-speed reference
(`reference_s` of bench/worker.py, run in the same process before and
after each row) to a machine on which it takes REFERENCE_S, as
bench/run.py scales job times; `scale` is the factor applied.  Inputs
are drawn from a fixed seed, so two checkouts time the same elements
and tables.

The second form times the kernels of this checkout and of the checkout
in DIR in fresh processes, each side by its own copy of this script, so
that a row calls that side's API.  It alternates the two sides over
KERNEL_ROUNDS rounds and reports the per-row medians over the rounds, with
`warm_spread_ms`, the max - min of a row's warm medians across the
rounds: a row that moves by no more than that shows nothing.  It then runs
`bench/run.py --trace 1` five times (seeds 1 to 5, 10 s each) on every
workload in both checkouts and records each run's `correct`, `failed`,
`trace_missing` and problem lines, since the benchmark's own traced runs
check that the reported self times make up the jobs' wall time.  Last it
runs `bench/run.py --trace 0` ten times (seeds 1 to 10, 40 s each) on the
three workloads of BENCHMARK.json in both checkouts, alternating which
side runs first, and writes everything with the git SHAs, the Python
version and the CPU count to --out.  It refuses to start while either
checkout holds a `__pycache__` under `src/` or `bench/`: a `.pyc` file
there changes what each benchmark worker compiles at import, which skews
`setup_s`.  Every child process runs with PYTHONDONTWRITEBYTECODE=1, so
the comparison leaves none behind.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POINTS = ((2, 6, 14), (5, 3, 11), (5, 5, 13), (3, 7, 15), (7, 4, 12))
WORKLOADS = ("tower-table", "tower-synth", "curve-sweep")
METRICS = ("setup_s", "solve_s", "peak_rss_mb", "job_p50_ms", "job_p90_ms")
COLD_REPS = 3
WARM_REPS = 5
KERNEL_ROUNDS = 3     # alternating fresh-process kernel timings per side
BENCH_RUNS = 10       # bench/run.py runs per side and workload, seeds 1..10
BENCH_SECONDS = 40    # run_seconds of BENCHMARK.json
TRACE_RUNS = 5        # bench/run.py --trace 1 runs per side and workload, seeds 1..5
TRACE_SECONDS = 10


def clear_caches():
    """Empty every lru_cache table of the imported package."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("iwt.") or module is None:
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def bench_module(name):
    """A module of this checkout's bench/ directory."""
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    return importlib.import_module(name)


def sparse_calls(p, n, M, rng):
    """The crossover rows, where the checkout's polyops has the sparse kernels."""
    try:
        from iwt.polyops import poly_cyclic_mul_sparse, poly_fold, poly_mul
    except ImportError:
        return {}
    size, modulus = p ** n, p ** M
    dense = [rng.randrange(modulus) for _ in range(size)]
    calls = {}
    for weight in (1, p, 2 * p, 4 * p):
        sparse = [0] * size
        for s in rng.sample(range(size), min(weight, size)):
            sparse[s] = rng.randrange(1, modulus)
        calls[f"sparse_rotate_w{weight}"] = (
            lambda sparse=sparse: poly_cyclic_mul_sparse(dense, sparse, modulus))
        calls[f"sparse_kronecker_w{weight}"] = (
            lambda sparse=sparse: poly_fold(poly_mul(dense, sparse, modulus), size, modulus))
    return calls


def kernel_calls(p, n, M):
    """name -> zero-argument call, on inputs drawn from a seed of (p, n, M)."""
    from iwt.cli import build_parser
    from iwt.cyclotomic_ext import eval_lambda_at_zeta
    from iwt.iwasawa_algebra import (FormParams, LambdaElement, cyclotomic_phi,
                                     exact_divide_by_phi, iwasawa_invariants,
                                     lift_nu, project_pi)
    from iwt.logmatrix import det_identity_check, functional_equation_check
    from iwt.mazur_tate import (ingest_modular_symbols, level_exponent,
                                theta_sequence)
    from iwt.polyops import poly_mul, poly_taylor_shift
    from iwt.sharp_flat import decompose_pair
    generate_table = bench_module("gen_table").generate_table
    rng = random.Random(f"{p}-{n}-{M}")
    size, modulus = p ** n, p ** M
    coeffs = [rng.randrange(modulus) for _ in range(size)]
    x, y = (LambdaElement(p, n, M, [rng.randrange(modulus) for _ in range(size)])
            for _ in range(2))
    # a multiple of Phi_{p^n} of full degree, so that the division is exact
    multiple = LambdaElement(p, n, M, [rng.randrange(modulus) for _ in range(size // p)])
    divisible = multiple * cyclotomic_phi(p, n, n, M)
    phi = cyclotomic_phi(p, n, n, M, hatted=p != 2)
    lower = project_pi(x)
    units = x.to_unit_basis()
    text = json.dumps(generate_table(1, p, -1, 1, level_exponent(p, n)))
    document = json.loads(text)
    fractions = dict(document, symbols=[
        dict(entry, plus=f"{entry['plus']}/1", minus=f"{entry['minus']}/1")
        for entry in document["symbols"]])
    table = ingest_modular_symbols(document)
    params, level = FormParams(p, -1, 1, M), min(n, 3)
    tower = theta_sequence(table, n, 0, M)
    top, lower_theta = tower[n], tower[n - 1]
    peel = decompose_pair(top, lower_theta, tower.params)

    def verify_battery():
        det_identity_check(params, level)
        functional_equation_check(params, level)

    def invariants_top():
        for x in (peel.sharp, peel.flat):
            iwasawa_invariants(LambdaElement.from_unit_basis(p, n, M, x.units))

    return {"multiply": lambda: x * y,
            "phi_multiply": lambda: x * phi,
            "phi_division": lambda: exact_divide_by_phi(divisible, n),
            "project_pi": lambda: project_pi(x),
            "lift_nu": lambda: lift_nu(lower),
            "t_to_group": lambda: LambdaElement(p, n, M, coeffs).to_unit_basis(),
            "group_to_t": lambda: LambdaElement.from_unit_basis(p, n, M, units).coeffs,
            "from_unit_basis": lambda: LambdaElement.from_unit_basis(p, n, M, units),
            "to_unit_basis": lambda: x.to_unit_basis(),
            "taylor_shift_p1": lambda: poly_taylor_shift(coeffs, 1, modulus),
            "taylor_shift_m1": lambda: poly_taylor_shift(coeffs, -1, modulus),
            "eval_at_zeta2": lambda: eval_lambda_at_zeta(x, 2),
            "eval_at_zeta_top": lambda: eval_lambda_at_zeta(x, n),
            "kronecker_product": lambda: poly_mul(x.coeffs, y.coeffs, modulus),
            "loads_ingest": lambda: ingest_modular_symbols(json.loads(text)),
            "ingest": lambda: ingest_modular_symbols(document),
            "ingest_fractions": lambda: ingest_modular_symbols(fractions),
            "theta_sequence": lambda: theta_sequence(table, n, 0, M),
            "build_parser": build_parser,
            "verify_battery": verify_battery,
            "peel_top": lambda: decompose_pair(top, lower_theta, tower.params),
            "invariants_top": invariants_top,
            **sparse_calls(p, n, M, rng)}


def elapsed_ms(call):
    start = time.perf_counter()
    call()
    return (time.perf_counter() - start) * 1000


def time_kernels():
    worker = bench_module("worker")
    rows = []
    for p, n, M in POINTS:
        calls = kernel_calls(p, n, M)
        for kernel, call in calls.items():
            before = worker.reference_s()
            cold = []
            for _ in range(COLD_REPS):
                clear_caches()
                cold.append(elapsed_ms(call))
            call()
            warm = [elapsed_ms(call) for _ in range(WARM_REPS)]
            scale = 2 * worker.REFERENCE_S / (before + worker.reference_s())
            rows.append({"p": p, "n": n, "M": M, "N": p ** n, "kernel": kernel,
                         "cold_ms": round(scale * statistics.median(cold), 3),
                         "warm_ms": round(scale * statistics.median(warm), 3),
                         "scale": round(scale, 3)})
    return rows


def git_sha(checkout):
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def child_env(**extra):
    """The environment of a child process: no `.pyc` is written into a checkout."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **extra)


def bytecode_caches(checkouts):
    """Every `__pycache__` directory under src/ or bench/ of the checkouts."""
    return sorted(str(path) for checkout in checkouts for sub in ("src", "bench")
                  for path in (Path(checkout) / sub).rglob("__pycache__"))


def kernels_of(checkout):
    """Kernel timings of a checkout by its own copy of this script, measured
    in a fresh interpreter."""
    env = child_env(PYTHONPATH=str(Path(checkout) / "src"))
    script = Path(checkout) / "scripts" / "bench_kernels.py"
    result = subprocess.run([sys.executable, str(script), "--kernels-only"],
                            env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def median_rows(rounds):
    """Per-row medians of cold_ms and warm_ms over several runs of
    time_kernels, and the spread of warm_ms across them."""
    rows = []
    for same in zip(*rounds):
        row = dict(same[0])
        for key in ("cold_ms", "warm_ms", "scale"):
            row[key] = round(statistics.median(r[key] for r in same), 3)
        warm = [r["warm_ms"] for r in same]
        row["warm_spread_ms"] = round(max(warm) - min(warm), 3)
        rows.append(row)
    return rows


def bench_run(checkout, workload, seed, seconds, trace=0):
    """One `bench/run.py` run in a checkout: its end-to-end metrics, or with
    trace 1 its traced checks (`trace_missing` and the problem lines)."""
    result = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                             "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", str(trace)],
                            cwd=checkout, env=child_env(), capture_output=True, text=True,
                            check=True)
    lines = result.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    run = {"correct": report["correct"], "failed": report["failed"]}
    if not trace:
        return dict(run, **{name: report["metrics"][name]["value"] for name in METRICS})
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    return dict(run, seed=seed, trace_missing=env["trace_missing"],
                problems=[line for line in lines if line.startswith("problem: ")])


def compare(parent):
    sides = {"parent": Path(parent).resolve(), "change": ROOT}
    doc = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "points": [dict(zip("pnM", point)) for point in POINTS],
           "cold_reps": COLD_REPS, "warm_reps": WARM_REPS, "kernel_rounds": KERNEL_ROUNDS,
           "bench_runs": BENCH_RUNS, "bench_seconds": BENCH_SECONDS,
           "trace_runs": TRACE_RUNS, "trace_seconds": TRACE_SECONDS}
    rounds = {side: [] for side in sides}
    for index in range(KERNEL_ROUNDS):
        for side in (list(sides) if index % 2 == 0 else list(sides)[::-1]):
            rounds[side].append(kernels_of(sides[side]))
    for side, checkout in sides.items():
        doc[side] = {"git_sha": git_sha(checkout), "kernels": median_rows(rounds[side]),
                     "traced": {workload: [bench_run(checkout, workload, seed,
                                                     TRACE_SECONDS, trace=1)
                                           for seed in range(1, TRACE_RUNS + 1)]
                                for workload in WORKLOADS}}
    for workload in WORKLOADS:
        samples = {side: [] for side in sides}
        for seed in range(1, BENCH_RUNS + 1):
            order = list(sides) if seed % 2 else list(sides)[::-1]
            for side in order:
                samples[side].append(bench_run(sides[side], workload, seed, BENCH_SECONDS))
        for side in sides:
            doc[side].setdefault("end_to_end", {})[workload] = {
                "runs": samples[side],
                "median": {name: statistics.median(s[name] for s in samples[side])
                           for name in METRICS}}
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout of the commit to compare against")
    parser.add_argument("--out", help="file for the comparison (default: stdout)")
    parser.add_argument("--kernels-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.kernels_only:
        print(json.dumps(time_kernels()))
        return 0
    if args.parent:
        caches = bytecode_caches([args.parent, ROOT])
        if caches:
            parser.error("stale bytecode would skew setup_s; remove these first: "
                         + ", ".join(caches))
        doc = compare(args.parent)
    else:
        sys.path.insert(0, str(ROOT / "src"))
        doc = {"git_sha": git_sha(ROOT), "python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)), "kernels": time_kernels()}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
