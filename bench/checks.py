"""Output checks made from outside `iwt`, on what its jobs write and return.

Nothing here imports the package: mu/lambda are recomputed from the
coefficient strings of decompose.json with plain integer arithmetic.
`check_job` applies the check a job names (`CHECKS`) after its worker
has finished.  Every check returns a list of problems; an empty list
means the output holds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from workloads import MODESTY_GAPS, MODESTY_V, SHA_LAYERS, SYNTH, SYNTH_PINS

# curve 37a at p = 3, tame index 0 (tests/fixtures/e37a_p3.json)
E37A_PINS = {"mu_sharp": "0", "mu_flat": "0", "lambda_sharp": 1,
             "lambda_flat": 5, "stable": True, "bound": 7}


def load(path):
    with open(path) as fh:
        return json.load(fh)


def valuation(c, p):
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def mu_lambda(coeffs, p, precision):
    """(mu, lambda) of a coefficient vector mod p^M, or None if it vanishes."""
    modulus = p ** precision
    best = None
    for i, text in enumerate(coeffs):
        c = int(text) % modulus
        if c:
            v = valuation(c, p)
            if best is None or v < best[0]:
                best = (v, i)
    return best


def check_invariants_doc(inv):
    """The stabilized top-level fields must repeat the top per-level entry."""
    top = inv["per_level"][-1]
    if "skipped" in top:
        return [f"top level {top['n']} skipped but invariants reported"]
    got = (inv["mu_sharp"], inv["lambda_sharp"], inv["mu_flat"], inv["lambda_flat"])
    want = (top["sharp"]["mu"], top["sharp"]["lambda"],
            top["flat"]["mu"], top["flat"]["lambda"])
    return [] if got == want else [f"stabilized {got} != top level {want}"]


def check_mu_lambda(dec, inv):
    """Recompute per-level mu/lambda and stability from decompose.json."""
    p, precision = dec["p"], dec["precision"]
    per_level = {entry["n"]: entry for entry in inv["per_level"]}
    problems, recomputed = [], {}
    for level in dec["levels"]:
        n = level["n"]
        pair = [mu_lambda(level[k]["coeffs"], p, precision) for k in ("sharp", "flat")]
        entry = per_level.get(n)
        if entry is None:
            problems.append(f"level {n} missing from invariants.json")
            continue
        if None in pair:
            if "skipped" not in entry:
                problems.append(f"level {n}: vanishing element not skipped")
            continue
        recomputed[n] = pair
        for (mu, lam), key in zip(pair, ("sharp", "flat")):
            got = entry.get(key)
            if got is None or (Fraction(got["mu"]), got["lambda"]) != (mu, lam):
                problems.append(f"level {n} {key}: reported {got}, recomputed "
                                f"mu={mu} lambda={lam}")
    top = dec["levels"][-1]["n"]
    if top not in recomputed or top - 1 not in recomputed:
        return problems + ["the top two levels have no invariants"]
    (mu_s, lam_s), (mu_f, lam_f) = recomputed[top]
    visibility = p ** (top - 1) - p ** (top - 2)
    stable = recomputed[top] == recomputed[top - 1] \
        and lam_s < visibility and lam_f < visibility
    got = (Fraction(inv["mu_sharp"]), inv["lambda_sharp"],
           Fraction(inv["mu_flat"]), inv["lambda_flat"], inv["stable"])
    if got != (mu_s, lam_s, mu_f, lam_f, stable):
        problems.append(f"stabilized {got} != recomputed "
                        f"{(mu_s, lam_s, mu_f, lam_f, stable)}")
    return problems


def check_e37a(inv, rank):
    """37a at p = 3, tame 0: mu 0/0, lambda 1/5, stable, rank bound 7."""
    got = {"mu_sharp": inv["mu_sharp"], "mu_flat": inv["mu_flat"],
           "lambda_sharp": inv["lambda_sharp"], "lambda_flat": inv["lambda_flat"],
           "stable": inv["stable"], "bound": rank["bound"]}
    return [] if got == E37A_PINS else [f"37a invariants {got} != {E37A_PINS}"]


def check_verify_doc(doc):
    failed = [c["check"] for c in doc["checks"] if not c["passed"]]
    problems = [f"verify check failed: {name}" for name in failed]
    if not doc["passed"] or not doc["checks"]:
        problems.append("verify.json does not report a pass")
    return problems


def _check_invariants(job, outcome):
    inv = load(Path(job["out"]) / "invariants.json")
    problems = check_invariants_doc(inv)
    if job.get("decompose"):
        problems += check_mu_lambda(load(job["decompose"]), inv)
    return problems


def _check_rank_bound(job, outcome):
    rank = load(Path(job["out"]) / "rank_bound.json")
    if job.get("pin") == "e37a":
        return check_e37a(load(job["invariants"]), rank)
    if rank["p"] != job["p"] or not isinstance(rank["bound"], int):
        return [f"malformed rank bound {rank}"]
    return []


def _check_modesty_map(job, outcome):
    rows = (Path(job["out"]) / "modesty_map.csv").read_text().strip().splitlines()
    want = len(MODESTY_V.split(",")) * len(MODESTY_GAPS.split(",")) * 2
    return [] if len(rows) == 1 + want else [f"{len(rows) - 1} rows, want {want}"]


def _check_sha_growth(job, outcome):
    report = load(Path(job["out"]) / "sha_growth.json")
    want = [str(n) for n in range(SHA_LAYERS[0], SHA_LAYERS[1] + 1)]
    return [] if sorted(report["increments"]) == want else ["a layer is missing"]


def _check_pinned(job, outcome):
    info, problems = outcome["info"], []
    if "orders" in info:
        # the twist by T and Phi_{p^m} guarantees these orders, pins or not
        problems = [f"vanishing order {info['orders'][str(m)]} at m={m} "
                    f"after a twist by that factor"
                    for m in job["twist"] if info["orders"][str(m)] < 1]
    pins = load(SYNTH_PINS)
    pinned = pins["seeds"].get(str(job["seed"])) if pins["tower"] == SYNTH else None
    if pinned is None:
        return problems + ["no pinned outputs for this tower"]
    return problems + [f"{key} differs from the pinned value"
                       for key, value in info.items() if pinned.get(key) != value]


CHECKS = {
    "verify": lambda job, outcome: check_verify_doc(
        load(Path(job["out"]) / "verify.json")),
    "invariants": _check_invariants,
    "rank-bound": _check_rank_bound,
    "modesty-map": _check_modesty_map,
    "sha-growth": _check_sha_growth,
    "pinned": _check_pinned,
}


def check_job(job, outcome):
    """Problems with one job's outcome: exit status, FAIL lines, output checks."""
    problems = []
    if outcome["rc"] != 0:
        problems.append(f"exit code {outcome['rc']}: {outcome['error']}")
    if outcome["fail_lines"]:
        problems.append(f"{outcome['fail_lines']} FAIL lines")
    if job.get("check") and not problems:
        try:
            problems += CHECKS[job["check"]](job, outcome)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
