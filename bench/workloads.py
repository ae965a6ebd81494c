"""The benchmark's workloads: seeded inputs, job lists and output checks.

`WORKLOADS[name](seed, root, work)` writes a workload's inputs under
`work` and returns its job list.  Each job names the check in checks.py
that run.py applies to its output once the worker has finished.
README.md says why each workload exists.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from gen_table import generate_table

FIXTURE = Path("tests") / "fixtures" / "e37a_p3.json"
SYNTH_PINS = Path(__file__).with_name("synth_pins.json")


def _cli(name, argv, out, check=None, **meta):
    return {"name": name, "kind": "cli",
            "argv": [name] + [str(a) for a in argv] + ["--out", str(out)],
            "out": str(out), "check": check, **meta}


def _write(path, document):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document))
    return path


# -- tower-table: the real user path on a deep table ------------------------

TABLE = {"p": 3, "ap": -3, "eps": 1, "max_n": 8, "level": 7}


def tower_table(seed, root, work):
    t = TABLE
    table = _write(work / "table.json",
                   generate_table(seed, t["p"], t["ap"], t["eps"], t["max_n"]))
    out = work / "out"
    level = ["--input", table, "--level", t["level"]]
    return [
        _cli("verify", ["--input", table], out / "verify", check="verify"),
        _cli("decompose", level, out / "decompose"),
        _cli("invariants", level, out / "invariants", check="invariants",
             decompose=str(out / "decompose" / "decompose.json")),
        _cli("rank-bound", ["--invariants", out / "invariants" / "invariants.json"],
             out / "rank-bound", check="rank-bound", p=t["p"]),
    ]


# -- tower-synth: a deep supersingular tower with no table --------------------

SYNTH = {"p": 7, "ap": 0, "eps": 1, "level": 4, "precision": 12, "hatted": True,
         "m_max": 4, "twist": [0, 1, 2], "j": [1, 2]}


def synth_seed(seed):
    """The synthetic tower seed; synth_pins.json pins the outputs of each."""
    return seed % 32


def tower_synth(seed, root, work):
    s, tower = synth_seed(seed), SYNTH
    pinned = {"check": "pinned", "seed": s}
    return [
        _cli("verify", ["--synthetic-seed", s, "--p", tower["p"], "--ap", tower["ap"],
                        "--eps", tower["eps"], "--level", tower["level"], "--hatted"],
             work / "out" / "verify", check="verify"),
        {"name": "peel", "kind": "synth-peel", **tower, **pinned},
        {"name": "vanishing", "kind": "synth-vanishing", "m_max": tower["m_max"],
         "twist": tower["twist"], **pinned},
        {"name": "zeta", "kind": "synth-zeta", "j": tower["j"], **pinned},
    ]


# -- curve-sweep: many small towers in one warm worker --------------------------

# (p, ap, maxN): ordinary and supersingular ap at each p, top ring size <= 125
SWEEP_TABLES = (
    (2, 0, 8), (2, -2, 8), (2, 1, 8), (2, -1, 8),
    (3, 0, 5), (3, -3, 5), (3, 1, 5), (3, 2, 5),
    (5, 0, 4), (5, 2, 4), (5, -3, 4),
    (7, 0, 3), (7, -1, 3), (7, 4, 3),
)
MODESTY_V = "1/6,1/18,1,inf,0"
MODESTY_GAPS = "0,1,-1"
SHA_LAYERS = (2, 6)


def _sha_records(rng):
    # record kinds whose comparison rule is defined at every layer
    lam = [rng.randint(0, 6) for _ in range(5)]
    return [
        {"kind": "ordinary", "r_infinity": rng.randint(0, 2), "mu": "0",
         "lam": lam[0], "label": "ordinary"},
        {"kind": "elliptic", "r_infinity": rng.randint(0, 3), "mu_sharp": "0",
         "mu_flat": "0", "lambda_sharp": lam[1], "lambda_flat": lam[2],
         "v": "1", "label": "elliptic"},
        {"kind": "form", "r_infinity": 0, "mu_sharp": "0", "mu_flat": "0",
         "lambda_sharp": lam[3], "lambda_flat": lam[4], "v": "inf",
         "label": "form"},
    ]


def curve_sweep(seed, root, work):
    rng = random.Random(f"curve-sweep:{seed}")
    fixture = root / FIXTURE
    if not fixture.is_file():
        raise FileNotFoundError(f"missing fixture {fixture}")
    tables = []
    for p, ap, max_n in SWEEP_TABLES:
        path = _write(work / f"table_p{p}_ap{ap}.json",
                      generate_table(seed, p, ap, 1, max_n))
        tables.append((path, p, max_n, None))
    tables.append((fixture, 3, 5, "e37a"))

    jobs, out = [], work / "out"
    for path, p, max_n, pin in tables:
        level = max_n - (1 if p != 2 else 2)
        for tame in range(2 if p == 2 else p - 1):
            tag = out / f"{path.stem}_t{tame}"
            invariants = tag / "invariants" / "invariants.json"
            jobs.append(_cli("invariants", ["--input", path, "--level", level,
                                            "--tame", tame],
                             tag / "invariants", check="invariants"))
            jobs.append(_cli("rank-bound", ["--invariants", invariants],
                             tag / "rank", check="rank-bound", p=p,
                             pin=pin if tame == 0 else None,
                             invariants=str(invariants)))
            hatted = ["--hatted"] if tame % 2 and p != 2 else []
            jobs.append(_cli("verify", ["--input", path, "--tame", tame, *hatted],
                             tag / "verify", check="verify"))
    for p in sorted({p for p, _, _ in SWEEP_TABLES}):
        records = _write(work / f"records_p{p}.json", _sha_records(rng))
        jobs.append(_cli("modesty-map", ["--p", p, "--v-values", MODESTY_V,
                                         "--mu-gaps", MODESTY_GAPS],
                         out / f"modesty_p{p}", check="modesty-map"))
        jobs.append(_cli("sha-growth", ["--records", records, "--p", p,
                                        "--n-from", SHA_LAYERS[0],
                                        "--n-to", SHA_LAYERS[1]],
                         out / f"sha_p{p}", check="sha-growth"))
    return jobs


WORKLOADS = {"tower-table": tower_table, "tower-synth": tower_synth,
             "curve-sweep": curve_sweep}

