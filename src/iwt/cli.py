"""Command-line front end: `iwt <command> ...`.

Commands
--------
decompose    write per-level sharp/flat coefficients for a symbols file
invariants   write stabilized mu/lambda data
rank-bound   rank report from an invariants file
sha-growth   per-layer Sha increments from a records file
modesty-map  CSV sweep of the comparison rule over a (v, mu-gap) grid
verify       run the consistency battery on a fixture (or synthetic seed)
selfcheck    run the built-in example corpus

decompose, invariants and verify read a symbols table; without --level
they work at its top level, maxN - 1 (maxN - 2 at p = 2).  Synthetic
verify defaults to level 3.

All reports are deterministic JSON (sorted keys, no timestamps) carrying
a provenance block: the sha256 of the effective configuration, the
sha256 of the input file, and the package version.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bsd_analytics import (ShaRecord, modesty_map, rank_bound, sha_growth)
from .errors import IwtError, OutOfRange, SchemaError
from .iwasawa_algebra import FormParams, lift_nu
from .logmatrix import det_identity_check, functional_equation_check
from .mazur_tate import (_int_field, _parse_rational, ingest_modular_symbols,
                         synthesize_queue, theta_sequence, validate_queue)
from .padic_core import ExtRational, level_exponent
from .selfcheck import run_selfcheck
from .sharp_flat import (decompose_pair, decompose_sequence, recompose,
                         special_value_check, stabilized_invariants)


def _sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _provenance(config, input_bytes=None):
    # paths are not semantic configuration; input content is hashed separately
    config = {k: v for k, v in config.items()
              if k not in ("out", "input", "invariants", "records", "fn", "module")}
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    prov = {"config_sha256": _sha256_bytes(blob), "version": __version__}
    if input_bytes is not None:
        prov["input_sha256"] = _sha256_bytes(input_bytes)
    return prov


def _write(args, name, report):
    """Write a report (JSON unless it is already text) to --out and say so."""
    path = Path(args.out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    if not isinstance(report, str):
        report = json.dumps(report, sort_keys=True, indent=1, default=str) + "\n"
    path.write_text(report)
    print(f"wrote {path}")


def _fail(module, operation, exc):
    report = {"module": module, "operation": operation,
              "error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return 1


def _frac_str(x):
    if isinstance(x, ExtRational):
        return "inf" if x.is_infinite else str(x.value)
    return str(x)


def _fraction(value, name):
    return Fraction(_parse_rational(value, f"field {name!r}"))


def _parse_ext(text, name):
    """A rational as _fraction reads it, or infinity, spaces around it allowed."""
    text = str(text).strip()
    if text in ("inf", "oo", "infinity"):
        return ExtRational.infinity()
    return ExtRational(_fraction(text, name))


def _kind(value, name):
    if value not in ("ordinary", "form", "elliptic"):
        raise SchemaError(f"field {name!r} must be ordinary, form or elliptic, got {value!r}")
    return value


def _read_fields(doc, readers, required):
    """{field: reader(value, field)} for the fields of `doc` that `readers` knows."""
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    return {key: read(doc[key], key) for key, read in readers.items() if key in doc}


_RANK_FIELDS = {"p": _int_field, "mu_sharp": _fraction, "mu_flat": _fraction,
                "lambda_sharp": _int_field, "lambda_flat": _int_field, "v": _parse_ext}
_RECORD_FIELDS = {"kind": _kind, "r_infinity": _int_field, "mu": _fraction, "lam": _int_field,
                  "mu_sharp": _fraction, "mu_flat": _fraction, "lambda_sharp": _int_field,
                  "lambda_flat": _int_field, "v": _parse_ext, "v2": _parse_ext,
                  "label": lambda value, name: str(value)}
# the fields sha_growth reads for each record kind, beyond kind and r_infinity
_SLOPE_FIELDS = ("mu_sharp", "mu_flat", "lambda_sharp", "lambda_flat", "v")
_KIND_FIELDS = {"ordinary": ("mu", "lam"), "form": _SLOPE_FIELDS, "elliptic": _SLOPE_FIELDS}


def _precision(args, level):
    """The precision M of a run at `level`: --precision, else the floor n+8."""
    if level < 1:
        raise OutOfRange(f"level must be >= 1, got {level}")
    floor = level + 8
    m = args.precision if args.precision is not None else floor
    if m < floor:
        raise IwtError(f"precision M={m} below the headroom floor n+8={floor}")
    return m


def _table_tower(args):
    """(table, input bytes, Theta_0..Theta_n) of a table command, reading the
    input file once; n is --level, else the table's top level."""
    data = Path(args.input).read_bytes()
    table = ingest_modular_symbols(json.loads(data),
                                   allow_denominator=args.allow_denominator)
    for name, got in (("p", args.p), ("ap", args.ap), ("eps", args.eps)):
        want = {"p": table.p, "ap": table.ap, "eps": table.eps_p}[name]
        if got is not None and got != want:
            raise IwtError(f"--{name}={got} contradicts the table value {want}")
    level = table.maxN - level_exponent(table.p, 0) if args.level is None else args.level
    m = _precision(args, level)
    return table, data, theta_sequence(table, level, args.tame, m)


def _element_json(x):
    return {"p": x.p, "level": x.level, "precision": x.precision,
            "coeffs": [str(c) for c in x.coeffs]}


def _invariants_json(inv):
    return {"mu": str(inv.mu), "lambda": inv.lam, "stable": inv.stable}


def cmd_decompose(args):
    table, data, seq = _table_tower(args)
    # no pre-validation: corrupted data surfaces as NotDivisible with the
    # failing peel index, which pinpoints the broken level
    apprs = decompose_sequence(seq, hatted=args.hatted)
    _write(args, "decompose.json", {
        "provenance": _provenance(vars(args), data),
        "p": table.p, "ap": table.ap, "eps_p": table.eps_p,
        "tame_index": args.tame, "hatted": args.hatted, "precision": seq.params.precision,
        "levels": [
            {"n": a.level,
             "sharp": _element_json(a.sharp),
             "flat": _element_json(a.flat)}
            for a in apprs
        ],
    })
    return 0


def cmd_invariants(args):
    table, data, seq = _table_tower(args)
    apprs = decompose_sequence(seq, hatted=args.hatted)
    sharp, flat = stabilized_invariants(apprs)
    params = seq.params
    per_level = []
    for a in apprs:
        try:
            s, f = a.invariants()
            per_level.append({"n": a.level, "sharp": _invariants_json(s),
                              "flat": _invariants_json(f)})
        except IwtError as exc:
            per_level.append({"n": a.level, "skipped": type(exc).__name__})
    _write(args, "invariants.json", {
        "provenance": _provenance(vars(args), data),
        "p": table.p, "ap": table.ap, "eps_p": table.eps_p,
        "tame_index": args.tame, "precision": params.precision,
        "v": _frac_str(params.ap_valuation()),
        "mu_sharp": str(sharp.mu), "lambda_sharp": sharp.lam,
        "mu_flat": str(flat.mu), "lambda_flat": flat.lam,
        "stable": sharp.stable,
        "ordinary_note": (
            "level representatives are one peeling choice; only their class "
            "against the step product is intrinsic at a unit slope"
            if params.ap % params.p else None),
        "per_level": per_level,
    })
    return 0


def cmd_rank_bound(args):
    data = Path(args.invariants).read_bytes()
    doc = _read_fields(json.loads(data), _RANK_FIELDS, _RANK_FIELDS)
    report = rank_bound(doc["p"], doc["mu_sharp"], doc["mu_flat"],
                        doc["lambda_sharp"], doc["lambda_flat"], doc["v"])
    _write(args, "rank_bound.json", {
        "provenance": _provenance(vars(args), data),
        "p": report.p, "case": report.case, "bound": report.bound,
        "nu": report.nu, "nu_sharp": report.nu_sharp, "nu_flat": report.nu_flat,
        "nu_tilde_sharp": report.nu_tilde_sharp,
        "nu_tilde_flat": report.nu_tilde_flat,
        "lambda_sum_bound": report.lambda_sum_bound,
        "q_nu_sharp": report.details["q_nu_sharp"],
        "q_nu_flat": report.details["q_nu_flat"],
    })
    return 0


def _sha_record(entry, index):
    fields = _read_fields(entry, _RECORD_FIELDS, ("kind", "r_infinity"))
    for key in _KIND_FIELDS[fields["kind"]]:
        if key not in fields:
            raise SchemaError(f"record {fields.get('label') or index}: a {fields['kind']} "
                              f"record needs key {key!r}")
    return ShaRecord(**fields)


def cmd_sha_growth(args):
    data = Path(args.records).read_bytes()
    entries = json.loads(data)
    if not isinstance(entries, list):
        raise SchemaError(f"records must be a JSON list, got {type(entries).__name__}")
    records = [_sha_record(entry, index) for index, entry in enumerate(entries)]
    report = sha_growth(range(args.n_from, args.n_to + 1), records, args.p)
    _write(args, "sha_growth.json", {
        "provenance": _provenance(vars(args), data),
        "p": args.p,
        "increments": {str(n): str(v) for n, v in report.increments.items()},
        "choices": {str(n): list(v) for n, v in report.choices.items()},
    })
    return 0


def cmd_modesty_map(args):
    v_values = [_parse_ext(v, "--v-values") for v in args.v_values.split(",")]
    mu_gaps = [_fraction(g.strip(), "--mu-gaps") for g in args.mu_gaps.split(",")]
    rows = modesty_map(args.p, v_values, mu_gaps, args.lambda_sharp,
                       args.lambda_flat, depth=args.depth)
    lines = ["v,mu_gap,n_parity,star"]
    for row in rows:
        lines.append(f"{_frac_str(row['v'])},{row['mu_gap']},"
                     f"{row['n_parity']},{row['star']}")
    _write(args, "modesty_map.csv", "\n".join(lines) + "\n")
    return 0


def cmd_verify(args):
    checks = []

    def record(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(passed), "detail": detail})

    if args.synthetic_seed is not None:
        if args.p is None or args.ap is None:
            raise IwtError("synthetic verify needs --p and --ap")
        level = 3 if args.level is None else args.level
        eps = 1 if args.eps is None else args.eps
        params = FormParams(args.p, args.ap, eps, _precision(args, level))
        seq = synthesize_queue(args.synthetic_seed, params, level)
        table = data = None
    else:
        table, data, seq = _table_tower(args)
        level = seq.top_level
    params, m = seq.params, seq.params.precision

    queue_report = validate_queue(seq)
    record("three-term relation", queue_report.valid,
           "" if queue_report.valid else
           f"fails at level {queue_report.first_failure_level}")

    if queue_report.valid:
        nu_prev = lift_nu(seq[level - 1])
        top = decompose_pair(seq[level], nu_prev, params, hatted=args.hatted,
                             tame_index=seq.tame_index)
        theta, nu_back = recompose(top)
        record("round trip", theta == seq[level] and nu_back == nu_prev)
    record("determinant identity", det_identity_check(params, min(level, 3)))
    fe = functional_equation_check(params, min(level, 3))
    record("functional equation", fe.ok,
           "" if fe.ok else f"fails at {fe.failing_entries}")
    if table is not None and table.lratio is not None and queue_report.valid \
            and args.tame == 0:
        sv = special_value_check(top, table.lratio)
        ok = sv.checked and sv.sharp_agreement >= m and sv.flat_agreement >= m
        record("special value at T=0", ok,
               f"agreement valuations {sv.sharp_agreement}/{sv.flat_agreement} of {m}")

    passed = all(c["passed"] for c in checks)
    payload = {
        "provenance": _provenance(vars(args), data),
        "p": params.p, "ap": params.ap, "eps_p": params.eps_p,
        "level": level, "precision": m, "passed": passed, "checks": checks,
    }
    if args.out:
        _write(args, "verify.json", payload)
    for c in checks:
        print(("PASS " if c["passed"] else "FAIL ") + c["check"]
              + (f" ({c['detail']})" if c["detail"] else ""))
    return 0 if passed else 1


def cmd_selfcheck(args):
    return 1 if run_selfcheck() else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iwt",
        description="Exact sharp/flat Iwasawa-function computations "
                    "from modular-symbol data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, table_input=True):
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--ap", type=int, default=None)
        sp.add_argument("--eps", type=int, default=None)
        sp.add_argument("--level", type=int, default=None)
        sp.add_argument("--tame", type=int, default=0)
        sp.add_argument("--precision", type=int, default=None)
        sp.add_argument("--hatted", action="store_true")
        sp.add_argument("--allow-denominator", type=int, default=1,
                        dest="allow_denominator")
        if table_input:
            sp.add_argument("--input", required=True)

    sp = sub.add_parser("decompose", help="write sharp/flat coefficients per level")
    add_common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_decompose, module="sharp_flat")

    sp = sub.add_parser("invariants", help="write stabilized mu/lambda data")
    add_common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_invariants, module="sharp_flat")

    sp = sub.add_parser("rank-bound", help="rank report from an invariants file")
    sp.add_argument("--invariants", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_rank_bound, module="bsd_analytics")

    sp = sub.add_parser("sha-growth", help="per-layer Sha increments")
    sp.add_argument("--records", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n-from", type=int, required=True, dest="n_from")
    sp.add_argument("--n-to", type=int, required=True, dest="n_to")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_sha_growth, module="bsd_analytics")

    sp = sub.add_parser("modesty-map", help="CSV sweep of the comparison rule")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--v-values", required=True, dest="v_values")
    sp.add_argument("--mu-gaps", default="0", dest="mu_gaps")
    sp.add_argument("--lambda-sharp", type=int, default=1, dest="lambda_sharp")
    sp.add_argument("--lambda-flat", type=int, default=1, dest="lambda_flat")
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_modesty_map, module="bsd_analytics")

    sp = sub.add_parser("verify", help="consistency battery on a fixture")
    add_common(sp, table_input=False)
    sp.add_argument("--input", default=None)
    sp.add_argument("--synthetic-seed", type=int, default=None,
                    dest="synthetic_seed")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_verify, module="cli")

    sp = sub.add_parser("selfcheck", help="run the built-in example corpus")
    sp.set_defaults(fn=cmd_selfcheck, module="cli")
    return parser


@functools.cache
def _parser():
    """The parser of `main`: built on the first call, then reused."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (IwtError, OSError, ValueError) as exc:
        return _fail(getattr(args, "module", "cli"), args.command, exc)


if __name__ == "__main__":
    sys.exit(main())
