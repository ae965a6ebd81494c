"""Seeded modular-symbol tables for the benchmark, and their relation checker.

A table holds [a/p^N]^+- for every residue a coprime to p and every
1 <= N <= maxN.  Genuine tables satisfy two identities that `iwt`'s
tower construction relies on:

* sign symmetry: [-a/m]^+ = [a/m]^+ and [-a/m]^- = -[a/m]^-;
* the Hecke distribution relation, for N >= 2,

      sum_{b < p} [(a + b p^N)/p^(N+1)] = ap [a/p^N] - eps [a/p^(N-1)].

Levels 1 and 2 are free.  Each deeper level draws p-1 lifts of every
residue at random and solves for the last lift, so the relation holds
exactly; the lifts of -a are the negated lifts of a, which keeps the sign
symmetry.  Values are integers, so every denominator is a p-unit.

The free values are drawn from [-SPREAD, SPREAD].  With small values a
low level's sharp or flat element vanishes mod p^M for a few percent of
tables, and `iwt invariants` then refuses that level (PrecisionExhausted),
as it does at level 1 of curve 37a; SPREAD makes that rare.
"""

from __future__ import annotations

import random
from fractions import Fraction

SPREAD = 10 ** 6


def _units(p, big_n):
    return [a for a in range(1, p ** big_n) if a % p]


def generate_table(seed, p, ap, eps_p, max_n):
    """A symbols document accepted by `iwt.mazur_tate.ingest_modular_symbols`."""
    rng = random.Random(f"table:{seed}:{p}:{ap}:{eps_p}:{max_n}")
    values = {}  # (a, N, sign) -> int

    def put(a, big_n, sign, value):
        m = p ** big_n
        values[(a % m, big_n, sign)] = value
        values[(-a % m, big_n, sign)] = sign * value

    for big_n in range(1, min(2, max_n) + 1):
        m = p ** big_n
        for a in _units(p, big_n):
            if (a, big_n, 1) in values:
                continue
            for sign in (1, -1):
                # a residue equal to its own negative has a zero minus symbol
                selfdual = sign == -1 and (2 * a) % m == 0
                put(a, big_n, sign, 0 if selfdual else rng.randint(-SPREAD, SPREAD))

    for big_n in range(2, max_n):
        m = p ** big_n
        for a in _units(p, big_n):
            lifts = [a + b * m for b in range(p)]
            if (lifts[0], big_n + 1, 1) in values:
                continue  # already written as the mirror of -a
            for sign in (1, -1):
                target = ap * values[(a, big_n, sign)] \
                    - eps_p * values[(a % p ** (big_n - 1), big_n - 1, sign)]
                drawn = [rng.randint(-SPREAD, SPREAD) for _ in range(p - 1)]
                for lift, value in zip(lifts, drawn + [target - sum(drawn)]):
                    put(lift, big_n + 1, sign, value)

    symbols = [{"a": a, "N": big_n,
                "plus": str(values[(a, big_n, 1)]),
                "minus": str(values[(a, big_n, -1)])}
               for big_n in range(1, max_n + 1) for a in _units(p, big_n)]
    return {"p": p, "conductor": 11 if p != 11 else 13, "ap": ap,
            "eps_p": eps_p, "maxN": max_n,
            "period_convention": f"synthetic table, seed {seed}",
            "symbols": symbols}


def check_relations(document):
    """(relations checked, relations failed) for a symbols document.

    Sign-symmetry violations count as failures too.
    """
    p, ap, eps_p = document["p"], document["ap"], document["eps_p"]
    values = {}
    for entry in document["symbols"]:
        big_n = int(entry["N"])
        a = int(entry["a"]) % p ** big_n
        values[(a, big_n, 1)] = Fraction(entry["plus"])
        values[(a, big_n, -1)] = Fraction(entry["minus"])

    def value(a, big_n, sign):
        return values[(a % p ** big_n, big_n, sign)]

    failed = sum(value(-a, big_n, sign) != sign * v
                 for (a, big_n, sign), v in values.items())
    checked = 0
    for big_n in range(2, document["maxN"]):
        m = p ** big_n
        for a in _units(p, big_n):
            for sign in (1, -1):
                lhs = sum(value(a + b * m, big_n + 1, sign) for b in range(p))
                rhs = ap * value(a, big_n, sign) - eps_p * value(a, big_n - 1, sign)
                checked += 1
                failed += lhs != rhs
    return checked, failed
