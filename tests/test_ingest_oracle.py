"""Differential test of `ingest_modular_symbols` against the Fraction-based code.

`oracle_ingest` is the ingest that stored every value as a Fraction,
formatted each error location up front and scanned every (a, N, sign)
slot for coverage.  Mutated documents must raise the same exception class
with the same message under both, or give tables that compare equal.
"""

import copy
import random
from fractions import Fraction

import pytest

from iwt.errors import (IwtError, MissingSymbol, NonIntegralDenominator,
                        SchemaError)
from iwt.mazur_tate import (ModularSymbolTable, _column_rows, ingest_modular_symbols,
                            slot_rows)
from iwt.padic_core import val_p


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _is_digit_run(side):
    """An optionally signed, nonempty run of ASCII digits."""
    body = side[1:] if side[:1] in ("+", "-") else side
    return body != "" and all(ch in "0123456789" for ch in body)


def _parse_rational(text, where):
    try:
        num, slash, den = str(text).partition("/")
        if not _is_digit_run(num) or (slash and not _is_digit_run(den)):
            raise ValueError(text)
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad rational {text!r}") from exc


def oracle_ingest(document, allow_denominator=1):
    if not isinstance(document, dict):
        raise SchemaError("document must be a JSON object")
    for key in ("p", "conductor", "ap", "eps_p", "maxN", "symbols"):
        if key not in document:
            raise SchemaError(f"missing key {key!r}")
    p = document["p"]
    if not _is_prime(p):
        raise SchemaError(f"p={p} is not prime")
    conductor = int(document["conductor"])
    if conductor % p == 0:
        raise SchemaError(f"p={p} divides the conductor {conductor}; need a good prime")
    eps_p = int(document["eps_p"])
    if eps_p % p == 0:
        raise SchemaError("eps_p must be a p-adic unit")
    max_n = int(document["maxN"])
    if max_n < 1:
        raise SchemaError("maxN must be >= 1")

    values = {}
    for entry in document["symbols"]:
        if not isinstance(entry, dict) or not {"a", "N", "plus", "minus"} <= entry.keys():
            raise SchemaError(f"malformed symbol entry {entry!r}")
        big_n = int(entry["N"])
        if not 1 <= big_n <= max_n:
            raise SchemaError(f"symbol has N={big_n} outside 1..{max_n}")
        a = int(entry["a"]) % p ** big_n
        if a % p == 0:
            raise SchemaError(f"residue a={entry['a']} at N={big_n} is divisible by {p}")
        for sign, key in ((1, "plus"), (-1, "minus")):
            where = f"(a={a}, N={big_n}, sign={sign:+d})"
            value = _parse_rational(entry[key], where)
            den_p_part = p ** val_p(value.denominator, p)
            if den_p_part > 1 and allow_denominator % den_p_part != 0:
                raise NonIntegralDenominator(
                    f"{where}: denominator {value.denominator} is not a p-unit")
            if (a, big_n, sign) in values and values[(a, big_n, sign)] != value:
                raise SchemaError(f"{where}: conflicting duplicate entries")
            values[(a, big_n, sign)] = value

    for big_n in range(1, max_n + 1):
        for a in range(1, p ** big_n):
            if a % p == 0:
                continue
            for sign in (1, -1):
                if (a, big_n, sign) not in values:
                    raise MissingSymbol(f"no symbol for a={a}, N={big_n}, sign={sign:+d}")

    for (a, big_n, sign), value in values.items():
        mirrored = values[((-a) % p ** big_n, big_n, sign)]
        if mirrored != sign * value:
            raise SchemaError(
                f"sign symmetry violated at (a={a}, N={big_n}, sign={sign:+d})")

    lratio = document.get("lratio")
    if lratio is not None:
        lratio = _parse_rational(lratio, "lratio")

    return ModularSymbolTable(
        p=p, conductor=conductor, ap=int(document["ap"]), eps_p=eps_p,
        maxN=max_n, period_convention=str(document.get("period_convention", "")),
        rows=slot_rows(p, max_n, values), lratio=lratio,
        denominator_scale=allow_denominator)


def table_slots(table):
    """Every slot (a, N, sign) of a table, read through symbol(), in
    (N, a, sign) order."""
    p = table.p
    return {(a, big_n, sign): table.symbol(a, big_n, sign)
            for big_n in range(1, table.maxN + 1)
            for a in range(1, p ** big_n) if a % p
            for sign in (1, -1)}


MAX_N = {2: 4, 3: 3, 5: 2, 7: 2}


def symmetric_document(p, rng, max_n=None):
    """A valid document whose values are integer strings, in shuffled order."""
    max_n = MAX_N[p] if max_n is None else max_n
    values = {}
    for big_n in range(1, max_n + 1):
        m = p ** big_n
        for a in range(1, m):
            if a % p == 0 or (a, big_n, 1) in values:
                continue
            for sign in (1, -1):
                value = 0 if sign == -1 and (2 * a) % m == 0 else rng.randint(-50, 50)
                values[(a, big_n, sign)] = value
                values[(m - a, big_n, sign)] = sign * value
    symbols = [{"a": a, "N": big_n, "plus": str(values[(a, big_n, 1)]),
                "minus": str(values[(a, big_n, -1)])}
               for (a, big_n, sign) in values if sign == 1]
    rng.shuffle(symbols)
    return {"p": p, "conductor": 11 if p != 11 else 13, "ap": rng.randint(-3, 3),
            "eps_p": 1, "maxN": max_n, "period_convention": "fuzz",
            "lratio": rng.choice([None, "0", "3/4", "-2/1"]), "symbols": symbols}


def _mirror(doc, entry):
    p, big_n = doc["p"], entry["N"]
    m = p ** big_n
    return next((e for e in doc["symbols"]
                 if e["N"] == big_n and e["a"] % m == (-entry["a"]) % m), {})


def _set_pair(doc, entry, key, text, mirrored_text):
    # write a value and its mirror (if present), keeping the sign symmetry
    entry[key] = text
    _mirror(doc, entry)[key] = mirrored_text


def _neg(text):
    return text[1:] if text.startswith("-") else "-" + text


def _bump(text):
    # a different value, or a different spelling when text is no integer
    try:
        return str(int(text) + 1)
    except (TypeError, ValueError):
        return f"{text}1"


def mutate(doc, rng):
    """Apply one random mutation in place; return its name."""
    p, symbols = doc["p"], doc["symbols"]
    entry = rng.choice(symbols)
    kind = rng.choice(["drop", "dup-equal", "dup-conflict", "mirror", "over-one",
                       "p-power", "bad-rational", "N-range", "a-divisible",
                       "a-unreduced", "none"])
    if kind == "drop":
        symbols.remove(entry)
    elif kind == "dup-equal":
        symbols.insert(rng.randrange(len(symbols) + 1), dict(entry))
    elif kind == "dup-conflict":
        clash = dict(entry, plus=_bump(entry["plus"]))
        symbols.insert(rng.randrange(len(symbols) + 1), clash)
    elif kind == "mirror":
        key = rng.choice(["plus", "minus"])
        if rng.random() < 0.5:
            entry[key] = _bump(entry[key])
        else:
            # p-unit fractions on both sides, with the wrong relative sign
            d = 3 if p == 2 else 2
            _set_pair(doc, entry, key, f"1/{d}", f"{-1 if key == 'plus' else 1}/{d}")
    elif kind == "over-one":
        # an integral "a/b": k/1 or (k*d)/d, equal to the integer k
        for e in rng.sample(symbols, min(4, len(symbols))):
            key, d = rng.choice(["plus", "minus"]), rng.choice([1, 1, 2, p, -1])
            if isinstance(e[key], str) and e[key].lstrip("-").isdigit():
                e[key] = f"{int(e[key]) * d}/{d}"
    elif kind == "p-power":
        key = rng.choice(["plus", "minus"])
        num = rng.choice([1, -2, 5, p + 1, p * p])
        den = p ** rng.choice([1, 2])
        text = f"{num}/{den}"
        _set_pair(doc, entry, key, text, text if key == "plus" else _neg(text))
    elif kind == "bad-rational":
        entry[rng.choice(["plus", "minus"])] = rng.choice(
            ["x", "1/0", "1.5", "", "1/2/3", "/", "0/0", None])
    elif kind == "N-range":
        entry["N"] = rng.choice([0, -1, doc["maxN"] + 1])
    elif kind == "a-divisible":
        entry["a"] = p * rng.randint(0, 3)
    elif kind == "a-unreduced":
        entry["a"] += p ** entry["N"] * rng.choice([1, 2, -1])
    return kind


def outcome(ingest, doc, allow_denominator):
    try:
        return ingest(copy.deepcopy(doc), allow_denominator=allow_denominator)
    except IwtError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p", sorted(MAX_N))
def test_ingest_matches_the_fraction_oracle(p):
    rng = random.Random(f"ingest-oracle-{p}")
    kinds = set()
    for _ in range(150):
        doc = symmetric_document(p, rng)
        for _ in range(rng.choice([1, 1, 2])):
            kinds.add(mutate(doc, rng))
        for allow in (1, 3, 9):
            want = outcome(oracle_ingest, doc, allow)
            got = outcome(ingest_modular_symbols, doc, allow)
            assert got == want, (doc, allow)
    assert len(kinds) == 11


def test_integral_values_are_ints_and_the_rest_fractions():
    doc = {"p": 3, "conductor": 11, "ap": 1, "eps_p": 1, "maxN": 1,
           "symbols": [{"a": 1, "N": 1, "plus": "4/2", "minus": "1/3"},
                       {"a": 2, "N": 1, "plus": "2/1", "minus": "-1/3"}]}
    table = ingest_modular_symbols(doc, allow_denominator=3)
    assert table == oracle_ingest(doc, allow_denominator=3)
    assert [type(v) for v in table_slots(table).values()] == [int, Fraction, int, Fraction]


def _json_ints(doc, rng):
    for entry in doc["symbols"]:
        entry["plus"], entry["minus"] = int(entry["plus"]), int(entry["minus"])


def _over_one(doc, rng):
    # every value k spelled k/1 or (k*d)/d, d = p among them
    for entry in doc["symbols"]:
        for key in ("plus", "minus"):
            d = rng.choice([1, 1, 2, 3, -1, -5])
            entry[key] = f"{int(entry[key]) * d}/{d}"


def _duplicate_first(doc, rng):
    # an equal duplicate placed before its original
    symbols = doc["symbols"]
    symbols.insert(0, dict(symbols[rng.randrange(len(symbols))]))


def _top_mirror(doc, rng):
    entry = rng.choice([e for e in doc["symbols"] if e["N"] == doc["maxN"]])
    key = rng.choice(["plus", "minus"])
    entry[key] = _bump(entry[key])


def _pair_replaced(doc, rng):
    # the entries of a and -a at the top level replaced by equal copies of
    # two others: as many entries as slots, the rows still symmetric
    symbols, m = doc["symbols"], doc["p"] ** doc["maxN"]
    entry = rng.choice([e for e in symbols if e["N"] == doc["maxN"]])
    pair = [i for i, e in enumerate(symbols)
            if e["N"] == entry["N"] and e["a"] in (entry["a"], m - entry["a"])]
    others = [e for e in symbols if e["N"] < doc["maxN"]]
    for i in pair:
        symbols[i] = dict(rng.choice(others))


def _non_dict_entry(doc, rng):
    entry = rng.choice(doc["symbols"])
    doc["symbols"][doc["symbols"].index(entry)] = list(entry.values())


def _inner_space(doc, rng):
    # two spellings that each pass, joined by the column check's separator
    rng.choice(doc["symbols"])[rng.choice(["plus", "minus"])] = "1 2"


def _long_value(doc, rng):
    # longer than int()'s 4300-digit limit for str
    rng.choice(doc["symbols"])[rng.choice(["plus", "minus"])] = "7" * 4301


# case -> (mutation, the class and message start the oracle must report,
# or None for a table)
DEEP_CASES = {
    "valid": (lambda doc, rng: None, None),
    "json-ints": (_json_ints, None),
    "over-one": (_over_one, None),
    "duplicate-first": (_duplicate_first, None),
    "top-mirror": (_top_mirror, (SchemaError, "sign symmetry violated at ")),
    "long-value": (_long_value, (SchemaError, "(a=")),
    "inner-space": (_inner_space, (SchemaError, "(a=")),
    "pair-replaced": (_pair_replaced, (MissingSymbol, "no symbol for a=")),
    "non-dict-entry": (_non_dict_entry, (SchemaError, "malformed symbol entry [")),
}


@pytest.mark.parametrize("case", sorted(DEEP_CASES))
def test_ingest_matches_the_oracle_on_a_deep_table(case):
    # the shape of the tower-table workload's table: p = 3, maxN = 8
    rng = random.Random(f"ingest-deep-{case}")
    doc = symmetric_document(3, rng, max_n=8)
    mutation, error = DEEP_CASES[case]
    mutation(doc, rng)
    want = outcome(oracle_ingest, doc, 1)
    got = outcome(ingest_modular_symbols, doc, 1)
    if error is None:
        assert isinstance(want, ModularSymbolTable)
        assert isinstance(got, ModularSymbolTable)
        assert table_slots(got) == table_slots(want)
    else:
        assert want[0] is error[0] and want[1].startswith(error[1])
        assert got == want
    if case in ("long-value", "inner-space"):
        assert "bad rational" in want[1]


# spellings of one value; only those of one optional sign and ASCII digits
# take the column pass, the rest the entry loop, whose verdict the
# oracle's must match
SPELLINGS = [" 5", "5 ", "5\n", "1_0", "\u0663", "+-5", "", "+5", "-0", "05",
             "7" * 4301, 5, True, 5.0, None]
COLUMN_SPELLINGS = ("+5", "-0", "05")


def _respelled(spelling):
    """A full integer table (p = 3, maxN = 8) in which one top-level plus
    value is spelled `spelling` and its mirror is what int() reads from
    that spelling (5 where int() reads nothing), so that only the spelling
    decides the outcome."""
    doc = symmetric_document(3, random.Random("ingest-spelling"), max_n=8)
    entry = next(e for e in doc["symbols"] if e["N"] == 8)
    try:
        meant = int(spelling)
    except (TypeError, ValueError):
        meant = 5
    _set_pair(doc, entry, "plus", spelling, str(meant))
    return doc


@pytest.mark.parametrize("spelling", SPELLINGS, ids=lambda s: repr(s)[:12])
def test_one_respelled_value_matches_the_oracle(spelling):
    doc = _respelled(spelling)
    want = outcome(oracle_ingest, doc, 1)
    got = outcome(ingest_modular_symbols, doc, 1)
    if isinstance(want, ModularSymbolTable):
        assert isinstance(got, ModularSymbolTable)
        assert table_slots(got) == table_slots(want)
    else:
        assert got == want
    columns = _column_rows(3, 8, doc["symbols"])
    assert (columns is not None) == (spelling in COLUMN_SPELLINGS)


def test_the_column_pass_takes_integer_strings_and_leaves_fractions(e37a_document):
    doc = _respelled("5")
    assert _column_rows(3, 8, doc["symbols"]) == ingest_modular_symbols(doc).rows
    doc = e37a_document
    assert _column_rows(doc["p"], doc["maxN"], doc["symbols"]) is None
