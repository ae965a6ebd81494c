import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from iwt.errors import (MissingSymbol, NonIntegralDenominator, NotAUnit,
                        OutOfRange, SchemaError)
from iwt.iwasawa_algebra import (FormParams, LambdaElement, cyclotomic_phi,
                                 exact_divide_by_phi, lift_nu)
from iwt.mazur_tate import (ModularSymbolTable, build_theta,
                            ingest_modular_symbols, level_exponent,
                            slot_rows, synthesize_queue, tame_sign,
                            theta_sequence, validate_queue)
from iwt.padic_core import log_gamma, padic_from_rational, teichmuller
from test_ingest_oracle import table_slots

M = 10


def minimal_document(p=3, values=None):
    symbols = []
    for a in range(1, p):
        plus, minus = ("1/1", "0/1") if values is None else values[a]
        symbols.append({"a": a, "N": 1, "plus": plus, "minus": minus})
    return {"p": p, "conductor": 11, "ap": 1, "eps_p": 1, "maxN": 1,
            "period_convention": "test", "symbols": symbols}


def test_minimal_roundtrip():
    table = ingest_modular_symbols(minimal_document())
    assert sum(v is not None for row in table.rows.values() for v in row) == 4
    assert table.symbol(1, 1, 1) == Fraction(1)
    assert table.symbol(2, 1, -1) == Fraction(0)


def test_missing_symbol_rejected():
    doc = minimal_document()
    doc["symbols"] = doc["symbols"][:1]
    with pytest.raises(MissingSymbol):
        ingest_modular_symbols(doc)


def test_non_integral_denominator():
    doc = minimal_document(values={1: ("1/3", "0/1"), 2: ("1/3", "0/1")})
    with pytest.raises(NonIntegralDenominator):
        ingest_modular_symbols(doc)
    # explicit override accepts a bounded p-denominator
    table = ingest_modular_symbols(doc, allow_denominator=3)
    assert table.denominator_scale == 3


def test_sign_symmetry_enforced():
    # [-a]^+ must equal [a]^+; break it and ingestion rejects
    doc = minimal_document(values={1: ("1/1", "1/1"), 2: ("2/1", "-1/1")})
    with pytest.raises(SchemaError):
        ingest_modular_symbols(doc)
    # [-a]^- must equal -[a]^-
    doc = minimal_document(values={1: ("1/1", "1/1"), 2: ("1/1", "1/1")})
    with pytest.raises(SchemaError):
        ingest_modular_symbols(doc)
    ok = minimal_document(values={1: ("1/1", "1/1"), 2: ("1/1", "-1/1")})
    ingest_modular_symbols(ok)


def test_bad_prime_and_conductor():
    doc = minimal_document()
    doc["p"] = 4
    with pytest.raises(SchemaError):
        ingest_modular_symbols(doc)
    doc = minimal_document()
    doc["conductor"] = 6
    with pytest.raises(SchemaError):
        ingest_modular_symbols(doc)


def test_level_zero_collapse():
    table = ingest_modular_symbols(minimal_document())
    theta = build_theta(table, 0, 0, M)
    assert theta.level == 0
    assert theta.coeffs[0] == 2  # [1/3]+ + [2/3]+ = 1 + 1


def test_all_ones_theta_counts_fibers():
    # with every plus symbol 1 and trivial tame character the element is
    # (p-1) * sum_t (1+T)^t; verify by exhaustive fiber count of log_gamma
    p, big_n = 3, 2
    doc = {"p": p, "conductor": 11, "ap": 1, "eps_p": 1, "maxN": big_n,
           "period_convention": "test", "symbols": []}
    for n_exp in (1, 2):
        for a in range(1, p ** n_exp):
            if a % p == 0:
                continue
            doc["symbols"].append({"a": a, "N": n_exp, "plus": "1/1", "minus": "0/1"})
    table = ingest_modular_symbols(doc)
    theta = build_theta(table, 1, 0, M)
    fibers = [0] * p
    for a in range(1, p ** big_n):
        if a % p == 0:
            continue
        fibers[log_gamma(a, p, big_n)] += 1
    assert fibers == [p - 1] * p
    want = LambdaElement.zero(p, 1, M)
    for t in range(p):
        want = want + fibers[t] * LambdaElement.unit_power(p, 1, M, t)
    assert theta == want


def test_build_theta_out_of_range_and_tame_sign():
    table = ingest_modular_symbols(minimal_document())
    with pytest.raises(OutOfRange):
        build_theta(table, 1, 0, M)     # needs N = 2 > maxN
    with pytest.raises(OutOfRange):
        build_theta(table, 0, 5, M)
    assert tame_sign(0) == 1 and tame_sign(1) == -1


def test_synthesized_queue_is_valid_and_deterministic():
    params = FormParams(3, -3, 1, M)
    a = synthesize_queue(42, params, 3)
    b = synthesize_queue(42, params, 3)
    c = synthesize_queue(43, params, 3)
    assert validate_queue(a).valid
    assert a.elements == b.elements
    assert a.elements[1] != c.elements[1]   # seed sensitivity at level 1


def test_queue_validation_localizes_faults():
    params = FormParams(3, -3, 1, M)
    seq = synthesize_queue(7, params, 3)
    broken = list(seq.elements)
    bumped = list(broken[2].coeffs)
    bumped[0] += 1
    broken[2] = LambdaElement(3, 2, M, bumped)
    from iwt.mazur_tate import QueueSequence
    report = validate_queue(QueueSequence(params=params, elements=tuple(broken)))
    assert not report.valid
    assert report.first_failure_level == 2
    assert report.residual_valuation == 0


def test_nu_image_is_divisible_by_top_cyclotomic():
    params = FormParams(5, 5, 1, M)
    seq = synthesize_queue(3, params, 2)
    nu = lift_nu(seq[1])
    q = exact_divide_by_phi(nu, 2)
    assert q * cyclotomic_phi(5, 2, 2, M) == nu


def test_e37a_table_and_queues(e37a_table):
    assert (e37a_table.p, e37a_table.ap, e37a_table.eps_p) == (3, -3, 1)
    assert e37a_table.lratio == Fraction(0)
    for tame in (0, 1):
        seq = theta_sequence(e37a_table, 4, tame, 12)
        assert validate_queue(seq).valid


def test_equal_tables_hash_equal(e37a_document):
    a, b = (ingest_modular_symbols(e37a_document) for _ in range(2))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(dataclasses.replace(a, ap=a.ap + 1)) != hash(a)


def per_residue_theta(table, n, tame_index, precision):
    # reference: one Teichmuller lift and one discrete log per residue a
    p = table.p
    big_n = level_exponent(p, n)
    modulus = p ** precision
    unit_coeffs = [0] * p ** n
    for a in range(1, p ** big_n):
        if a % p == 0:
            continue
        value = table.symbol(a, big_n, tame_sign(tame_index))
        c = padic_from_rational(p, value, precision).residue
        c *= pow(teichmuller(a, p, precision).residue, tame_index, modulus)
        t = log_gamma(a, p, big_n)
        unit_coeffs[t] = (unit_coeffs[t] + c) % modulus
    return LambdaElement.from_unit_basis(p, n, precision, unit_coeffs)


def random_symmetric_table(p, max_n, rng):
    dens = [d for d in (1, 2, 3, 5, 7, 11) if d % p]
    values = {}
    for big_n in range(1, max_n + 1):
        mod = p ** big_n
        for a in range(1, mod):
            for sign in (1, -1):
                if a % p == 0 or (a, big_n, sign) in values:
                    continue
                value = Fraction(rng.randrange(-40, 41), rng.choice(dens))
                if sign == -1 and (-a) % mod == a:
                    value = Fraction(0)
                values[(a, big_n, sign)] = value
                values[((-a) % mod, big_n, sign)] = sign * value
    return ModularSymbolTable(p=p, conductor=11, ap=1, eps_p=1, maxN=max_n,
                              period_convention="test",
                              rows=slot_rows(p, max_n, values))


@pytest.mark.parametrize("p, top", [(2, 6), (3, 4), (5, 3), (7, 2)])
def test_build_theta_matches_the_per_residue_formula(p, top):
    # every level with p^n <= 125 and every tame index
    table = random_symmetric_table(p, level_exponent(p, top), random.Random(p))
    for tame_index in range(2 if p == 2 else p - 1):
        for n in range(top + 1):
            assert build_theta(table, n, tame_index, M) == \
                per_residue_theta(table, n, tame_index, M)


def test_string_prime_is_a_schema_error():
    doc = minimal_document()
    doc["p"] = "3"
    with pytest.raises(SchemaError, match="'p'"):
        ingest_modular_symbols(doc)


def test_null_residue_is_a_schema_error():
    doc = minimal_document()
    doc["symbols"][0]["a"] = None
    with pytest.raises(SchemaError, match="'a'"):
        ingest_modular_symbols(doc)


def test_non_numeric_level_is_a_schema_error():
    doc = minimal_document()
    doc["symbols"][0]["N"] = "one"
    with pytest.raises(SchemaError, match="'N'"):
        ingest_modular_symbols(doc)


def test_non_numeric_max_level_is_a_schema_error():
    doc = minimal_document()
    doc["maxN"] = "x"
    with pytest.raises(SchemaError, match="'maxN'"):
        ingest_modular_symbols(doc)


def test_non_numeric_conductor_is_a_schema_error():
    doc = minimal_document()
    doc["conductor"] = [11]
    with pytest.raises(SchemaError, match="'conductor'"):
        ingest_modular_symbols(doc)


def test_non_list_symbols_is_a_schema_error():
    doc = minimal_document()
    doc["symbols"] = 7
    with pytest.raises(SchemaError, match="'symbols'"):
        ingest_modular_symbols(doc)


@pytest.mark.parametrize("where, field, value", [
    (None, "maxN", 1.0), (None, "conductor", 11.9), (None, "ap", True),
    (None, "eps_p", False), (0, "N", True), (0, "a", 1.5)])
def test_float_or_bool_integer_field_is_a_schema_error(where, field, value):
    # int() alone would read these as 1, 11, 1, 0, 1 and 1
    doc = minimal_document()
    (doc if where is None else doc["symbols"][where])[field] = value
    with pytest.raises(SchemaError, match=repr(field)):
        ingest_modular_symbols(doc)


def test_digit_string_integer_fields_are_accepted():
    doc = minimal_document()
    doc.update(conductor="11", ap="-1", eps_p="1", maxN="1")
    doc["symbols"][0].update(a="4", N="1")
    table = ingest_modular_symbols(doc)
    assert (table.conductor, table.ap, table.eps_p, table.maxN) == (11, -1, 1, 1)
    assert table.symbol(1, 1, 1) == Fraction(1)


def scaled_copy(table):
    """The same symbols times denominator_scale, with scale 1."""
    values = {slot: Fraction(v) * table.denominator_scale
              for slot, v in table_slots(table).items()}
    return ModularSymbolTable(p=table.p, conductor=table.conductor, ap=table.ap,
                              eps_p=table.eps_p, maxN=table.maxN,
                              period_convention=table.period_convention,
                              rows=slot_rows(table.p, table.maxN, values))


@pytest.mark.parametrize("p, top", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_build_theta_with_a_denominator_scale(p, top):
    rng = random.Random(10 * p)
    base = random_symmetric_table(p, level_exponent(p, top), rng)
    symbols = {}
    for (a, big_n, sign), value in table_slots(base).items():
        entry = symbols.setdefault((a, big_n), {"a": a, "N": big_n})
        entry["plus" if sign == 1 else "minus"] = str(value)
    # divide about a third of the residue pairs {a, -a} by p, keeping the symmetry
    for (a, big_n), entry in symbols.items():
        mirror = (-a) % p ** big_n
        if a < mirror and rng.random() < 1 / 3:
            for e in (entry, symbols[(mirror, big_n)]):
                e["plus"] = str(Fraction(e["plus"]) / p)
                e["minus"] = str(Fraction(e["minus"]) / p)
    doc = {"p": p, "conductor": 11, "ap": 1, "eps_p": 1, "maxN": base.maxN,
           "symbols": list(symbols.values())}
    table = ingest_modular_symbols(doc, allow_denominator=p)
    assert any(Fraction(v).denominator % p == 0 for v in table_slots(table).values())
    for tame_index in range(2 if p == 2 else p - 1):
        for n in range(top + 1):
            assert build_theta(table, n, tame_index, M) == \
                per_residue_theta(scaled_copy(table), n, tame_index, M)


def test_build_theta_rejects_a_denominator_beyond_the_scale():
    # [1/3]^+ = 1/9 at scale 3 leaves 1/3, as padic_from_rational reported it
    values = {(1, 1, 1): Fraction(1, 9), (2, 1, 1): Fraction(1, 9),
              (1, 1, -1): 0, (2, 1, -1): 0}
    table = ModularSymbolTable(p=3, conductor=11, ap=1, eps_p=1, maxN=1,
                               period_convention="test", rows=slot_rows(3, 1, values),
                               denominator_scale=3)
    with pytest.raises(NotAUnit, match="^denominator 3 is divisible by 3$"):
        build_theta(table, 0, 0, M)


def test_build_theta_names_a_missing_symbol():
    table = ingest_modular_symbols(minimal_document())
    slots = table_slots(table)
    del slots[(2, 1, 1)]
    table = dataclasses.replace(table, rows=slot_rows(3, 1, slots))
    with pytest.raises(MissingSymbol, match="a=2, N=1, sign=[+]1"):
        build_theta(table, 0, 0, M)


@pytest.mark.parametrize("text", ["5/", "/3", "1_0", " 7", "7 ", "1/0", "+", "1.0"])
def test_malformed_rational_is_a_schema_error(text):
    # each side of a/b must be an optionally signed run of ASCII digits
    doc = minimal_document(values={1: (text, "0"), 2: ("1", "0")})
    with pytest.raises(SchemaError, match="bad rational"):
        ingest_modular_symbols(doc)


def test_signed_and_integral_rationals_are_accepted():
    doc = minimal_document(values={1: ("-6/-2", "+0"), 2: ("3/1", "0/-5")})
    doc["lratio"] = 4
    table = ingest_modular_symbols(doc)
    assert table_slots(table) == {(1, 1, 1): 3, (2, 1, 1): 3, (1, 1, -1): 0, (2, 1, -1): 0}
    assert table.lratio == 4


def test_a_huge_max_level_fails_on_coverage_without_forming_its_power():
    # forming p^N for every N <= maxN took time quadratic in maxN
    doc = minimal_document()
    doc["maxN"] = 10 ** 5
    start = time.perf_counter()
    with pytest.raises(MissingSymbol, match="^no symbol for a=1, N=2, sign=[+]1$"):
        ingest_modular_symbols(doc)
    assert time.perf_counter() - start < 1.0


def test_a_large_prime_passes_the_primality_check():
    # trial division took about a second at this p; coverage fails next
    doc = minimal_document()
    doc["p"] = 10 ** 14 + 31
    with pytest.raises(MissingSymbol, match="^no symbol for a=3, N=1, sign=[+]1$"):
        ingest_modular_symbols(doc)


@pytest.mark.parametrize("p", [
    (10 ** 7 + 19) * (10 ** 7 + 79),    # two prime factors above 41
    3215031751,                          # Carmichael, strong pseudoprime to 2, 3, 5, 7
    561,                                 # the least Carmichael number
    318665857834031151167461,            # strong pseudoprime to every base up to 37
    2 ** 89 + 1])                        # composite above the certified range
def test_a_composite_p_is_not_prime(p):
    doc = minimal_document()
    doc["p"] = p
    with pytest.raises(SchemaError, match=f"^p={p} is not prime$"):
        ingest_modular_symbols(doc)


@pytest.mark.parametrize("p", [2 ** 89 - 1, 3317044064679887385961981])
def test_a_prime_beyond_the_certified_range_is_a_schema_error(p):
    # 2^89 - 1 is prime; 3317044064679887385961981 is the least composite
    # that passes Miller-Rabin to every prime base up to 41
    doc = minimal_document()
    doc["p"] = p
    with pytest.raises(SchemaError, match=f"^p={p} is not below "):
        ingest_modular_symbols(doc)
