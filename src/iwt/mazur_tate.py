"""Modular-symbol tables and the group-algebra elements built from them.

A table holds exact rationals [a/p^N]^+- for every residue a coprime to
p and every 1 <= N <= maxN, each an int when integral and a Fraction
otherwise, so build_theta works on numerators and denominators as plain
integers.  They are stored as one row per level N and sign: a list of
length p^N indexed by the residue a, holding None at the multiples of p.
Every unit mod p^N is uniquely a = w * gamma^t with w a
Teichmuller root (+-1 for p = 2), gamma = 1 + 2p and t in [0, p^n), where
N = n+1 for odd p and n+2 for p = 2.  From a fixed tame character
the level-n element is the weighted sum of (1+T)^t over these residues,
enumerated root by root, so the discrete log t is the loop index.
Consecutive elements satisfy the three-term compatibility

    pi(Theta_m) = ap * Theta_{m-1} - eps_p * nu(Theta_{m-2}),

which validate_queue checks to working precision and synthesize_queue
realizes for pseudorandom data.

ingest_modular_symbols checks a document in this order: the top-level
fields, then each symbol entry in document order (its keys, N, a, then
the plus and minus values, each against a conflicting duplicate), then
coverage of every slot, then the sign symmetry, then lratio.  The error
raised names the first bad entry in document order, and for coverage the
first missing slot in (N, a, sign) order.  A value is a string a or a/b,
each side one optional sign and ASCII digits, read by _parse_rational
(a JSON int is read as its decimal string).  A document that holds every
slot once, with int fields and every value a string of one optional sign
and ASCII digits, is checked by passes over whole columns and rows; any
other document, valid or not, goes through the entry-by-entry loop, which
alone decides which error comes first.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat, zip_longest
from operator import is_not, itemgetter, mod, neg, setitem

from .errors import (MissingSymbol, NonIntegralDenominator, OutOfRange,
                     SchemaError)
from .iwasawa_algebra import (FormParams, LambdaElement, _element, lift_nu,
                              project_pi)
from .padic_core import (check_prime, level_exponent, newton_min,
                         padic_from_rational, teichmuller, val_p)
from .polyops import poly_mul, poly_taylor_shift


def _where(slot):
    """A table slot (a, N, sign), or the name of a document field, for errors."""
    if isinstance(slot, str):
        return slot
    a, big_n, sign = slot
    return f"(a={a}, N={big_n}, sign={sign:+d})"


def _int_field(value, name):
    """An int or a string of digits, as int; int() alone would also truncate
    a float and read a bool as 0 or 1."""
    if type(value) is int:      # the common case, without the checks below
        return value
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError(f"field {name!r} must be an integer, got {value!r}")


def _parse_rational(text, where):
    """The rational a/b or a in `text`: an int when integral, else a Fraction.

    Each side is a signed run of ASCII digits, stricter than int() alone.
    This is the grammar of every rational the package reads: symbol
    values, lratio and the rational fields and options of the CLI.
    """
    string = str(text)
    num, slash, den = string.partition("/")
    try:
        if (not string.isascii() or "_" in string
                or num != num.strip() or den != den.strip()):
            raise ValueError(string)
        if not slash:
            return int(num)
        num, den = int(num), int(den)
        if den == 1:
            return num
        value = Fraction(num, den)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{_where(where)}: bad rational {text!r}") from exc
    return value.numerator if value.denominator == 1 else value


_ENTRY_KEYS = frozenset(("a", "N", "plus", "minus"))


@dataclass(frozen=True)
class ModularSymbolTable:
    """An exact table of modular symbols [a/p^N]^sign, sign in {+1, -1}.

    rows[(N, sign)] is a list of length p^N whose entry a, for a coprime
    to p, is [a/p^N]^sign: an int when integral, else a Fraction.  Its
    entries at the multiples of p are None.  ingest_modular_symbols fills
    every such slot; slot_rows builds the rows of a dict of slots.
    """

    p: int
    conductor: int
    ap: int
    eps_p: int
    maxN: int
    period_convention: str
    rows: dict
    lratio: Fraction | None = None
    denominator_scale: int = 1

    def symbol(self, a, big_n, sign):
        a %= self.p ** big_n
        row = self.rows.get((big_n, sign))
        value = None if row is None else row[a]
        if value is None:
            raise MissingSymbol(f"no symbol for a={a}, N={big_n}, sign={sign:+d}")
        return value

    def __hash__(self):
        # equal tables have equal scalar fields; the rows are a dict
        return hash((self.p, self.conductor, self.ap, self.eps_p, self.maxN,
                     self.period_convention, self.lratio, self.denominator_scale))


def slot_rows(p, max_n, slots):
    """The rows of ModularSymbolTable holding slots, a dict (a, N, sign) ->
    [a/p^N]^sign with 0 <= a < p^N and 1 <= N <= max_n; every slot the
    dict lacks reads None."""
    rows = _empty_rows(p, max_n)
    for (a, big_n, sign), value in slots.items():
        rows[big_n, sign][a] = value
    return rows


def _empty_rows(p, max_n):
    return {(big_n, sign): [None] * p ** big_n
            for big_n in range(1, max_n + 1) for sign in (1, -1)}


def _first_missing(p, max_n, values):
    """MissingSymbol for the first absent slot, in (N, a, sign) order."""
    for big_n in range(1, max_n + 1):
        for a in range(1, p ** big_n):
            if a % p == 0:
                continue
            for sign in (1, -1):
                if (a, big_n, sign) not in values:
                    return MissingSymbol(f"no symbol for a={a}, N={big_n}, sign={sign:+d}")


def _column_numbers(column):
    """The ints of a column of value spellings, or None unless every
    spelling is a string of one optional sign and ASCII digits."""
    try:
        # int() alone also takes surrounding whitespace, "_" and non-ASCII
        # digits; "".join takes only strings
        joined = "".join(column)
        if joined.isascii() and "_" not in joined and joined.split() == [joined]:
            return list(map(int, column))
    # a value that is no string, that int() rejects ("", "+-5", "1/2"), or
    # that is beyond int()'s digit limit
    except (TypeError, ValueError):
        pass
    return None


def _column_rows(p, max_n, symbols):
    """The rows of a document of p^maxN - 1 entries, by passes over whole
    columns and rows, or None when any pass fails.

    The passes accept exactly the documents the entry loop accepts that
    hold every slot once, with int fields a and N and every value a string
    of one optional sign and ASCII digits.  Any other spelling, such as
    k/1, a/b or a JSON int, is left to the entry loop.
    """
    if set(map(type, symbols)) != {dict}:
        return None
    try:
        # the value columns first: a table spelled k/1 or a/b leaves here,
        # before the a and N columns are extracted and reduced
        columns = []
        for key in ("plus", "minus"):
            numbers = _column_numbers(list(map(itemgetter(key), symbols)))
            if numbers is None:
                return None
            columns.append(numbers)
        residues, big_ns = (list(map(itemgetter(key), symbols)) for key in ("a", "N"))
    except KeyError:
        return None
    if (set(map(type, big_ns)) != {int} or set(map(type, residues)) != {int}
            or min(big_ns) < 1 or max(big_ns) > max_n):
        return None
    moduli = [p ** big_n for big_n in range(max_n + 1)]
    residues = list(map(mod, residues, map(moduli.__getitem__, big_ns)))
    if not all(map(mod, residues, repeat(p))):
        return None
    rows = _empty_rows(p, max_n)
    for sign, numbers in zip((1, -1), columns):
        by_level = [None] + [rows[big_n, sign] for big_n in range(1, max_n + 1)]
        deque(map(setitem, map(by_level.__getitem__, big_ns), residues, numbers),
              maxlen=0)
    # the rows hold every value now; hold no column beside them
    del residues, big_ns, columns, numbers
    # the entries fill p^maxN - 1 distinct unit slots of each sign, all of them,
    # exactly when no two share one
    filled = sum(len(row) - row.count(None) for (_, sign), row in rows.items()
                 if sign == 1)
    if filled != len(symbols):
        return None
    for big_n in range(1, max_n + 1):
        # [-a/m]^+ = [a/m]^+ and [-a/m]^- = -[a/m]^-; the units of the
        # minus row read backwards are the values at -a
        plus, minus = rows[big_n, 1], rows[big_n, -1]
        units = list(filter(partial(is_not, None), minus))
        if plus[1:] != plus[:0:-1] or units[::-1] != list(map(neg, units)):
            return None
    return rows


def _entry_rows(p, max_n, symbols, allow_denominator, units):
    """The rows of a document, checked entry by entry in document order.

    units is p^maxN - 1, or None when that exceeds len(symbols), so that
    an incomplete document with a huge maxN forms no power of p beyond
    those its entries name.
    """
    moduli = {}
    values = {}
    for entry in symbols:
        if not isinstance(entry, dict) or not _ENTRY_KEYS <= entry.keys():
            raise SchemaError(f"malformed symbol entry {entry!r}")
        big_n = _int_field(entry["N"], "N")
        if not 1 <= big_n <= max_n:
            raise SchemaError(f"symbol has N={big_n} outside 1..{max_n}")
        if big_n not in moduli:
            moduli[big_n] = p ** big_n
        a = _int_field(entry["a"], "a") % moduli[big_n]
        if a % p == 0:
            raise SchemaError(f"residue a={entry['a']} at N={big_n} is divisible by {p}")
        for sign, key in ((1, "plus"), (-1, "minus")):
            slot = (a, big_n, sign)
            value = _parse_rational(entry[key], slot)
            if type(value) is not int:
                den_p_part = p ** val_p(value.denominator, p)
                if den_p_part > 1 and allow_denominator % den_p_part != 0:
                    raise NonIntegralDenominator(f"{_where(slot)}: denominator "
                                                 f"{value.denominator} is not a p-unit")
            if slot in values and values[slot] != value:
                raise SchemaError(f"{_where(slot)}: conflicting duplicate entries")
            values[slot] = value

    # every key is a valid slot, so the count decides coverage:
    # 2 * sum over N of phi(p^N) = 2 * (p^maxN - 1)
    if units is None or len(values) != 2 * units:
        raise _first_missing(p, max_n, values)

    # [-a/m]^+ = [a/m]^+ and [-a/m]^- = -[a/m]^- hold for genuine symbols
    for slot, value in values.items():
        a, big_n, sign = slot
        if values[(moduli[big_n] - a, big_n, sign)] != sign * value:
            raise SchemaError(f"sign symmetry violated at {_where(slot)}")
    return slot_rows(p, max_n, values)


def ingest_modular_symbols(document, allow_denominator=1):
    """Validate a symbols document and return the exact table.

    Rejects mistyped fields, incomplete residue coverage, non p-integral
    denominators (beyond the explicit allow_denominator bound) and
    violations of the sign symmetry [-a/m]^+- = +-[a/m]^+-, raising for
    the first bad entry in document order (see the module docstring).
    """
    if not isinstance(document, dict):
        raise SchemaError("document must be a JSON object")
    for key in ("p", "conductor", "ap", "eps_p", "maxN", "symbols"):
        if key not in document:
            raise SchemaError(f"missing key {key!r}")
    p = document["p"]
    if not isinstance(p, int):
        raise SchemaError(f"field 'p' must be an integer, got {p!r}")
    check_prime(p, SchemaError)
    conductor = _int_field(document["conductor"], "conductor")
    if conductor % p == 0:
        raise SchemaError(f"p={p} divides the conductor {conductor}; need a good prime")
    eps_p = _int_field(document["eps_p"], "eps_p")
    if eps_p % p == 0:
        raise SchemaError("eps_p must be a p-adic unit")
    max_n = _int_field(document["maxN"], "maxN")
    if max_n < 1:
        raise SchemaError("maxN must be >= 1")
    symbols = document["symbols"]
    if not isinstance(symbols, list):
        raise SchemaError(f"field 'symbols' must be a list, got {type(symbols).__name__}")

    # each entry names one unit a mod p^N, and there are p^maxN - 1 of them;
    # p^maxN >= 2^maxN exceeds len(symbols) + 1 once maxN > its bit length
    units = p ** max_n - 1 if max_n <= len(symbols).bit_length() else None
    rows = _column_rows(p, max_n, symbols) if len(symbols) == units else None
    if rows is None:
        rows = _entry_rows(p, max_n, symbols, allow_denominator, units)

    lratio = document.get("lratio")
    if lratio is not None:
        lratio = Fraction(_parse_rational(lratio, "lratio"))

    return ModularSymbolTable(
        p=p, conductor=conductor, ap=_int_field(document["ap"], "ap"), eps_p=eps_p,
        maxN=max_n, period_convention=str(document.get("period_convention", "")),
        rows=rows, lratio=lratio, denominator_scale=allow_denominator)


def tame_sign(tame_index):
    """omega^i(-1): +1 for even i, -1 for odd i."""
    return -1 if tame_index % 2 else 1


def build_theta(table, n, tame_index, precision):
    """The level-n element attached to the tame character omega^i.

    Sum over a in (Z/p^N)^* of [a/p^N]^sign * omega^i(a) * (1+T)^log_gamma(a).
    The residues are enumerated as a = w * gamma^t mod p^N, w running over
    the Teichmuller roots of 1..p-1 (+-1 for p = 2) and t over [0, p^n), so
    t = log_gamma(a) needs no lookup and omega^i(a) = w^i mod p^M is formed
    once per root.  A symbol [a/p^N] = u/d contributes u * (scale/d) mod p^M,
    with scale/d mod p^M formed once per distinct denominator d.  The sum
    is accumulated in the group basis, the ring's storage basis.
    """
    p = table.p
    big_n = level_exponent(p, n)
    if big_n > table.maxN:
        raise OutOfRange(f"level n={n} needs N={big_n} > maxN={table.maxN}")
    n_tame = 2 if p == 2 else p - 1
    if not 0 <= tame_index < n_tame:
        raise OutOfRange(f"tame index {tame_index} outside 0..{n_tame - 1}")
    sign = tame_sign(tame_index)
    modulus = p ** precision
    big_modulus = p ** big_n
    gamma = 1 + 2 * p
    row = table.rows[big_n, sign]
    factors = {}   # denominator d -> scale/d mod p^M
    unit_coeffs = [0] * p ** n
    for root in ((1, -1) if p == 2 else range(1, p)):
        a = teichmuller(root, p, big_n).residue
        weight = pow(teichmuller(root, p, precision).residue, tame_index, modulus)
        for t in range(p ** n):
            value = row[a]
            if value is None:
                raise MissingSymbol(f"no symbol for a={a}, N={big_n}, sign={sign:+d}")
            den = value.denominator
            if den not in factors:
                factors[den] = padic_from_rational(
                    p, Fraction(table.denominator_scale, den), precision).residue
            unit_coeffs[t] += value.numerator * factors[den] * weight
            a = a * gamma % big_modulus
    return LambdaElement.from_unit_basis(p, n, precision, unit_coeffs)


@dataclass(frozen=True)
class QueueSequence:
    """Elements Theta_0..Theta_n, index k at level k."""

    params: FormParams
    elements: tuple
    tame_index: int | None = None

    @property
    def top_level(self):
        return len(self.elements) - 1

    def __getitem__(self, level):
        return self.elements[level]


def theta_sequence(table, n, tame_index, precision):
    params = FormParams(table.p, table.ap, table.eps_p, precision)
    elements = tuple(build_theta(table, m, tame_index, precision)
                     for m in range(n + 1))
    return QueueSequence(params=params, elements=elements, tame_index=tame_index)


@dataclass(frozen=True)
class QueueReport:
    valid: bool
    first_failure_level: int | None
    residual_valuation: int | None


def validate_queue(seq):
    """Check the three-term relation at every level >= 2 at working precision."""
    params = seq.params
    for m in range(2, seq.top_level + 1):
        want = params.ap * seq[m - 1] - params.eps_p * lift_nu(seq[m - 2])
        defect = project_pi(seq[m]) - want
        # the least valuation is the same in the group basis and in T
        found = newton_min(defect.units, defect.p)
        if found is not None:
            return QueueReport(valid=False, first_failure_level=m,
                               residual_valuation=found[0])
    return QueueReport(valid=True, first_failure_level=None, residual_valuation=None)


def synthesize_queue(seed, params, n):
    """Deterministic pseudorandom tower satisfying the three-term relation.

    Theta_0, Theta_1 are uniform; each later element is the canonical
    lift of the forced projection plus a random multiple r(T) of
    (1+T)^(p^(m-1)) - 1.  That multiple has degree < p^m, so it is a plain
    product and the sum is already the canonical representative.  The
    element keeps both bases of that sum: its T-coefficients, and its
    group-basis vector, the target's own plus r(X - 1) (X^(p^(m-1)) - 1),
    for which only r is shifted to the group basis.
    """
    p, M = params.p, params.precision
    modulus = p ** M
    rng = random.Random(seed)

    def random_coeffs(count):
        return [rng.randrange(modulus) for _ in range(count)]

    elements = [LambdaElement(p, 0, M, random_coeffs(1)),
                LambdaElement(p, 1, M, random_coeffs(p))]
    for m in range(2, n + 1):
        target = params.ap * elements[m - 1] - params.eps_p * lift_nu(elements[m - 2])
        step = p ** (m - 1)
        r = random_coeffs(p ** m - step)
        # (1+T)^step - 1: the coefficients of T^step - 1 shifted by T -> T + 1
        kernel_gen = poly_taylor_shift([-1] + [0] * (step - 1) + [1], 1, modulus)
        noise = poly_mul(r, kernel_gen, modulus)
        # the canonical representative of target, read one level up, plus noise
        coeffs = [(a + b) % modulus
                  for a, b in zip_longest(target.coeffs, noise, fillvalue=0)]
        coeffs += [0] * (p ** m - len(coeffs))
        r_units = poly_taylor_shift(r, -1, modulus)
        units = [(a + b - c) % modulus for a, b, c in
                 zip_longest(target.units, [0] * step + r_units, r_units, fillvalue=0)]
        elements.append(_element(p, m, M, units, coeffs))
    return QueueSequence(params=params, elements=tuple(elements))
