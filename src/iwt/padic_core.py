"""Fixed-precision arithmetic in Z_p and the min-plus valuation algebra.

Elements of Z_p are stored as a residue modulo p^M together with the
precision M.  All operations are exact modulo p^M; nothing here ever
rounds.  The module also provides the Teichmuller lift, the cyclotomic
discrete logarithm with respect to gamma = 1 + 2p, extended rationals
(Q together with infinity, INF) and 2x2 min-plus matrices of them.
Extended rationals are totally ordered with INF above every rational, so
builtin `min` is the min-plus sum; ExtRational(x) of an ExtRational x
is x, and INF - INF raises OutOfRange like any other x - INF.

Precision conventions (uniform across the package):

* a residue that is exactly 0 mod p^M has valuation "at least M"; we
  report it as the integer M, which is unambiguous because a nonzero
  residue always has valuation < M;
* operations that would need to divide by p raise PrecisionExhausted
  instead of silently degrading.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from math import inf

from .errors import (InvalidParams, MixedPrime, NotAUnit, NotCoprime, OutOfRange,
                     SchemaError, ZeroInput)

# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, 2015); no complete table has p that large
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether n passes Miller-Rabin to every base of _MR_BASES: exactly
    whether n is prime for n < _MR_BOUND; above it False still proves n
    composite."""
    if n < 2:
        return False
    for base in _MR_BASES:
        if n % base == 0:
            return n == base
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in _MR_BASES:
        x = pow(base, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p, error=InvalidParams):
    """Raise `error` unless p is a prime below _MR_BOUND, where _is_prime
    certifies it."""
    if not _is_prime(p):
        raise error(f"p={p} is not prime")
    if p >= _MR_BOUND:
        raise error(f"p={p} is not below {_MR_BOUND}, where primality is certified")


def val_p(x, p, cap=None):
    """Exponent of p in the integer x; x = 0 returns cap ('at least cap')."""
    if x == 0:
        return cap
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def newton_min(coeffs, p, s=0):
    """The Newton-polygon minimum at slope s: (min over nonzero c_i of
    val_p(c_i) + i*s, first i attaining it), or None when every c_i is 0."""
    best = where = None
    for i, c in enumerate(coeffs):
        if c:
            v = val_p(c, p) + i * s
            if where is None or v < best:
                best, where = v, i
    return None if where is None else (best, where)


def level_exponent(p, n):
    """The modulus exponent N used at level n: n+1 for odd p, n+2 for p=2."""
    return n + 1 if p != 2 else n + 2


class PadicInt:
    """An element of Z_p known modulo p^M."""

    __slots__ = ("p", "precision", "residue")

    def __init__(self, p, residue, precision):
        if precision < 1:
            raise OutOfRange(f"PadicInt precision must be >= 1, got {precision}")
        self.p = p
        self.precision = precision
        self.residue = residue % (p ** precision)

    @property
    def modulus(self):
        return self.p ** self.precision

    def is_zero(self):
        return self.residue == 0

    def valuation(self):
        """Largest e <= M with p^e | residue; M itself means 'at least M'."""
        return val_p(self.residue, self.p, self.precision)

    def _coerce(self, other):
        if isinstance(other, PadicInt):
            if other.p != self.p:
                raise MixedPrime(f"cannot mix primes {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return PadicInt(self.p, other, self.precision)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = min(self.precision, other.precision)
        return PadicInt(self.p, self.residue + other.residue, m)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = min(self.precision, other.precision)
        return PadicInt(self.p, self.residue - other.residue, m)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = min(self.precision, other.precision)
        return PadicInt(self.p, self.residue * other.residue, m)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(self.p, -self.residue, self.precision)

    def inverse(self):
        """Multiplicative inverse; the residue must be a unit."""
        if self.residue % self.p == 0:
            raise NotAUnit(f"{self.residue} is divisible by {self.p}")
        return PadicInt(self.p, pow(self.residue, -1, self.modulus), self.precision)

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicInt(self.p, other, self.precision)
        if not isinstance(other, PadicInt):
            return NotImplemented
        return (self.p, self.precision, self.residue) == \
            (other.p, other.precision, other.residue)

    def __hash__(self):
        return hash((self.p, self.precision, self.residue))

    def __repr__(self):
        return f"PadicInt({self.residue} mod {self.p}^{self.precision})"


def padic_from_rational(p, value, precision):
    """Exact image of a rational with p-unit denominator in Z/p^M."""
    value = Fraction(value)
    den = value.denominator
    if den % p == 0:
        raise NotAUnit(f"denominator {den} is divisible by {p}")
    modulus = p ** precision
    inv = pow(den % modulus, -1, modulus)
    return PadicInt(p, value.numerator * inv, precision)


def teichmuller(a, p, precision):
    """The Teichmuller lift of a mod p, computed by iterating x -> x^p.

    For p = 2 this is the sign component on (Z/4)^*: +1 or -1.
    """
    if a % p == 0:
        raise NotCoprime(f"{a} is divisible by {p}")
    modulus = p ** precision
    if p == 2:
        return PadicInt(2, 1 if a % 4 == 1 else -1, precision)
    x = a % modulus
    for _ in range(precision):
        x = pow(x, p, modulus)
    return PadicInt(p, x, precision)


@lru_cache(maxsize=None)
def _log_gamma_table(p, big_n):
    """Map u -> t for u = gamma^t mod p^N, t in [0, p^n)."""
    n = big_n - level_exponent(p, 0)
    if n < 0:
        raise OutOfRange(f"log-gamma table: N={big_n} is below the level floor for p={p}")
    gamma = 1 + 2 * p
    modulus = p ** big_n
    table = {}
    u = 1
    for t in range(p ** n):
        table[u] = t
        u = (u * gamma) % modulus
    return table

def log_gamma(a, p, big_n):
    """Discrete log of the principal-unit part of a with respect to 1 + 2p.

    Returns the t in [0, p^n) with gamma^t = a / omega(a) mod p^N, where
    n = N - 1 for odd p and n = N - 2 for p = 2.
    """
    if a % p == 0:
        raise NotCoprime(f"{a} is divisible by {p}")
    modulus = p ** big_n
    omega = teichmuller(a, p, big_n)
    target = (a * pow(omega.residue, -1, modulus)) % modulus
    return _log_gamma_table(p, big_n)[target]


# ---------------------------------------------------------------------------
# Extended rationals and min-plus matrices
# ---------------------------------------------------------------------------

@total_ordering
class ExtRational:
    """A rational number or +infinity, closed under + and min.

    The order is total, with infinity above every rational, so builtin
    `min` and `max` apply.  The constructor takes an int, a Fraction, None
    (infinity) or an ExtRational, which it returns as it is.  infinity -
    infinity is undefined and raises OutOfRange, as finite - infinity does.
    """

    __slots__ = ("value",)

    def __new__(cls, value=None):
        if isinstance(value, ExtRational):
            return value
        self = object.__new__(cls)
        self.value = None if value is None else Fraction(value)
        return self

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinite(self):
        return self.value is None

    @staticmethod
    def _coerce(other):
        return ExtRational(other) if isinstance(other, (ExtRational, int, Fraction)) else None

    def _key(self):
        return inf if self.value is None else self.value

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return ExtRational.infinity()
        return ExtRational(self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_infinite:
            raise OutOfRange("ExtRational subtraction: cannot subtract infinity")
        if self.is_infinite:
            return ExtRational.infinity()
        return ExtRational(self.value - other.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            if (self.value == 0) or (other.value == 0):
                raise ZeroInput("ExtRational product: 0 * infinity is undefined")
            return ExtRational.infinity()
        return ExtRational(self.value * other.value)

    __rmul__ = __mul__

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._key() < other._key()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "oo" if self.is_infinite else str(self.value)


INF = ExtRational.infinity()


class ValMatrix:
    """A 2x2 matrix of extended rationals under min-plus multiplication."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = [tuple(ExtRational(v) for v in row) for row in entries]
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise SchemaError(f"ValMatrix must be 2x2, got rows of lengths "
                              f"{[len(r) for r in rows]}")
        self.entries = tuple(rows)

    @classmethod
    def tropical_identity(cls):
        return cls([[0, INF], [INF, 0]])

    def __eq__(self, other):
        if not isinstance(other, ValMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ValMatrix({[[str(e) for e in row] for row in self.entries]})"


def tropical_mul(a, b):
    """(i,k) entry is min_j (a[i][j] + b[j][k])."""
    return ValMatrix([[min(a.entries[i][j] + b.entries[j][k] for j in range(2))
                       for k in range(2)] for i in range(2)])
