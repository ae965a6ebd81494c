"""Arithmetic in the finite-level group algebras L_n = Z_p[T]/((1+T)^(p^n) - 1).

An element is stored by its canonical representative: the coefficient
vector of the unique degree < p^n lift to Z_p[T], residues mod p^M.
A longer vector is reduced by one division by the monic relation
(1+T)^(p^n) - 1, and the group basis (1+T)^s is reached by a Taylor
shift; both are quasi-linear kernels of `polyops`.

The module also provides the two transition maps between levels (the
projection and the fiber-sum lift), cyclotomic polynomials and their
completed variants, exact division by them, vanishing orders at p-power
roots of unity, mu/lambda extraction, and Newton-polygon valuations in
exponent coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (LevelMismatch, MixedPrime, NotAUnit, OutOfRange,
                     PrecisionExhausted, PrecisionMismatch, ZeroInput)
from .padic_core import ExtRational, PadicInt, newton_min, val_p
from .polyops import (poly_add, poly_divide_exact, poly_divmod_monic,
                      poly_mul, poly_scale, poly_sub, poly_taylor_shift,
                      poly_trim)


@dataclass(frozen=True)
class FormParams:
    """Arithmetic data of a weight-two eigenform with Z_p coefficients.

    eps_p must be a p-adic unit; ap may be anything in Z_p (ap = 0 is the
    half-logarithm degeneration).
    """

    p: int
    ap: int
    eps_p: int
    precision: int

    def __post_init__(self):
        if self.eps_p % self.p == 0:
            raise NotAUnit(f"eps_p={self.eps_p} is divisible by {self.p}")

    @property
    def modulus(self):
        return self.p ** self.precision

    def ap_valuation(self):
        """ord_p(ap) as an extended rational (infinity when ap = 0)."""
        if self.ap == 0:
            return ExtRational.infinity()
        return ExtRational(val_p(self.ap, self.p))


@dataclass(frozen=True)
class IwasawaInvariants:
    mu: Fraction
    lam: int
    stable: bool = False

    def pair(self):
        return (self.mu, self.lam)


def _binomial_row(e, modulus):
    """[C(e, j) mod modulus for j = 0..e], by the exact recurrence."""
    out, c = [], 1
    for j in range(e + 1):
        out.append(c % modulus)
        c = c * (e - j) // (j + 1)
    return out


@lru_cache(maxsize=None)
def _modulus_poly(p, n, modulus):
    # (1+T)^(p^n) - 1, the defining relation at level n
    out = _binomial_row(p ** n, modulus)
    out[0] = 0
    return tuple(out)


class LambdaElement:
    """Element of Z_p[T]/((1+T)^(p^n) - 1) at precision M."""

    __slots__ = ("p", "level", "precision", "coeffs")

    def __init__(self, p, level, precision, coeffs):
        if level < 0 or precision < 1:
            raise OutOfRange(f"need level >= 0 and precision >= 1, "
                             f"got n={level}, M={precision}")
        size = p ** level
        modulus = p ** precision
        coeffs = [c % modulus for c in coeffs]
        if len(coeffs) > size:
            coeffs = _reduce(coeffs, p, level, modulus)
        coeffs.extend([0] * (size - len(coeffs)))
        self.p = p
        self.level = level
        self.precision = precision
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, level, precision):
        return cls(p, level, precision, [])

    @classmethod
    def one(cls, p, level, precision):
        return cls(p, level, precision, [1])

    @classmethod
    def constant(cls, p, level, precision, c):
        if isinstance(c, PadicInt):
            c = c.residue
        return cls(p, level, precision, [c])

    @classmethod
    def monomial(cls, p, level, precision, degree, c=1):
        coeffs = [0] * degree + [c]
        return cls(p, level, precision, coeffs)

    @classmethod
    def unit_power(cls, p, level, precision, s):
        """(1+T)^s in the quotient ring; s may be any integer."""
        if level < 0:
            raise OutOfRange(f"need level >= 0, got n={level}")
        return cls(p, level, precision, _binomial_row(s % p ** level, p ** precision))

    @classmethod
    def from_unit_basis(cls, p, level, precision, unit_coeffs):
        """Element sum_s d_s (1+T)^s from the group-basis vector d."""
        return cls(p, level, precision,
                   poly_taylor_shift(list(unit_coeffs), 1, p ** precision))

    # -- views -------------------------------------------------------------

    @property
    def modulus(self):
        return self.p ** self.precision

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def at_zero(self):
        """Value of the canonical representative at T = 0."""
        return PadicInt(self.p, self.coeffs[0], self.precision)

    def to_unit_basis(self):
        """Coefficients d with self = sum_s d_s (1+T)^s, s < p^n."""
        return poly_taylor_shift(list(self.coeffs), -1, self.modulus)

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise MixedPrime(f"primes {self.p} and {other.p}")
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} and {other.level}")
        if self.precision != other.precision:
            raise PrecisionMismatch(f"precisions {self.precision} and {other.precision}")

    def __add__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._check(other)
        return LambdaElement(self.p, self.level, self.precision,
                             poly_add(list(self.coeffs), list(other.coeffs), self.modulus))

    def __sub__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._check(other)
        return LambdaElement(self.p, self.level, self.precision,
                             poly_sub(list(self.coeffs), list(other.coeffs), self.modulus))

    def __neg__(self):
        return LambdaElement(self.p, self.level, self.precision,
                             [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, PadicInt)):
            c = other.residue if isinstance(other, PadicInt) else other
            return LambdaElement(self.p, self.level, self.precision,
                                 poly_scale(list(self.coeffs), c, self.modulus))
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._check(other)
        prod = poly_mul(self.coeffs, other.coeffs, self.modulus)
        return LambdaElement(self.p, self.level, self.precision, prod)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        return (self.p, self.level, self.precision, self.coeffs) == \
               (other.p, other.level, other.precision, other.coeffs)

    def __hash__(self):
        return hash((self.p, self.level, self.precision, self.coeffs))

    def __repr__(self):
        return (f"LambdaElement(p={self.p}, n={self.level}, "
                f"M={self.precision}, {list(self.coeffs)})")


def _reduce(coeffs, p, level, modulus):
    """Canonical representative: the remainder mod (1+T)^(p^n) - 1, trimmed.

    One division by the monic relation of degree p^n, whatever the
    length of coeffs and the precision.
    """
    return poly_divmod_monic(coeffs, _modulus_poly(p, level, modulus), modulus)[1]


# ---------------------------------------------------------------------------
# Level maps
# ---------------------------------------------------------------------------

def project_pi(x):
    """Natural projection to level n-1 (canonical representative reduced)."""
    if x.level == 0:
        raise LevelMismatch("level 0 has no lower level")
    return LambdaElement(x.p, x.level - 1, x.precision, x.coeffs)


def lift_nu(x):
    """Fiber-sum lift to level n+1: multiply any lift by Phi_{p^(n+1)}.

    Well-defined because Phi_{p^(n+1)}(1+T) * ((1+T)^(p^n) - 1) is the
    defining relation above; satisfies project_pi(lift_nu(x)) = p * x.
    """
    target = x.level + 1
    lifted = LambdaElement(x.p, target, x.precision, list(x.coeffs))
    return lifted * cyclotomic_phi(x.p, target, target, x.precision)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and exact division
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _phi_coeffs(p, i, modulus):
    # Phi_{p^i}(1+T) = sum_{k<p} (1+T)^(k p^(i-1)), degree p^(i-1)(p-1)
    step = p ** (i - 1)
    out = [0] * (step * (p - 1) + 1)
    for k in range(p):
        for j, c in enumerate(_binomial_row(k * step, modulus)):
            out[j] = (out[j] + c) % modulus
    return tuple(out)


def half_twist_exponent(p, i):
    """The exponent e = p^(i-1)(p-1)/2 used by the completed variant."""
    return p ** (i - 1) * (p - 1) // 2


def cyclotomic_phi(p, i, level, precision, hatted=False):
    """Phi_{p^i}(1+T) in the level-n ring; completed variant on request.

    The completed variant divides by (1+T)^e with e = p^(i-1)(p-1)/2,
    realized as multiplication by (1+T)^(p^n - e); for p = 2, i = 1,
    e = 0 and the two variants coincide.
    """
    if not 1 <= i <= level:
        raise OutOfRange(f"need 1 <= i <= n, got i={i}, n={level}")
    modulus = p ** precision
    phi = LambdaElement(p, level, precision, list(_phi_coeffs(p, i, modulus)))
    e = half_twist_exponent(p, i) if hatted else 0
    if not e:
        return phi
    return phi * LambdaElement.unit_power(p, level, precision, -e)


def exact_divide_by_phi(x, i, hatted=False):
    """Exact quotient of the canonical representative by Phi_{p^i}.

    Phi is monic, so no precision is lost.  The completed variant
    post-multiplies by (1+T)^e.  Raises NotDivisible when the remainder
    is nonzero mod p^M.
    """
    if not 1 <= i <= x.level:
        raise OutOfRange(f"need 1 <= i <= n, got i={i}, n={x.level}")
    quot = poly_divide_exact(list(x.coeffs), list(_phi_coeffs(x.p, i, x.modulus)),
                             x.modulus, what=f"division by Phi_{{p^{i}}}")
    out = LambdaElement(x.p, x.level, x.precision, quot)
    e = half_twist_exponent(x.p, i) if hatted else 0
    if e:
        out = out * LambdaElement.unit_power(x.p, x.level, x.precision, e)
    return out


def vanishing_order(x, m):
    """Multiplicity of Phi_{p^m} in the canonical representative (T for m=0).

    Equals the vanishing multiplicity at every primitive p^m-th root of
    unity, independent of the chosen root.
    """
    if m > x.level:
        raise OutOfRange(f"m={m} exceeds level {x.level}")
    if x.is_zero():
        raise ZeroInput("vanishing order of 0 is undefined at finite precision")
    if m == 0:
        divisor = [0, 1]
    else:
        divisor = list(_phi_coeffs(x.p, m, x.modulus))
    order = 0
    poly = list(x.coeffs)
    while True:
        quot, rem = poly_divmod_monic(poly, divisor, x.modulus)
        if poly_trim(rem):
            return order
        order += 1
        poly = quot
        if not poly_trim(poly):
            # can only happen on zero input, which was excluded
            return order


def iwasawa_invariants(x):
    """mu = least coefficient valuation, lambda = first index attaining it."""
    found = newton_min(x.coeffs, x.p)
    if found is None:
        raise PrecisionExhausted("all coefficients vanish mod p^M")
    return IwasawaInvariants(mu=Fraction(found[0]), lam=found[1])


def newton_vr(x, s):
    """min_i (val(c_i) + i*s): the polygon value at radius p^(-s), s > 0."""
    s = Fraction(s)
    if s <= 0:
        raise OutOfRange(f"s must be positive, got {s}")
    found = newton_min(x.coeffs, x.p, s)
    if found is None:
        raise ZeroInput("Newton valuation of 0 is undefined at finite precision")
    if found[0] >= x.precision:
        raise PrecisionExhausted("polygon minimum is not certified below p^M")
    return ExtRational(found[0])


def substitute_inverse(x):
    """The ring automorphism (1+T) -> (1+T)^(-1); an involution."""
    size = x.p ** x.level
    d = x.to_unit_basis()
    flipped = [d[0]] + [d[size - s] for s in range(1, size)]
    return LambdaElement.from_unit_basis(x.p, x.level, x.precision, flipped)
