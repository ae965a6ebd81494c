"""Exact arithmetic in Z_p[zeta_{p^j}], presented in pi = zeta - 1.

The ring is Z_p[X]/(Phi_{p^j}(X), p^M) with X = zeta, of degree
d = p^(j-1)(p-1).  An element is stored as `units`, the coefficients of
its canonical representative in powers of zeta, the group basis of
`iwasawa_algebra`.  Phi_{p^j}(X) = sum_{k<p} X^(k s), s = p^(j-1),
divides X^(p s) - 1, so reduction is a fold and one block subtraction.
`coeffs`, the pi-coefficients, is a Taylor shift of `units` by +1, made
on first read and kept; `eval_lambda_at_zeta` makes it before returning.

ord_p(pi) = 1/d, and because the d exponents t/d (t = 0..d-1) have
pairwise distinct fractional parts, the valuation of an element is read
off `coeffs` exactly:

    ord(sum c_t pi^t) = min_t (val_p(c_t) + t/d),

with no cancellation between distinct t.  An element whose residues all
vanish mod p^M has valuation at least M; we track constructed zeros with
a flag so that structural zeros report infinity while precision-level
zeros raise PrecisionExhausted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (InvalidK, OutOfRange, PrecisionExhausted, RingMismatch,
                     ZeroInput)
from .logmatrix import push_steps
from .padic_core import ExtRational, PadicInt, ValMatrix, newton_min
from .polyops import poly_fold, poly_mul, poly_taylor_shift


def _check_ring(j, precision):
    if j < 1 or precision < 1:
        raise OutOfRange(f"need j >= 1 and precision >= 1, got j={j}, M={precision}")


def _reduce(units, p, j, modulus):
    # the d residues mod (Phi_{p^j}(X), modulus): fold mod X^(p s) - 1, then
    # X^((p-1)s + t) = -sum_{k<p-1} X^(k s + t) moves the top block down
    s = p ** (j - 1)
    d = (p - 1) * s
    folded = poly_fold(units, p * s, modulus)
    return [(a - b) % modulus for a, b in zip(folded[:d], folded[d:] * (p - 1))]


def _element(p, j, precision, units, exact_zero=False):
    """The element with reduced zeta-basis vector `units`."""
    x = object.__new__(EisensteinElement)
    x.p, x.j, x.precision = p, j, precision
    x.units = tuple(units)
    x.exact_zero = bool(exact_zero) and not any(x.units)
    x._coeffs = None
    return x


class EisensteinElement:
    """Element of Z_p[zeta_{p^j}] as a length-d vector of residues mod p^M.

    The constructor takes pi-coefficients of any length; longer vectors
    are reduced by the relation.
    """

    __slots__ = ("p", "j", "precision", "units", "exact_zero", "_coeffs")

    def __init__(self, p, j, precision, coeffs, exact_zero=False):
        _check_ring(j, precision)
        modulus = p ** precision
        self.p, self.j, self.precision = p, j, precision
        self.units = tuple(_reduce(poly_taylor_shift(coeffs, -1, modulus), p, j, modulus))
        self.exact_zero = bool(exact_zero) and not any(self.units)
        self._coeffs = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, j, precision):
        return cls(p, j, precision, [], exact_zero=True)

    @classmethod
    def from_padic(cls, c, j):
        return cls(c.p, j, c.precision, [c.residue], exact_zero=c.residue == 0)

    @classmethod
    def constant(cls, p, j, precision, c):
        return cls(p, j, precision, [c])

    @classmethod
    def uniformizer(cls, p, j, precision, power=1):
        return cls(p, j, precision, [0] * power + [1])

    @classmethod
    def zeta(cls, p, j, precision):
        return cls(p, j, precision, [1, 1])

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        return self.p ** (self.j - 1) * (self.p - 1)

    @property
    def modulus(self):
        return self.p ** self.precision

    @property
    def coeffs(self):
        """pi-coefficients of the canonical representative, d of them."""
        if self._coeffs is None:
            self._coeffs = tuple(poly_taylor_shift(list(self.units), 1, self.modulus))
        return self._coeffs

    def is_zero(self):
        return not any(self.units)

    def _check(self, other):
        if (self.p, self.j, self.precision) != (other.p, other.j, other.precision):
            raise RingMismatch(
                f"rings Z_{self.p}[zeta_{self.p}^{self.j}] at M={self.precision} and "
                f"Z_{other.p}[zeta_{other.p}^{other.j}] at M={other.precision}")

    def _coerce(self, other):
        if isinstance(other, EisensteinElement):
            self._check(other)
            return other
        if isinstance(other, PadicInt):
            if other.p != self.p:
                raise RingMismatch("mixed primes")
            if other.precision < self.precision:
                raise RingMismatch(f"a scalar known to precision {other.precision} in "
                                   f"a ring at M={self.precision}")
            other = other.residue
        if isinstance(other, int):
            return EisensteinElement.constant(self.p, self.j, self.precision, other)
        return None

    def _new(self, units, exact_zero):
        return _element(self.p, self.j, self.precision, units, exact_zero)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new([(a + b) % self.modulus for a, b in zip(self.units, other.units)],
                         self.exact_zero and other.exact_zero)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new([(a - b) % self.modulus for a, b in zip(self.units, other.units)],
                         self.exact_zero and other.exact_zero)

    def __neg__(self):
        return self._new([-c % self.modulus for c in self.units], self.exact_zero)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prod = poly_mul(self.units, other.units, self.modulus)
        return self._new(_reduce(prod, self.p, self.j, self.modulus),
                         self.exact_zero or other.exact_zero)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise OutOfRange(f"exponent must be >= 0, got {e}")
        out = EisensteinElement.constant(self.p, self.j, self.precision, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, EisensteinElement):
            return NotImplemented
        return (self.p, self.j, self.precision, self.units) == \
               (other.p, other.j, other.precision, other.units)

    def __hash__(self):
        return hash((self.p, self.j, self.precision, self.units))

    def __repr__(self):
        return f"EisensteinElement(p={self.p}, j={self.j}, {list(self.coeffs)})"

    # -- valuation ---------------------------------------------------------

    def valuation_floor(self):
        """(value, exact): the Newton minimum, or (M, False) if all residues vanish."""
        found = newton_min(self.coeffs, self.p, Fraction(1, self.degree))
        if found is None:
            return Fraction(self.precision), False
        return found[0], True

    def ord(self):
        """Exact valuation as an ExtRational.

        Structural zeros report infinity; an element that merely vanishes
        mod p^M raises PrecisionExhausted.
        """
        if self.exact_zero:
            return ExtRational.infinity()
        value, exact = self.valuation_floor()
        if not exact:
            raise PrecisionExhausted(
                f"valuation not separable from >= {self.precision}")
        return ExtRational(value)


def eval_lambda_at_zeta(x, j):
    """Ring homomorphism L_n -> Z_p[zeta_{p^j}] sending T to zeta - 1.

    1+T goes to zeta, so the group-basis vector is reduced as it is; the
    pi view is made here, since every caller reads it.
    """
    if j > x.level:
        raise OutOfRange(f"j={j} exceeds the element's level {x.level}")
    if j < 1:
        raise OutOfRange("j must be >= 1 (use at_zero for the trivial point)")
    out = _element(x.p, j, x.precision, _reduce(x.units, x.p, j, x.modulus))
    out.coeffs
    return out


def phi_at_zeta(p, i, j, precision):
    """Phi_{p^i}(zeta_{p^j}): sum_{k<p} X^(k p^(i-1)) reduced mod Phi_{p^j}(X).

    At i = j it is a structural zero, and its valuation is infinite.
    """
    if i < 1:
        raise OutOfRange(f"need i >= 1, got i={i}")
    _check_ring(j, precision)
    size, step = p ** j, p ** (i - 1)
    units = [0] * size
    for k in range(p):
        units[k * step % size] += 1
    return _element(p, j, precision, _reduce(units, p, j, p ** precision),
                    exact_zero=i == j)


def h_matrix(a, m, j, eps_p=1):
    """The exact product of the first m step matrices at T = zeta_{p^j} - 1."""
    if m < 1:
        raise OutOfRange("m must be >= 1")
    p, precision = a.p, a.precision
    phis = [phi_at_zeta(p, i, j, precision) for i in range(1, m + 1)]
    one = EisensteinElement.constant(p, j, precision, 1)
    zero = EisensteinElement.zero(p, j, precision)
    return tuple(push_steps(row, a, eps_p, phis) for row in ((one, zero), (zero, one)))


def h_matrix_valuations(a, m, j, eps_p=1):
    """Entrywise exact valuations of the m-step matrix product at zeta_{p^j}.

    These are honest valuations of the full product, not the min-plus
    lower bound; cancellation in the upper-left entry is visible here.
    """
    mat = h_matrix(a, m, j, eps_p)
    return ValMatrix([[mat[i][k].ord() for k in range(2)] for i in range(2)])


def minimal_k(p, v):
    """Smallest k >= 1 with v >= p^(-k)/2; None for v in {0, infinity}."""
    if isinstance(v, ExtRational):
        if v.is_infinite:
            return None
        v = v.value
    v = Fraction(v)
    if v < 0:
        raise OutOfRange(f"minimal_k: valuation must be >= 0, got {v}")
    if v == 0:
        return None
    k = 1
    while v < Fraction(1, 2 * p ** k):
        k += 1
    return k


def v2_invariant(a, p, k, eps_p=1):
    """ord(a^2 - eps * Phi_{p^2}(zeta_{p^(k+2)})), computed exactly.

    a may be an EisensteinElement of Z_p[zeta_{p^(k+2)}] or a PadicInt;
    k must be the minimal index for v = ord(a).
    """
    if isinstance(a, PadicInt):
        a = EisensteinElement.from_padic(a, k + 2)
    if a.j != k + 2:
        raise RingMismatch(f"a must live in Z_p[zeta_{{p^{k + 2}}}], got j={a.j}")
    if a.is_zero():
        raise ZeroInput("a must be nonzero")
    v = a.ord()
    if minimal_k(p, v) != k:
        raise InvalidK(f"k={k} is not minimal for v={v}")
    phi = phi_at_zeta(p, 2, k + 2, a.precision)
    return (a * a - eps_p * phi).ord()
