"""Arithmetic in the finite-level group algebras L_n = Z_p[T]/((1+T)^(p^n) - 1).

Storage basis.  An element is stored as its group-basis vector `units`:
the coefficients d_s of X^s = (1+T)^s for s < p^n, residues mod p^M.
That is the canonical degree < p^n representative written in X instead
of T, the same polynomial, so canonical quotients and remainders are the
same in either basis.  In X the relation is X^(p^n) - 1 and most of the
ring is linear (kernels in `polyops`):

* a product is one Kronecker product folded mod X^(p^n) - 1;
* a factor with at most p nonzero group coefficients multiplies by
  shifted copies of the other packed factor: every Phi_{p^i}(X) =
  sum_{k<p} X^(k p^(i-1)) and its completed variant, every unit power
  X^s, T = X - 1 and X^(p^m) - 1;
* the projection is a fold, the fiber-sum lift is p copies, and
  (1+T) -> (1+T)^(-1) is an index flip;
* division by Phi_{p^i} multiplies by X^s - 1 (s = p^(i-1)) and divides
  by the binomial X^(ps) - 1, whose quotient is a set of suffix sums
  formed on a packed integer by `poly_divmod_monic`; division by T is by
  X - 1.  `vanishing_order` and the peel of `sharp_flat` keep the vector
  packed across all of their divisions.

Conversions.  The T-coefficient constructor `LambdaElement(p, n, M,
coeffs)` shifts by -1 to make `units`, and keeps its input as the
`coeffs` view when that is already canonical (degree < p^n).  Otherwise
`coeffs`, a Taylor shift of `units` by +1, is made on first read and
kept; its readers are the JSON reports, digests and tests, and
`newton_vr`.  `sharp_flat.decompose` returns elements whose `coeffs`
are already made; `decompose_pair` and `decompose_sequence` leave them
unmade.  `mazur_tate.synthesize_queue` builds each element in both
bases at once, shifting only its random part to the group basis.  mu
and lambda need no conversion at p^M: `iwasawa_invariants` reads both
off `units` (see its docstring), shifting at most one fold of the unit
vector mod p.

The module also provides cyclotomic polynomials and their completed
variants, exact division by them, vanishing orders at p-power roots of
unity, mu/lambda extraction, and Newton-polygon valuations in exponent
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (LevelMismatch, MixedPrime, NotAUnit, NotDivisible,
                     OutOfRange, PrecisionExhausted, PrecisionMismatch,
                     ZeroInput)
from .padic_core import ExtRational, PadicInt, check_prime, newton_min, val_p
from .polyops import (half_twist_exponent, poly_cyclic_mul_sparse, poly_fold, poly_mul,
                      poly_phi_divide, poly_phi_order, poly_taylor_shift)


@dataclass(frozen=True)
class FormParams:
    """Arithmetic data of a weight-two eigenform with Z_p coefficients.

    p must be prime (InvalidParams otherwise) and eps_p a p-adic unit; ap
    may be anything in Z_p (ap = 0 is the half-logarithm degeneration).
    """

    p: int
    ap: int
    eps_p: int
    precision: int

    def __post_init__(self):
        check_prime(self.p)
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


def _check_ring(level, precision):
    if level < 0 or precision < 1:
        raise OutOfRange(f"need level >= 0 and precision >= 1, "
                         f"got n={level}, M={precision}")


def _scalar(p, precision, c):
    """The integer that a scalar c, an int or a PadicInt over p known to at
    least precision M, stands for at precision M."""
    if not isinstance(c, PadicInt):
        return c
    if c.p != p:
        raise MixedPrime(f"primes {p} and {c.p}")
    if c.precision < precision:
        raise PrecisionMismatch(f"a scalar known to precision {c.precision} "
                                f"times an element at precision {precision}")
    return c.residue


def _element(p, level, precision, units, coeffs=None):
    """The element with group-basis vector `units`: p^level residues mod p^M;
    `coeffs`, when given, are the same element's T-coefficients."""
    x = object.__new__(LambdaElement)
    x.p = p
    x.level = level
    x.precision = precision
    x.units = tuple(units)
    x._coeffs = None if coeffs is None else tuple(coeffs)
    return x


class LambdaElement:
    """Element of Z_p[T]/((1+T)^(p^n) - 1) at precision M.

    The constructor takes T-coefficients of any length (longer vectors
    are reduced by the relation).  `units` is the stored group-basis
    vector; `coeffs` is the T-coefficient vector of the canonical
    representative: the constructor's input when that has degree < p^n,
    else computed on first read.
    """

    __slots__ = ("p", "level", "precision", "units", "_coeffs")

    def __init__(self, p, level, precision, coeffs):
        _check_ring(level, precision)
        modulus = p ** precision
        self.p = p
        self.level = level
        self.precision = precision
        coeffs = [c % modulus for c in coeffs]
        size = p ** level
        self.units = tuple(poly_fold(poly_taylor_shift(coeffs, -1, modulus), size, modulus))
        # input of degree < p^n is already the canonical representative
        self._coeffs = (tuple(coeffs + [0] * (size - len(coeffs)))
                        if len(coeffs) <= size else None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, level, precision):
        return cls.constant(p, level, precision, 0)

    @classmethod
    def one(cls, p, level, precision):
        return cls.constant(p, level, precision, 1)

    @classmethod
    def constant(cls, p, level, precision, c):
        _check_ring(level, precision)
        c = _scalar(p, precision, c)
        return _element(p, level, precision, poly_fold([c], p ** level, p ** precision))

    @classmethod
    def monomial(cls, p, level, precision, degree, c=1):
        coeffs = [0] * degree + [c]
        return cls(p, level, precision, coeffs)

    @classmethod
    def unit_power(cls, p, level, precision, s):
        """(1+T)^s in the quotient ring; s may be any integer."""
        _check_ring(level, precision)
        units = [0] * p ** level
        units[s % len(units)] = 1
        return _element(p, level, precision, units)

    @classmethod
    def from_unit_basis(cls, p, level, precision, unit_coeffs):
        """Element sum_s d_s (1+T)^s from the group-basis vector d."""
        _check_ring(level, precision)
        return _element(p, level, precision,
                        poly_fold(unit_coeffs, p ** level, p ** precision))

    # -- views -------------------------------------------------------------

    @property
    def modulus(self):
        return self.p ** self.precision

    @property
    def coeffs(self):
        """T-coefficients of the canonical representative, degree < p^n."""
        if self._coeffs is None:
            self._coeffs = tuple(poly_taylor_shift(list(self.units), 1, self.modulus))
        return self._coeffs

    def is_zero(self):
        return not any(self.units)

    def at_zero(self):
        """Value of the canonical representative at T = 0, i.e. at X = 1."""
        return PadicInt(self.p, sum(self.units), self.precision)

    def to_unit_basis(self):
        """Coefficients d with self = sum_s d_s (1+T)^s, s < p^n."""
        return list(self.units)

    # -- ring structure ----------------------------------------------------

    def _check(self, other):
        if self.p != other.p:
            raise MixedPrime(f"primes {self.p} and {other.p}")
        if self.level != other.level:
            raise LevelMismatch(f"levels {self.level} and {other.level}")
        if self.precision != other.precision:
            raise PrecisionMismatch(f"precisions {self.precision} and {other.precision}")

    def _with(self, units):
        return _element(self.p, self.level, self.precision, units)

    def __add__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._check(other)
        m = self.modulus
        return self._with([(a + b) % m for a, b in zip(self.units, other.units)])

    def __sub__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._check(other)
        m = self.modulus
        return self._with([(a - b) % m for a, b in zip(self.units, other.units)])

    def __neg__(self):
        m = self.modulus
        return self._with([-a % m for a in self.units])

    def __mul__(self, other):
        m = self.modulus
        if isinstance(other, (int, PadicInt)):
            c = _scalar(self.p, self.precision, other) % m
            return self._with([a * c % m for a in self.units])
        if not isinstance(other, LambdaElement):
            return NotImplemented
        self._check(other)
        a, b = self.units, other.units
        # a factor with at most p nonzero group coefficients (Phi, its
        # completed variant, a unit power, X^s - 1) takes the sparse
        # product, one shifted copy of the packed vector per coefficient;
        # its cost grows with that count and stayed below the Kronecker
        # product's up to 4p at every point of BENCH_linear_kernels.json
        if len(b) - b.count(0) <= self.p:
            return self._with(poly_cyclic_mul_sparse(a, b, m))
        if len(a) - a.count(0) <= self.p:
            return self._with(poly_cyclic_mul_sparse(b, a, m))
        return self._with(poly_fold(poly_mul(a, b, m), len(a), m))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        return (self.p, self.level, self.precision, self.units) == \
               (other.p, other.level, other.precision, other.units)

    def __hash__(self):
        return hash((self.p, self.level, self.precision, self.units))

    def __repr__(self):
        return (f"LambdaElement(p={self.p}, n={self.level}, "
                f"M={self.precision}, {list(self.coeffs)})")


# ---------------------------------------------------------------------------
# Level maps
# ---------------------------------------------------------------------------

def project_pi(x):
    """Natural projection to level n-1: the fold mod X^(p^(n-1)) - 1."""
    if x.level == 0:
        raise LevelMismatch("level 0 has no lower level")
    return _element(x.p, x.level - 1, x.precision,
                    poly_fold(x.units, x.p ** (x.level - 1), x.modulus))


def lift_nu(x):
    """Fiber-sum lift to level n+1: multiply any lift by Phi_{p^(n+1)}.

    Well-defined because Phi_{p^(n+1)}(1+T) * ((1+T)^(p^n) - 1) is the
    defining relation above; satisfies project_pi(lift_nu(x)) = p * x.
    The degree < p^n lift times sum_{k<p} X^(k p^n) is p copies of the
    group-basis vector side by side.
    """
    return _element(x.p, x.level + 1, x.precision, x.units * x.p)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and exact division
# ---------------------------------------------------------------------------

def cyclotomic_phi(p, i, level, precision, hatted=False):
    """Phi_{p^i}(1+T) in the level-n ring; completed variant on request.

    The completed variant divides by (1+T)^e with e = p^(i-1)(p-1)/2,
    realized as multiplication by (1+T)^(p^n - e); for p = 2, i = 1,
    e = 0 and the two variants coincide.  Either way the group-basis
    vector has p entries 1, at k p^(i-1) - e mod p^n.
    """
    if not 1 <= i <= level:
        raise OutOfRange(f"need 1 <= i <= n, got i={i}, n={level}")
    _check_ring(level, precision)
    size, step = p ** level, p ** (i - 1)
    e = half_twist_exponent(p, i) if hatted else 0
    units = [0] * size
    for k in range(p):
        units[(k * step - e) % size] = 1
    return _element(p, level, precision, units)


def divide_by_phi(units, p, i, modulus, hatted=False):
    """Group-basis vector of the exact quotient by Phi_{p^i}.

    `units` is a list of p^n integers, the group-basis vector of the
    canonical representative up to reduction mod `modulus`; the quotient
    comes back as p^n residues.  With s = p^(i-1), Phi_{p^i}(X) (X^s - 1)
    = X^(ps) - 1, so the quotient is that of units * (X^s - 1) by the
    binomial (`poly_phi_divide`, on the reduced units), whose remainder
    vanishes exactly when Phi_{p^i} divides; i = 0 divides by X - 1.  Phi
    is monic, so no precision is lost.  The completed variant
    post-multiplies by X^e, e = p^(i-1)(p-1)/2.  Raises NotDivisible when
    the remainder is nonzero mod p^M.
    """
    quot = poly_phi_divide([a % modulus for a in units], p, i, modulus)
    e = half_twist_exponent(p, i) if hatted else 0
    if quot is None:
        raise NotDivisible(f"division by Phi_{{p^{i}}}: remainder is nonzero "
                           f"at working precision")
    # the quotient has degree < p^n - 2e, so the twist by X^e does not wrap
    size = len(units)
    return ([0] * e + quot + [0] * size)[:size]


def exact_divide_by_phi(x, i, hatted=False):
    """Exact quotient of the canonical representative by Phi_{p^i}
    (`divide_by_phi` on the element's group-basis vector)."""
    if not 1 <= i <= x.level:
        raise OutOfRange(f"need 1 <= i <= n, got i={i}, n={x.level}")
    return _element(x.p, x.level, x.precision,
                    divide_by_phi(x.units, x.p, i, x.modulus, hatted))


def vanishing_order(x, m):
    """Multiplicity of Phi_{p^m} in the canonical representative (T for m=0).

    Equals the vanishing multiplicity at every primitive p^m-th root of
    unity, independent of the chosen root.  The divisions run on one
    packed vector (`polyops.poly_phi_order`).
    """
    if m > x.level:
        raise OutOfRange(f"m={m} exceeds level {x.level}")
    if x.is_zero():
        raise ZeroInput("vanishing order of 0 is undefined at finite precision")
    return poly_phi_order(x.units, x.p, m, x.modulus)


def iwasawa_invariants(x):
    """mu = least T-coefficient valuation, lambda = first index attaining it,
    both read off the group-basis vector.

    Both are basis-free.  The change of basis is a triangular integer
    matrix with unit diagonal, so mu = v_p(gcd(units, p^M)) is the least
    valuation in either basis.  Then g = units / p^mu mod p is the
    reduction of x / p^mu, and lambda is the order of T = X - 1 in g(X)
    over F_p.  There (X - 1)^(p^k) = X^(p^k) - 1, so lambda >= p^k exactly
    when the fold of g mod X^(p^k) - 1 vanishes.  The last nonzero fold h,
    of length p^k, agrees with g mod (X - 1)^(p^k) and has lambda < p^k,
    so lambda is the first nonzero T-coefficient of h: a shift mod p of
    p^k entries, never one at p^M.
    """
    scale = gcd(*x.units, x.modulus)
    if scale == x.modulus:
        raise PrecisionExhausted("all coefficients vanish mod p^M")
    p = x.p
    g = [d // scale % p for d in x.units]
    while len(g) > 1:
        fold = poly_fold(g, len(g) // p, p)
        if not any(fold):
            break
        g = fold
    lam = next(i for i, c in enumerate(poly_taylor_shift(g, 1, p)) if c)
    return IwasawaInvariants(mu=Fraction(val_p(scale, p)), lam=lam)


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
    """The ring automorphism (1+T) -> (1+T)^(-1); an involution.

    X^s -> X^(-s): the group-basis vector read backwards after index 0.
    """
    return _element(x.p, x.level, x.precision, x.units[:1] + x.units[:0:-1])
