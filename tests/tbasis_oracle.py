"""The rings as they stood before the group- and zeta-basis storage: the oracle.

Elements of L_n are stored by the T-coefficients of the canonical
degree < p^n representative.  Every product is reduced by a Newton
division by the dense relation (1+T)^(p^n) - 1, Phi_{p^i}(1+T) and the
unit powers are binomial rows, and the group basis is reached by a
Taylor shift.  Elements of Z_p[zeta_{p^j}] (`PiElement`) are stored by
their pi-coefficients, pi = zeta - 1, and reduced by the same Newton
division by E(pi) = Phi_{p^j}(1+pi).  The differential tests in
test_group_basis.py and test_cyclotomic_ext.py hold the package's rings
to this code; test_polyops.py and test_iwasawa_algebra.py read its
relation and division.  Only `poly_mul`, `poly_taylor_shift` and
`poly_trim`, whose behaviour did not change, come from the package.
"""

from fractions import Fraction
from functools import lru_cache

from iwt.errors import (LevelMismatch, NotDivisible, OutOfRange,
                        PrecisionExhausted, ZeroInput)
from iwt.iwasawa_algebra import IwasawaInvariants, half_twist_exponent
from iwt.logmatrix import push_steps
from iwt.padic_core import ExtRational, PadicInt, newton_min
from iwt.polyops import poly_mul, poly_taylor_shift, poly_trim


def _sub(a, b, modulus):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return [c % modulus for c in out]


@lru_cache(maxsize=256)
def _reversed_inverse(den, modulus):
    return [1]


def _inverse_prefix(den, length, modulus):
    inv = _reversed_inverse(den, modulus)
    rev = den[::-1]
    while len(inv) < length:
        h = len(inv)
        m = min(2 * h, length)
        err = poly_mul(rev[:m], inv, modulus)[h:m]
        step = poly_mul(inv[:m - h], err, modulus)[:m - h]
        inv.extend((-c) % modulus for c in step)
        inv.extend([0] * (m - len(inv)))
    return inv[:length]


def newton_divmod(num, den, modulus):
    """Quotient and remainder by a monic divisor through a Newton inverse."""
    den = tuple(poly_trim([c % modulus for c in den]))
    num = [c % modulus for c in num]
    d = len(den) - 1
    k = len(num) - d
    if k <= 0:
        return [], num
    head = poly_mul(num[d:][::-1], _inverse_prefix(den, k, modulus), modulus)[:k]
    quot = (head + [0] * (k - len(head)))[::-1]
    low = poly_mul(quot[:d], den[:d], modulus)[:d]
    return quot, poly_trim(_sub(num[:d], low, modulus))


def _binomial_row(e, modulus):
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


def _reduce(coeffs, p, level, modulus):
    """The remainder mod (1+T)^(p^n) - 1, trimmed."""
    return newton_divmod(coeffs, _modulus_poly(p, level, modulus), modulus)[1]


@lru_cache(maxsize=None)
def _phi_coeffs(p, i, modulus):
    step = p ** (i - 1)
    out = [0] * (step * (p - 1) + 1)
    for k in range(p):
        for j, c in enumerate(_binomial_row(k * step, modulus)):
            out[j] = (out[j] + c) % modulus
    return tuple(out)


class TLambda:
    """Element of Z_p[T]/((1+T)^(p^n) - 1) stored by its T-coefficients."""

    __slots__ = ("p", "level", "precision", "coeffs")

    def __init__(self, p, level, precision, coeffs):
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

    @classmethod
    def one(cls, p, level, precision):
        return cls(p, level, precision, [1])

    @classmethod
    def zero(cls, p, level, precision):
        return cls(p, level, precision, [])

    @classmethod
    def unit_power(cls, p, level, precision, s):
        return cls(p, level, precision, _binomial_row(s % p ** level, p ** precision))

    @classmethod
    def from_unit_basis(cls, p, level, precision, unit_coeffs):
        return cls(p, level, precision,
                   poly_taylor_shift(list(unit_coeffs), 1, p ** precision))

    @property
    def modulus(self):
        return self.p ** self.precision

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def at_zero(self):
        return PadicInt(self.p, self.coeffs[0], self.precision)

    def to_unit_basis(self):
        return poly_taylor_shift(list(self.coeffs), -1, self.modulus)

    def _new(self, coeffs):
        return TLambda(self.p, self.level, self.precision, coeffs)

    def __add__(self, other):
        return self._new([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self._new([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, PadicInt)):
            c = other.residue if isinstance(other, PadicInt) else other
            return self._new([a * c for a in self.coeffs])
        return self._new(poly_mul(self.coeffs, other.coeffs, self.modulus))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (self.p, self.level, self.precision, self.coeffs) == \
               (other.p, other.level, other.precision, other.coeffs)

    def __hash__(self):
        return hash((self.p, self.level, self.precision, self.coeffs))


def project_pi(x):
    if x.level == 0:
        raise LevelMismatch("level 0 has no lower level")
    return TLambda(x.p, x.level - 1, x.precision, x.coeffs)


def lift_nu(x):
    target = x.level + 1
    lifted = TLambda(x.p, target, x.precision, list(x.coeffs))
    return lifted * cyclotomic_phi(x.p, target, target, x.precision)


def cyclotomic_phi(p, i, level, precision, hatted=False):
    phi = TLambda(p, level, precision, list(_phi_coeffs(p, i, p ** precision)))
    e = half_twist_exponent(p, i) if hatted else 0
    if not e:
        return phi
    return phi * TLambda.unit_power(p, level, precision, -e)


def exact_divide_by_phi(x, i, hatted=False):
    if not 1 <= i <= x.level:
        raise OutOfRange(f"need 1 <= i <= n, got i={i}, n={x.level}")
    quot, rem = newton_divmod(list(x.coeffs), _phi_coeffs(x.p, i, x.modulus), x.modulus)
    if any(rem):
        raise NotDivisible(f"division by Phi_{{p^{i}}}: remainder is nonzero "
                           f"at working precision")
    out = TLambda(x.p, x.level, x.precision, quot)
    e = half_twist_exponent(x.p, i) if hatted else 0
    if e:
        out = out * TLambda.unit_power(x.p, x.level, x.precision, e)
    return out


def vanishing_order(x, m):
    if m > x.level:
        raise OutOfRange(f"m={m} exceeds level {x.level}")
    if x.is_zero():
        raise ZeroInput("vanishing order of 0 is undefined at finite precision")
    divisor = [0, 1] if m == 0 else list(_phi_coeffs(x.p, m, x.modulus))
    order = 0
    poly = list(x.coeffs)
    while True:
        quot, rem = newton_divmod(poly, divisor, x.modulus)
        if poly_trim(rem):
            return order
        order += 1
        poly = quot
        if not poly_trim(poly):
            return order


def iwasawa_invariants(x):
    found = newton_min(x.coeffs, x.p)
    if found is None:
        raise PrecisionExhausted("all coefficients vanish mod p^M")
    return IwasawaInvariants(mu=Fraction(found[0]), lam=found[1])


def newton_vr(x, s):
    s = Fraction(s)
    found = newton_min(x.coeffs, x.p, s)
    if found is None:
        raise ZeroInput("Newton valuation of 0 is undefined at finite precision")
    if found[0] >= x.precision:
        raise PrecisionExhausted("polygon minimum is not certified below p^M")
    return ExtRational(found[0])


def substitute_inverse(x):
    size = x.p ** x.level
    d = x.to_unit_basis()
    flipped = [d[0]] + [d[size - s] for s in range(1, size)]
    return TLambda.from_unit_basis(x.p, x.level, x.precision, flipped)


class PiElement:
    """Element of Z_p[zeta_{p^j}] stored by its d pi-coefficients.

    It compares equal to any element of the same ring with the same
    `coeffs`, the package's included.
    """

    __slots__ = ("p", "j", "precision", "coeffs", "exact_zero")

    def __init__(self, p, j, precision, coeffs, exact_zero=False):
        modulus = p ** precision
        d = p ** (j - 1) * (p - 1)
        coeffs = newton_divmod(coeffs, _phi_coeffs(p, j, modulus), modulus)[1]
        self.p = p
        self.j = j
        self.precision = precision
        self.coeffs = tuple(coeffs + [0] * (d - len(coeffs)))
        self.exact_zero = bool(exact_zero) and not any(coeffs)

    def _new(self, coeffs, exact_zero):
        return PiElement(self.p, self.j, self.precision, coeffs, exact_zero)

    def __add__(self, other):
        return self._new([a + b for a, b in zip(self.coeffs, other.coeffs)],
                         self.exact_zero and other.exact_zero)

    def __sub__(self, other):
        return self._new([a - b for a, b in zip(self.coeffs, other.coeffs)],
                         self.exact_zero and other.exact_zero)

    def __neg__(self):
        return self._new([-c for c in self.coeffs], self.exact_zero)

    def __mul__(self, other):
        return self._new(poly_mul(self.coeffs, other.coeffs, self.p ** self.precision),
                         self.exact_zero or other.exact_zero)

    def __eq__(self, other):
        return (self.p, self.j, self.precision, self.coeffs) == \
               (other.p, other.j, other.precision, tuple(other.coeffs))

    def ord(self):
        if self.exact_zero:
            return ExtRational.infinity()
        found = newton_min(self.coeffs, self.p, Fraction(1, len(self.coeffs)))
        if found is None:
            raise PrecisionExhausted(f"valuation not separable from >= {self.precision}")
        return ExtRational(found[0])


def phi_at_zeta(p, i, j, precision):
    return PiElement(p, j, precision, list(_phi_coeffs(p, i, p ** precision)),
                     exact_zero=i == j)


def eval_lambda_at_zeta(x, j):
    # T and pi share the coordinate: the T-coefficients reduced mod E(pi)
    return PiElement(x.p, j, x.precision, list(x.coeffs))


def log_truncation(params, level, hatted=False):
    p, M = params.p, params.precision
    phis = [cyclotomic_phi(p, i, level, M, hatted=hatted) for i in range(1, level + 1)]
    one, zero = TLambda.one(p, level, M), TLambda.zero(p, level, M)
    return tuple(push_steps(row, params.ap, params.eps_p, phis)
                 for row in ((one, zero), (zero, one)))


def det_identity_check(params, level):
    p, M = params.p, params.precision
    modulus = p ** M
    a = log_truncation(params, level)
    d1 = poly_mul(list(a[0][0].coeffs), list(a[1][1].coeffs), modulus)
    d2 = poly_mul(list(a[0][1].coeffs), list(a[1][0].coeffs), modulus)
    lhs = poly_trim(poly_mul([0, 1], _sub(d1, d2, modulus), modulus))
    eps_n = pow(params.eps_p, level, modulus)
    return lhs == poly_trim([eps_n * c % modulus for c in _modulus_poly(p, level, modulus)])


def functional_equation_check(params, level):
    """(ok, failing entries, twisted), as the report of the package fills them."""
    p, M = params.p, params.precision
    prod = log_truncation(params, level, hatted=True)
    image = tuple(tuple(substitute_inverse(e) for e in row) for row in prod)
    if p == 2:
        inv_unit = TLambda.unit_power(2, level, M, -1)
        expected = (prod[0], tuple(inv_unit * e for e in prod[1]))
    else:
        expected = prod
    failing = tuple((i, k) for i in range(2) for k in range(2)
                    if image[i][k] != expected[i][k])
    return not failing, failing, p == 2
