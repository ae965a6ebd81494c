"""Two-by-two matrices over the finite-level group algebra.

`push_steps` is the step: a row vector times
S_i = [[ap, 1], [-eps Phi_i, 0]].  Every product of steps goes through
it; `make_matrix` is its matrix form, kept for the tests, beside the
constant matrices of the decomposition.  Also here: finite truncations
of the logarithm-matrix product, the inversion-symmetry check, and the
a_p = 0 half-logarithm data with its unit factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRange
from .iwasawa_algebra import (LambdaElement, cyclotomic_phi,
                              half_twist_exponent, substitute_inverse)
from .polyops import poly_mul, poly_sub, poly_trim


@dataclass(frozen=True)
class LambdaMatrix:
    """2x2 matrix over a commutative ring: group-algebra or Eisenstein elements."""

    entries: tuple

    def map_entries(self, fn):
        return LambdaMatrix(tuple(tuple(fn(e) for e in row) for row in self.entries))


def push_steps(row, ap, eps, phis):
    """The row vector row . S_1 ... S_m, S_i = [[ap, 1], [-eps Phi_i, 0]],
    for phis = (Phi_1, ..., Phi_m) over any commutative ring."""
    x, y = row
    for phi in phis:
        x, y = ap * x - eps * (phi * y), x
    return x, y


def make_matrix(family, params, level, i=None):
    """Build one matrix of the given family in the level-n group algebra.

    The cyclotomic families (CCC, CCC-hat) need the index i of the
    polynomial; the constant families (C, A, A-tilde) ignore it.  The
    step families are the matrix form of `push_steps`, kept for the tests.
    """
    p, M = params.p, params.precision
    one = LambdaElement.one(p, level, M)
    zero = LambdaElement.zero(p, level, M)
    ap = LambdaElement.constant(p, level, M, params.ap)
    meps = LambdaElement.constant(p, level, M, -params.eps_p)

    if family in ("CCC", "CCC-hat"):
        if i is None or not 1 <= i <= level:
            raise OutOfRange(f"family {family} needs 1 <= i <= n, got i={i}")
        phi = cyclotomic_phi(p, i, level, M, hatted=family == "CCC-hat")
        return LambdaMatrix(((ap, one), (meps * phi, zero)))
    if family == "C":
        return LambdaMatrix(((ap, one), (meps * p, zero)))
    if family == "A":
        pconst = LambdaElement.constant(p, level, M, p)
        return LambdaMatrix(((ap, pconst), (meps, zero)))
    if family == "A-tilde":
        return LambdaMatrix(((ap, one), (meps, zero)))
    raise OutOfRange(f"unknown family {family!r}")


def log_truncation(params, level, hatted=False):
    """The exact product S_1 ... S_n of the first n step matrices, row by row."""
    if level < 1:
        raise OutOfRange("level must be >= 1")
    p, M = params.p, params.precision
    phis = [cyclotomic_phi(p, i, level, M, hatted=hatted) for i in range(1, level + 1)]
    one, zero = LambdaElement.one(p, level, M), LambdaElement.zero(p, level, M)
    return LambdaMatrix(tuple(push_steps(row, params.ap, params.eps_p, phis)
                              for row in ((one, zero), (zero, one))))


def det_identity_check(params, level):
    """T * det(step product) = eps^n ((1+T)^(p^n) - 1) as polynomials.

    The unreduced step product has entry degrees below p^n, so the
    canonical representatives ARE the polynomial entries; the determinant
    is formed without the ring relation and compared coefficientwise, in
    the group basis X = 1+T: (X - 1) det = eps^n (X^(p^n) - 1).
    """
    p, M = params.p, params.precision
    modulus = p ** M
    prod = log_truncation(params, level)
    a = prod.entries
    d1 = poly_mul(a[0][0].units, a[1][1].units, modulus)
    d2 = poly_mul(a[0][1].units, a[1][0].units, modulus)
    det = poly_sub(d1, d2, modulus)
    lhs = poly_trim([(b - c) % modulus for b, c in zip([0] + det, det + [0])])
    eps_n = pow(params.eps_p, level, modulus)
    rhs = [-eps_n % modulus] + [0] * (p ** level - 1) + [eps_n]
    return lhs == poly_trim(rhs)


@dataclass(frozen=True)
class FunctionalEquationReport:
    p: int
    level: int
    ok: bool
    failing_entries: tuple
    twisted: bool


def functional_equation_check(params, level):
    """Check invariance of the completed product under (1+T) -> (1+T)^(-1).

    Odd p: the product itself must be fixed entrywise.  p = 2: the image
    equals the product left-multiplied by diag(1, (1+T)^(-1)).
    """
    p, M = params.p, params.precision
    prod = log_truncation(params, level, hatted=True)
    image = prod.map_entries(substitute_inverse)
    if p == 2:
        inv_unit = LambdaElement.unit_power(2, level, M, -1)
        expected = LambdaMatrix((prod.entries[0],
                                 tuple(inv_unit * e for e in prod.entries[1])))
        twisted = True
    else:
        expected = prod
        twisted = False
    failing = tuple((i, k) for i in range(2) for k in range(2)
                    if image.entries[i][k] != expected.entries[i][k])
    return FunctionalEquationReport(p=p, level=level, ok=not failing,
                                    failing_entries=failing, twisted=twisted)


@dataclass(frozen=True)
class HalfLogData:
    """Truncated half-logarithms for a_p = 0 and their unit factors.

    log^+ collects the even-index cyclotomic factors (2j <= n), log^-
    the odd-index ones (2j-1 <= n).  Numerators are ring elements; the
    true half-logarithms carry an extra p^-(1 + #factors) scale that the
    quotient ring cannot hold, so it is reported as an exponent.
    """

    p: int
    level: int
    plus_indices: tuple
    minus_indices: tuple
    log_plus_numerator: LambdaElement
    log_minus_numerator: LambdaElement
    plus_scale_exponent: int
    minus_scale_exponent: int
    u_plus: LambdaElement
    u_minus: LambdaElement
    w_plus: LambdaElement
    w_minus: LambdaElement


def half_logs(p, level, eps_p, precision):
    """Truncated half-log numerators with the U and W unit factors.

    W^{+/-} is (1+T)^(-sum of the degrees of the included factors); for
    p = 2 the completed first factor contributes through W^- but not U^-.
    """
    if level < 1:
        raise OutOfRange("level must be >= 1")
    plus_idx = tuple(i for i in range(2, level + 1, 2))
    minus_idx = tuple(i for i in range(1, level + 1, 2))

    def product(indices):
        acc = LambdaElement.one(p, level, precision)
        for i in indices:
            acc = acc * cyclotomic_phi(p, i, level, precision)
        return acc

    def u_factor(indices):
        e = sum(half_twist_exponent(p, i) for i in indices)
        return LambdaElement.unit_power(p, level, precision, -e)

    def w_factor(indices):
        e = sum(p ** (i - 1) * (p - 1) for i in indices)
        return LambdaElement.unit_power(p, level, precision, -e)

    return HalfLogData(
        p=p, level=level,
        plus_indices=plus_idx, minus_indices=minus_idx,
        log_plus_numerator=product(plus_idx),
        log_minus_numerator=product(minus_idx),
        plus_scale_exponent=-(1 + len(plus_idx)),
        minus_scale_exponent=-(1 + len(minus_idx)),
        u_plus=u_factor(plus_idx), u_minus=u_factor(minus_idx),
        w_plus=w_factor(plus_idx), w_minus=w_factor(minus_idx),
    )
