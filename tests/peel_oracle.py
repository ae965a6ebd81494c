"""The peel as it stood before it started from (Theta_n, Theta_{n-1}): the oracle.

`nu_peel` takes the pair (Theta_n, nu Theta_{n-1}), hits it with the
constant matrix A~ and divides by Phi_{p^i} at every index n, ..., 1,
the top one included; on tower data that top division returns
X^e Theta_{n-1}, where `sharp_flat.decompose_pair` starts.  It accepts
any pair at level n, not only lifts, so the tests also run it on
corrupted peel states.  `unlift_nu` reads Theta_{n-1} back from a
nu-lift, so a recomposed pair can go through the package peel again.
`a_tilde_inverse` and `vec_mul` are the matrix
form of `sharp_flat.recompose`, which the tests compare against, and
`mat_mul` the matrix product of the tests' step products.

The divisions are this module's own: `list_divmod` is the division by
X^d - 1 as it stood before it ran on packed integers, suffix sums on
lists, so the oracle shares no division code with the package.
"""

from itertools import accumulate
from operator import add

from iwt.errors import NotDivisible
from iwt.iwasawa_algebra import LambdaElement, _element, half_twist_exponent
from iwt.logmatrix import LambdaMatrix
from iwt.sharp_flat import SharpFlatApprox


def trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def list_divmod(num, d, modulus):
    """Quotient and remainder of num by X^d - 1 over Z/modulus: the suffix
    sums q_t = num_(t+d) + q_(t+d), block by block from the top when there
    are fewer blocks than residue classes, class by class otherwise."""
    num = [c % modulus for c in num]
    quot, k = num[d:], len(num) - d
    if k <= 0:
        return [], trim(num)
    blocks = -(-k // d)
    if blocks < d:
        for start in range((blocks - 2) * d, -1, -d):
            above = quot[start + d:start + 2 * d]
            quot[start:start + len(above)] = map(add, quot[start:start + d], above)
    else:
        for r in range(min(d, k - d)):
            quot[r::d] = list(accumulate(quot[r::d][::-1]))[::-1]
    quot = [q % modulus for q in quot]
    low = quot[:d] + [0] * (d - k)
    return quot, trim([(a + b) % modulus for a, b in zip(num, low)])


def phi_divmod(units, p, i, modulus):
    """Quotient and remainder of a list by Phi_{p^i}(X), by X - 1 for i = 0:
    those of units (X^s - 1) by X^(ps) - 1, s = p^(i-1)."""
    if i == 0:
        return list_divmod(units, 1, modulus)
    s = p ** (i - 1)
    num = [a - b for a, b in zip([0] * s + units, units + [0] * s)]
    return list_divmod(num, p * s, modulus)


def divide_by_phi(units, p, i, modulus, hatted=False):
    """The exact quotient by Phi_{p^i}, twisted by X^e when hatted, as
    len(units) residues; NotDivisible when the remainder is nonzero."""
    quot, rem = phi_divmod(list(units), p, i, modulus)
    if rem:
        raise NotDivisible(f"division by Phi_{{p^{i}}}: remainder is nonzero "
                           f"at working precision")
    e = half_twist_exponent(p, i) if hatted else 0
    size = len(units)
    return ([0] * e + quot + [0] * size)[:size]


class PeelIndexError(NotDivisible):
    """A division of `nu_peel` left a remainder; `index` is its peel index."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def nu_peel(theta_n, nu_prev, params, hatted=False, tame_index=None):
    """Peel (Theta_n, nu Theta_{n-1}) into the terminal (sharp, flat) pair."""
    p, n, M, modulus = theta_n.p, theta_n.level, theta_n.precision, theta_n.modulus
    ap, eps = params.ap, params.eps_p
    eps_inv = pow(eps, -1, params.modulus)
    # (x, y) = (Theta_n, nu Theta_{n-1}) . A~, as group-basis vectors
    x = [ap * a - eps * b for a, b in zip(theta_n.units, nu_prev.units)]
    y = theta_n.units
    for i in range(n, 0, -1):
        try:
            u = divide_by_phi([(ap * b - a) * eps_inv for a, b in zip(x, y)],
                              p, i, modulus, hatted)
        except NotDivisible as exc:
            raise PeelIndexError(f"peel index {i}: {exc}", index=i) from exc
        x, y = y, u
    return SharpFlatApprox(level=n, tame_index=tame_index,
                           sharp=_element(p, n, M, x), flat=_element(p, n, M, y),
                           hatted=hatted, params=params)


def unlift_nu(nu_prev):
    """The level n-1 element whose nu-lift is nu_prev: its first p^(n-1)
    group coordinates, since a lift is p copies of them side by side."""
    p, n = nu_prev.p, nu_prev.level
    return LambdaElement.from_unit_basis(p, n - 1, nu_prev.precision,
                                         nu_prev.units[:p ** (n - 1)])


def a_tilde_inverse(params, level):
    """The explicit adjugate inverse of A-tilde (determinant eps_p, a unit)."""
    p, M = params.p, params.precision
    eps_inv = pow(params.eps_p, -1, p ** M)
    zero = LambdaElement.zero(p, level, M)
    one = LambdaElement.one(p, level, M)
    m_eps_inv = LambdaElement.constant(p, level, M, -eps_inv)
    ap_eps_inv = LambdaElement.constant(p, level, M, params.ap * eps_inv)
    return LambdaMatrix(((zero, m_eps_inv), (one, ap_eps_inv)))


def vec_mul(matrix, vec):
    """The row vector (x, y) . matrix."""
    x, y = vec
    a = matrix.entries
    return (x * a[0][0] + y * a[1][0], x * a[0][1] + y * a[1][1])


def mat_mul(left, right):
    """The matrix product left . right of two 2x2 matrices."""
    a, b = left.entries, right.entries
    return LambdaMatrix(tuple(tuple(a[i][0] * b[0][k] + a[i][1] * b[1][k] for k in range(2))
                              for i in range(2)))
