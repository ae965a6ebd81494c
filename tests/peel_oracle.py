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
"""

from iwt.errors import NotDivisible
from iwt.iwasawa_algebra import LambdaElement, _element, divide_by_phi
from iwt.logmatrix import LambdaMatrix
from iwt.sharp_flat import SharpFlatApprox


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
