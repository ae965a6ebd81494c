import random
from fractions import Fraction
from itertools import product

import pytest

import tbasis_oracle as oracle
from iwt.cyclotomic_ext import (EisensteinElement, eval_lambda_at_zeta,
                                h_matrix, h_matrix_valuations, minimal_k,
                                phi_at_zeta, v2_invariant)
from iwt.errors import InvalidK, OutOfRange, PrecisionExhausted, RingMismatch
from iwt.iwasawa_algebra import LambdaElement, cyclotomic_phi
from iwt.logmatrix import LambdaMatrix
from iwt.padic_core import ExtRational, PadicInt, ValMatrix, tropical_mul
from peel_oracle import mat_mul

M = 12
F = Fraction
INF = ExtRational.infinity()


def test_uniformizer_and_p_valuations():
    assert EisensteinElement.uniformizer(3, 1, M).ord() == ExtRational(F(1, 2))
    assert EisensteinElement.uniformizer(3, 3, M).ord() == ExtRational(F(1, 18))
    assert EisensteinElement.constant(3, 2, M, 3).ord() == ExtRational(1)
    assert EisensteinElement.constant(5, 2, M, 50).ord() == ExtRational(2)


def test_defining_relation():
    pi = EisensteinElement.uniformizer(3, 1, M)
    assert (pi * pi + 3 * pi + 3).is_zero()
    z = EisensteinElement.zeta(3, 2, M)
    acc = EisensteinElement.constant(3, 2, M, 1) + z ** 3 + z ** 6
    assert acc.is_zero()   # Phi_9(zeta_9) = 0


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        EisensteinElement.uniformizer(3, 1, M) + EisensteinElement.uniformizer(3, 2, M)


def test_scalar_known_to_a_lower_precision_is_a_ring_mismatch():
    # a PadicInt over another prime, or known mod 3^2 only, is not a scalar
    # of the ring at M = 12; one known mod 3^15 reduces
    z = EisensteinElement.zeta(3, 2, M)
    with pytest.raises(RingMismatch, match="mixed primes"):
        z * PadicInt(5, 7, M)
    with pytest.raises(RingMismatch, match="precision 2"):
        z * PadicInt(3, 7, 2)
    with pytest.raises(RingMismatch):
        z + PadicInt(3, 7, M - 1)
    assert z * PadicInt(3, 7 + 3 ** 12, 15) == z * 7 == PadicInt(3, 7, M) * z


def test_precision_exhausted_vs_structural_zero():
    dead = EisensteinElement.constant(3, 1, M, 3 ** M)
    with pytest.raises(PrecisionExhausted):
        dead.ord()
    assert EisensteinElement.zero(3, 1, M).ord().is_infinite


def closed_form_ord(p, i, j):
    # ord Phi_{p^i}(zeta_{p^j}): valuation ladder of the two root layers
    if i > j:
        return ExtRational(1)
    if i == j:
        return None
    d = lambda m: 1 if m == 0 else p ** (m - 1) * (p - 1)
    return ExtRational(F(1, d(j - i)) - F(1, d(j - i + 1)))


def test_phi_at_zeta_valuation_table():
    # exact for p in {3, 5}, j <= 3; i = j gives the zero element
    for p in (3, 5):
        for j in (1, 2, 3):
            for i in (1, 2, 3, 4):
                el = phi_at_zeta(p, i, j, M)
                want = closed_form_ord(p, i, j)
                if want is None:
                    assert el.is_zero()
                else:
                    assert el.ord() == want, (p, i, j)
    # the i > j case is the constant p on the nose
    assert phi_at_zeta(3, 3, 2, M) == EisensteinElement.constant(3, 2, M, 3)
    assert phi_at_zeta(2, 3, 1, M) == EisensteinElement.constant(2, 1, M, 2)


def test_eval_is_a_ring_homomorphism():
    rng = random.Random(41)
    p, n, j = 3, 2, 2
    for _ in range(40):
        x = LambdaElement(p, n, M, [rng.randrange(p ** M) for _ in range(p ** n)])
        y = LambdaElement(p, n, M, [rng.randrange(p ** M) for _ in range(p ** n)])
        ex, ey = eval_lambda_at_zeta(x, j), eval_lambda_at_zeta(y, j)
        assert eval_lambda_at_zeta(x * y, j) == ex * ey
        assert eval_lambda_at_zeta(x + y, j) == ex + ey
    # T maps to the uniformizer, the relation maps to zero
    assert eval_lambda_at_zeta(LambdaElement.monomial(p, n, M, 1), j) \
        == EisensteinElement.uniformizer(p, j, M)
    assert eval_lambda_at_zeta(cyclotomic_phi(p, 2, n, M), 2).is_zero()


def test_eval_matches_direct_phi():
    for (p, i, j, n) in ((3, 1, 2, 3), (3, 2, 3, 3), (5, 1, 2, 2), (2, 2, 3, 3)):
        assert eval_lambda_at_zeta(cyclotomic_phi(p, i, n, M), j) \
            == phi_at_zeta(p, i, j, M)
    with pytest.raises(OutOfRange):
        eval_lambda_at_zeta(LambdaElement.one(3, 1, M), 2)


def test_h_matrix_single_step_valuations():
    a = EisensteinElement.uniformizer(3, 3, M, 3)   # ord 1/6
    vm = h_matrix_valuations(a, 1, 3)
    assert vm == ValMatrix([[F(1, 6), 0], [F(1, 9), INF]])


def test_h_matrix_unit_slope_rows():
    # a a unit, m = n-1, j = n: [[0,0],[p^(1-n), p^(1-n)]]
    for n in (3, 4):
        a = EisensteinElement.constant(3, n, M, 2)
        want = ValMatrix([[0, 0], [F(1, 3 ** (n - 1)), F(1, 3 ** (n - 1))]])
        assert h_matrix_valuations(a, n - 1, n) == want


def test_h_matrix_integer_slope_rows():
    # v = 1, k = 1, the (n-k-2)-step product: both parity branches
    # n = 5 (n == k mod 2): [[p^-3, v], [v + p^-4, p^-4]]
    a = EisensteinElement.constant(3, 5, M, 3)
    want = ValMatrix([[F(1, 27), 1], [1 + F(1, 81), F(1, 81)]])
    assert h_matrix_valuations(a, 2, 5) == want
    # n = 6 (n != k mod 2), degree-486 ring:
    # [[v + p^-4, p^-4], [p^-5 + p^-3, v + p^-5]]
    a6 = EisensteinElement.constant(3, 6, M, 3)
    want6 = ValMatrix([[1 + F(1, 81), F(1, 81)],
                       [F(1, 243) + F(1, 27), 1 + F(1, 243)]])
    assert h_matrix_valuations(a6, 3, 6) == want6


def test_h_matrix_tropical_lower_bound():
    # the min-plus product of per-factor valuation matrices bounds the
    # exact valuations from below, entrywise
    a = EisensteinElement.uniformizer(3, 3, M, 3) * \
        (1 + EisensteinElement.uniformizer(3, 3, M))
    exact = h_matrix_valuations(a, 2, 3)
    step = lambda i: ValMatrix([[a.ord(), 0],
                                [phi_at_zeta(3, i, 3, M).ord(), INF]])
    bound = tropical_mul(step(1), step(2))
    for i in range(2):
        for k in range(2):
            assert exact.entries[i][k] >= bound.entries[i][k]


def test_minimal_k():
    assert minimal_k(3, F(1, 6)) == 1
    assert minimal_k(3, 1) == 1
    assert minimal_k(3, F(1, 7)) == 2
    assert minimal_k(3, F(1, 54)) == 3
    assert minimal_k(3, 0) is None
    assert minimal_k(3, ExtRational.infinity()) is None


def test_v2_dominated_by_phi_term():
    # 2v > p^-k forces ord(a^2 - eps Phi) = p^-k
    a = EisensteinElement.uniformizer(3, 3, M, 7)   # v = 7/18, k = 1
    assert v2_invariant(a, 3, 1) == ExtRational(F(1, 3))


def test_v2_integer_slope():
    from iwt.padic_core import PadicInt
    assert v2_invariant(PadicInt(3, 3, M), 3, 1) == ExtRational(F(1, 3))


def test_v2_rejects_wrong_k():
    # ord(pi) = 1/18 < p^(-1)/2, so k = 1 is not the minimal index
    a = EisensteinElement.uniformizer(3, 3, M, 1)
    with pytest.raises(InvalidK):
        v2_invariant(a, 3, 1)


def test_v2_cancellation_via_hensel_step():
    # at the boundary 2v = p^-k both terms have the same valuation; for
    # p = 3 every unit square is 1 mod pi, and the unit part of
    # Phi_9(zeta_27) is 1 mod pi, so cancellation is forced: v2 > 2v.
    # One correction step u = 1 + pi produces the minimal depth 2v + 1/18.
    pi = EisensteinElement.uniformizer(3, 3, M)
    bare = pi ** 3
    assert v2_invariant(bare, 3, 1) > ExtRational(F(1, 3))
    stepped = pi ** 3 * (1 + pi)
    assert v2_invariant(stepped, 3, 1) == ExtRational(F(1, 3) + F(1, 18))


def test_boundary_slope_matrix_matches_the_q_values():
    # v = p^-1/2 with the Hensel-stepped unit: exact first column of the
    # (n-1)-step matrix at level n agrees with the generalized terms, and
    # the parity-active row agrees in both columns (n = 3, 4)
    from iwt.bsd_analytics import KuriharaParams, kurihara_general
    pi27 = EisensteinElement.uniformizer(3, 3, M)
    a27 = pi27 ** 3 * (1 + pi27)
    v = a27.ord()
    v2 = v2_invariant(a27, 3, 1)
    params = KuriharaParams.from_v(3, v, v2)
    assert params.delta == F(1, 18)

    def q(n, star):
        return kurihara_general(n, 3, params, star).value

    vm3 = h_matrix_valuations(a27, 2, 3)
    phi3 = 3 ** 3 - 3 ** 2
    assert vm3.entries[0][0] == ExtRational(q(3, "sharp") / phi3)
    assert vm3.entries[1][0] == ExtRational(q(3, "flat") / phi3)
    # n = 3 = k mod 2: the flat row is parity-active
    assert vm3.entries[1][1] == ExtRational(q(3, "flat") / phi3 - v.value)

    z81 = EisensteinElement.zeta(3, 4, M)
    pi27e = z81 ** 3 - 1
    a81 = pi27e ** 3 * (1 + pi27e)
    vm4 = h_matrix_valuations(a81, 3, 4)
    phi4 = 3 ** 4 - 3 ** 3
    assert vm4.entries[0][0] == ExtRational(q(4, "sharp") / phi4)
    assert vm4.entries[1][0] == ExtRational(q(4, "flat") / phi4)
    # n = 4 != k mod 2: the sharp row is parity-active
    assert vm4.entries[0][1] == ExtRational(q(4, "sharp") / phi4 - v.value)


def test_minimal_k_of_a_negative_valuation_is_out_of_range():
    with pytest.raises(OutOfRange, match="minimal_k"):
        minimal_k(3, -1)


def power_sum_phi(p, i, j, precision):
    """Phi_{p^i}(zeta_{p^j}) = sum_{k<p} zeta^(k p^(i-1)), by powers of zeta.

    At i = j the sum runs over the p-th roots of unity and is exactly 0:
    a structural zero, which the flag keeps only if every residue is 0.
    """
    step = EisensteinElement.zeta(p, j, precision) ** (p ** (i - 1))
    acc = term = EisensteinElement.constant(p, j, precision, 1)
    for _ in range(p - 1):
        term = term * step
        acc = acc + term
    return EisensteinElement(p, j, precision, acc.coeffs, exact_zero=i == j)


def test_phi_at_zeta_matches_the_power_sum():
    for p in (2, 3, 5):
        for i in range(1, 5):
            for j in range(1, 4):
                want = power_sum_phi(p, i, j, M)
                got = phi_at_zeta(p, i, j, M)
                assert (got.coeffs, got.exact_zero) == (want.coeffs, want.exact_zero)


def test_h_matrix_matches_the_step_by_step_product():
    # each step [[a, 1], [-eps * Phi_{p^i}(zeta_{p^j}), 0]] built on its own,
    # with the power-sum Phi and a fresh structural zero, then multiplied;
    # a is random, a structural zero (the a_p = 0 case) or a unit constant
    rng = random.Random(43)
    for p, j in ((2, 3), (3, 2), (3, 3), (5, 2)):
        d = p ** (j - 1) * (p - 1)
        for m in (1, 2, 3):
            eps = rng.choice([1, p + 1])
            for a in (EisensteinElement(p, j, M, [rng.randrange(p ** M) for _ in range(d)]),
                      EisensteinElement.zero(p, j, M),
                      EisensteinElement.constant(p, j, M, p + 1)):
                acc = None
                for i in range(1, m + 1):
                    step = LambdaMatrix(((a, EisensteinElement.constant(p, j, M, 1)),
                                         ((-eps) * power_sum_phi(p, i, j, M),
                                          EisensteinElement.zero(p, j, M))))
                    acc = step if acc is None else mat_mul(acc, step)
                got = h_matrix(a, m, j, eps)
                for r in range(2):
                    for c in range(2):
                        assert got[r][c].coeffs == acc.entries[r][c].coeffs
                        assert got[r][c].exact_zero == acc.entries[r][c].exact_zero
                want = ValMatrix([[entry.ord() for entry in row] for row in acc.entries])
                got_vals = h_matrix_valuations(a, m, j, eps)
                assert got_vals == want
                if a.exact_zero and m >= j:
                    # every step is antidiagonal, and the product's entries that
                    # carry the factor Phi_{p^j}(zeta_{p^j}) = 0 are infinite
                    assert INF in got_vals.entries[0] + got_vals.entries[1]
                if m == 1:
                    assert h_matrix_valuations(a, m, j, eps).entries[1][1] == INF


def test_negative_power_is_out_of_range():
    with pytest.raises(OutOfRange):
        EisensteinElement.zeta(3, 1, 5) ** -1


def test_ring_level_below_one_is_out_of_range():
    with pytest.raises(OutOfRange):
        EisensteinElement(3, 0, 5, [1])


def test_ring_precision_below_one_is_out_of_range():
    with pytest.raises(OutOfRange):
        EisensteinElement(3, 1, 0, [1])


def test_phi_index_below_one_is_out_of_range():
    with pytest.raises(OutOfRange):
        phi_at_zeta(3, 0, 2, 5)


def ord_or_error(x):
    try:
        return x.ord()
    except PrecisionExhausted:
        return PrecisionExhausted


def same(got, want):
    # the package's zeta-basis element against the oracle's pi-basis one
    assert (got.p, got.j, got.precision) == (want.p, want.j, want.precision)
    assert (got.coeffs, got.exact_zero) == (want.coeffs, want.exact_zero)
    assert ord_or_error(got) == ord_or_error(want)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ring_matches_the_pi_basis_oracle(p):
    # constructor on pi-vectors up to 3d long, the ring operations, the
    # structural-zero flag and valuations, Phi at i < j, i = j and i > j,
    # and evaluation at every j <= n; one-residue moduli, one-word and wider
    # Kronecker slots
    rng = random.Random(p)
    n = 3
    for precision, j in product((1, 6, 30), range(1, n + 1)):
        modulus = p ** precision
        d = p ** (j - 1) * (p - 1)
        inputs = [([rng.randrange(modulus) for _ in range(length)], False)
                  for length in sorted({1, d - 1, d, d + 1, 2 * d - 1, 3 * d})]
        inputs += [([], True), ([0] * d, False), ([p ** (precision - 1)] * 2, False),
                   ([0] * (d - 1) + [p], False),
                   (list(oracle._phi_coeffs(p, j, modulus)), True)]
        pairs = []
        for coeffs, exact_zero in inputs:
            got = EisensteinElement(p, j, precision, coeffs, exact_zero)
            want = oracle.PiElement(p, j, precision, coeffs, exact_zero)
            same(got, want)
            same(-got, -want)
            pairs.append((got, want))
        # each input with itself and with the next: every structural-zero
        # combination occurs
        for (a, ta), (b, tb) in [*zip(pairs, pairs), *zip(pairs, pairs[1:] + pairs[:1])]:
            same(a + b, ta + tb)
            same(a - b, ta - tb)
            same(a * b, ta * tb)
        for i in range(1, j + 2):
            same(phi_at_zeta(p, i, j, precision), oracle.phi_at_zeta(p, i, j, precision))
        x = LambdaElement(p, n, precision, [rng.randrange(modulus) for _ in range(p ** n)])
        tx = oracle.TLambda(p, n, precision, x.coeffs)
        same(eval_lambda_at_zeta(x, j), oracle.eval_lambda_at_zeta(tx, j))
