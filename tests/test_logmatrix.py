import random
from fractions import Fraction

import pytest

from iwt.cyclotomic_ext import eval_lambda_at_zeta
from iwt.errors import OutOfRange
from iwt.iwasawa_algebra import (FormParams, LambdaElement, cyclotomic_phi,
                                 newton_vr, substitute_inverse)
from iwt.logmatrix import (FunctionalEquationReport, LambdaMatrix,
                           det_identity_check, functional_equation_check,
                           half_logs, log_truncation, make_matrix)
from iwt.padic_core import INF, ExtRational, ValMatrix, tropical_mul
from peel_oracle import a_tilde_inverse

M = 10
F = Fraction


def valuation_matrix_at(mat, s):
    """Entrywise Newton valuations at exponent s; structural zeros map to oo."""
    def v(e):
        return INF if e.is_zero() else newton_vr(e, s)
    return ValMatrix([[v(mat[0, 0]), v(mat[0, 1])], [v(mat[1, 0]), v(mat[1, 1])]])


def test_constant_families():
    params = FormParams(3, 7, 2, M)
    c = make_matrix("C", params, 2)
    assert c[0, 0] == LambdaElement.constant(3, 2, M, 7)
    assert c[1, 0] == LambdaElement.constant(3, 2, M, -6)
    assert c[1, 1].is_zero()
    a = make_matrix("A", params, 2)
    assert a[0, 1] == LambdaElement.constant(3, 2, M, 3)
    with pytest.raises(OutOfRange):
        make_matrix("CCC", params, 2, 3)
    with pytest.raises(OutOfRange):
        make_matrix("bogus", params, 2)


def test_a_tilde_inverse_is_the_adjugate():
    params = FormParams(3, 4, 2, M)
    eye = make_matrix("A-tilde", params, 2) @ a_tilde_inverse(params, 2)
    assert eye[0, 0] == LambdaElement.one(3, 2, M)
    assert eye[1, 1] == LambdaElement.one(3, 2, M)
    assert eye[0, 1].is_zero() and eye[1, 0].is_zero()


def test_step_matrix_at_deep_point_is_constant():
    # the i-th step matrix evaluated at a lower-order root equals C
    params = FormParams(3, 7, 1, M)
    step = make_matrix("CCC", params, 3, 3)
    c = make_matrix("C", params, 3)
    for i in range(2):
        for k in range(2):
            assert eval_lambda_at_zeta(step[i, k], 2) \
                == eval_lambda_at_zeta(c[i, k], 2)


def test_log_truncation_base_case_and_det():
    params = FormParams(3, -3, 1, M)
    assert log_truncation(params, 1).entries \
        == make_matrix("CCC", params, 1, 1).entries
    for p, ap, eps in ((2, 2, 1), (3, -3, 1), (5, 2, 3), (3, 1, 2)):
        for n in (1, 2, 3):
            assert det_identity_check(FormParams(p, ap, eps, M), n)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_log_truncation_matches_the_left_to_right_matrix_product(p):
    # the row recursion against make_matrix(...) @ ... for a_p = 0, a unit
    # and p times a unit, eps = 1 and another unit, completed or not
    for n in (2, 3):
        for ap in (0, p + 1, p * (p - 1)):
            for eps in (1, 2 * p - 1):
                for hatted in (False, True):
                    params = FormParams(p, ap, eps, M)
                    family = "CCC-hat" if hatted else "CCC"
                    want = make_matrix(family, params, n, 1)
                    for i in range(2, n + 1):
                        want = want @ make_matrix(family, params, n, i)
                    got = log_truncation(params, n, hatted)
                    assert got.entries == want.entries, (n, ap, eps, hatted)


def test_functional_equation_odd_p():
    for p, ap, eps, n in ((3, -3, 1, 3), (3, 4, 2, 2), (5, 5, 2, 2)):
        report = functional_equation_check(FormParams(p, ap, eps, M), n)
        assert report.ok and not report.twisted


def test_functional_equation_p2_twisted():
    for n in (2, 3):
        report = functional_equation_check(FormParams(2, 2, 1, M), n)
        assert report.ok and report.twisted


def test_unhatted_product_is_not_invariant():
    params = FormParams(3, 4, 1, M)
    prod = log_truncation(params, 2, hatted=False)
    image = prod.map_entries(substitute_inverse)
    assert prod.entries != image.entries


def test_tropical_bound_and_unit_slope_left_column():
    # entrywise, polygon valuations of the product dominate the min-plus
    # product of the per-factor valuation matrices; for a unit ap the
    # left column is exactly [0, e_1]
    s = F(1, 10)
    for p, ap in ((3, 1), (3, -3), (5, 2), (2, 2)):
        params = FormParams(p, ap, 1, M)
        n = 2
        prod = log_truncation(params, n)
        exact = valuation_matrix_at(prod, s)
        bound = valuation_matrix_at(make_matrix("CCC", params, n, 1), s)
        for i in range(2, n + 1):
            bound = tropical_mul(bound, valuation_matrix_at(
                make_matrix("CCC", params, n, i), s))
        for i in range(2):
            for k in range(2):
                assert exact.entries[i][k] >= bound.entries[i][k]
        if ap % p:
            e1 = min(F(1), s * (p - 1))
            assert exact.entries[0][0] == ExtRational(0)
            assert exact.entries[1][0] == ExtRational(e1)


def test_half_log_truncation_indices_and_scales():
    hl = half_logs(3, 2, 1, M)
    assert hl.plus_indices == (2,) and hl.minus_indices == (1,)
    assert hl.log_plus_numerator == cyclotomic_phi(3, 2, 2, M)
    assert hl.plus_scale_exponent == -2
    hl4 = half_logs(3, 4, 1, M)
    assert hl4.plus_indices == (2, 4) and hl4.minus_indices == (1, 3)


def test_w_units_give_the_inversion_identity():
    for p, n in ((3, 2), (3, 3), (3, 4), (2, 3), (2, 4), (5, 2)):
        hl = half_logs(p, n, 1, M)
        assert hl.log_plus_numerator * hl.w_plus \
            == substitute_inverse(hl.log_plus_numerator)
        assert hl.log_minus_numerator * hl.w_minus \
            == substitute_inverse(hl.log_minus_numerator)


def test_w_plus_matches_the_limit_exponent():
    # the truncated exponent agrees with the limit p/(p+1) mod p^n (odd p)
    for p, n in ((3, 3), (3, 4), (5, 2)):
        hl = half_logs(p, n, 1, M)
        e = F(p, p + 1)
        lim = (e.numerator * pow(e.denominator, -1, p ** n)) % p ** n
        assert hl.w_plus == LambdaElement.unit_power(p, n, M, lim)


def test_u_units_relate_hatted_and_plain_products():
    # log-hat = U * log at truncation level, factor by factor
    for p, n in ((3, 3), (2, 4)):
        hl = half_logs(p, n, 1, M)
        hat_plus = LambdaElement.one(p, n, M)
        hat_minus = LambdaElement.one(p, n, M)
        for i in hl.plus_indices:
            hat_plus = hat_plus * cyclotomic_phi(p, i, n, M, hatted=True)
        for i in hl.minus_indices:
            hat_minus = hat_minus * cyclotomic_phi(p, i, n, M, hatted=True)
        assert hat_plus == hl.u_plus * hl.log_plus_numerator
        assert hat_minus == hl.u_minus * hl.log_minus_numerator


def test_ap_zero_column_factorization():
    # with ap = 0 the step product collapses to the even/odd cyclotomic
    # products: at even depth it is exactly diag(even-prod, odd-prod)
    # (p = 3, n = 4), the truncated half-logarithm numerators
    params = FormParams(3, 0, 1, M)
    n = 4
    prod = log_truncation(params, n)
    hl = half_logs(3, n, 1, M)
    assert prod[0, 0] == hl.log_plus_numerator
    assert prod[1, 1] == hl.log_minus_numerator
    assert prod[0, 1].is_zero() and prod[1, 0].is_zero()
    s = F(1, 30)
    v_plus = newton_vr(hl.log_plus_numerator, s)
    v_minus = newton_vr(hl.log_minus_numerator, s)
    inf = ExtRational.infinity()
    assert valuation_matrix_at(prod, s) == ValMatrix([
        [v_plus, inf], [inf, v_minus]])
    # odd depth swaps the columns: (0, odd-prod * -Phi_5-step) pattern
    prod5 = log_truncation(FormParams(3, 0, 1, M), 3)
    assert prod5[0, 0].is_zero() and prod5[1, 1].is_zero()
    hl3 = half_logs(3, 3, 1, M)
    assert prod5[1, 0] == hl3.log_minus_numerator
    assert prod5[0, 1] == -cyclotomic_phi(3, 2, 3, M)
