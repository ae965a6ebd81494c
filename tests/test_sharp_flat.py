import random
from fractions import Fraction

import pytest

from iwt.errors import NotDivisible, OutOfRange, PrecisionMismatch, Unstable
from iwt.iwasawa_algebra import (FormParams, LambdaElement, cyclotomic_phi,
                                 iwasawa_invariants, lift_nu, project_pi,
                                 vanishing_order)
from iwt.logmatrix import a_tilde_inverse, log_truncation, make_matrix
from iwt.mazur_tate import QueueSequence, synthesize_queue, validate_queue
from iwt.sharp_flat import (SharpFlatApprox, decompose, decompose_pair,
                            decompose_sequence, recompose,
                            special_value_check, stabilized_invariants,
                            vector_vanishing_orders)

M = 12


def step_product(params, level, hatted):
    """S_1 ... S_n . A~^(-1), the matrix form of the peel run forwards."""
    return log_truncation(params, level, hatted) @ a_tilde_inverse(params, level)


def hats_for(p):
    return (False,) if p == 2 else (False, True)


def test_roundtrip_both_directions_small_grid():
    # exact identities on their respective domains: tower pairs one way,
    # decomposition outputs the other (the forward map has a kernel on
    # arbitrary vectors, so only the canonical image reverses literally)
    rng = random.Random(2)
    for p, ap, eps in ((2, 2, 1), (3, -3, 1), (3, 4, 2), (5, 0, 1)):
        for n in (1, 2, 3):
            params = FormParams(p, ap, eps, M)
            seq = synthesize_queue(rng.randrange(10 ** 6), params, n)
            for hatted in hats_for(p):
                appr = decompose(seq[n], seq[n - 1], params, hatted=hatted)
                theta, nu_prev = recompose(appr)
                assert theta == seq[n]
                assert nu_prev == lift_nu(seq[n - 1])
                back = decompose_pair(theta, nu_prev, params, hatted=hatted)
                assert back.sharp == appr.sharp and back.flat == appr.flat


def test_bulk_duality_small_levels():
    # dense randomized coverage where elements are cheap
    rng = random.Random(8)
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        params = FormParams(p, p, 1, M)
        for _ in range(200):
            seq = synthesize_queue(rng.randrange(10 ** 9), params, n)
            appr = decompose(seq[n], seq[n - 1], params)
            theta, nu_prev = recompose(appr)
            assert theta == seq[n] and nu_prev == lift_nu(seq[n - 1])


def test_completed_variant_rejected_for_p2():
    params = FormParams(2, 2, 1, M)
    seq = synthesize_queue(5, params, 2)
    with pytest.raises(OutOfRange):
        decompose(seq[2], seq[1], params, hatted=True)


def test_not_divisible_names_the_peel_index():
    params = FormParams(3, -3, 1, M)
    seq = synthesize_queue(11, params, 3)
    bumped = list(seq[3].coeffs)
    bumped[1] += 1
    broken = LambdaElement(3, 3, M, bumped)
    with pytest.raises(NotDivisible) as err:
        decompose(broken, seq[2], params)
    assert err.value.index is not None


def test_precision_is_preserved():
    params = FormParams(3, -3, 1, M)
    seq = synthesize_queue(17, params, 2)
    appr = decompose(seq[2], seq[1], params)
    assert appr.sharp.precision == M and appr.flat.precision == M


def test_recompose_level_zero_base_case():
    params = FormParams(3, 4, 1, M)
    s = LambdaElement.constant(3, 0, M, 5)
    f = LambdaElement.constant(3, 0, M, 7)
    appr = SharpFlatApprox(level=0, tame_index=None, sharp=s, flat=f,
                           hatted=False, params=params)
    from iwt.logmatrix import a_tilde_inverse
    assert recompose(appr) == a_tilde_inverse(params, 0).vec_mul((s, f))


def test_recompose_is_linear():
    rng = random.Random(23)
    params = FormParams(3, -3, 1, M)
    n = 2

    def rand_elem():
        return LambdaElement(3, n, M, [rng.randrange(3 ** M) for _ in range(9)])

    def apx(s, f):
        return SharpFlatApprox(level=n, tame_index=None, sharp=s, flat=f,
                               hatted=False, params=params)

    s1, f1, s2, f2 = (rand_elem() for _ in range(4))
    a, b = 4, 7
    lhs = recompose(apx(a * s1 + b * s2, a * f1 + b * f2))
    r1, r2 = recompose(apx(s1, f1)), recompose(apx(s2, f2))
    assert lhs == (a * r1[0] + b * r2[0], a * r1[1] + b * r2[1])


def test_level_compatibility_against_the_step_product():
    # the defect between consecutive canonical decompositions is killed
    # exactly by the step product, and values at T = 0 agree on the nose
    for p, ap in ((3, -3), (3, 0), (3, 1), (2, 2), (5, 5)):
        params = FormParams(p, ap, 1, M)
        seq = synthesize_queue(29, params, 3)
        apprs = decompose_sequence(seq)
        for lo, hi in zip(apprs, apprs[1:]):
            vec = (project_pi(hi.sharp) - lo.sharp,
                   project_pi(hi.flat) - lo.flat)
            for i in range(1, lo.level + 1):
                vec = make_matrix("CCC", params, lo.level, i).vec_mul(vec)
            assert vec[0].is_zero() and vec[1].is_zero()
            assert hi.sharp.at_zero() == lo.sharp.at_zero()
            assert hi.flat.at_zero() == lo.flat.at_zero()


def test_invariants_recovered_from_constructed_vectors():
    # plant (sharp, flat) with known invariants, push forward to tower
    # data, and re-extract at every level where lambda is visible
    params = FormParams(3, -3, 1, M)
    rng = random.Random(31)
    for n in (2, 3):
        unit = LambdaElement(3, n, M,
                             [1 + 3 * rng.randrange(3 ** (M - 1))] +
                             [rng.randrange(3 ** M) for _ in range(2)])
        sharp = 3 * LambdaElement.monomial(3, n, M, 1) * unit      # (1, 1)
        flat = LambdaElement(3, n, M, [9, 3, 1])                   # (0, 2)
        tn, nup = step_product(params, n, False).vec_mul((sharp, flat))
        appr = decompose_pair(tn, nup, params)
        assert iwasawa_invariants(appr.sharp).pair() == (1, 1)
        assert iwasawa_invariants(appr.flat).pair() == (0, 2)


def test_stabilized_invariants_contract():
    params = FormParams(3, -3, 1, M)
    seq = synthesize_queue(37, params, 3)
    apprs = decompose_sequence(seq)
    with pytest.raises(Unstable):
        stabilized_invariants(apprs[:1])
    sharp, flat = stabilized_invariants(apprs)
    s3, f3 = apprs[-1].invariants()
    assert (sharp.mu, sharp.lam) == s3.pair()
    assert (flat.mu, flat.lam) == f3.pair()


def test_hat_and_plain_invariants_agree():
    for ap in (-3, 0, 4):
        params = FormParams(3, ap, 1, M)
        seq = synthesize_queue(41, params, 3)
        plain = decompose_sequence(seq)[-1]
        hat = decompose_sequence(seq, hatted=True)[-1]
        assert iwasawa_invariants(plain.sharp).pair() \
            == iwasawa_invariants(hat.sharp).pair()
        assert iwasawa_invariants(plain.flat).pair() \
            == iwasawa_invariants(hat.flat).pair()


def test_ap_zero_parity_divisibility():
    # ap = 0, p = 3, n = 3: the terminal pair reassembles the inputs
    # through the even/odd completed products
    params = FormParams(3, 0, 1, M)
    seq = synthesize_queue(43, params, 3)
    appr = decompose(seq[3], seq[2], params, hatted=True)
    phi_hat = lambda i: cyclotomic_phi(3, i, 3, M, hatted=True)
    eps = params.eps_p
    assert (-eps) * appr.sharp * phi_hat(2) == seq[3]
    assert (-eps) * appr.flat * phi_hat(1) * phi_hat(3) == lift_nu(seq[2])


def test_vanishing_orders_injected_multiplicity():
    params = FormParams(3, -3, 1, M)
    seq = synthesize_queue(47, params, 2)
    appr = decompose(seq[2], seq[1], params)
    base = vector_vanishing_orders(appr, range(0, 3))
    for m in (0, 1, 2):
        factor = cyclotomic_phi(3, m, 2, M) if m else \
            LambdaElement.monomial(3, 2, M, 1)
        boosted = SharpFlatApprox(level=2, tame_index=None,
                                  sharp=appr.sharp * factor,
                                  flat=appr.flat * factor,
                                  hatted=False, params=params)
        report = vector_vanishing_orders(boosted, [m])
        assert report.orders[m] == base.orders[m] + 1


def test_vanishing_orders_weights():
    # unit vector (1, 0): the recombined row has a unit at every point
    params = FormParams(3, 2, 1, M)
    appr = SharpFlatApprox(level=2, tame_index=None,
                           sharp=LambdaElement.one(3, 2, M),
                           flat=LambdaElement.zero(3, 2, M),
                           hatted=False, params=params)
    report = vector_vanishing_orders(appr, range(0, 3))
    assert report.orders == {0: 0, 1: 0, 2: 0}
    assert report.rank_estimate == 0
    with pytest.raises(OutOfRange):
        vector_vanishing_orders(appr, [5])


def test_special_value_lratio_gate():
    params = FormParams(3, -3, 1, M)
    seq = synthesize_queue(53, params, 2)
    appr = decompose(seq[2], seq[1], params)
    assert not special_value_check(appr, None).checked


def test_decompose_pair_rejects_a_precision_mismatch():
    params = FormParams(3, -3, 1, M)
    seq = synthesize_queue(4, params, 2)
    nu_prev = lift_nu(seq[1])
    coarse = LambdaElement(3, 2, M - 1, list(nu_prev.coeffs))
    with pytest.raises(PrecisionMismatch):
        decompose_pair(seq[2], coarse, params)


def matrix_route(approx):
    """(sharp, flat) . S_1 ... S_n through the step-matrix objects."""
    family = "CCC-hat" if approx.hatted else "CCC"
    vec = (approx.sharp, approx.flat)
    for i in range(1, approx.level + 1):
        vec = make_matrix(family, approx.params, approx.level, i).vec_mul(vec)
    return vec


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_forward_product_matches_the_matrix_route(p):
    # recompose and vector_vanishing_orders against the A~^(-1) and step
    # matrices they used to multiply by, on the peel of a synthesized tower
    # at every level n <= 4; level 0 has no peel, so a random pair stands in
    rng = random.Random(p)
    params = FormParams(p, rng.randint(-p, p), p + 1, M)
    seq = synthesize_queue(rng.randrange(10 ** 6), params, 4)
    flat0 = LambdaElement(p, 0, M, [rng.randrange(p ** M)])
    approxes = [SharpFlatApprox(level=0, tame_index=None, sharp=seq[0], flat=flat0,
                                hatted=False, params=params)]
    for n in range(1, 5):
        approxes += [decompose(seq[n], seq[n - 1], params, hatted=hatted)
                     for hatted in hats_for(p)]
    for approx in approxes:
        vec = matrix_route(approx)
        assert recompose(approx) == a_tilde_inverse(params, approx.level).vec_mul(vec)
        m_range = range(approx.level + 1)
        want = {m: min(vanishing_order(e, m) for e in vec if not e.is_zero())
                for m in m_range}
        assert vector_vanishing_orders(approx, m_range).orders == want
