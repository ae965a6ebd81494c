"""Acceptance battery: one test per criterion, one printed line each.

Everything here is exact arithmetic; "tolerance zero" means equality of
residue vectors mod p^M.  The stated runtime budgets are asserted.
"""

import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from iwt.bsd_analytics import (SHARP, FLAT, KuriharaParams,
                               elliptic_table_choose, kurihara_general,
                               kurihara_simple, modesty_choose, modesty_map,
                               nu_thresholds, rank_bound, sha_growth,
                               ShaRecord)
from iwt.cyclotomic_ext import (EisensteinElement, h_matrix_valuations,
                                v2_invariant)
from iwt.errors import ExcludedCase
from iwt.iwasawa_algebra import (FormParams, LambdaElement, cyclotomic_phi,
                                 iwasawa_invariants, lift_nu,
                                 substitute_inverse)
from iwt.logmatrix import det_identity_check, functional_equation_check, half_logs
from iwt.mazur_tate import ingest_modular_symbols, synthesize_queue, theta_sequence
from iwt.padic_core import ExtRational, ValMatrix
from iwt.sharp_flat import (SharpFlatApprox, decompose, decompose_pair,
                            decompose_sequence, recompose, stabilized_invariants,
                            special_value_check, vector_vanishing_orders)
from peel_oracle import unlift_nu, vec_mul

F = Fraction
INF = ExtRational.infinity()


def report(num, label):
    print(f"ACCEPTANCE {num:>2} PASS  {label}")


def test_criterion_1_round_trip_decomposition():
    started = time.monotonic()
    m = 16
    grid = [(2, 2, 1, 25), (3, -3, 1, 20), (5, 5, 3, (10, 6, 4, 3))]
    count = 0
    for p, ap, eps, reps in grid:
        params = FormParams(p, ap, eps, m)
        for n in (1, 2, 3, 4):
            todo = reps if isinstance(reps, int) else reps[n - 1]
            for t in range(todo):
                seq = synthesize_queue(1000 * p + 10 * n + t, params, n)
                hatted = (p != 2) and (t % 2 == 0)
                appr = decompose(seq[n], seq[n - 1], params, hatted=hatted)
                theta, nu_prev = recompose(appr)
                assert theta == seq[n]
                assert nu_prev == lift_nu(seq[n - 1])
                again = decompose_pair(theta, unlift_nu(nu_prev), params,
                                       hatted=hatted)
                assert again.sharp == appr.sharp and again.flat == appr.flat
                count += 1
    elapsed = time.monotonic() - started
    assert count >= 200
    assert elapsed < 10.0
    report(1, f"round-trip decomposition exact on {count} sequences "
              f"({elapsed:.1f}s < 10s)")


def test_criterion_2_determinant_identity():
    for p, ap, eps in ((2, 2, 1), (2, 0, 1), (3, -3, 1), (3, 4, 2), (5, 5, 3)):
        params = FormParams(p, ap, eps, 12)
        for n in (1, 2, 3, 4):
            assert det_identity_check(params, n)
    report(2, "determinant identity exact for p in {2,3,5}, n <= 4")


def test_criterion_3_functional_equation_symmetry():
    for p, ap, eps in ((3, -3, 1), (3, 7, 2), (5, 5, 2), (5, 2, 1)):
        for n in (1, 2, 3):
            fe = functional_equation_check(FormParams(p, ap, eps, 12), n)
            assert fe.ok and not fe.twisted
    for ap in (2, 0, 6):
        for n in (1, 2, 3):
            fe = functional_equation_check(FormParams(2, ap, 1, 12), n)
            assert fe.ok and fe.twisted
    report(3, "completed products inversion-symmetric (diag twist at p=2), n <= 3")


def test_criterion_4_e37a_reproduction(e37a_table):
    started = time.monotonic()
    seq = theta_sequence(e37a_table, 4, 0, 12)
    apprs = decompose_sequence(seq)
    sharp, flat = stabilized_invariants(apprs)
    assert (sharp.mu, sharp.lam, sharp.stable) == (0, 1, True)
    assert (flat.mu, flat.lam, flat.stable) == (0, 5, True)
    ns, nf, _, _ = nu_thresholds(3, sharp.lam, flat.lam)
    assert (ns, nf) == (0, 2)
    bound = rank_bound(3, sharp.mu, flat.mu, sharp.lam, flat.lam, 1)
    assert bound.bound == min(kurihara_simple(2, 3, FLAT) + 5,
                              kurihara_simple(2, 3, SHARP) + 1) == 7
    assert bound.bound > sharp.lam + flat.lam == 6
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(4, f"37a at p=3: mu=0/0, lambda=1/5, nu=(0,2), bound 7 > 6 "
              f"({elapsed:.1f}s < 60s)")


def test_criterion_5_kurihara_consistency():
    def alternating(n, p, star):
        native_odd = star == SHARP
        if (n % 2 == 1) != native_odd:
            return alternating(n + 1, p, star)
        lo = 1 if star == SHARP else 0
        return sum((-1) ** (n - 1 - i) * p ** i for i in range(lo, n))

    for p in (2, 3, 5, 7):
        for n in range(0, 15):
            for star in (SHARP, FLAT):
                assert kurihara_simple(n, p, star) == alternating(n, p, star)
    # continuity across v = p^-k/2 (k and k+1 branches agree there)
    for p in (2, 3, 5):
        for k in (1, 2):
            v = F(1, 2 * p ** k)
            left = KuriharaParams(p=p, v=ExtRational(v), k=k + 1,
                                  v2=ExtRational(2 * v), delta=F(0))
            right = KuriharaParams.from_v(p, v)
            for n in range(k + 2, k + 6):
                for star in (SHARP, FLAT):
                    assert kurihara_general(n, p, left, star) \
                        == kurihara_general(n, p, right, star)
    # v2 boundary continuity and the limits
    p, k = 3, 1
    v = F(1, 6)
    cap = F(p - 1, p ** (k + 2))
    assert KuriharaParams.from_v(p, v, 2 * v + cap).delta == cap
    assert KuriharaParams.from_v(p, v, INF).delta == cap
    for n in (4, 5):
        kp0 = KuriharaParams.from_v(3, 0)
        assert kurihara_general(n, 3, kp0, SHARP) == ExtRational(0)
        assert kurihara_general(n, 3, kp0, FLAT) == ExtRational(2)
        kpi = KuriharaParams.from_v(3, INF)
        native = SHARP if n % 2 else FLAT
        assert kurihara_general(n, 3, kpi, native) \
            == ExtRational(kurihara_simple(n, 3, native))
    report(5, "Kurihara terms: floor/alternating forms, boundary continuity, limits")


def test_criterion_6_valuation_matrix_lemmas():
    started = time.monotonic()
    m = 14
    # unit slope: [[0,0],[p^(1-n), p^(1-n)]] for p=3, n in {3,4}
    for n in (3, 4):
        a = EisensteinElement.constant(3, n, m, 2)
        assert h_matrix_valuations(a, n - 1, n) == ValMatrix(
            [[0, 0], [F(1, 3 ** (n - 1)), F(1, 3 ** (n - 1))]])
    # integer slope v = 1, k = 1 rows at n = 5
    a = EisensteinElement.constant(3, 5, m, 3)
    assert h_matrix_valuations(a, 2, 5) == ValMatrix(
        [[F(1, 27), 1], [1 + F(1, 81), F(1, 81)]])
    # boundary slope p^-1/2 with the Hensel-stepped unit in Z3[zeta_27]
    pi = EisensteinElement.uniformizer(3, 3, m)
    a27 = pi ** 3 * (1 + pi)
    v = a27.ord().value
    v2 = v2_invariant(a27, 3, 1)
    assert v == F(1, 6) and v2 == ExtRational(F(7, 18))
    assert v2.value != 2 * v * (1 + F(1, 3) - F(1, 9))   # off the excluded locus
    params = KuriharaParams.from_v(3, v, v2)

    def q(n, star):
        return kurihara_general(n, 3, params, star).value

    vm3 = h_matrix_valuations(a27, 2, 3)
    assert vm3.entries[0][0] == ExtRational(q(3, SHARP) / 18)
    assert vm3.entries[1][0] == ExtRational(q(3, FLAT) / 18)
    assert vm3.entries[1][1] == ExtRational(q(3, FLAT) / 18 - v)
    z81 = EisensteinElement.zeta(3, 4, m)
    pi27 = z81 ** 3 - 1
    a81 = pi27 ** 3 * (1 + pi27)
    vm4 = h_matrix_valuations(a81, 3, 4)
    assert vm4.entries[0][0] == ExtRational(q(4, SHARP) / 54)
    assert vm4.entries[1][0] == ExtRational(q(4, FLAT) / 54)
    assert vm4.entries[0][1] == ExtRational(q(4, SHARP) / 54 - v)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(6, f"valuation-matrix rows: unit/integer/boundary slopes "
              f"({elapsed:.1f}s < 120s)")


def test_criterion_7_modesty_consistency():
    checked = 0
    for p in (2, 3, 5):
        lams = (0, 1) if p == 2 else (0, 1, 2)
        for n in range(2, 7):
            for gap in (0, 1, -1):
                for lam_s, lam_f in itertools.product(lams, repeat=2):
                    for v in (ExtRational(0), ExtRational(1), INF):
                        mu_s, mu_f = max(gap, 0), max(-gap, 0)
                        decision = modesty_choose(
                            n, p, KuriharaParams.from_v(p, v),
                            mu_s, mu_f, lam_s, lam_f)
                        if decision.star in ("tie", "sporadic"):
                            continue
                        try:
                            cell = elliptic_table_choose(v, n, mu_s, mu_f,
                                                         lam_s, lam_f, p)
                        except ExcludedCase:
                            continue
                        assert decision.star == cell.star
                        checked += 1
    centers = [F(1, 2 * 3 ** k) for k in (1, 2, 3, 4)]
    odd = [r["star"] for r in modesty_map(3, centers, [F(0)], 1, 1, parities=(1,))]
    even = [r["star"] for r in modesty_map(3, centers, [F(0)], 1, 1, parities=(0,))]
    assert odd == [FLAT, SHARP, FLAT, SHARP]
    assert even == [SHARP, FLAT, SHARP, FLAT]
    report(7, f"decision table == comparison rule on {checked} grid points; "
              f"zero-gap column alternates with k")


def test_criterion_8_ordinary_sha_formula():
    for p, mu, lam, r in ((3, F(0), 2, 1), (5, F(1), 4, 0), (2, F(2), 0, 3)):
        rec = ShaRecord(kind="ordinary", r_infinity=r, mu=mu, lam=lam)
        growth = sha_growth(range(2, 7), [rec], p)
        for n in range(2, 7):
            assert growth.increments[n] == mu * (p ** n - p ** (n - 1)) + lam - r
    report(8, "ordinary growth increments mu*(p^n - p^(n-1)) + lambda - r, exact")


def multiplicity_at_root(x, m, c):
    """Oracle: successive synthetic division by (T - (zeta^c - 1))."""
    ring_j, prec = m, x.precision
    zeta = EisensteinElement.zeta(x.p, ring_j, prec)
    root = zeta ** c - 1
    coeffs = [EisensteinElement.constant(x.p, ring_j, prec, int(cc))
              for cc in x.coeffs]
    count = 0
    while True:
        quotient = [None] * (len(coeffs) - 1)
        acc = coeffs[-1]
        for i in range(len(coeffs) - 2, -1, -1):
            quotient[i] = acc
            acc = coeffs[i] + root * acc
        if not acc.is_zero():
            return count
        count += 1
        coeffs = quotient
        if len(coeffs) == 0:
            return count


def test_criterion_9_vanishing_order_machinery():
    params = FormParams(3, -3, 1, 12)
    seq = synthesize_queue(61, params, 2)
    appr = decompose(seq[2], seq[1], params)
    base = vector_vanishing_orders(appr, range(0, 3))
    # injected multiplicities shift the reported order by exactly one
    for mm in (0, 1, 2):
        factor = cyclotomic_phi(3, mm, 2, 12) if mm else \
            LambdaElement.monomial(3, 2, 12, 1)
        boosted = SharpFlatApprox(level=2, tame_index=None,
                                  sharp=appr.sharp * factor,
                                  flat=appr.flat * factor,
                                  hatted=False, params=params)
        assert vector_vanishing_orders(boosted, [mm]).orders[mm] \
            == base.orders[mm] + 1
    # primitive-root independence: the divisibility order equals the
    # multiplicity at any primitive root, computed by synthetic division
    from iwt.logmatrix import make_matrix
    vec = (appr.sharp, appr.flat)
    for i in (1, 2):
        vec = vec_mul(make_matrix("CCC", params, 2, i), vec)
    for mm in (1, 2):
        roots = (1, 1 + 3) if mm == 2 else (1, 2)
        for c in roots:
            per_entry = [multiplicity_at_root(entry, mm, c) for entry in vec
                         if not entry.is_zero()]
            assert min(per_entry) == base.orders[mm]
    report(9, "vanishing orders: injected multiplicities and root-choice freedom")


def test_criterion_10_ap_zero_degeneration():
    for p, n in ((3, 3), (3, 4), (2, 4), (5, 2)):
        hl = half_logs(p, n, 1, 12)
        assert hl.log_plus_numerator * hl.w_plus \
            == substitute_inverse(hl.log_plus_numerator)
        assert hl.log_minus_numerator * hl.w_minus \
            == substitute_inverse(hl.log_minus_numerator)
    params = FormParams(3, 0, 1, 12)
    seq = synthesize_queue(67, params, 3)
    appr = decompose(seq[3], seq[2], params, hatted=True)
    phi_hat = lambda i: cyclotomic_phi(3, i, 3, 12, hatted=True)
    assert (-1) * appr.sharp * phi_hat(2) == seq[3]
    assert (-1) * appr.flat * phi_hat(1) * phi_hat(3) == lift_nu(seq[2])
    report(10, "ap=0: half-log unit identities and even/odd peel factorization")


def test_supplementary_e37a_vanishing_and_special_value(e37a_table):
    # the worked example's full vanishing count and the exact T=0 values
    seq = theta_sequence(e37a_table, 4, 0, 12)
    apprs = decompose_sequence(seq)
    van = vector_vanishing_orders(apprs[-1], range(0, 5))
    assert van.orders == {0: 1, 1: 0, 2: 1, 3: 0, 4: 0}
    assert van.rank_estimate == 7
    sv = special_value_check(apprs[-1], e37a_table.lratio)
    assert sv.checked and sv.sharp_agreement >= 12 and sv.flat_agreement >= 12
