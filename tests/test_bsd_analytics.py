import itertools
from fractions import Fraction

import pytest

from iwt.bsd_analytics import (SHARP, FLAT, KuriharaParams, ShaRecord,
                               elliptic_table_choose, kurihara_general,
                               kurihara_simple, modesty_choose, modesty_map,
                               nu_thresholds, rank_bound, sha_growth,
                               sporadic_check)
from iwt.errors import (ExcludedCase, InvalidParams, OutOfRange, SchemaError,
                        SporadicCase, TieCase)
from iwt.padic_core import ExtRational

F = Fraction
INF = ExtRational.infinity()


def alternating_sharp(n, p):
    if n % 2 == 0:
        return alternating_sharp(n + 1, p)
    if n == 1:
        return 0
    return sum((-1) ** (n - 1 - i) * p ** i for i in range(1, n))


def alternating_flat(n, p):
    if n % 2 == 1:
        return alternating_flat(n + 1, p)
    if n == 0:
        return 0
    return sum((-1) ** (n - 1 - i) * p ** i for i in range(0, n))


def test_simple_terms_worked_values():
    assert kurihara_simple(3, 3, SHARP) == 6 == 9 - 3
    assert kurihara_simple(2, 3, FLAT) == 2 == 3 - 1
    for p in (2, 3, 5, 7):
        assert kurihara_simple(1, p, SHARP) == 0


def test_simple_terms_match_alternating_sums():
    for p in (2, 3, 5, 7):
        for n in range(0, 15):
            assert kurihara_simple(n, p, SHARP) == alternating_sharp(n, p)
            assert kurihara_simple(n, p, FLAT) == alternating_flat(n, p)


def test_nu_thresholds_values():
    assert nu_thresholds(3, 1, 5)[:2] == (0, 2)
    assert nu_thresholds(3, 1, 3) == (0, 0, 0, 1)   # all defaults
    assert nu_thresholds(3, 2, 0)[0] == 1           # 2 >= 3 - 1 - 0


def test_rank_bound_e37a_numbers():
    report = rank_bound(3, 0, 0, 1, 5, 1)
    assert report.case == "balanced" and report.nu == 2
    assert report.bound == min(2 + 5, 6 + 1) == 7
    assert report.bound > 1 + 5


def test_rank_bound_small_lambda_corollary():
    report = rank_bound(3, 0, 0, 1, 3, 1)
    assert report.bound == min(1, 3) == 1


def test_rank_bound_ap_zero_also_uses_lambda_sum():
    report = rank_bound(3, 0, 0, 1, 1, INF)
    assert report.lambda_sum_bound == 2
    assert report.bound == 1


def test_rank_bound_dominant_cases_run():
    # mu gap beyond v selects the one-sided bounds
    r2 = rank_bound(3, 2, 0, 1, 5, 1)      # sharp mu bigger: flat-dominant
    assert r2.case == "flat-dominant"
    r3 = rank_bound(3, 0, 2, 1, 5, 1)
    assert r3.case == "sharp-dominant"
    # flat-dominant with all defaults lands in the nu = 1 special clause
    r4 = rank_bound(3, 5, 0, 1, 1, 1)
    assert r4.case == "flat-dominant" and r4.nu == 1
    assert r4.bound == min(kurihara_simple(1, 3, FLAT) + 1,
                           kurihara_simple(1, 3, SHARP) + 1)


def test_general_terms_worked_value_and_preconditions():
    kp = KuriharaParams.from_v(3, 1)
    assert kp.k == 1 and kp.delta == 0
    assert kurihara_general(4, 3, kp, SHARP) == ExtRational(60)  # 54 + 6
    with pytest.raises(InvalidParams):
        kurihara_general(1, 3, kp, SHARP)   # needs n > k


def test_general_terms_limits():
    kp0 = KuriharaParams.from_v(3, 0)
    assert kurihara_general(5, 3, kp0, SHARP) == ExtRational(0)
    assert kurihara_general(5, 3, kp0, FLAT) == ExtRational(2)
    kpi = KuriharaParams.from_v(3, INF)
    for n in range(1, 9):
        qs = kurihara_general(n, 3, kpi, SHARP)
        qf = kurihara_general(n, 3, kpi, FLAT)
        if n % 2 == 1:
            assert qs == ExtRational(kurihara_simple(n, 3, SHARP))
            assert qf.is_infinite
        else:
            assert qf == ExtRational(kurihara_simple(n, 3, FLAT))
            assert qs.is_infinite


def test_general_terms_at_unit_slope_match_simple():
    # v = 1 (k = 1): the carried floors coincide with the plain terms
    for p in (3, 5):
        kp = KuriharaParams.from_v(p, 1)
        for n in range(2, 9):
            for star in (SHARP, FLAT):
                assert kurihara_general(n, p, kp, star) \
                    == ExtRational(kurihara_simple(n, p, star))


def raw_term(n, p, k, v, star, delta=F(0)):
    # the displayed piecewise formulas, without the n > k domain guard:
    # the independent oracle for limit behavior and for the implementation
    phi = p ** n - p ** (n - 1)
    fl = lambda e: p ** e // (p + 1) if e >= 0 else 0
    if star == SHARP:
        if n % 2 != k % 2:
            return phi * k * v + fl(n - k)
        return phi * ((k - 1) * v + delta) + fl(n + 1 - k)
    if n % 2 != k % 2:
        return phi * ((k - 1) * v + delta) + p * fl(n - k) + p - 1
    return phi * k * v + p * fl(n - 1 - k) + p - 1


def test_implementation_matches_the_raw_formulas():
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            v = F(1, 2 * p ** k) + F(1, 5 * p ** k)   # interior of the interval
            kp = KuriharaParams.from_v(p, v)
            assert kp.k == k
            for n in range(k + 1, k + 5):
                for star in (SHARP, FLAT):
                    assert kurihara_general(n, p, kp, star) \
                        == ExtRational(raw_term(n, p, k, v, star))


def test_small_v_approaches_the_limits():
    # for fixed n the raw formulas converge to 0 (sharp) and p-1 (flat)
    # as v -> 0; the implementation returns exactly the limit values
    p = 3
    for n in (4, 5):
        for star, limit in ((SHARP, F(0)), (FLAT, F(2))):
            values = [raw_term(n, p, k, F(1, 2 * p ** k), star)
                      for k in range(n + 1, n + 12)]
            assert all(abs(v - limit) > abs(w - limit) or v == w == limit
                       for v, w in zip(values, values[1:]))
            assert abs(values[-1] - limit) < F(1, 1000)
            kp0 = KuriharaParams.from_v(p, 0)
            assert kurihara_general(n, p, kp0, star) == ExtRational(limit)


def test_continuity_at_interval_boundaries():
    # at v = p^-k/2 the k and k+1 branch formulas agree exactly
    for p in (2, 3, 5):
        for k in (1, 2):
            v = F(1, 2 * p ** k)
            at_k = KuriharaParams.from_v(p, v)
            below = KuriharaParams(p=p, v=ExtRational(v), k=k + 1,
                                   v2=ExtRational(2 * v), delta=F(0))
            for n in range(k + 2, k + 6):
                for star in (SHARP, FLAT):
                    assert kurihara_general(n, p, at_k, star) \
                        == kurihara_general(n, p, below, star)


def test_continuity_in_v2_at_the_cap():
    # delta saturates at (p-1) p^(-k-2); values at and beyond the cap agree
    p, k = 3, 1
    v = F(1, 2 * p ** k)
    cap = F(p - 1, p ** (k + 2))
    at_cap = KuriharaParams.from_v(p, v, 2 * v + cap)
    beyond = KuriharaParams.from_v(p, v, 2 * v + cap + F(1, 100))
    infinite = KuriharaParams.from_v(p, v, INF)
    assert at_cap.delta == beyond.delta == infinite.delta == cap
    lower = KuriharaParams.from_v(p, v, 2 * v + cap / 2)
    assert lower.delta == cap / 2
    with pytest.raises(InvalidParams):
        KuriharaParams.from_v(p, v, 2 * v - F(1, 100))


def test_delta_is_zero_off_the_boundary():
    kp = KuriharaParams.from_v(3, F(1, 4), ExtRational(F(1, 3)))
    assert kp.delta == 0 and kp.k == 1


def test_sporadic_clauses():
    assert sporadic_check(3, None, 0, 0, 4, 0, 0, 4, 2)          # 4 = 2 + p - 1
    assert not sporadic_check(3, 1, 1, 2, 4, 0, 0, 4, 2)         # v = 1 never
    v = F(1, 6)
    v2b = 2 * v * (1 + F(1, 3) - F(1, 9))
    assert sporadic_check(3, 1, v, v2b, 4, F(1, 2), 0, 1, 1)     # n != k parity
    drift = v - 2 * v / (27 + 9)
    assert sporadic_check(3, 1, v, v2b, 4, drift, 0, 2, 1)       # equality + lam
    assert not sporadic_check(3, 1, v, v2b, 4, drift, 0, 1, 2)
    assert sporadic_check(3, 1, v, v2b, 3, -drift, 0, 1, 1)      # n = k parity
    assert not sporadic_check(3, 1, v, 2 * v, 4, F(1, 2), 0, 1, 1)


def test_modesty_rule_rows():
    k0 = KuriharaParams.from_v(3, 0)
    for n in (1, 2, 3, 4):
        assert modesty_choose(n, 3, k0, 0, 1, 2, 2).star == SHARP
    kinf = KuriharaParams.from_v(3, INF)
    assert [modesty_choose(n, 3, kinf, 0, 0, 1, 1).star for n in (1, 2, 3, 4)] \
        == [SHARP, FLAT, SHARP, FLAT]
    # equal scores surface as a tie, never broken silently
    assert modesty_choose(2, 3, KuriharaParams.from_v(3, 1), 0, 0, 1, 5).star \
        == "tie"
    # the v = 0 lambda coincidence is sporadic, reported before comparing
    assert modesty_choose(3, 3, k0, 0, 0, 4, 2).star == "sporadic"


def test_elliptic_table_cells():
    assert elliptic_table_choose(0, 3, 0, 0, 1, 5, 3).star == SHARP
    assert elliptic_table_choose(0, 3, 0, 0, 5, 1, 3).star == FLAT
    with pytest.raises(ExcludedCase):
        elliptic_table_choose(0, 3, 0, 0, 4, 2, 3)
    for n in (2, 3):
        assert elliptic_table_choose(1, n, 1, 0, 1, 5, 3).star == FLAT
        assert elliptic_table_choose(1, n, 0, 1, 5, 1, 3).star == SHARP
        assert elliptic_table_choose(INF, n, 1, 0, 9, 0, 3).star \
            == (SHARP if n % 2 else FLAT)
    assert elliptic_table_choose(1, 3, 0, 0, 1, 1, 3).star == SHARP
    assert elliptic_table_choose(1, 4, 0, 0, 1, 1, 3).star == FLAT


@pytest.mark.parametrize("kind", ["elliptic", "form"])
def test_a_negative_valuation_is_out_of_range(kind):
    # every cell of the elliptic table rejects v < 0, as the form path does
    for mu_sharp in (F(0), F(1)):
        with pytest.raises(OutOfRange, match="valuation must be >= 0"):
            elliptic_table_choose(ExtRational(-1), 3, mu_sharp, 0, 1, 5, 3)
    record = ShaRecord(**dict(SLOPES, kind=kind, v=ExtRational(-1)))
    with pytest.raises(OutOfRange, match="valuation must be >= 0"):
        sha_growth(range(2, 5), [record], 3)


def test_table_agrees_with_modesty_on_the_common_grid():
    # wherever the comparison is decisive and the table cell is defined,
    # the two rules agree: p in {2,3,5}, n <= 6, small mu gaps, v in {0,1,oo}.
    # The table encodes the deep-layer selection with margin p - 1, so at
    # p = 2 a lambda spread of 2 can overwhelm the shallow layers; the
    # grid keeps spreads within the margin.
    checked = 0
    for p in (2, 3, 5):
        lams = (0, 1) if p == 2 else (0, 1, 2)
        for n in range(2, 7):
            for gap in (0, 1, -1):
                for lam_s, lam_f in itertools.product(lams, repeat=2):
                    for v in (ExtRational(0), ExtRational(1), INF):
                        mu_s, mu_f = max(gap, 0), max(-gap, 0)
                        params = KuriharaParams.from_v(p, v)
                        decision = modesty_choose(n, p, params, mu_s, mu_f,
                                                  lam_s, lam_f)
                        if decision.star in ("tie", "sporadic"):
                            continue
                        try:
                            cell = elliptic_table_choose(v, n, mu_s, mu_f,
                                                         lam_s, lam_f, p)
                        except ExcludedCase:
                            continue
                        assert decision.star == cell.star, \
                            (p, n, gap, lam_s, lam_f, v)
                        checked += 1
    assert checked > 500


def test_sha_growth_ordinary_record():
    rec = ShaRecord(kind="ordinary", r_infinity=1, mu=F(0), lam=2)
    report = sha_growth(range(2, 7), [rec], 3)
    assert all(v == 1 for v in report.increments.values())
    rec2 = ShaRecord(kind="ordinary", r_infinity=0, mu=F(1), lam=3)
    report = sha_growth(range(2, 5), [rec2], 3)
    assert report.increments == {n: (3 ** n - 3 ** (n - 1)) + 3
                                 for n in range(2, 5)}


def test_sha_growth_infinite_slope_alternates():
    rec = ShaRecord(kind="form", r_infinity=0, mu_sharp=F(0), mu_flat=F(0),
                    lambda_sharp=2, lambda_flat=3, v=INF)
    report = sha_growth(range(3, 7), [rec], 3)
    assert report.choices == {3: (SHARP,), 4: (FLAT,), 5: (SHARP,), 6: (FLAT,)}
    for n, inc in report.increments.items():
        lam = 2 if n % 2 else 3
        assert inc == lam + kurihara_simple(n, 3, SHARP if n % 2 else FLAT)


def test_sha_growth_e37a_elliptic_record():
    rec = ShaRecord(kind="elliptic", r_infinity=7, mu_sharp=F(0), mu_flat=F(0),
                    lambda_sharp=1, lambda_flat=5, v=ExtRational(1))
    report = sha_growth(range(2, 7), [rec], 3)
    assert report.choices == {2: (FLAT,), 3: (SHARP,), 4: (FLAT,),
                              5: (SHARP,), 6: (FLAT,)}
    assert report.increments == {2: 0, 3: 0, 4: 18, 5: 54, 6: 180}


def test_sha_growth_surfaces_ties_and_sporadic():
    tie = ShaRecord(kind="form", r_infinity=0, mu_sharp=F(0), mu_flat=F(0),
                    lambda_sharp=1, lambda_flat=5, v=ExtRational(1))
    with pytest.raises(TieCase):
        sha_growth([2], [tie], 3)
    spor = ShaRecord(kind="form", r_infinity=0, mu_sharp=F(0), mu_flat=F(0),
                     lambda_sharp=4, lambda_flat=2, v=ExtRational(0))
    with pytest.raises(SporadicCase):
        sha_growth([3], [spor], 3)
    # the v = 0 coincidence falls back to the unit-root data when present
    fallback = ShaRecord(kind="form", r_infinity=0, mu_sharp=F(0), mu_flat=F(0),
                         lambda_sharp=4, lambda_flat=2, v=ExtRational(0),
                         mu=F(0), lam=4)
    report = sha_growth([3], [fallback], 3)
    assert report.choices[3] == ("natural",) and report.increments[3] == 4


SLOPES = dict(r_infinity=0, mu_sharp=F(0), mu_flat=F(0), lambda_sharp=1, lambda_flat=2)


@pytest.mark.parametrize("fields, key", [
    (dict(SLOPES, kind="bogus"), "kind"),
    (dict(SLOPES, kind=["form"], v=INF), "kind"),
    (dict(SLOPES, kind="form"), "v"),
    (dict(kind="ordinary", r_infinity=0, lam=1), "mu"),
    (dict(kind="ordinary", r_infinity=0, mu=F(0)), "lam"),
    (dict(SLOPES, kind="elliptic", mu_sharp=None, v=ExtRational(1)), "mu_sharp"),
])
def test_a_record_its_kind_cannot_read_is_a_schema_error(fields, key):
    # a bad kind or a missing v was once read as v = oo, and a missing
    # mu or mu_sharp raised a bare TypeError inside sha_growth
    with pytest.raises(SchemaError, match=repr(key)):
        ShaRecord(**fields)


def test_modesty_map_alternates_with_k_at_zero_gap():
    centers = [F(1, 2 * 3 ** k) for k in (1, 2, 3, 4)]
    rows = modesty_map(3, centers, [F(0)], 1, 1, parities=(1,))
    stars = [r["star"] for r in rows]
    assert stars == [FLAT, SHARP, FLAT, SHARP]
    rows = modesty_map(3, centers, [F(0)], 1, 1, parities=(0,))
    assert [r["star"] for r in rows] == [SHARP, FLAT, SHARP, FLAT]


def test_modesty_map_zero_slope_row_is_mu_dominated():
    rows = modesty_map(3, [ExtRational(0)], [F(1, 2), F(-1, 2)], 2, 2)
    by_gap = {(r["mu_gap"], r["n_parity"]): r["star"] for r in rows}
    assert by_gap[(F(1, 2), 1)] == FLAT and by_gap[(F(1, 2), 0)] == FLAT
    assert by_gap[(F(-1, 2), 1)] == SHARP and by_gap[(F(-1, 2), 0)] == SHARP


def test_modesty_map_infinite_point_follows_parity():
    rows = modesty_map(3, [INF], [F(0)], 1, 1)
    by_parity = {r["n_parity"]: r["star"] for r in rows}
    assert by_parity == {1: SHARP, 0: FLAT}


def locate_flip(p, n, params, gap, lo, hi):
    # the score difference is linear in v within a branch; bisect on
    # exact rationals until the star changes across one step
    from iwt.bsd_analytics import modesty_choose, KuriharaParams

    def star_at(v):
        pr = KuriharaParams.from_v(p, v)
        return modesty_choose(n, p, pr, max(gap, F(0)), max(-gap, F(0)),
                              1, 1).star

    for _ in range(40):
        mid = (lo + hi) / 2
        if star_at(mid) == star_at(lo):
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_flip_points_shift_by_exactly_the_mu_gap():
    # within a k-interval the comparison is linear in v with unit slope
    # against the mu term, so the flip point moves by exactly the gap
    p, n = 3, 7
    lo0, hi0 = locate_flip(p, n, None, F(0), F(1, 6), F(1, 2))
    for gap in (F(1, 100), F(-1, 100)):
        lo1, hi1 = locate_flip(p, n, None, gap, F(1, 6), F(1, 2))
        assert abs((lo1 - lo0) - gap) <= hi0 - lo0 + hi1 - lo1 + F(1, 10 ** 9)


def test_kurihara_simple_with_an_unknown_star_is_out_of_range():
    with pytest.raises(OutOfRange, match="kurihara_simple"):
        kurihara_simple(3, 3, "both")


def test_kurihara_general_with_an_unknown_star_is_out_of_range():
    params = KuriharaParams.from_v(3, F(1, 6))
    with pytest.raises(OutOfRange, match="kurihara_general"):
        kurihara_general(3, 3, params, "both")


@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_the_analytics_refuse_a_p_that_is_not_prime(p):
    record = ShaRecord(kind="elliptic", r_infinity=0, mu_sharp=F(0), mu_flat=F(0),
                       lambda_sharp=1, lambda_flat=5, v=ExtRational(1))
    calls = (lambda: rank_bound(p, 0, 0, 1, 5, 1),
             lambda: modesty_map(p, [ExtRational(1)], [F(0)], 1, 5),
             lambda: sha_growth(range(2, 4), [record], p))
    for call in calls:
        with pytest.raises(InvalidParams, match=f"^p={p} is not prime$"):
            call()
