import math
import random
from fractions import Fraction

import pytest

from iwt.errors import (InvalidParams, LevelMismatch, MixedPrime, NotAUnit, NotDivisible,
                        OutOfRange, PrecisionExhausted, PrecisionMismatch, ZeroInput)
from iwt.iwasawa_algebra import (FormParams, LambdaElement, cyclotomic_phi,
                                 divide_by_phi, exact_divide_by_phi, half_twist_exponent,
                                 iwasawa_invariants, lift_nu, newton_vr,
                                 project_pi, substitute_inverse, vanishing_order)
from iwt.cyclotomic_ext import EisensteinElement
from iwt.mazur_tate import QueueSequence, validate_queue
from iwt.padic_core import ExtRational, PadicInt, val_p
from iwt.polyops import poly_mul, poly_trim

M = 10


def signed(x, modulus):
    return x if x <= modulus // 2 else x - modulus


def test_multiplication_reduces_by_the_relation():
    # T * T^2 at p=3, n=1: T^3 = -3T^2 - 3T
    prod = LambdaElement.monomial(3, 1, M, 1) * LambdaElement.monomial(3, 1, M, 2)
    assert [signed(c, 3 ** M) for c in prod.coeffs] == [0, -3, -3]


def test_one_is_neutral_and_unit_power_relation():
    rng = random.Random(3)
    for p, n in ((2, 3), (3, 2), (5, 1)):
        x = LambdaElement(p, n, M, [rng.randrange(p ** M) for _ in range(p ** n)])
        assert x * LambdaElement.one(p, n, M) == x
        assert LambdaElement.unit_power(p, n, M, p ** n) == LambdaElement.one(p, n, M)


def test_level_and_prime_mismatch():
    with pytest.raises(LevelMismatch):
        LambdaElement.one(3, 1, M) * LambdaElement.one(3, 2, M)
    with pytest.raises(MixedPrime):
        LambdaElement.one(3, 1, M) + LambdaElement.one(5, 1, M)


def test_scalar_over_another_prime_is_refused():
    x = LambdaElement(3, 1, 6, [1, 2, 3])
    with pytest.raises(MixedPrime, match="primes 3 and 5"):
        x * PadicInt(5, 7, 4)
    with pytest.raises(MixedPrime):
        PadicInt(5, 7, 6) * x
    with pytest.raises(MixedPrime):
        LambdaElement.constant(3, 1, 6, PadicInt(5, 7, 6))


def test_scalar_known_to_a_lower_precision_is_refused():
    # 7 mod 3^2 does not fix a product mod 3^6
    x = LambdaElement(3, 1, 6, [1, 2, 3])
    with pytest.raises(PrecisionMismatch, match="precision 2"):
        x * PadicInt(3, 7, 2)
    with pytest.raises(PrecisionMismatch):
        LambdaElement.constant(3, 1, 6, PadicInt(3, 7, 5))


def test_scalar_known_to_a_higher_precision_reduces():
    x = LambdaElement(3, 1, 6, [1, 2, 3])
    c = 7 + 5 * 3 ** 6
    for scalar in (PadicInt(3, c, 6), PadicInt(3, c, 9)):
        assert x * scalar == x * 7 == scalar * x
        assert LambdaElement.constant(3, 1, 6, scalar) == LambdaElement.constant(3, 1, 6, 7)


def test_projection_examples():
    c = LambdaElement.constant(3, 2, M, 7)
    assert project_pi(c) == LambdaElement.constant(3, 1, M, 7)
    u = LambdaElement.unit_power(3, 2, M, 3)   # (1+T)^(p^(n-1))
    assert project_pi(u) == LambdaElement.one(3, 1, M)
    t = LambdaElement.monomial(3, 1, M, 1)
    assert project_pi(t) == LambdaElement.zero(3, 0, M)
    with pytest.raises(LevelMismatch):
        project_pi(LambdaElement.one(3, 0, M))


def test_lift_nu_examples_and_section_property():
    assert lift_nu(LambdaElement.one(3, 0, M)) == LambdaElement(3, 1, M, [3, 3, 1])
    rng = random.Random(11)
    for p, n in ((2, 2), (3, 2), (5, 1)):
        for _ in range(100):
            x = LambdaElement(p, n, M, [rng.randrange(p ** M) for _ in range(p ** n)])
            assert project_pi(lift_nu(x)) == p * x
    # full stated grid, lighter sampling
    for p in (2, 3, 5):
        for n in range(0, 4):
            x = LambdaElement(p, n, M,
                              [rng.randrange(p ** M) for _ in range(p ** n)])
            assert project_pi(lift_nu(x)) == p * x


def test_cyclotomic_phi_values():
    assert cyclotomic_phi(3, 1, 1, M) == LambdaElement(3, 1, M, [3, 3, 1])
    assert cyclotomic_phi(2, 1, 1, M, hatted=True) == LambdaElement(2, 1, M, [2, 1])
    # hand reduction: (T^2+3T+3)(1+T)^2 mod (1+T)^3 - 1 collapses back
    assert cyclotomic_phi(3, 1, 1, M, hatted=True) == cyclotomic_phi(3, 1, 1, M)
    with pytest.raises(OutOfRange):
        cyclotomic_phi(3, 2, 1, M)


def test_phi_product_is_the_relation():
    # T * prod_i Phi_{p^i}(1+T) = (1+T)^(p^n) - 1 as exact polynomials
    for p, n in ((2, 3), (3, 2), (5, 2), (3, 3)):
        modulus = p ** M
        acc = [1]
        for i in range(1, n + 1):
            acc = poly_mul(acc, list(cyclotomic_phi(p, i, n, M).coeffs), modulus)
        lhs = poly_trim(poly_mul([0, 1], acc, modulus))
        rhs = [math.comb(p ** n, k) % modulus for k in range(p ** n + 1)]
        rhs[0] = 0
        assert lhs == poly_trim(rhs)


def test_exact_division_round_trip():
    rng = random.Random(5)
    for p, n, i in ((3, 2, 1), (3, 2, 2), (2, 3, 2), (5, 1, 1)):
        phi = cyclotomic_phi(p, i, n, M)
        for _ in range(20):
            g = LambdaElement(p, n, M, [rng.randrange(p ** M) for _ in range(p ** n)])
            x = g * phi
            q = exact_divide_by_phi(x, i)
            assert q * phi == x
        # no wraparound: the quotient is literally g when the product
        # degree stays below p^n
        room = p ** n - p ** (i - 1) * (p - 1)
        small = LambdaElement(p, n, M, [1 + j for j in range(room)])
        assert exact_divide_by_phi(small * phi, i) == small
        # the completed variant wraps through the relation, so only the
        # ring contract quotient * divisor == input is canonical
        hat = cyclotomic_phi(p, i, n, M, hatted=True)
        q = exact_divide_by_phi(small * hat, i, hatted=True)
        assert q * hat == small * hat


def test_division_of_defining_relation():
    # (1+T)^3 - 1 = T * Phi_3(1+T) as polynomials at level 1: feed the
    # canonical representative of T^3 + 3T^2 + 3T before reduction
    q = exact_divide_by_phi(LambdaElement(3, 1, M, [0, 3, 3]) +
                            LambdaElement.monomial(3, 1, M, 1) *
                            LambdaElement.monomial(3, 1, M, 2), 1)
    # the relation is zero in the ring, and 0 / Phi = 0
    assert q.is_zero()


def test_remainder_below_precision_floor_is_accepted():
    g = LambdaElement(3, 2, M, [1, 2, 3])
    phi = cyclotomic_phi(3, 1, 2, M)
    x = g * phi + LambdaElement.constant(3, 2, M, 3 ** M)  # the noise is 0 mod p^M
    assert exact_divide_by_phi(x, 1) == g


def test_not_divisible_raises():
    with pytest.raises(NotDivisible):
        exact_divide_by_phi(LambdaElement.one(3, 2, M) +
                            LambdaElement.monomial(3, 2, M, 1), 2)


def test_vanishing_order_examples():
    phi = cyclotomic_phi(3, 1, 2, M)
    unit = LambdaElement.one(3, 2, M) + 3 * LambdaElement.monomial(3, 2, M, 1)
    assert vanishing_order(phi * phi * unit, 1) == 2
    for m in range(0, 3):
        assert vanishing_order(LambdaElement.one(3, 2, M), m) == 0
    # squarefree factorization of the relation: order 1 at every m, seen on
    # the polynomial T*Phi_3*Phi_9 lifted into level 3
    modulus = 3 ** M
    rel = poly_mul([0, 1], poly_mul(list(cyclotomic_phi(3, 1, 3, M).coeffs),
                                    list(cyclotomic_phi(3, 2, 3, M).coeffs),
                                    modulus), modulus)
    x = LambdaElement(3, 3, M, rel)
    for m in range(0, 3):
        assert vanishing_order(x, m) == 1
    with pytest.raises(ZeroInput):
        vanishing_order(LambdaElement.zero(3, 1, M), 0)


def test_phi_indices_out_of_range():
    x = LambdaElement.one(3, 2, M)
    with pytest.raises(OutOfRange, match="i >= 0, got i=-1"):
        vanishing_order(x, -1)
    with pytest.raises(OutOfRange, match="i >= 0, got i=-1"):
        divide_by_phi(list(x.units), 3, -1, 3 ** M)
    # T divides (X - 1) x, but no completed variant of it exists
    times_t = (x * LambdaElement(3, 2, M, [0, 1])).units
    assert divide_by_phi(list(times_t), 3, 0, 3 ** M) == list(x.units)
    with pytest.raises(OutOfRange, match="i >= 1, got i=0"):
        divide_by_phi(list(times_t), 3, 0, 3 ** M, hatted=True)


def test_iwasawa_invariants_examples():
    inv = iwasawa_invariants(LambdaElement(3, 1, M, [9, 3, 1]))
    assert inv.pair() == (0, 2)
    inv = iwasawa_invariants(3 * LambdaElement(3, 1, M, [1, 1]))
    assert inv.pair() == (1, 0)
    with pytest.raises(PrecisionExhausted):
        iwasawa_invariants(LambdaElement.zero(3, 1, M))


def test_invariants_of_constructed_distinguished_products():
    rng = random.Random(17)
    p, n = 3, 3
    for _ in range(40):
        a = rng.randrange(0, 3)
        d = rng.randrange(0, 5)
        # p^a * (distinguished of degree d) * unit
        dist = [rng.randrange(p ** M) * p for _ in range(d)] + [1]
        unit = [1 + p * rng.randrange(p ** (M - 1))] + \
               [rng.randrange(p ** M) for _ in range(5)]
        x = (p ** a) * LambdaElement(p, n, M, dist) * LambdaElement(p, n, M, unit)
        assert iwasawa_invariants(x).pair() == (a, d)


def test_invariants_multiplicative_below_wraparound():
    rng = random.Random(23)
    p, n = 3, 3
    for _ in range(60):
        def small():
            d = rng.randrange(0, p ** n // 2 - 2)
            coeffs = [p * rng.randrange(p ** (M - 1)) for _ in range(d)] + [1]
            return (p ** rng.randrange(0, 2)) * LambdaElement(p, n, M, coeffs)
        x, y = small(), small()
        ix, iy = iwasawa_invariants(x), iwasawa_invariants(y)
        if ix.lam + iy.lam < p ** n // 2:
            ixy = iwasawa_invariants(x * y)
            assert ixy.mu == ix.mu + iy.mu and ixy.lam == ix.lam + iy.lam


def test_newton_vr_examples():
    for p, n in ((3, 2), (5, 1), (2, 3)):
        phi = cyclotomic_phi(p, n, n, M)
        deg = p ** (n - 1) * (p - 1)
        for s in (Fraction(1, 100), Fraction(1, deg), Fraction(3, 2)):
            assert newton_vr(phi, s) == ExtRational(min(Fraction(1), s * deg))
    assert newton_vr(LambdaElement.constant(3, 1, M, 18), Fraction(7, 3)) \
        == ExtRational(2)
    assert newton_vr(LambdaElement.monomial(3, 1, M, 1), Fraction(1, 2)) \
        == ExtRational(Fraction(1, 2))


def test_newton_vr_additive_without_wraparound():
    rng = random.Random(31)
    p, n = 3, 3
    s = Fraction(1, 7)
    for _ in range(40):
        x = LambdaElement(p, n, M, [rng.randrange(p ** M) for _ in range(9)])
        y = LambdaElement(p, n, M, [rng.randrange(p ** M) for _ in range(9)])
        if x.is_zero() or y.is_zero():
            continue
        assert newton_vr(x * y, s) == newton_vr(x, s) + newton_vr(y, s)


def test_substitute_inverse_properties():
    rng = random.Random(37)
    for p, n in ((3, 2), (2, 3), (5, 1)):
        u = LambdaElement.unit_power(p, n, M, 1)
        assert substitute_inverse(u) == LambdaElement.unit_power(p, n, M, -1)
        for _ in range(100):
            x = LambdaElement(p, n, M, [rng.randrange(p ** M) for _ in range(p ** n)])
            assert substitute_inverse(substitute_inverse(x)) == x
    # completed cyclotomics are inversion-symmetric for odd p
    for (p, i, n) in ((3, 1, 2), (3, 2, 2), (5, 1, 1), (3, 2, 3)):
        ph = cyclotomic_phi(p, i, n, M, hatted=True)
        assert substitute_inverse(ph) == ph
    # p = 2, i = 1 picks up the unit twist instead
    ph2 = cyclotomic_phi(2, 1, 3, M, hatted=True)
    assert substitute_inverse(ph2) == LambdaElement.unit_power(2, 3, M, -1) * ph2


def test_half_twist_exponent():
    assert half_twist_exponent(3, 1) == 1
    assert half_twist_exponent(3, 2) == 3
    assert half_twist_exponent(2, 3) == 2


@pytest.mark.parametrize("p, n", [(2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 2)])
def test_binomial_kernels_match_math_comb(p, n):
    modulus, size = p ** M, p ** n
    row = [math.comb(size, k) % modulus for k in range(size + 1)]
    # the relation (1+T)^(p^n) - 1, read one level up where it is not zero
    relation = LambdaElement.unit_power(p, n + 1, M, size) - LambdaElement.one(p, n + 1, M)
    assert relation.coeffs == tuple([0] + row[1:] + [0] * (p * size - size - 1))
    # T^(p^n) = -sum_{1<=k<p^n} C(p^n, k) T^k in the ring
    assert LambdaElement(p, n, M, [0] * size + [1]).coeffs == tuple(
        [0] + [-c % modulus for c in row[1:-1]])
    for i in range(1, n + 1):
        step = p ** (i - 1)
        phi = [sum(math.comb(k * step, j) for k in range(p)) % modulus
               for j in range(step * (p - 1) + 1)]
        assert cyclotomic_phi(p, i, n, M).coeffs == tuple(phi + [0] * (size - len(phi)))
    s = size - 1
    assert LambdaElement.unit_power(p, n, M, s).coeffs == tuple(
        math.comb(s, j) % modulus for j in range(size))


def test_ring_input_checks():
    with pytest.raises(OutOfRange):
        LambdaElement(3, -1, 4, [1])
    with pytest.raises(OutOfRange):
        LambdaElement(3, 1, 0, [1])
    with pytest.raises(PrecisionMismatch):
        LambdaElement.one(3, 1, 4) + LambdaElement.one(3, 1, 5)
    with pytest.raises(NotAUnit):
        FormParams(3, 1, 6, M)
    # a p that is not prime, 0 among them, is refused before eps_p is read
    for p in (0, 1, 4, 6, -3, 561):
        with pytest.raises(InvalidParams, match=f"^p={p} is not prime$"):
            FormParams(p, 0, 1, M)
    x = LambdaElement.monomial(3, 1, M, 1)
    for s in (0, Fraction(-1, 2)):
        with pytest.raises(OutOfRange):
            newton_vr(x, s)


def test_reduction_of_a_high_power_at_high_precision():
    # at p = 2, n = 1 the relation is T^2 = -2T, so T^515 = (-2)^514 T,
    # which is nonzero mod 2^520
    modulus = 2 ** 520
    assert LambdaElement(2, 1, 520, [0] * 515 + [1]).coeffs == (0, (-2) ** 514 % modulus)


# The four Newton-minimum loops as they stood before padic_core.newton_min.

def loop_invariants(x):
    best_mu, best_idx = None, None
    for idx, c in enumerate(x.coeffs):
        if c == 0:
            continue
        v = val_p(c, x.p)
        if best_mu is None or v < best_mu:
            best_mu, best_idx = v, idx
    if best_mu is None:
        raise PrecisionExhausted("all coefficients vanish mod p^M")
    return (Fraction(best_mu), best_idx)


def loop_newton_vr(x, s):
    if x.is_zero():
        raise ZeroInput("Newton valuation of 0 is undefined at finite precision")
    best = None
    for i, c in enumerate(x.coeffs):
        if c == 0:
            continue
        v = Fraction(val_p(c, x.p)) + i * s
        if best is None or v < best:
            best = v
    if best >= x.precision:
        raise PrecisionExhausted("polygon minimum is not certified below p^M")
    return ExtRational(best)


def loop_valuation_floor(e):
    best = None
    for t, c in enumerate(e.coeffs):
        if c == 0:
            continue
        v = Fraction(val_p(c, e.p)) + Fraction(t, e.degree)
        if best is None or v < best:
            best = v
    if best is None:
        return Fraction(e.precision), False
    return best, True


def loop_residual(seq):
    params = seq.params
    for m in range(2, seq.top_level + 1):
        want = params.ap * seq[m - 1] - params.eps_p * lift_nu(seq[m - 2])
        defect = project_pi(seq[m]) - want
        if not defect.is_zero():
            return m, min(val_p(c, defect.p, defect.precision) for c in defect.coeffs)
    return None, None


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PrecisionExhausted, ZeroInput) as exc:
        return type(exc), str(exc)


def sparse_coeffs(rng, p, count, precision):
    """Residues that are often 0 and often divisible by p; all 0 at times."""
    if rng.random() < 0.1:
        return [0] * count
    return [rng.choice([0, 0, rng.randrange(p ** precision),
                        p ** rng.randrange(precision) * rng.randrange(1, p ** 2)])
            for _ in range(count)]


def test_newton_min_callers_match_their_loops():
    rng = random.Random(47)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        n, precision = rng.randint(1, 2), rng.randint(2, 6)
        x = LambdaElement(p, n, precision, sparse_coeffs(rng, p, p ** n, precision))
        got = outcome(iwasawa_invariants, x)
        assert (got if isinstance(got, tuple) else got.pair()) == outcome(loop_invariants, x)
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert outcome(newton_vr, x, s) == outcome(loop_newton_vr, x, s)
        j = rng.randint(1, 2)
        e = EisensteinElement(p, j, precision,
                              sparse_coeffs(rng, p, p ** (j - 1) * (p - 1), precision))
        assert e.valuation_floor() == loop_valuation_floor(e)
        params = FormParams(p, rng.randrange(p ** precision), 1, precision)
        seq = QueueSequence(params, tuple(
            LambdaElement(p, k, precision, sparse_coeffs(rng, p, p ** k, precision))
            for k in range(3)))
        report = validate_queue(seq)
        assert (report.first_failure_level, report.residual_valuation) == loop_residual(seq)
    # the all-zero paths
    zero = LambdaElement.zero(3, 2, 6)
    assert outcome(iwasawa_invariants, zero) == outcome(loop_invariants, zero) \
        == (PrecisionExhausted, "all coefficients vanish mod p^M")
    assert outcome(newton_vr, zero, 1) == outcome(loop_newton_vr, zero, Fraction(1))
    assert outcome(newton_vr, zero, 1)[0] is ZeroInput
    assert EisensteinElement.constant(3, 2, 6, 0).valuation_floor() == (6, False)
