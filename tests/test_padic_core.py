import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwt.errors import (MixedPrime, NotAUnit, NotCoprime, OutOfRange,
                        SchemaError, ZeroInput)
from iwt.padic_core import (ExtRational, PadicInt, ValMatrix, _log_gamma_table,
                            ext_min, log_gamma, padic_from_rational,
                            teichmuller, tropical_mul)

INF = ExtRational.infinity()


def test_ring_ops_examples():
    assert PadicInt(3, 5, 4) * PadicInt(3, 2, 4) == PadicInt(3, 10, 4)
    inv = PadicInt(3, 2, 4).inverse()
    assert inv == PadicInt(3, 41, 4)
    assert (PadicInt(3, 2, 4) * inv) == PadicInt(3, 1, 4)
    s = PadicInt(5, 100, 3) + PadicInt(5, 30, 3)
    assert s == PadicInt(5, 5, 3) and s.valuation() == 1


def test_ring_ops_errors():
    with pytest.raises(MixedPrime):
        PadicInt(3, 1, 4) + PadicInt(5, 1, 4)
    with pytest.raises(NotAUnit):
        PadicInt(3, 6, 4).inverse()


def test_equality_agrees_with_the_hash():
    # equal residues at unequal precisions are different elements
    assert PadicInt(3, 1, 2) != PadicInt(3, 10, 4)
    assert PadicInt(3, 10, 4) != PadicInt(3, 10, 5)
    assert PadicInt(3, 10, 4) != PadicInt(5, 10, 4)
    assert PadicInt(3, 10, 4) == PadicInt(3, 91, 4)
    assert hash(PadicInt(3, 10, 4)) == hash(PadicInt(3, 91, 4))
    assert len({PadicInt(3, 1, 2), PadicInt(3, 10, 4), PadicInt(3, 91, 4)}) == 2
    # an int compares at the element's own precision
    assert PadicInt(3, 10, 4) == 91 and PadicInt(3, 10, 2) == 1
    assert PadicInt(3, 10, 4) != 1


def test_precision_is_min_of_operands():
    out = PadicInt(3, 7, 5) * PadicInt(3, 7, 3)
    assert out.precision == 3


def test_zero_valuation_reports_precision():
    # valuation M unambiguously means "at least M"
    assert PadicInt(3, 0, 4).valuation() == 4
    assert PadicInt(3, 27, 4).valuation() == 3


def test_valuation_multiplicative_on_random_pairs():
    rng = random.Random(20240)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        m = 10
        x = PadicInt(p, rng.randrange(1, p ** m), m)
        y = PadicInt(p, rng.randrange(1, p ** m), m)
        vx, vy = x.valuation(), y.valuation()
        if vx + vy < m:
            assert (x * y).valuation() == vx + vy


def test_teichmuller_identity_and_sign_cases():
    assert teichmuller(1, 3, 2) == PadicInt(3, 1, 2)
    assert teichmuller(2, 3, 2) == PadicInt(3, 8, 2)   # -1 mod 9
    assert teichmuller(3, 2, 5) == PadicInt(2, -1, 5)  # sign component for p=2
    assert teichmuller(5, 2, 5) == PadicInt(2, 1, 5)


def test_teichmuller_brute_force_oracle():
    # the unique x mod 125 with x^4 = 1 and x = 2 mod 5
    expected = [x for x in range(125) if pow(x, 4, 125) == 1 and x % 5 == 2]
    assert len(expected) == 1
    assert teichmuller(2, 5, 3).residue == expected[0]


def test_teichmuller_torsion_over_full_residue_systems():
    for p in (2, 3, 5, 7):
        order = 2 if p == 2 else p - 1
        for m in range(1, 9):
            for a in range(1, p if p != 2 else 4):
                if a % p == 0:
                    continue
                w = teichmuller(a, p, m)
                assert pow(w.residue, order, p ** m) == 1 % p ** m
                assert (w.residue - a) % p == 0


def test_teichmuller_rejects_divisible():
    with pytest.raises(NotCoprime):
        teichmuller(6, 3, 4)


def test_log_gamma_examples():
    assert log_gamma(7, 3, 2) == 1      # gamma itself
    assert log_gamma(1, 5, 3) == 0
    # exhaustive oracle: powers of gamma = 7 mod 9, omega(4) = 1
    powers = {pow(7, t, 9): t for t in range(3)}
    assert log_gamma(4, 3, 2) == powers[4] == 2


def test_log_gamma_is_a_homomorphism():
    rng = random.Random(7)
    for p, big_n in ((3, 4), (5, 3), (2, 5)):
        n = big_n - 1 if p != 2 else big_n - 2
        for _ in range(200):
            a = rng.randrange(1, p ** big_n)
            b = rng.randrange(1, p ** big_n)
            if a % p == 0 or b % p == 0:
                continue
            lhs = log_gamma(a * b, p, big_n)
            rhs = (log_gamma(a, p, big_n) + log_gamma(b, p, big_n)) % p ** n
            assert lhs == rhs


def test_padic_from_rational():
    x = padic_from_rational(3, Fraction(1, 2), 4)
    assert x * 2 == PadicInt(3, 1, 4)
    with pytest.raises(NotAUnit):
        padic_from_rational(3, Fraction(1, 3), 4)


# ---------------------------------------------------------------------------
# extended rationals / min-plus matrices
# ---------------------------------------------------------------------------

def test_ext_rational_absorbs_infinity():
    x = ExtRational(Fraction(1, 2))
    assert (x + INF).is_infinite
    assert ext_min(x, INF) == x
    assert INF >= x and not INF < INF


def test_tropical_identity_and_direct_example():
    x = ValMatrix([[Fraction(1, 3), 2], [0, INF]])
    eye = ValMatrix.tropical_identity()
    assert tropical_mul(eye, x) == x
    assert tropical_mul(x, eye) == x
    flat = ValMatrix([[0, 0], [1, 1]])
    assert tropical_mul(flat, flat) == flat


def test_tropical_h_step_recursion_by_hand():
    # [H^1] at v = 1 composed with one more step matrix, p = 3 at a deep
    # point where ord Phi_2-step = 1/9: hand min-plus multiplication
    h1 = ValMatrix([[1, 0], [Fraction(1, 9), INF]])
    step = ValMatrix([[1, 0], [Fraction(1, 3), INF]])
    out = tropical_mul(h1, step)
    assert out == ValMatrix([
        [Fraction(1, 3), 1],
        [Fraction(10, 9), Fraction(1, 9)],
    ])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 40).map(lambda k: Fraction(k, 4)) |
                st.just(None), min_size=12, max_size=12))
def test_tropical_associativity(raw):
    vals = [INF if v is None else ExtRational(v) for v in raw]
    a = ValMatrix([vals[0:2], vals[2:4]])
    b = ValMatrix([vals[4:6], vals[6:8]])
    c = ValMatrix([vals[8:10], vals[10:12]])
    assert tropical_mul(tropical_mul(a, b), c) == tropical_mul(a, tropical_mul(b, c))


def test_tropical_lower_bound_for_integer_matrices():
    rng = random.Random(99)
    p = 3
    for _ in range(300):
        a = [[rng.randrange(1, 3 ** 6) for _ in range(2)] for _ in range(2)]
        b = [[rng.randrange(1, 3 ** 6) for _ in range(2)] for _ in range(2)]

        def val(x):
            if x == 0:
                return INF
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            return ExtRational(e)

        va = ValMatrix([[val(c) for c in row] for row in a])
        vb = ValMatrix([[val(c) for c in row] for row in b])
        bound = tropical_mul(va, vb)
        for i in range(2):
            for k in range(2):
                exact = val(a[i][0] * b[0][k] + a[i][1] * b[1][k])
                assert exact >= bound.entries[i][k]


def test_finite_minus_infinity_is_out_of_range():
    with pytest.raises(OutOfRange, match="subtract"):
        ExtRational(3) - INF


def test_zero_times_infinity_is_a_zero_input():
    with pytest.raises(ZeroInput, match="product"):
        ExtRational(0) * INF


def test_log_gamma_table_below_the_level_floor_is_out_of_range():
    with pytest.raises(OutOfRange, match="log-gamma"):
        _log_gamma_table(2, 1)


def test_val_matrix_of_another_shape_is_a_schema_error():
    with pytest.raises(SchemaError, match="ValMatrix"):
        ValMatrix([[0, 1, 2], [3, 4, 5]])
