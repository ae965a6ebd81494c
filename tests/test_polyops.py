"""The quasi-linear kernels against direct oracles, and ring properties.

The schoolbook division, the binomial sum and the Horner loop below are
the quadratic kernels the package used before; they stay here as the
references the fast kernels must reproduce exactly.  The package divides
only by X^d - 1; division by a dense monic divisor is the oracle's
Newton division, held to the schoolbook here.
"""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwt.cyclotomic_ext import EisensteinElement, eval_lambda_at_zeta
from iwt.errors import NotAUnit, OutOfRange, ZeroInput
from iwt.iwasawa_algebra import LambdaElement, lift_nu, project_pi
from iwt.padic_core import PadicInt
from iwt.polyops import (_pack, _slot_bytes, _unpack, poly_cyclic_mul_sparse,
                         poly_divmod_monic, poly_fold, poly_mul, poly_taylor_shift,
                         poly_trim)
from tbasis_oracle import _modulus_poly, _phi_coeffs, newton_divmod

PRIMES = (2, 3, 5, 7)


def schoolbook_divmod(num, den, modulus):
    rem = [c % modulus for c in num]
    d = len(den) - 1
    if len(rem) <= d:
        return [], rem
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - d - 1, -1, -1):
        c = rem[i + d]
        if c == 0:
            continue
        quot[i] = c
        for j in range(d + 1):
            rem[i + j] = (rem[i + j] - c * den[j]) % modulus
    return quot, poly_trim(rem[:d])


def schoolbook_mul(a, b, modulus):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % modulus for c in out]


def binomial_term(f, c, modulus, k):
    # coefficient of x^k in f(x + c): sum_j C(j, k) c^(j-k) f_j
    return sum(math.comb(j, k) * c ** (j - k) * f[j] for j in range(k, len(f))) % modulus


def binomial_shift(f, c, modulus):
    return [binomial_term(f, c, modulus, k) for k in range(len(f))]


def horner_at_zeta(x, j):
    # sum_t c_t pi^t by Horner, one multiplication by pi = zeta - 1 per step
    p, precision = x.p, x.precision
    modulus = p ** precision
    e = _phi_coeffs(p, j, modulus)
    acc = [0] * (len(e) - 1)
    for c in reversed(x.coeffs):
        top = acc[-1]
        acc = [0] + acc[:-1]
        acc = [(a - top * b) % modulus for a, b in zip(acc, e)]
        acc[0] = (acc[0] + c) % modulus
    return EisensteinElement(p, j, precision, acc)


def random_vector(rng, length, modulus):
    return [rng.randrange(modulus) for _ in range(length)]


def test_division_matches_schoolbook_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(1500):
        p = rng.choice(PRIMES)
        modulus = p ** rng.randint(1, 20)
        den = random_vector(rng, rng.randint(0, 40), modulus) + [1]
        num = random_vector(rng, rng.randint(0, 120), modulus)
        num += [0] * rng.choice((0, 0, 3))
        assert newton_divmod(num, den, modulus) \
            == schoolbook_divmod(num, den, modulus)


@pytest.mark.parametrize("p, n, M", [(2, 6, 14), (3, 6, 15), (3, 7, 15), (5, 3, 11),
                                     (7, 3, 9)])
def test_structural_divisions_match_schoolbook(p, n, M):
    # Phi_{p^n}-division of a full-size vector, and the ring reduction of a
    # product-sized one one level down
    rng = random.Random(p * 100 + n)
    modulus, size = p ** M, p ** n
    num = random_vector(rng, size, modulus)
    phi = list(_phi_coeffs(p, n, modulus))
    assert newton_divmod(num, phi, modulus) == schoolbook_divmod(num, phi, modulus)
    low = size // p
    wide = random_vector(rng, 2 * low - 1, modulus)
    relation = list(_modulus_poly(p, n - 1, modulus))
    want = schoolbook_divmod(wide, relation, modulus)[1]
    assert LambdaElement(p, n - 1, M, wide).coeffs == tuple(want + [0] * (low - len(want)))


def test_binomial_division_matches_schoolbook():
    # X^d - 1 takes the package's suffix sums, with quotients shorter than d
    # (no class to sum), up to 2d (some classes of one entry) and longer;
    # X^d - c for other c, with short and long numerators, the oracle's
    # Newton division
    rng = random.Random(99)
    for _ in range(400):
        p = rng.choice(PRIMES)
        modulus = p ** rng.randint(1, 20)
        d = rng.choice((1, 2, 3, rng.randint(1, 30)))
        c = rng.choice((1, 1, 1, 0, modulus - 1, rng.randrange(modulus)))
        den = [-c % modulus] + [0] * (d - 1) + [1]
        num = random_vector(rng, rng.randint(0, 4 * d + 3), modulus)
        divmod_ = poly_divmod_monic if c % modulus == 1 else newton_divmod
        assert divmod_(num, den, modulus) == schoolbook_divmod(num, den, modulus)


def test_fold_and_sparse_cyclic_product_match_the_convolution():
    rng = random.Random(41)
    for _ in range(200):
        p = rng.choice(PRIMES)
        modulus = p ** rng.randint(1, 20)
        size = rng.randint(1, 40)
        coeffs = random_vector(rng, rng.randint(0, 3 * size + 2), modulus)
        want = [sum(coeffs[i::size]) % modulus for i in range(size)]
        assert poly_fold(coeffs, size, modulus) == want
        dense = random_vector(rng, size, modulus)
        sparse = [0] * size
        for _ in range(rng.randint(0, 4)):
            sparse[rng.randrange(size)] = rng.randrange(modulus)
        wide = schoolbook_mul(dense, sparse, modulus)
        assert poly_cyclic_mul_sparse(dense, sparse, modulus) \
            == poly_fold(wide, size, modulus)


def test_taylor_shift_matches_binomial_sum():
    rng = random.Random(7)
    for length in list(range(0, 18)) + [31, 32, 33, 100, 129]:
        p = rng.choice(PRIMES)
        modulus = p ** rng.randint(1, 16)
        f = random_vector(rng, length, modulus)
        for c in (1, -1):
            assert poly_taylor_shift(f, c, modulus) == binomial_shift(f, c, modulus)


@pytest.mark.parametrize("step", [7, 49, 343])
def test_taylor_shift_of_a_power_minus_one_gives_the_binomials(step):
    # synthesize_queue's kernel (1+T)^step - 1: T^step - 1 shifted by T -> T + 1
    modulus = 7 ** 12
    kernel = poly_taylor_shift([-1] + [0] * (step - 1) + [1], 1, modulus)
    assert kernel == [0] + [math.comb(step, k) % modulus for k in range(1, step + 1)]


@pytest.mark.parametrize("length", [33, 129, 2049, 2401])
def test_taylor_shift_just_above_a_power_of_two(length):
    # the top level's block is partly padding, and only `length` slots are
    # unpacked at each level; at 7^12 every slot is 9 or 10 bytes wide.  The
    # binomial sum is quadratic, so long inputs check the top coefficients,
    # those on each side of every power of two and a few at random, and
    # the round trip restores every coefficient
    rng = random.Random(length)
    modulus = 7 ** 12
    f = random_vector(rng, length, modulus)
    if length < 256:
        indices = range(length)
    else:
        indices = sorted({*range(length - 3, length), *rng.sample(range(length), 4),
                          *(2 ** e + d for e in range(12) for d in (-1, 0)
                            if 2 ** e < length)})
    for c in (1, -1):
        shifted = poly_taylor_shift(f, c, modulus)
        assert len(shifted) == length
        assert [shifted[k] for k in indices] \
            == [binomial_term(f, c, modulus, k) for k in indices]
        assert poly_taylor_shift(shifted, -c, modulus) == f


# Kronecker slots hold terms * (m - 1)^2: one 64-bit word while that fits,
# whole bytes above.  At m = 2^30 the bound of 16 terms has exactly 64 bits
# and that of 17 terms 65; 9 terms at 1431655766 fill 64 bits, which the
# Taylor shift reaches with blocks of 8; 3^41 exceeds 2^64 on its own.
BOUNDARY_MODULI = (2 ** 30, 1431655766, 2 ** 32 + 15, 3 ** 41)


def test_slot_width_at_the_word_boundary():
    assert (_slot_bytes(16, 2 ** 30), _slot_bytes(17, 2 ** 30)) == (8, 9)
    assert (9 * 1431655765 ** 2).bit_length() == 64 == 8 * _slot_bytes(9, 1431655766)
    assert _slot_bytes(1, 2) == 8 and _slot_bytes(1, 3 ** 41) == 17


@pytest.mark.parametrize("modulus", BOUNDARY_MODULI)
def test_kernels_match_oracles_at_the_slot_bound(modulus):
    # every coefficient m - 1, so every slot of every product reaches its bound
    top = modulus - 1
    for terms in (8, 9, 15, 16, 17, 33):
        a = [top] * terms
        for b in (a, [top] * (terms + 5)):
            assert poly_mul(a, b, modulus) == schoolbook_mul(a, b, modulus)
        den = a + [1]
        for num in (a + a + a, [top] * (terms + 1)):
            assert newton_divmod(num, den, modulus) \
                == schoolbook_divmod(num, den, modulus)
        for c in (1, -1):
            assert poly_taylor_shift(a + a, c, modulus) == binomial_shift(a + a, c, modulus)


def byte_pack(coeffs, width):
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def byte_unpack(value, count, width, modulus):
    raw = value.to_bytes(count * width, "little")
    return [int.from_bytes(raw[i:i + width], "little") % modulus
            for i in range(0, count * width, width)]


def test_word_packing_matches_the_byte_reference():
    # one word, every wide width that moves through word arrays, and two wider
    for width in (8, *range(9, 17), 17, 24):
        check_packing_at_width(width)


def check_packing_at_width(width):
    rng = random.Random(width)
    # residues below 2^64 fill every byte lane of their words; those of 2^64
    # and more (3^41) take the per-coefficient fallback
    for modulus in (2 ** 64, 2 ** 32 + 15, *BOUNDARY_MODULI):
        if modulus.bit_length() > 8 * width:
            continue
        coeffs = random_vector(rng, 40, modulus) + [modulus - 1, 1, 0, 0]
        assert _pack(coeffs, width) == byte_pack(coeffs, width)
    # slots filling the whole width, reduced by moduli on both sides of 2^64
    top = 256 ** width
    slots = [rng.randrange(top) for _ in range(40)] + [top - 1, 0, 1, top // 2]
    value = byte_pack(slots, width)
    for modulus in (2 ** 64, 2 ** 64 + 13, 3 ** 20, *BOUNDARY_MODULI):
        assert _unpack(value, len(slots), width, modulus) \
            == byte_unpack(value, len(slots), width, modulus)
    assert _unpack(value, len(slots), width, top) == slots
    assert _pack([], width) == 0 and _unpack(0, 3, width, 5) == [0, 0, 0]
    # products of all-(m - 1) vectors, with m chosen so that terms * (m - 1)^2
    # has 8 * width - 1 bits, the most a slot of that width holds
    for terms in (1, 2, 5, 100):
        modulus = math.isqrt((2 ** (8 * width - 1) - 1) // terms) + 1
        assert _slot_bytes(terms, modulus) == width
        a = [modulus - 1] * terms
        assert (terms * (modulus - 1) ** 2).bit_length() == 8 * width - 1
        assert _unpack(_pack(a, width) ** 2, 2 * terms - 1, width, 256 ** width) \
            == schoolbook_mul(a, a, 256 ** width)
        assert poly_mul(a, a + [modulus - 1], modulus) \
            == schoolbook_mul(a, a + [modulus - 1], modulus)


def test_unit_basis_round_trip_at_depth():
    rng = random.Random(11)
    p, n, M = 3, 7, 15
    x = LambdaElement(p, n, M, random_vector(rng, p ** n, p ** M))
    d = x.to_unit_basis()
    assert LambdaElement.from_unit_basis(p, n, M, d) == x
    # T^j = sum_s C(j, s) (-1)^(j-s) (1+T)^s on a spot check
    mono = LambdaElement.monomial(p, n, M, 5)
    assert mono.to_unit_basis()[:6] == [(-1) ** (5 - s) * math.comb(5, s) % p ** M
                                        for s in range(6)]


def test_eval_at_zeta_matches_horner():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice(PRIMES)
        n = rng.randint(1, {2: 6, 3: 4, 5: 3, 7: 2}[p])
        M = rng.randint(1, 14)
        j = rng.randint(1, n)
        x = LambdaElement(p, n, M, random_vector(rng, p ** n, p ** M))
        assert eval_lambda_at_zeta(x, j) == horner_at_zeta(x, j)


def test_division_input_errors():
    with pytest.raises(ZeroInput):
        poly_divmod_monic([1, 2, 3], [0, 0], 27)
    with pytest.raises(NotAUnit):
        poly_divmod_monic([1, 2, 3], [1, 2], 27)


@pytest.mark.parametrize("den", [[1, 1], [3, 0, 1], [26, 1, 1], [5, 2, 0, 1], [1]])
def test_division_rejects_divisors_other_than_x_d_minus_1(den):
    # X + 1, X^2 + 3, X^2 + X - 1, a dense cubic and the constant 1 (d = 0);
    # the error names the divisor, and X^2 - 1 itself divides
    with pytest.raises(OutOfRange, match=re.escape(str(den))):
        poly_divmod_monic([1, 2, 3, 4], den, 27)
    assert poly_divmod_monic([1, 2, 3, 4], [26, 0, 1], 27) == ([3, 4], [4, 6])


def test_out_of_range_constructors():
    with pytest.raises(OutOfRange):
        PadicInt(3, 1, 0)
    with pytest.raises(OutOfRange):
        LambdaElement.unit_power(3, -1, 4, 2)


# -- ring properties over random (p, n, M) ------------------------------------

MAX_LEVEL = {2: 5, 3: 3, 5: 2, 7: 2}
# p^M reaches past 2^32, so ring products land on both sides of one-word slots
MAX_PRECISION = {2: 40, 3: 25, 5: 17, 7: 14}


@st.composite
def ring_elements(draw, count):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, MAX_LEVEL[p]))
    M = draw(st.integers(1, MAX_PRECISION[p]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return [LambdaElement(p, n, M, random_vector(rng, p ** n, p ** M))
            for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(ring_elements(3))
def test_ring_axioms(elements):
    x, y, z = elements
    one = LambdaElement.one(x.p, x.level, x.precision)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * one == x
    assert x + (-x) == LambdaElement.zero(x.p, x.level, x.precision)


@settings(max_examples=40, deadline=None)
@given(ring_elements(1))
def test_projection_after_lift_is_multiplication_by_p(elements):
    x, = elements
    assert project_pi(lift_nu(x)) == x.p * x


@settings(max_examples=40, deadline=None)
@given(ring_elements(2))
def test_product_matches_reduced_convolution(elements):
    x, y = elements
    modulus = x.modulus
    wide = poly_mul(x.coeffs, y.coeffs, modulus)
    relation = list(_modulus_poly(x.p, x.level, modulus))
    want = schoolbook_divmod(wide, relation, modulus)[1]
    assert (x * y).coeffs == tuple(want + [0] * (x.p ** x.level - len(want)))
