"""The packed kernels against the loops they replaced.

The oracles below are the earlier forms of the kernels, kept as the
references the packed ones must reproduce exactly: the rotation loop of
the sparse cyclic product, the list suffix sums of the binomial division
(`peel_oracle.list_divmod`), the one-evaluation Kronecker product, the
Taylor shift that multiplies, reduces and unpacks at every level, the
peel and vanishing-order loops on that list division, and the synthetic
tower built through the T-coefficient constructor.  The product and the
shift oracles share no code with the package: they pack one coefficient
at a time into their own byte slots and take the powers (x + c)^(2^k)
from the binomial theorem.
"""

import math
import random
from itertools import zip_longest

import pytest

from iwt.errors import NotDivisible, OutOfRange
from iwt.iwasawa_algebra import (FormParams, LambdaElement, divide_by_phi,
                                 exact_divide_by_phi, half_twist_exponent, lift_nu,
                                 vanishing_order)
from iwt.mazur_tate import synthesize_queue
from iwt.polyops import (_Packed, _binomial, _pack, _reduce, _slot_bytes, _unpack, _width,
                         _word_powers, poly_cyclic_mul_sparse, poly_divmod_monic, poly_fold,
                         poly_mul, poly_phi_divide, poly_phi_order, poly_phi_peel,
                         poly_taylor_shift, poly_trim)
import peel_oracle
from peel_oracle import list_divmod, phi_divmod

PRIMES = (2, 3, 5, 7)
# slots of one word at every level of a short shift (3^15), of 9 to 16
# bytes above the word levels (7^12), and wider than 16 bytes with no
# word level at all (3^41)
MODULI = (3 ** 15, 7 ** 12, 3 ** 41)
# p^1, where the iwasawa_invariants shift runs, up to 3^41
SHIFT_MODULI = (*PRIMES, 2 ** 30, *MODULI)
# empty, one and two coefficients, both sides of 16, 32 and 64 (products of
# odd and even length), and lengths that pass the word levels at every modulus
LENGTHS = (0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200, 3 ** 5, 7 ** 3)


def rotation_mul(dense, sparse, modulus):
    size = len(dense)
    out = [0] * size
    for s, c in enumerate(sparse):
        if c:
            rotated = dense[size - s:] + dense[:size - s]
            out = [a + c * b for a, b in zip(out, rotated)]
    return [a % modulus for a in out]


def byte_width(terms, modulus):
    # whole bytes with room for terms * (m - 1)^2 and one spare bit
    return (terms * (modulus - 1) ** 2).bit_length() // 8 + 1


def byte_pack(coeffs, width):
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def byte_unpack(value, count, width, modulus):
    raw = value.to_bytes(count * width, "little")
    return [int.from_bytes(raw[i:i + width], "little") % modulus
            for i in range(0, count * width, width)]


def schoolbook_mul(a, b, modulus):
    a, b = poly_trim(list(a)), poly_trim(list(b))
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % modulus for c in out]


def kronecker_mul(a, b, modulus):
    # one evaluation at 2^(8 width) of both residue vectors, one product
    a, b = poly_trim(list(a)), poly_trim(list(b))
    if not a or not b:
        return []
    width = byte_width(min(len(a), len(b)), modulus)
    return byte_unpack(byte_pack(a, width) * byte_pack(b, width), len(a) + len(b) - 1,
                       width, modulus)


def binomial_power(c, half, modulus):
    # (x + c)^half mod modulus, c a residue
    return [math.comb(half, j) * pow(c, half - j, modulus) % modulus for j in range(half + 1)]


def level_shift(f, c, modulus):
    size, c = len(f), c % modulus
    out = [x % modulus for x in f]
    half = 1
    while half < size:
        block = 2 * half
        out.extend([0] * (-len(out) % block))
        width = byte_width(half + 1, modulus)
        half_bytes = half * width
        low_mask = int.from_bytes((b"\xff" * half_bytes + bytes(half_bytes))
                                  * (len(out) // block), "little")
        packed = byte_pack(out, width)
        high = (packed >> (8 * half_bytes)) & low_mask
        power = byte_pack(binomial_power(c, half, modulus), width)
        out = byte_unpack(high * power + (packed & low_mask), size, width, modulus)
        half = block
    return out


def constructor_queue(seed, params, n):
    p, M = params.p, params.precision
    modulus = p ** M
    rng = random.Random(seed)

    def random_coeffs(count):
        return [rng.randrange(modulus) for _ in range(count)]

    elements = [LambdaElement(p, 0, M, random_coeffs(1)),
                LambdaElement(p, 1, M, random_coeffs(p))]
    for m in range(2, n + 1):
        target = params.ap * elements[m - 1] - params.eps_p * lift_nu(elements[m - 2])
        step = p ** (m - 1)
        kernel_gen = poly_taylor_shift([-1] + [0] * (step - 1) + [1], 1, modulus)
        noise = poly_mul(random_coeffs(p ** m - step), kernel_gen, modulus)
        coeffs = [a + b for a, b in zip_longest(target.coeffs, noise, fillvalue=0)]
        elements.append(LambdaElement(p, m, M, coeffs))
    return elements


def random_vector(rng, length, modulus):
    return [rng.randrange(modulus) for _ in range(length)]


@pytest.mark.parametrize("modulus", (2, 3 ** 15, 7 ** 12, 2 ** 32 + 15, 3 ** 41))
def test_sparse_product_matches_the_rotation_loop(modulus):
    # 0, 1, p and 2p nonzero entries, m - 1 and the last index among them
    rng = random.Random(modulus)
    for p in PRIMES:
        for size in (1, p, p ** 2, p ** 3, 2 * p + 1):
            dense = random_vector(rng, size, modulus)
            dense[-1] = modulus - 1
            for weight in (0, 1, p, 2 * p):
                sparse = [0] * size
                for s in rng.sample(range(size), min(weight, size)):
                    sparse[s] = rng.choice((1, modulus - 1, rng.randrange(modulus)))
                if weight:
                    sparse[-1] = modulus - 1
                assert poly_cyclic_mul_sparse(dense, sparse, modulus) \
                    == rotation_mul(dense, sparse, modulus), (p, size, weight)
    top = [modulus - 1] * 9
    assert poly_cyclic_mul_sparse(top, top, modulus) == rotation_mul(top, top, modulus)


@pytest.mark.parametrize("modulus", (2, 3 ** 15, 7 ** 12, 3 ** 41))
def test_single_entry_sparse_product_is_a_scaled_rotation(modulus):
    # one entry of 1, of m + 1 (also 1 mod m), of 3, of m - 1 and of m,
    # at the first, a middle and the last index, of a list and a tuple
    rng = random.Random(modulus)
    for size in (1, 7, 2401):
        dense = random_vector(rng, size, modulus)
        dense[-1] = modulus - 1
        for c in (1, modulus + 1, 3, modulus - 1, modulus):
            for s in {0, size // 2, size - 1}:
                sparse = [0] * size
                sparse[s] = c
                want = rotation_mul(dense, sparse, modulus)
                assert poly_cyclic_mul_sparse(dense, sparse, modulus) == want, (size, c, s)
                assert poly_cyclic_mul_sparse(tuple(dense), tuple(sparse), modulus) == want


def packed_divmod(num, d, modulus):
    # poly_divmod_monic as the package calls it: the residues of num packed
    # in slots of their largest suffix sum with a bit to spare above m, by
    # X^d - 1; the quotient (None for a remainder) and the trimmed
    # remainder, unpacked
    num = [c % modulus for c in num]
    length = len(num)
    width = _width(modulus * max(2, -(-length // d)))
    quot, rem = poly_divmod_monic(_Packed(_pack(num, width), length, width), _binomial(d),
                                  modulus)
    rem = poly_trim(_unpack(rem, d, width))
    return None if quot is None else _unpack(quot, max(length - d, 0), width), rem


def expected_divmod(num, d, modulus):
    # the list division's results in the packed contract's terms
    quot, rem = list_divmod(num, d, modulus)
    return None if rem else quot, rem


# 2^63 and 3^40 have 64 bits: a suffix sum of two residues needs a second
# word, which keeps the bit above m that the packed reduction needs; at
# 5^27 a Phi-division numerator's sum of two slots, below 4m, needs one too
DIVISION_MODULI = (2, 27, 2 ** 30, 3 ** 15, 2 ** 63, 3 ** 40, 5 ** 27, 7 ** 12, 3 ** 41)


@pytest.mark.parametrize("modulus", DIVISION_MODULI)
def test_binomial_division_matches_the_classwise_sums(modulus):
    # d below, equal to and above the numerator length; quotients of fewer
    # blocks than classes (the block sums), as many, and more; numerators
    # with negative and unreduced entries, random and exact multiples of
    # X^d - 1
    rng = random.Random(modulus)
    for d in (1, 2, 3, 7, 16, 49):
        for length in {0, 1, d - 1, d, d + 1, 2 * d - 1, 2 * d, 2 * d + 1,
                       d * d - 1, d * d, d * d + 1, d * (d + 1) + 3, 5 * d + 2}:
            if length < 0:
                continue
            num = [rng.randrange(-2 * modulus, 3 * modulus) for _ in range(length)]
            multiple = [a - b for a, b in zip([0] * d + num, num + [0] * d)]
            for v in (num, multiple):
                assert packed_divmod(v, d, modulus) == expected_divmod(v, d, modulus), \
                    (d, length)


@pytest.mark.parametrize("modulus", DIVISION_MODULI)
def test_phi_divide_matches_the_list_division(modulus):
    # Phi_{p^i} for i = 0 (X - 1) to 3, of multiples of Phi, of multiples
    # with a bump that leaves a remainder, and of random vectors, at the
    # lengths deg Phi (an empty quotient) to p^(i+2)
    rng = random.Random(modulus + 1)
    for p in PRIMES:
        for i in range(4 if p < 5 else 3):
            phi = phi_list(p, i)
            for size in sorted({len(phi) - 1, len(phi), p ** i + 1, p ** (i + 1),
                                p ** (i + 2)}):
                cofactor = random_vector(rng, size - len(phi) + 1, modulus)
                multiple = schoolbook_mul(phi, cofactor, modulus)
                multiple += [0] * (size - len(multiple))
                bumped = multiple[:]
                bumped[0] = (bumped[0] + 1) % modulus
                for units in (multiple, bumped, random_vector(rng, size, modulus)):
                    quot, rem = phi_divmod(units, p, i, modulus)
                    assert poly_phi_divide(units, p, i, modulus) == (None if rem else quot), \
                        (p, i, size)
                if cofactor:
                    assert poly_phi_divide(multiple, p, i, modulus) \
                        == cofactor + [0] * (len(multiple) - len(phi) + 1 - len(cofactor))


@pytest.mark.parametrize("d", [1, 3, 8])
def test_binomial_division_recomposes_with_a_trimmed_remainder(d):
    # the remainder, trimmed, is num mod X^d - 1 (its fold), and when it is
    # 0 the quotient times X^d - 1 gives num back, whether num is longer than
    # the divisor (suffix sums) or not (the quotient is empty); the last
    # numerator is (5 + X) X^d (X^d - 1)
    rng = random.Random(d)
    modulus = 27
    q = [0] * d + [5, 1]
    for num in ([0] * (d + 1), [5] + [0] * d, [5] + [0] * (d + 3),
                [0] * (d - 1), [], random_vector(rng, 3 * d + 1, modulus) + [0, 0],
                [(a - b) % modulus for a, b in zip([0] * d + q, q + [0] * d)]):
        quot, rem = packed_divmod(num, d, modulus)
        assert rem == poly_trim(poly_fold(num, d, modulus)), num
        if rem:
            assert quot is None
            continue
        back = [0] * max(len(num), len(quot) + d)
        for t, q in enumerate(quot):
            back[t] -= q
            back[t + d] += q
        assert poly_trim([b % modulus for b in back]) == poly_trim(num), num
    assert packed_divmod([0, 0], 3, 27) == ([], [])
    assert packed_divmod([5, 0, 0], 3, 27) == (None, [5])
    assert packed_divmod([5, 0, 0, 0], 3, 27) == (None, [5])
    assert packed_divmod([1, 2, 3, 4], 2, 27) == (None, [4, 6])
    assert packed_divmod([24, 23, 3, 4], 2, 27) == ([3, 4], [])


@pytest.mark.parametrize("modulus", SHIFT_MODULI)
def test_taylor_shift_matches_the_level_by_level_shift(modulus):
    # random residues and every coefficient m - 1, where the slot bounds
    # are tight, by every spelling of +-1
    rng = random.Random(modulus)
    shifts = (1, -1, modulus - 1, modulus + 1)
    for length in LENGTHS:
        f = random_vector(rng, length, modulus)
        if length:
            f[-1] = modulus - 1
        for g in (f, [modulus - 1] * length):
            for c in shifts:
                assert poly_taylor_shift(g, c, modulus) == level_shift(g, c, modulus), \
                    (length, c)
    # the longest length runs levels above the word levels
    assert len(_word_powers(modulus)) < (LENGTHS[-1] - 1).bit_length()


@pytest.mark.parametrize("modulus", (5, 7, 2 ** 30, 3 ** 15, 3 ** 41))
def test_taylor_shift_rejects_a_shift_other_than_one_or_minus_one(modulus):
    for c in (0, 2, -2, 3, modulus - 2, modulus + 2, 2 * modulus):
        with pytest.raises(OutOfRange, match=f"got c={c}"):
            poly_taylor_shift([1, 2, 3], c, modulus)


def test_taylor_shift_covers_every_slot_layout():
    # word levels run at 3^15 and 7^12 but not at 3^41, and the levels above
    # them take the width of the top level's product: for 343 coefficients
    # one word at 3^15, 10 bytes at 7^12 and more than 16 at 3^41
    assert [len(_word_powers(m)) for m in MODULI] == [5, 5, 0]
    assert [_slot_bytes(2 ** 8 + 1, m) for m in MODULI] == [8, 10, 18]


def test_taylor_shift_at_the_full_size_of_the_tower():
    # p^n coefficients of all-(m - 1) and random residues, at the tower-synth
    # modulus and by the signs the basis change takes
    rng = random.Random(2401)
    modulus = 7 ** 12
    for f in ([modulus - 1] * 7 ** 4, random_vector(rng, 7 ** 4, modulus)):
        for c in (1, -1):
            assert poly_taylor_shift(f, c, modulus) == level_shift(f, c, modulus)


def test_level_shift_oracle_matches_the_binomial_sum():
    # the oracle itself against f(x + c) = sum_j f_j sum_k C(j, k) c^(j-k) x^k
    rng = random.Random(5)
    for modulus in (2, 7, 7 ** 12, 3 ** 41):
        f = random_vector(rng, 343, modulus)
        for c in (-1, 1, modulus + 1):
            want = [sum(math.comb(j, k) * pow(c, j - k, modulus) * f[j]
                        for j in range(k, len(f))) % modulus for k in range(len(f))]
            assert level_shift(f, c, modulus) == want, (modulus, c)


@pytest.mark.parametrize("modulus", SHIFT_MODULI)
def test_product_matches_the_schoolbook(modulus):
    # factors of lengths 0 to 65, so that the product has odd and even
    # length, random and all-(m - 1)
    rng = random.Random(modulus)
    pairs = [(la, lb) for la in (0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 65)
             for lb in (1, 2, 31, 32, 33, 64, 65, la)]
    # products of 254 coefficients (one Kronecker product) and of 255 and
    # 256 (two-point)
    pairs += [(127, 128), (128, 128), (128, 129), (1, 254), (1, 255), (2, 255)]
    for la, lb in pairs:
        for a, b in ((random_vector(rng, la, modulus), random_vector(rng, lb, modulus)),
                     ([modulus - 1] * la, [modulus - 1] * lb)):
            assert poly_mul(a, b, modulus) == schoolbook_mul(a, b, modulus), (la, lb)


@pytest.mark.parametrize("width", (8, 9, 10, 16, 17, 18))
def test_two_point_product_at_the_slot_bound(width):
    # all-(m - 1) factors of 128 and 129 coefficients, with m chosen so that
    # 128 (m - 1)^2, the largest product coefficient, has 8 * width - 1 bits,
    # the most a slot of that width holds
    terms = 128
    modulus = math.isqrt((2 ** (8 * width - 1) - 1) // terms) + 1
    assert (terms * (modulus - 1) ** 2).bit_length() == 8 * width - 1
    assert _slot_bytes(terms, modulus) == width
    a = [modulus - 1] * terms
    for b in (a, a + [modulus - 1]):
        assert poly_mul(a, b, modulus) == schoolbook_mul(a, b, modulus)


def test_product_matches_one_evaluation_at_the_size_of_the_tower():
    rng = random.Random(7)
    for modulus in (3 ** 15, 7 ** 12, 3 ** 41):
        for la, lb in ((2401, 2401), (2401, 2058), (2187, 1), (1, 2400)):
            for a, b in ((random_vector(rng, la, modulus), random_vector(rng, lb, modulus)),
                         ([modulus - 1] * la, [modulus - 1] * lb)):
                assert poly_mul(a, b, modulus) == kronecker_mul(a, b, modulus), (la, lb)
    a, b = random_vector(rng, 40, 7 ** 12), random_vector(rng, 33, 7 ** 12)
    assert kronecker_mul(a, b, 7 ** 12) == schoolbook_mul(a, b, 7 ** 12)


@pytest.mark.parametrize("modulus", (2, 3, 7, 3 ** 15, 7 ** 12, 2 ** 64 - 59, 3 ** 41))
def test_packed_reduction_at_the_slot_bound(modulus):
    # slots of the shift's width at its top level, filled up to 2^bits - 1
    # and to the bound (top + 1)(m - 1)^2 a level leaves, and every value
    # from 0 to 4m: each comes back as its residue
    rng = random.Random(modulus)
    for top in (1, 32, 2048):
        width = _slot_bytes(top + 1, modulus)
        bits = 8 * width
        slots = [2 ** bits - 1, (top + 1) * (modulus - 1) ** 2, 0, 1, modulus - 1]
        slots += list(range(min(4 * modulus, 200))) + [rng.randrange(2 ** bits) for _ in range(50)]
        slots += [2 ** bits - 1] * 3
        count = len(slots)
        evens = int.from_bytes((b"\xff" * width + bytes(width)) * (count // 2 + 1), "little")
        ones = int.from_bytes((b"\x01" + bytes(width - 1)) * count, "little")
        got = _reduce(byte_pack(slots, width), bits, modulus, evens, ones)
        assert got == byte_pack([x % modulus for x in slots], width), top


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_synthesized_tower_matches_the_constructor_path(p, seed):
    # both bases of every level, at a modulus of one word, one above 2^64
    # and p^1, where the top random coefficient is often 0
    n = {2: 6, 3: 4, 5: 3, 7: 3}[p]
    for ap, eps, M in ((p + 1, 1, 12), (0, p - 1 or 1, 30), (1, 1, 1)):
        params = FormParams(p, ap, eps, M)
        got = synthesize_queue(seed, params, n).elements
        want = constructor_queue(seed, params, n)
        assert [x.units for x in got] == [x.units for x in want], (ap, M)
        assert [x.coeffs for x in got] == [x.coeffs for x in want], (ap, M)
        assert all(x._coeffs is not None for x in got)


# (p, M, n): slots of one word at 2^30, 3^15 and 5^11, of 9 bytes at 7^12
# when eps is not 1 (m^2 passes 64 bits), wider than 16 bytes at 3^41
PEEL_RINGS = ((2, 30, 6), (3, 15, 5), (3, 41, 4), (5, 11, 3), (7, 12, 3), (2, 63, 4))


def list_peel(x, prev, ap, eps_inv, p, n, hatted, modulus):
    # the peel loop of sharp_flat.decompose_pair before it ran packed
    size = len(x)

    def twist(v, i):
        e = half_twist_exponent(p, i) if hatted else 0
        return ([0] * e + v + [0] * size)[:size]

    y = twist(list(prev), n)
    for i in range(n - 1, 0, -1):
        quot, rem = phi_divmod([(ap * b - a) * eps_inv for a, b in zip(x, y)], p, i, modulus)
        if rem:
            raise NotDivisible(f"division by Phi_{{p^{i}}}: remainder is nonzero "
                               f"at working precision")
        x, y = y, twist(quot, i)
    return list(x), y


def list_order(units, p, i, modulus):
    # the division loop of iwasawa_algebra.vanishing_order before it ran packed
    order, poly = 0, list(units)
    while True:
        quot, rem = phi_divmod(poly, p, i, modulus)
        if rem:
            return order
        order, poly = order + 1, quot
        if not poly_trim(poly):
            return order


def outcome(peel, *args):
    try:
        return peel(*args)
    except NotDivisible as exc:
        return str(exc)


def phi_list(p, i):
    # Phi_{p^i}(X) = sum_{k<p} X^(k p^(i-1)), and X - 1 for i = 0
    if i == 0:
        return [-1, 1]
    step = p ** (i - 1)
    return [int(t % step == 0) for t in range((p - 1) * step + 1)]


@pytest.mark.parametrize("p, M, n", PEEL_RINGS)
def test_packed_peel_matches_the_list_peel(p, M, n):
    # the tower pair of every level, so that every index runs, by every kind
    # of ap (0, +-p, m - 1 = -1 centred, and m // 2, the widest slots), by
    # eps 1 and 2p - 1, hatted and not; then the same pairs broken at the
    # first division and, by a multiple of its Phi, at the second one
    modulus = p ** M
    assert (p, M) != (7, 12) or modulus ** 2 >> 64
    for ap in (0, p, -p, modulus - 1, modulus // 2):
        for eps in (1, 2 * p - 1):
            seq = synthesize_queue(ap % 97 + eps, FormParams(p, ap, eps, M), n)
            eps_inv = pow(eps, -1, modulus)
            for hatted in (False, True)[:1 + (p != 2)]:
                for level in range(1, n + 1):
                    x, prev = list(seq[level].units), list(seq[level - 1].units)
                    args = (ap, eps_inv, p, level, hatted, modulus)
                    assert poly_phi_peel(x, prev, *args) == list_peel(x, prev, *args), \
                        (ap, eps, hatted, level)
                    if level < 2:
                        continue
                    first = x[:]
                    first[1] = (first[1] + 1) % modulus
                    second = x[:]
                    for t, c in enumerate(phi_list(p, level - 1)):
                        second[t + 2] = (second[t + 2] + c) % modulus
                    # the second division sees ap X^2 times a unit, 0 at ap = 0
                    for broken, index in ((first, level - 1), (second, level - 2)):
                        got = outcome(poly_phi_peel, broken, prev, *args)
                        assert got == outcome(list_peel, broken, prev, *args)
                        if index == level - 1 or (index and ap % modulus):
                            assert got == (f"division by Phi_{{p^{index}}}: remainder is "
                                           f"nonzero at working precision"), (ap, level)


@pytest.mark.parametrize("p, M, n", PEEL_RINGS)
def test_packed_vanishing_order_matches_the_list_loop(p, M, n):
    # at every m from 0 (T = X - 1) to n: random vectors, multiples of
    # powers of each divisor, m / p (X - 1)^k, whose orders run deep, and
    # the zero vector, whose first quotient is 0 (vanishing_order refuses 0
    # before the kernel runs)
    modulus, size = p ** M, p ** n
    rng = random.Random(modulus)
    vectors = [random_vector(rng, size, modulus), [0] * size]
    for k in (1, p, size - 1):
        vectors.append([modulus // p * math.comb(k, j) * (-1) ** (k - j) % modulus
                        for j in range(k + 1)])
    for i in range(n + 1):
        # Phi^k times a random cofactor, for k = 1, 2 and the largest k
        top = (size - 1) // (len(phi_list(p, i)) - 1)
        power = [1]
        for k in range(1, top + 1):
            power = schoolbook_mul(power, phi_list(p, i), modulus)
            if k in (1, 2, top):
                cofactor = random_vector(rng, size - len(power) + 1, modulus)
                vectors.append(schoolbook_mul(power, cofactor, modulus))
    for v in vectors:
        v += [0] * (size - len(v))
        for m in range(n + 1):
            assert poly_phi_order(v, p, m, modulus) == list_order(v, p, m, modulus), m


# (p, M, n): one word at 3^15, 7^12 and 5^11, 2^63 with a second word for
# every suffix sum, 5^27, where 2m fits one word and 4m does not, and 3^41
AGREEMENT_RINGS = ((2, 63, 5), (3, 15, 4), (3, 41, 3), (5, 11, 3), (5, 27, 2), (7, 12, 2))


@pytest.mark.parametrize("p, M, n", AGREEMENT_RINGS)
def test_vanishing_order_counts_the_exact_divisions(p, M, n):
    # x = Phi_{p^i}^k times a random cofactor, k from 0 to the largest that
    # fits below X^(p^n): vanishing_order(x, i) is the number of times
    # exact_divide_by_phi succeeds before it raises NotDivisible, at least k
    rng = random.Random(p * M)
    size, modulus = p ** n, p ** M
    for i in range(1, n + 1):
        phi = phi_list(p, i)
        power = [1]
        for k in range((size - 1) // (len(phi) - 1) + 1):
            cofactor = random_vector(rng, size - len(power) + 1, modulus)
            units = schoolbook_mul(power, cofactor, modulus)
            x = LambdaElement.from_unit_basis(p, n, M, units + [0] * (size - len(units)))
            order, divisions = vanishing_order(x, i), 0
            while divisions <= order:
                try:
                    x = exact_divide_by_phi(x, i)
                except NotDivisible:
                    break
                divisions += 1
            assert divisions == order >= k, (i, k)
            power = schoolbook_mul(power, phi, modulus)


def test_packed_kernels_refuse_an_index_out_of_range():
    with pytest.raises(OutOfRange, match="i >= 0, got i=-1"):
        poly_phi_order([1, 2, 3], 3, -1, 27)


@pytest.mark.parametrize("p, M", ((2, 63), (3, 40)))
def test_phi_division_at_moduli_of_64_bits(p, M):
    # every index at N = p, p^2 and p^4, on multiples of Phi and on random
    # vectors: at i = n the numerator has N + N/p entries and d = N, so every
    # suffix sum has at most two terms, 2m - 2 < 2^64
    modulus, rng = p ** M, random.Random(M)
    for n in (1, 2, 4):
        size = p ** n
        for i in range(n + 1):
            phi = phi_list(p, i)
            cofactor = random_vector(rng, size - len(phi) + 1, modulus)
            multiple = schoolbook_mul(phi, cofactor, modulus)
            for units in (multiple + [0] * (size - len(multiple)),
                          random_vector(rng, size, modulus)):
                assert outcome(divide_by_phi, units, p, i, modulus) \
                    == outcome(peel_oracle.divide_by_phi, units, p, i, modulus), (n, i)
            assert divide_by_phi(multiple + [0] * (size - len(multiple)), p, i, modulus) \
                == cofactor + [0] * (len(phi) - 1)


def test_phi_division_reads_its_units_up_to_reduction():
    # divide_by_phi takes integers up to reduction mod m: negative and
    # unreduced spellings of a multiple of Phi, and of a vector that Phi
    # does not divide, give the outcome of their residues
    rng = random.Random(7)
    for p, i, modulus in ((3, 1, 27), (2, 3, 2 ** 63), (5, 2, 5 ** 27), (3, 2, 3 ** 41)):
        size = p ** (i + 1)
        phi = phi_list(p, i)
        multiple = schoolbook_mul(phi, random_vector(rng, size - len(phi) + 1, modulus),
                                  modulus)
        for units in (multiple + [0] * (size - len(multiple)), random_vector(rng, size, modulus)):
            spelled = [a + modulus * rng.randrange(-3, 4) for a in units]
            assert outcome(divide_by_phi, spelled, p, i, modulus) \
                == outcome(divide_by_phi, units, p, i, modulus), (p, i)
        assert divide_by_phi([28, 1, 1], 3, 1, 27) == [1, 0, 0]
