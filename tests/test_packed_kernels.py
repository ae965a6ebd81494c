"""The packed kernels against the loops they replaced.

The oracles below are the earlier forms of the kernels, kept as the
references the packed ones must reproduce exactly: the rotation loop of
the sparse cyclic product, the class-wise suffix sums of the binomial
division, the one-evaluation Kronecker product, the Taylor shift that
multiplies, reduces and unpacks at every level, and the synthetic tower
built through the T-coefficient constructor.  The product and the shift
oracles share no code with the package: they pack one coefficient at a
time into their own byte slots and take the powers (x + c)^(2^k) from
the binomial theorem.  The division oracle trims its remainder also when
the numerator is no longer than the divisor, where the earlier kernel
returned the numerator untrimmed.
"""

import math
import random
from itertools import accumulate, zip_longest

import pytest

from iwt.iwasawa_algebra import FormParams, LambdaElement, lift_nu
from iwt.mazur_tate import synthesize_queue
from iwt.polyops import (_reduce, _slot_bytes, _word_powers, poly_cyclic_mul_sparse,
                         poly_divmod_monic, poly_mul, poly_taylor_shift, poly_trim)

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


def classwise_divmod(num, den, modulus):
    den = poly_trim([c % modulus for c in den])
    d = len(den) - 1
    num = [c % modulus for c in num]
    quot, k = num[d:], len(num) - d
    if k <= 0:
        return [], poly_trim(num)
    for r in range(max(0, min(d, k - d))):
        quot[r::d] = list(accumulate(quot[r::d][::-1]))[::-1]
    quot = [q % modulus for q in quot]
    low = quot[:d] + [0] * (d - k)
    return quot, poly_trim([(a + b) % modulus for a, b in zip(num, low)])


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


@pytest.mark.parametrize("modulus", (2, 27, 7 ** 12, 3 ** 41))
def test_binomial_division_matches_the_classwise_sums(modulus):
    # d below, equal to and above the numerator length; quotients of fewer
    # blocks than classes (the block sums), as many, and more; numerators
    # with negative and unreduced entries
    rng = random.Random(modulus)
    for d in (1, 2, 3, 7, 16, 49):
        den = [-1] + [0] * (d - 1) + [1]
        for length in {0, 1, d - 1, d, d + 1, 2 * d - 1, 2 * d, 2 * d + 1,
                       d * d - 1, d * d, d * d + 1, d * (d + 1) + 3, 5 * d + 2}:
            if length < 0:
                continue
            num = [rng.randrange(-2 * modulus, 3 * modulus) for _ in range(length)]
            assert poly_divmod_monic(num, den, modulus) \
                == classwise_divmod(num, den, modulus), (d, length)


def test_binomial_division_reads_every_spelling_of_the_divisor():
    # m - 1 or -1 at the bottom, a tuple, trailing zeros, an unreduced zero
    # in the middle and an unreduced top: one quotient and remainder
    rng = random.Random(3)
    modulus = 5 ** 6
    num = random_vector(rng, 40, modulus)
    want = classwise_divmod(num, [-1, 0, 0, 1], modulus)
    for den in ([modulus - 1, 0, 0, 1], (-1, 0, 0, 1), [-1, 0, 0, 1, 0, 0],
                [-1, modulus, 0, 1], [2 * modulus - 1, 0, 0, modulus + 1]):
        assert poly_divmod_monic(num, den, modulus) == want, den


@pytest.mark.parametrize("d", [1, 3, 8])
def test_binomial_division_recomposes_with_a_trimmed_remainder(d):
    # num = q (X^d - 1) + r with r trimmed, whether num is longer than the
    # divisor (suffix sums) or not (the quotient is empty)
    rng = random.Random(d)
    modulus = 27
    den = [-1] + [0] * (d - 1) + [1]
    for num in ([0] * (d + 1), [5] + [0] * d, [5] + [0] * (d + 3),
                [0] * (d - 1), [], random_vector(rng, 3 * d + 1, modulus) + [0, 0]):
        quot, rem = poly_divmod_monic(num, den, modulus)
        assert rem == poly_trim(rem) and len(rem) <= d
        back = [0] * max(len(num), len(quot) + d, len(rem))
        for t, q in enumerate(quot):
            back[t] -= q
            back[t + d] += q
        for t, r in enumerate(rem):
            back[t] += r
        assert poly_trim([b % modulus for b in back]) == poly_trim(num), num
    assert poly_divmod_monic([0, 0], [-1, 0, 0, 1], 27) == ([], [])
    assert poly_divmod_monic([5, 0, 0], [-1, 0, 0, 1], 27) == ([], [5])
    assert poly_divmod_monic([5, 0, 0, 0], [-1, 0, 0, 1], 27) == ([0], [5])


@pytest.mark.parametrize("modulus", SHIFT_MODULI)
def test_taylor_shift_matches_the_level_by_level_shift(modulus):
    # random residues and every coefficient m - 1, where the slot bounds
    # are tight, by every kind of c
    rng = random.Random(modulus)
    shifts = (-3, -1, 0, 1, 2, modulus - 1, modulus + 1)
    for length in LENGTHS:
        f = random_vector(rng, length, modulus)
        if length:
            f[-1] = modulus - 1
        for g in (f, [modulus - 1] * length):
            for c in shifts:
                assert poly_taylor_shift(g, c, modulus) == level_shift(g, c, modulus), \
                    (length, c)
    # the longest length runs levels above the word levels at every c
    for c in shifts:
        if c % modulus:
            assert len(_word_powers(abs(c) % modulus, modulus)) < (LENGTHS[-1] - 1).bit_length()


def test_taylor_shift_covers_every_slot_layout():
    # word levels run at 3^15 and 7^12 but not at 3^41, and the levels above
    # them take the width of the top level's product: for 343 coefficients
    # one word at 3^15, 10 bytes at 7^12 and more than 16 at 3^41
    assert [len(_word_powers(1, m)) for m in MODULI] == [5, 5, 0]
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
