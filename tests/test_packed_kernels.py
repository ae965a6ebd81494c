"""The packed kernels against the loops they replaced.

The oracles below are the earlier forms of four kernels, kept as the
references the packed ones must reproduce exactly: the rotation loop of
the sparse cyclic product, the class-wise suffix sums of the binomial
division, the Taylor shift that reduces and unpacks at every level (by
the package's cached powers reduced mod m), and the synthetic tower
built through the T-coefficient constructor.  The division oracle trims
its remainder also when the numerator is no longer than the divisor,
where the earlier kernel returned the numerator untrimmed.
"""

import random
from itertools import accumulate, zip_longest

import pytest

from iwt.iwasawa_algebra import FormParams, LambdaElement, lift_nu
from iwt.mazur_tate import synthesize_queue
from iwt.polyops import (_pack, _shift_power, _slot_bytes, _unpack, _word_powers,
                         poly_cyclic_mul_sparse, poly_divmod_monic, poly_mul,
                         poly_taylor_shift, poly_trim)

PRIMES = (2, 3, 5, 7)
# slots of one word at every level of a short shift (3^15), of 9 to 16
# bytes above the word levels (7^12), and wider than 16 bytes with no
# word level at all (3^41)
MODULI = (3 ** 15, 7 ** 12, 3 ** 41)


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


def level_shift(f, c, modulus):
    size = len(f)
    out = [x % modulus for x in f]
    half, level = 1, 0
    while half < size:
        block = 2 * half
        out.extend([0] * (-len(out) % block))
        width = _slot_bytes(half + 1, modulus)
        half_bytes = half * width
        low_mask = int.from_bytes((b"\xff" * half_bytes + bytes(half_bytes))
                                  * (len(out) // block), "little")
        packed = _pack(out, width)
        high = (packed >> (8 * half_bytes)) & low_mask
        out = _unpack(high * _shift_power(c, level, modulus)[1] + (packed & low_mask),
                      size, width, modulus)
        half, level = block, level + 1
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


@pytest.mark.parametrize("modulus", MODULI)
def test_taylor_shift_matches_the_level_by_level_shift(modulus):
    rng = random.Random(modulus)
    for length in (0, 1, 2, 15, 16, 17, 3 ** 5, 7 ** 3):
        f = random_vector(rng, length, modulus)
        if length:
            f[-1] = modulus - 1
        for c in (-3, -1, 0, 1, 2, modulus - 1, modulus + 1):
            assert poly_taylor_shift(f, c, modulus) == level_shift(f, c, modulus), \
                (length, c)


def test_taylor_shift_covers_every_slot_layout():
    # word levels run at 3^15 and 7^12 but not at 3^41, and the levels above
    # them take one word at 3^15, 9 to 16 bytes at 7^12 and more at 3^41
    assert [len(_word_powers(1, m)) for m in MODULI] == [5, 5, 0]
    assert [_slot_bytes(2 ** 5 + 1, m) for m in MODULI] == [8, 10, 18]


def test_taylor_shift_at_the_full_size_of_the_tower():
    # p^n coefficients of all-(m - 1) and random residues, at the tower-synth
    # modulus and by the signs the basis change takes
    rng = random.Random(2401)
    modulus = 7 ** 12
    for f in ([modulus - 1] * 7 ** 4, random_vector(rng, 7 ** 4, modulus)):
        for c in (1, -1):
            assert poly_taylor_shift(f, c, modulus) == level_shift(f, c, modulus)


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
