"""Dense polynomial kernels over Z/p^M used by the group-algebra modules.

Polynomials are plain lists of integer residues, index i holding the
coefficient of the i-th power of the variable.  `iwasawa_algebra` stores
its elements in the group basis X = 1+T, where the ring relation is the
binomial X^(p^n) - 1 and every cyclotomic factor and unit power is
sparse, and `cyclotomic_ext` stores its elements in the same X = zeta, so
most of both rings runs on the linear kernels here:

* `poly_fold` reduces mod X^n - 1 by adding blocks of n coefficients;
* `poly_cyclic_mul_sparse` multiplies mod X^n - 1 by a factor with few
  nonzero coefficients: one shifted scalar multiple of the packed dense
  vector per coefficient, then one fold and one unpack, or for a single
  coefficient a rotation of the dense vector, scaled unless it is 1;
* `poly_divmod_monic` divides by X^d - 1 by suffix sums, class by class,
  or block by block when there are fewer blocks than classes.

The kernels above linear cost are Kronecker products (vectors packed
into big integers with carry-free slots): the product itself and the
Taylor shift f(x) -> f(x + c) by blocks that double each level (von zur
Gathen & Gerhard, "Fast algorithms for Taylor shifts and certain
difference equations", 1997).  The shift by +-1 is the change between
the group basis and T-coefficients, and between the zeta-basis of
`cyclotomic_ext` and its pi-coefficients.  It runs with c >= 0 only (a
negative shift between two sign flips), so its low levels can keep
exact integer slots of one word on one packed integer, and reduce once.

Every level of the shift above its word levels, and every product of
at least 255 coefficients, is a two-point Kronecker product (Harvey,
"Faster polynomial multiplication via multipoint Kronecker
substitution", 2009): each factor is evaluated at +2^(W/2) and at
-2^(W/2), half a slot of W bits apart, from its even and its odd
entries packed at full width; the two products, each half as long as
one product at W-bit slots, give the even coefficients by their
half-sum and the odd ones by their half-difference, again at W-bit
slots.  The only bound is the usual one: every coefficient of the
product below 2^W.  A shorter product is one Kronecker product, whose
single packing and unpacking cost less there.

Slot layout: a slot holds the exact bound of one output coefficient,
terms*(m-1)^2 for a product and sum(sparse)*(m-1) for the sparse
multiply.  The shift's levels above its word levels keep one width, that
of its top level's product, (top+1)*(m-1)^2 for blocks of 2*top: they run
on its even and odd entries packed once and unpacked once.  A level
leaves lo + (x+c)^half * hi <= (m-1) + half*(m-1)^2 in a slot, within
that bound; a packed reduction brings every slot below m again before
the next level: one Barrett round on the even and then the odd slots,
each with the empty slot above it to hold its product of twice the
width, leaves a slot below 2m, and one conditional subtraction of m
leaves it below m.

When a bound fits in 64 bits the slot is one little-endian 8-byte
word, so a whole vector moves between list and big integer
through `array("Q")` in one C-level call; on the product sizes
the CLI runs (M >= n+8) such a slot is at least 6 bytes wide once the
product has 256 terms, so rounding it up to 8 barely widens the product.
Wider bounds keep the narrowest whole number of bytes w, since rounding
them up to 16 bytes would make the big-integer product, which dominates
there, up to twice as long.  Those slots still move through word arrays:
residues below 2^64 are packed by scattering the eight byte lanes of
their words into the w-byte slots with strided slice copies, and slots
of at most 16 bytes are unpacked by gathering their low and high words
the same way.  Only residues of 2^64 and more, and slots wider than 16
bytes, take one coefficient at a time.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import accumulate, compress
from math import comb
from operator import add

from .errors import NotAUnit, OutOfRange, ZeroInput


def poly_trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


def poly_sub(a, b, modulus):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % modulus
    return out


_WORD = array("Q").itemsize    # 8: one unsigned 64-bit word
_SWAP = sys.byteorder == "big"


def _width(bound):
    # a slot must hold `bound` without carrying over: one word while that
    # fits in 64 bits, else the narrowest byte count, so that the
    # big-integer product, the larger cost there, stays short; both move
    # through word arrays (see the module docstring)
    bits = bound.bit_length()
    return _WORD if bits <= 8 * _WORD else (bits + 8) // 8


def _slot_bytes(terms, modulus):
    # a Kronecker slot holds a sum of `terms` products of residues
    return _width(terms * (modulus - 1) ** 2)


def _pack(coeffs, width):
    try:
        words = array("Q", coeffs)
    except OverflowError:
        # residues of 2^64 and more: one coefficient at a time
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coeffs]),
                              "little")
    if _SWAP:
        words.byteswap()
    raw = words.tobytes()
    if width == _WORD:
        return int.from_bytes(raw, "little")
    # byte j of word i goes to byte j of slot i; the top width - 8 bytes stay 0
    slots = bytearray(len(words) * width)
    for j in range(_WORD):
        slots[j::width] = raw[j::_WORD]
    return int.from_bytes(slots, "little")


def _words(raw):
    words = array("Q", raw)
    if _SWAP:
        words.byteswap()
    return words


def _unpack(value, count, width, modulus):
    raw = value.to_bytes(count * width, "little")
    if width == _WORD:
        return [c % modulus for c in _words(raw)]
    if width > 2 * _WORD:
        return [int.from_bytes(raw[i:i + width], "little") % modulus
                for i in range(0, count * width, width)]
    # slot i = high_i * 2^64 + low_i: gather both words of every slot
    low, high = bytearray(count * _WORD), bytearray(count * _WORD)
    for j in range(_WORD):
        low[j::_WORD] = raw[j::width]
    for j in range(width - _WORD):
        high[j::_WORD] = raw[_WORD + j::width]
    r = (1 << 8 * _WORD) % modulus
    return [(h * r + lo) % modulus for h, lo in zip(_words(high), _words(low))]


def _evaluate(coeffs, width):
    # the vector at +2^(4 width) and at -2^(4 width), half a slot of 8 width
    # bytes: its even entries packed in whole slots, plus or minus its odd
    # entries packed the same way and shifted up by half a slot
    even = _pack(coeffs[0::2], width)
    odd = _pack(coeffs[1::2], width) << 4 * width
    return even + odd, even - odd


def _ks2(a, b, half):
    # two-point Kronecker product (Harvey 2009) of two vectors given by their
    # values at +-2^half: h(2^half) + h(-2^half) is twice the even
    # coefficients of h = a b at 2^(2 half) apart, h(2^half) - h(-2^half)
    # twice the odd ones, shifted up by half.  Both read off carry-free as
    # long as every coefficient of h is below 2^(2 half), the full slot
    plus, minus = a[0] * b[0], a[1] * b[1]
    return plus + minus >> 1, plus - minus >> half + 1


def _interleave(even, odd, count, width, modulus):
    # the `count` coefficients whose even and odd entries are packed apart
    out = [0] * count
    out[0::2] = _unpack(even, count - count // 2, width, modulus)
    out[1::2] = _unpack(odd, count // 2, width, modulus)
    return out


# a product of fewer coefficients is one Kronecker product: below about
# 128 by 128 the two half-size products save less than their second
# packing and unpacking cost (the product_one and product_ks2 rows of
# scripts/bench_kernels.py)
_KS2_TERMS = 255


def poly_mul(a, b, modulus):
    """Convolution of residue vectors, reduced mod modulus (no ring relation)."""
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if not a or not b:
        return []
    width = _slot_bytes(min(len(a), len(b)), modulus)
    count = len(a) + len(b) - 1
    if count < _KS2_TERMS:
        return _unpack(_pack(a, width) * _pack(b, width), count, width, modulus)
    even, odd = _ks2(_evaluate(a, width), _evaluate(b, width), 4 * width)
    return _interleave(even, odd, count, width, modulus)


def poly_fold(coeffs, size, modulus):
    """Residues of coeffs mod (X^size - 1, modulus), exactly size of them:
    index s collects every index congruent to s mod size."""
    out = list(coeffs[:size])
    out.extend([0] * (size - len(out)))
    for start in range(size, len(coeffs), size):
        block = coeffs[start:start + size]
        out[:len(block)] = [a + b for a, b in zip(out, block)]
    return [c % modulus for c in out]


def poly_cyclic_mul_sparse(dense, sparse, modulus):
    """dense * sparse mod (X^n - 1, modulus) for two vectors of length n,
    dense of residues and sparse of nonnegative integers.

    dense is packed once, in slots that hold the exact bound
    sum(sparse) * (m - 1) of a product coefficient (one word for every
    Phi).  Each nonzero entry c at s adds c times the packed vector
    shifted up by s slots, the coefficients of c X^s dense; the sum is
    folded mod X^n - 1 and unpacked once.  A single entry needs no
    packing: the product is dense rotated by s, times c unless c = 1.
    """
    size = len(dense)
    entries = list(compress(range(size), sparse))
    if len(entries) == 1:
        # one entry c at s (a unit power, a constant): dense rotated by s,
        # scaled when c is not 1; no slot has to hold c (m - 1)
        s = entries[0]
        c = sparse[s] % modulus
        rotated = [*dense[size - s:], *dense[:size - s]]
        return rotated if c == 1 else [c * x % modulus for x in rotated]
    width = _width((sum(sparse) or 1) * (modulus - 1))
    packed, bits = _pack(dense, width), 8 * width
    total = sum(sparse[s] * packed << bits * s for s in entries)
    # a slot and its image n slots up never both receive a term of one
    # entry, so the fold stays within the bound
    total = (total & ((1 << bits * size) - 1)) + (total >> bits * size)
    return _unpack(total, size, width, modulus)


def poly_divmod_monic(num, den, modulus):
    """Quotient and remainder by X^d - 1, d >= 1; exact over Z/p^M.

    The quotient, of len(num) - d coefficients, is a set of suffix sums.
    Every divisor of the package is such a binomial; others raise OutOfRange.
    """
    d = len(den) - 1
    # the package spells X^d - 1 as (-1 or m - 1, 0, ..., 0, 1); any other
    # spelling is reduced and trimmed before it is checked
    if not (d >= 1 and den[-1] == 1 and den[0] % modulus == modulus - 1
            and den.count(0) == d - 1):
        den = tuple(poly_trim([c % modulus for c in den]))
        if not den:
            raise ZeroInput("division by the zero polynomial")
        if den[-1] != 1:
            raise NotAUnit(f"divisor must be monic, leading coefficient is {den[-1]}")
        d = len(den) - 1
        if not d or den[0] != modulus - 1 or any(den[1:d]):
            raise OutOfRange(f"divisor must be X^d - 1 with d >= 1, got {list(den)}")
    num = [c % modulus for c in num]
    # num = q * (X^d - 1) + r: q_t = num_(t+d) + q_(t+d), a suffix sum along
    # the residue class of t mod d.  r_t = num_t + q_t below X^d
    quot, k = num[d:], len(num) - d
    if k <= 0:
        return [], poly_trim(num)
    blocks = -(-k // d)
    if blocks < d:
        # fewer blocks than classes: from the top, each block of d adds the
        # summed block above it
        for start in range((blocks - 2) * d, -1, -d):
            above = quot[start + d:start + 2 * d]
            quot[start:start + len(above)] = map(add, quot[start:start + d], above)
    else:
        # a class with one entry (t >= k - d) is already summed
        for r in range(min(d, k - d)):
            quot[r::d] = list(accumulate(quot[r::d][::-1]))[::-1]
    quot = [q % modulus for q in quot]
    low = quot[:d] + [0] * (d - k)
    return quot, poly_trim([(a + b) % modulus for a, b in zip(num, low)])


@lru_cache(maxsize=None)
def _shift_power(c, level, modulus, width):
    # (x + c)^(2^level) mod modulus, the square of the level below, and its
    # values at +-2^(4 width) for the two-point product at slots of `width`
    if level:
        below = _shift_power(c, level - 1, modulus, width)[0]
        power = tuple(poly_mul(below, below, modulus))
    else:
        power = (c % modulus, 1)
    return power, _evaluate(power, width)


def _column_bound(c, block):
    # max_j [x^j] sum_{i < block} (x + c)^i, over Z: the most that slot j of
    # a shifted block of `block` coefficients gains per unit of each.  The
    # sum is ((x + c)^block - 1) / (x - (1 - c)), by synthetic division
    top = q = 0
    for j in range(block, 0, -1):
        q = comb(block, j) * c ** (block - j) + (1 - c) * q
        top = max(top, q)
    return top


@lru_cache(maxsize=None)
def _word_powers(c, modulus):
    # (x + c)^(2^k) over Z, c >= 1, packed in words, for the low levels k at
    # which the exact bound of a shifted block of 2^(k+1) residues fits one
    # word, so that those levels need no reduction between them
    powers, half = [], 1
    while (modulus - 1) * _column_bound(c, 2 * half) >> 8 * _WORD == 0:
        powers.append(_pack([comb(half, j) * c ** (half - j) for j in range(half + 1)],
                            _WORD))
        half *= 2
    return tuple(powers)


def _shift_level(packed, half, blocks, power):
    # one word level on a packed vector of `blocks` blocks of 2 * half
    # slots: every block lo + x^half hi becomes lo + power * hi
    half_bytes = half * _WORD
    low_mask = int.from_bytes((b"\xff" * half_bytes + bytes(half_bytes)) * blocks, "little")
    return ((packed >> 8 * half_bytes) & low_mask) * power + (packed & low_mask)


def _reduce(x, bits, modulus, evens, ones):
    # every slot of `bits` bits, each below 2^bits, reduced mod modulus.
    # Barrett: q = floor(x mu / 2^bits), mu = floor(2^bits / m), is floor(x / m)
    # or one less, so x - q m is below 2m.  x mu < 2^(2 bits) needs two slots,
    # so the even slots (`evens`) and then the odd ones take the product with
    # the slot above them empty
    mu = (1 << bits) // modulus
    low, high = (part - (part * mu >> bits & evens) * modulus
                 for part in (x & evens, x >> bits & evens))
    x = low + (high << bits)
    # below 2m: x + 2^t - m, with 2^t > m, stays below 2^(t+1) <= 2^bits and
    # has bit t set exactly when x >= m (`ones` has bit 0 of every slot)
    t = modulus.bit_length()
    return x - (x + ((1 << t) - modulus) * ones >> t & ones) * modulus


def poly_taylor_shift(f, c, modulus):
    """Coefficients of f(x + c) mod modulus, as many as f has.

    Level k cuts the vector into blocks of 2^(k+1) coefficients, each a
    low half lo and a high half hi that are already shifted, and replaces
    every block by lo + (x + c)^(2^k) * hi.  All the products of one level
    are a single Kronecker product: the packed vector with its low halves
    masked out, times (x + c)^(2^k).

    A shift by c < 0 runs between two sign flips, f(x + c) = g(-x) for g
    the shift of f(-x) by -c, so that every power has nonnegative
    coefficients over Z.  The low levels at which a block shifted over Z
    fits one word per slot then run on one packed integer, with no
    reduction between them.  The levels above run on the even and the odd
    entries, each packed once at the slot width of the top level's
    product, by two-point products and a packed reduction between levels,
    and are unpacked once.
    """
    size = len(f)
    out = [x % modulus for x in f]
    flip, c = c < 0, abs(c) % modulus
    if not c:
        return out
    if flip:
        out[1::2] = [-x % modulus for x in out[1::2]]
    half, level = 1, 0
    words = _word_powers(c, modulus)[:max(size - 1, 0).bit_length()]
    if words:
        block = 1 << len(words)
        out.extend([0] * (-len(out) % block))
        packed = _pack(out, _WORD)
        for power in words:
            packed = _shift_level(packed, half, len(out) // (2 * half), power)
            half, level = 2 * half, level + 1
        out = _unpack(packed, size, _WORD, modulus)
    if half < size:
        out = _shift_levels(out, c, half, level, modulus)
    if flip:
        out[1::2] = [-x % modulus for x in out[1::2]]
    return out


def _shift_levels(out, c, half, level, modulus):
    # the levels from `half` up on the residues `out`, kept as two packed
    # streams of its even and odd entries.  After level k a slot holds
    # lo + [x^j] (x + c)^(2^k) hi <= (m - 1) + 2^k (m - 1)^2, below the top
    # level's bound (top + 1)(m - 1)^2 < 2^bits, so one width serves all
    size = len(out)
    top = 1 << (size - 1).bit_length() - 1
    width = _slot_bytes(top + 1, modulus)
    bits, count = 8 * width, (size + 1) // 2
    even, odd = _pack(out[0::2], width), _pack(out[1::2], width)
    if 2 * half < size:
        # masks of the reductions, which run only between two levels
        evens = int.from_bytes((b"\xff" * width + bytes(width)) * (count // 2 + 1), "little")
        ones = int.from_bytes((b"\x01" + bytes(width - 1)) * count, "little")
    while True:
        if half == 1:
            # blocks of two: lo is an even entry and hi the odd one above it
            lo, hi = (even, 0), (odd, 0)
        else:
            # half a block is half // 2 slots of each stream
            span = half // 2 * width
            mask = int.from_bytes((b"\xff" * span + bytes(span)) * -(-count // half),
                                  "little")
            lo = (even & mask, odd & mask)
            hi = (even >> 8 * span & mask, odd >> 8 * span & mask)
        shifted = hi[1] << bits // 2
        even, odd = _ks2((hi[0] + shifted, hi[0] - shifted),
                         _shift_power(c, level, modulus, width)[1], bits // 2)
        even, odd = lo[0] + even, lo[1] + odd
        half, level = 2 * half, level + 1
        if half >= size:
            # the shift keeps the degree, so the slots from `size` on are all 0
            return _interleave(even, odd, size, width, modulus)
        even = _reduce(even, bits, modulus, evens, ones)
        odd = _reduce(odd, bits, modulus, evens, ones)
