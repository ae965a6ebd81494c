"""Dense polynomial kernels over Z/p^M used by the group-algebra modules.

Polynomials are plain lists of integer residues, index i holding the
coefficient of the i-th power of the variable.  `iwasawa_algebra` stores
its elements in the group basis X = 1+T, where the ring relation is the
binomial X^(p^n) - 1 and every cyclotomic factor and unit power is
sparse, and `cyclotomic_ext` stores its elements in the same X = zeta, so
most of both rings runs on the linear kernels here:

* `poly_fold` reduces mod X^n - 1 by adding blocks of n coefficients;
* `poly_cyclic_mul_sparse` multiplies mod X^n - 1 by a factor with few
  nonzero coefficients, one rotation per coefficient;
* `poly_divmod_monic` divides by X^d - 1 by suffix sums.

The kernels above linear cost are Kronecker products (vectors packed
into big integers with carry-free slots): the product itself and the
Taylor shift f(x) -> f(x + c) by blocks that double each level (von zur
Gathen & Gerhard, "Fast algorithms for Taylor shifts and certain
difference equations", 1997).  The shift by +-1 is the change between
the group basis and T-coefficients, and between the zeta-basis of
`cyclotomic_ext` and its pi-coefficients.

Slot layout: a slot holds the carry-free bound terms*(m-1)^2 of one
product coefficient.  When that bound fits in 64 bits the slot is one
little-endian 8-byte word, so a whole vector moves between list and big
integer through `array("Q")` in one C-level call; on the product sizes
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
from itertools import accumulate

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


def _slot_bytes(terms, modulus):
    # a slot must hold a sum of `terms` products of residues without carrying
    # over: one word while that bound fits in 64 bits, else the narrowest byte
    # count, so that the big-integer product, the larger cost there, stays
    # short; both move through word arrays (see the module docstring)
    bits = (terms * (modulus - 1) ** 2).bit_length()
    return _WORD if bits <= 8 * _WORD else (bits + 8) // 8


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


def poly_mul(a, b, modulus):
    """Convolution of residue vectors, reduced mod modulus (no ring relation)."""
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if not a or not b:
        return []
    width = _slot_bytes(min(len(a), len(b)), modulus)
    return _unpack(_pack(a, width) * _pack(b, width), len(a) + len(b) - 1,
                   width, modulus)


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
    """dense * sparse mod (X^n - 1, modulus) for two vectors of length n.

    One rotation of dense per nonzero entry of sparse, so the cost is n
    times the number of those entries.
    """
    size = len(dense)
    out = [0] * size
    for s, c in enumerate(sparse):
        if c:
            # rotated[i] = dense[i - s mod n], the coefficients of X^s * dense
            rotated = dense[size - s:] + dense[:size - s]
            out = [a + c * b for a, b in zip(out, rotated)]
    return [a % modulus for a in out]


def poly_divmod_monic(num, den, modulus):
    """Quotient and remainder by X^d - 1, d >= 1; exact over Z/p^M.

    The quotient, of len(num) - d coefficients, is a set of suffix sums.
    Every divisor of the package is such a binomial; others raise OutOfRange.
    """
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
    # the residue class of t mod d; a class with one entry (t >= k - d) is
    # already summed.  r_t = num_t + q_t below X^d
    quot, k = num[d:], len(num) - d
    if k <= 0:
        return [], num
    for r in range(max(0, min(d, k - d))):
        quot[r::d] = list(accumulate(quot[r::d][::-1]))[::-1]
    quot = [q % modulus for q in quot]
    low = quot[:d] + [0] * (d - k)
    return quot, poly_trim([(a + b) % modulus for a, b in zip(num, low)])


@lru_cache(maxsize=None)
def _shift_power(c, level, modulus):
    # (x + c)^(2^level) mod modulus, the square of the level below, and its
    # packing at the slot width of that level
    if level:
        below = _shift_power(c, level - 1, modulus)[0]
        power = tuple(poly_mul(below, below, modulus))
    else:
        power = (c % modulus, 1)
    return power, _pack(power, _slot_bytes((1 << level) + 1, modulus))


def poly_taylor_shift(f, c, modulus):
    """Coefficients of f(x + c) mod modulus, as many as f has.

    Level k cuts the vector into blocks of 2^(k+1) coefficients, each a
    low half lo and a high half hi that are already shifted, and replaces
    every block by lo + (x + c)^(2^k) * hi.  All the products of one level
    are a single Kronecker product: the packed vector with its low halves
    masked out, times (x + c)^(2^k).
    """
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
        # the shift keeps the degree, so the slots from `size` on are all 0
        out = _unpack(high * _shift_power(c, level, modulus)[1] + (packed & low_mask),
                      size, width, modulus)
        half, level = block, level + 1
    return out
