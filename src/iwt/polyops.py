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
* the division by X^d - 1 (`poly_divmod_monic`) is the suffix sums
  q_t = num_(t+d) + q_(t+d), formed on one packed integer by doubling
  shifted adds (`_suffix_divmod`): after the add at stride 2^r d every
  slot holds 2^(r+1) terms of its sum, so ceil(log2(length / d)) adds make
  them all, and the slots below d are the remainder.  Every division of
  the package is by Phi_{p^i}, one step `_phi_divide`: the product by
  X^s - 1, s = p^(i-1), a shift minus the packed vector, then that
  division by X^(ps) - 1.  The peel (`poly_phi_peel`) and the repeated
  division of a vanishing order (`poly_phi_order`) keep their vectors
  packed from the first division to the last, and `poly_phi_divide`
  packs and unpacks one division; there is no list entry.

The kernels above linear cost are Kronecker products (vectors packed
into big integers with carry-free slots): the product itself and the
Taylor shift f(x) -> f(x +- 1) by blocks that double each level (von zur
Gathen & Gerhard, "Fast algorithms for Taylor shifts and certain
difference equations", 1997), the change between the group basis and
T-coefficients, and between the zeta-basis of `cyclotomic_ext` and its
pi-coefficients: the only shift the package makes.  It runs by +1 (by -1
between two sign flips), so its low levels can keep exact integer slots
of one word on one packed integer, and reduce once.

Every level of the shift above its word levels, and every product of at
least 255 coefficients, is a two-point Kronecker product (Harvey,
"Faster polynomial multiplication via multipoint Kronecker
substitution", 2009): each factor is evaluated at +2^(W/2) and at
-2^(W/2), half a slot of W bits apart, from its even and its odd entries
packed at full width; the two products, each half as long as one product
at W-bit slots, give the even coefficients by their half-sum and the odd
ones by their half-difference, again at W-bit slots.  The only bound is
the usual one: every coefficient of the product below 2^W.  A shorter
product is one Kronecker product, whose single packing and unpacking
cost less there.

Slot layout: a slot holds the exact bound of one output coefficient,
terms*(m-1)^2 for a product and sum(sparse)*(m-1) for the sparse
multiply.  The shift's levels above its word levels keep one width, that
of its top level's product, (top+1)*(m-1)^2 for blocks of 2*top: they run
on its even and odd entries packed once and unpacked once.  A level
leaves lo + (x+1)^half * hi <= (m-1) + half*(m-1)^2 in a slot, within
that bound; a packed reduction brings every slot below m again before
the next level: one Barrett round on the even and then the odd slots,
each with the empty slot above it to hold its product of twice the
width, leaves a slot below 2m, and one conditional subtraction of m
leaves it below m.

A division by Phi_{p^i} has one slot rule (`_phi_width`): its numerator
u (X^s - 1) + offset has slots in [0, 2 offset] when `offset`, a
multiple of m, bounds every slot of u and every difference of two in
absolute value, and a suffix sum has at most ceil((L + s)/d) terms for L
slots of u, so a slot holds 2 offset ceil((L + s)/d), with a bit to
spare above m for the packed reduction.  Residues take offset m, and the
peel k = (|ap| + 1) m for ap centred (ap y - x has slots, and
differences of two, below k in absolute value), at its widest division,
s = 1 and d = p, and at m^2 when eps_p is not 1, for the quotient times
eps_p^(-1).  The packed reduction checks the remainder slots and brings
the quotient below m, so a peel unpacks its pair once, with no per-slot
reduction.

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
from itertools import compress
from math import comb

from .errors import NotDivisible, OutOfRange


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


def _unpack(value, count, width, modulus=None):
    # the `count` slots of `value`, each reduced mod `modulus`, or as they
    # stand when there is none (slots already below the modulus)
    raw = value.to_bytes(count * width, "little")
    if width == _WORD:
        words = _words(raw)
        return words.tolist() if modulus is None else [c % modulus for c in words]
    if width > 2 * _WORD:
        slots = (int.from_bytes(raw[i:i + width], "little")
                 for i in range(0, count * width, width))
        return list(slots) if modulus is None else [c % modulus for c in slots]
    # slot i = high_i * 2^64 + low_i: gather both words of every slot
    low, high = bytearray(count * _WORD), bytearray(count * _WORD)
    for j in range(_WORD):
        low[j::_WORD] = raw[j::width]
    for j in range(width - _WORD):
        high[j::_WORD] = raw[_WORD + j::width]
    if modulus is None:
        return [h << 8 * _WORD | lo for h, lo in zip(_words(high), _words(low))]
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


class _Packed:
    # a vector of len() nonnegative slots of `width` bytes, packed into the
    # integer `value`: the numerator that `_phi_divide` hands to
    # `poly_divmod_monic`
    __slots__ = ("value", "count", "width")

    def __init__(self, value, count, width):
        self.value, self.count, self.width = value, count, width

    def __len__(self):
        return self.count


@lru_cache(maxsize=64)
def _binomial(d):
    # X^d - 1, the divisor of `poly_divmod_monic`
    return (-1,) + (0,) * (d - 1) + (1,)


def poly_divmod_monic(num, den, modulus):
    """Quotient and remainder of the packed `num` (`_Packed`, slots that
    hold its largest suffix sum with a bit to spare above m) by den =
    X^d - 1 (`_binomial(d)`), d >= 1, exact over Z/p^M: the suffix sums of
    `_suffix_divmod`.  Both come back packed, reduced below m; the
    quotient, of len(num) - d slots, only when the remainder is 0 (else
    None)."""
    d, length, width = len(den) - 1, num.count, num.width
    bits = 8 * width
    quot, rem = _suffix_divmod(num.value, length, d, bits)
    rem = _reduce(rem, bits, modulus, *_masks(d, width))
    return None if rem else _reduce(quot, bits, modulus, *_masks(length, width)), rem


def _suffix_divmod(num, length, d, bits):
    # num = q (X^d - 1) + r for a packed vector of `length` nonnegative slots
    # of `bits` bits: q_t = num_(t+d) + q_(t+d) and r_t = num_t + q_t, so both
    # are the full sums U_j = sum_(k >= 0) num_(j + k d), of the slots from
    # d up and below d.  After the round of stride 2^r d every slot holds
    # 2^(r+1) terms of its sum, so the rounds stop at a stride of `length`.
    # The caller's slots hold the largest U_j; q and r come back unreduced
    stride = d
    while stride < length:
        num += num >> bits * stride
        stride *= 2
    return num >> bits * d, num & (1 << bits * d) - 1


def half_twist_exponent(p, i):
    """The exponent e = p^(i-1)(p-1)/2 used by the completed variant, i >= 1."""
    if i < 1:
        raise OutOfRange(f"the completed variant needs i >= 1, got i={i}")
    return p ** (i - 1) * (p - 1) // 2


def _phi_shape(p, i):
    # Phi_{p^i}(X) (X^s - 1) = X^d - 1 for s = p^(i-1), d = p s; for i = 0
    # the divisor is X - 1 itself, which s = 0 marks
    if i < 0:
        raise OutOfRange(f"Phi_{{p^i}} needs i >= 0, got i={i}")
    return (0, 1) if i == 0 else (p ** (i - 1), p ** i)


def _phi_width(count, s, d, offset):
    # the slot rule of `_phi_divide` (see the module docstring)
    return _width(2 * offset * -(-(count + s) // d))


def _phi_divide(packed, count, s, d, width, offset, modulus):
    # one division by Phi_{p^i} of the packed vector u of `count` slots:
    # u (X^s - 1) plus `offset` in every slot, divided by X^d - 1 (u itself
    # by X - 1 when s = 0); the packed quotient, or None for a remainder
    if s:
        packed = (packed << 8 * width * s) - packed + offset * _masks(count + s, width)[1]
    return poly_divmod_monic(_Packed(packed, count + s, width), _binomial(d), modulus)[0]


def poly_phi_divide(units, p, i, modulus):
    """The quotient of the residue vector `units` by Phi_{p^i}(X), X - 1
    for i = 0, over Z/modulus: len(units) - deg Phi residues, or None when
    the division leaves a remainder."""
    s, d = _phi_shape(p, i)
    count = len(units)
    width = _phi_width(count, s, d, modulus)
    quot = _phi_divide(_pack(units, width), count, s, d, width, modulus, modulus)
    return None if quot is None else _unpack(quot, count + s - d, width)


def poly_phi_order(units, p, i, modulus):
    """How often Phi_{p^i}(X), X - 1 for i = 0, divides the residue vector
    `units` over Z/modulus: exact divisions until one leaves a remainder or
    the quotient is 0, all on one packed integer."""
    s, d = _phi_shape(p, i)
    count = len(units)
    width = _phi_width(count, s, d, modulus)
    poly, order = _pack(units, width), 0
    while True:
        poly = _phi_divide(poly, count, s, d, width, modulus, modulus)
        if poly is None:
            return order
        count, order = count + s - d, order + 1
        if not poly:
            return order


def poly_phi_peel(x, y, ap, eps_inv, p, n, hatted, modulus):
    """The pair (Theta_n, Theta_{n-1}), residue vectors of p^n and p^(n-1)
    entries, peeled into the terminal (sharp, flat) pair, p^n residues each.

    (x, y) starts as (Theta_n, X^e Theta_{n-1}), and each index i = n-1,
    ..., 1 makes it (y, u), u = X^e (ap y - x) eps_inv / Phi_{p^i}(X), the
    exact quotient; e is `half_twist_exponent(p, i)` of the step's index
    when hatted, else 0.  Raises NotDivisible when a division leaves a
    remainder mod `modulus`.

    Both vectors stay packed from the first step to the last, at the slot
    bound of the module docstring, with ap centred; the quotient is
    reduced below m before eps_inv (a unit: the division by the monic Phi
    commutes with it) multiplies it.
    """
    size, half = len(x), modulus // 2
    ap, eps_inv = (ap + half) % modulus - half, eps_inv % modulus
    k = (abs(ap) + 1) * modulus
    width = max(_phi_width(size, 1, p, k), _width(modulus ** 2 if eps_inv != 1 else 0))
    bits = 8 * width
    x, y = _pack(x, width), _pack(y, width) << bits * (half_twist_exponent(p, n) if hatted else 0)
    for i in range(n - 1, 0, -1):
        s = p ** (i - 1)
        u = _phi_divide(ap * y - x, size, s, p * s, width, k, modulus)
        if u is None:
            raise NotDivisible(f"division by Phi_{{p^{i}}}: remainder is nonzero "
                               f"at working precision")
        if eps_inv != 1:
            u = _reduce(u * eps_inv, bits, modulus, *_masks(size + s, width))
        x, y = y, u << bits * (half_twist_exponent(p, i) if hatted else 0)
    return _unpack(x, size, width), _unpack(y, size, width)


@lru_cache(maxsize=None)
def _shift_power(level, modulus, width):
    # (x + 1)^(2^level) mod modulus, the square of the level below, and its
    # values at +-2^(4 width) for the two-point product at slots of `width`
    power = (1, 1)
    if level:
        below = _shift_power(level - 1, modulus, width)[0]
        power = tuple(poly_mul(below, below, modulus))
    return power, _evaluate(power, width)


@lru_cache(maxsize=None)
def _word_powers(modulus):
    # (x + 1)^(2^k) over Z, packed in words, for the low levels k at which
    # the exact bound of a shifted block of 2^(k+1) residues fits one word,
    # so that those levels need no reduction between them.  Slot j of a
    # block of 2h gains sum_(i < 2h) C(i, j) = C(2h, j + 1) <= C(2h, h) per
    # unit of each residue (the hockey-stick identity)
    powers, half = [], 1
    while (modulus - 1) * comb(2 * half, half) >> 8 * _WORD == 0:
        powers.append(_pack([comb(half, j) for j in range(half + 1)], _WORD))
        half *= 2
    return tuple(powers)


def _shift_level(packed, half, blocks, power, width):
    # one level on a packed vector of `blocks` blocks of 2 * half slots of
    # `width` bytes: every block lo + x^half hi becomes lo + power * hi
    half_bytes = half * width
    low_mask = int.from_bytes((b"\xff" * half_bytes + bytes(half_bytes)) * blocks, "little")
    return ((packed >> 8 * half_bytes) & low_mask) * power + (packed & low_mask)


@lru_cache(maxsize=64)
def _masks(count, width):
    # for `count` slots of `width` bytes: `evens`, every even slot filled,
    # and `ones`, bit 0 of every slot (the masks of `_reduce`, which also
    # serve a vector of fewer slots)
    evens = int.from_bytes((b"\xff" * width + bytes(width)) * (count // 2 + 1), "little")
    return evens, int.from_bytes((b"\x01" + bytes(width - 1)) * count, "little")


def _reduce(x, bits, modulus, evens, ones):
    # every slot of `bits` bits, each below 2^bits, reduced mod modulus; the
    # slots need a bit to spare above m, bits > t = m.bit_length().  Barrett: q = floor(x mu / 2^bits), mu = floor(2^bits / m), is floor(x / m)
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
    """Coefficients of f(x + c) mod modulus, as many as f has, for
    c = +-1 mod modulus (the change of basis X = 1 + T); any other c raises
    OutOfRange.

    Level k cuts the vector into blocks of 2^(k+1) coefficients, each a
    low half lo and a high half hi that are already shifted, and replaces
    every block by lo + (x + 1)^(2^k) * hi: one Kronecker product of the
    packed vector, its low halves masked out, by (x + 1)^(2^k).  The shift
    by -1 runs between two sign flips, f(x - 1) = g(-x) for g the shift of
    f(-x) by +1.  The low levels at which a block shifted over Z fits one
    word per slot run on one packed integer with no reduction between
    them; the levels above run on the even and the odd entries, packed
    once at the width of the top level's product, by two-point products
    and a packed reduction between levels, and are unpacked once.
    """
    if c % modulus not in (1, modulus - 1):
        raise OutOfRange(f"the Taylor shift takes c = +-1 mod {modulus}, got c={c}")
    size = len(f)
    out = [x % modulus for x in f]
    flip = c % modulus != 1
    if flip:
        out[1::2] = [-x % modulus for x in out[1::2]]
    half, level = 1, 0
    words = _word_powers(modulus)[:max(size - 1, 0).bit_length()]
    if words:
        block = 1 << len(words)
        out.extend([0] * (-len(out) % block))
        packed = _pack(out, _WORD)
        for power in words:
            packed = _shift_level(packed, half, len(out) // (2 * half), power, _WORD)
            half, level = 2 * half, level + 1
        out = _unpack(packed, size, _WORD, modulus)
    if half < size:
        out = _shift_levels(out, half, level, modulus)
    if flip:
        out[1::2] = [-x % modulus for x in out[1::2]]
    return out


def _shift_levels(out, half, level, modulus):
    # the levels from `half` up on the residues `out`, kept as two packed
    # streams of the even and odd entries.  After level k a slot holds
    # lo + [x^j] (x + 1)^(2^k) hi <= (m - 1) + 2^k (m - 1)^2, below the top
    # level's bound (top + 1)(m - 1)^2 < 2^bits, so one width serves all
    size = len(out)
    top = 1 << (size - 1).bit_length() - 1
    width = _slot_bytes(top + 1, modulus)
    bits, count = 8 * width, (size + 1) // 2
    even, odd = _pack(out[0::2], width), _pack(out[1::2], width)
    # masks of the reductions, which run only between two levels
    evens, ones = _masks(count, width)
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
                         _shift_power(level, modulus, width)[1], bits // 2)
        even, odd = lo[0] + even, lo[1] + odd
        half, level = 2 * half, level + 1
        if half >= size:
            # the shift keeps the degree, so the slots from `size` on are all 0
            return _interleave(even, odd, size, width, modulus)
        even = _reduce(even, bits, modulus, evens, ones)
        odd = _reduce(odd, bits, modulus, evens, ones)
