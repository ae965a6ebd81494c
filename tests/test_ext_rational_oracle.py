"""Differential tests: `iwt.padic_core`'s Q with infinity against the oracle.

The package's `ExtRational` orders by one key under `total_ordering` and
takes minima by builtin `min`; `ext_rational_oracle` keeps the code it
replaced.  On ints, Fractions and infinity, bare or wrapped, every
arithmetic operation, comparison, hash, minimum and min-plus product must
agree, except infinity - infinity, which the package refuses.
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

import ext_rational_oracle as old
from iwt import padic_core as new
from iwt.errors import OutOfRange

# None stands for infinity, which only exists wrapped
POINTS = st.integers(-30, 30) | st.fractions(max_denominator=12) | st.none()
OPERANDS = st.tuples(POINTS, st.booleans())
OPERATORS = [operator.add, operator.sub, operator.mul, operator.lt, operator.le,
             operator.gt, operator.ge, operator.eq, operator.ne]


def operand(cls, point, wrapped):
    return cls(point) if wrapped or point is None else point


def outcome(fn, *args):
    """What fn(*args) does: the exception type it raises, or its result
    with an extended rational read as its value (None for infinity)."""
    try:
        result = fn(*args)
    except Exception as exc:
        return "raises", type(exc)
    if isinstance(result, (new.ExtRational, old.ExtRational)):
        return "ext", result.value
    return type(result), result


@settings(max_examples=400, deadline=None)
@given(OPERANDS, OPERANDS, st.sampled_from(OPERATORS))
def test_operators_agree_with_the_oracle(left, right, op):
    if not (left[1] or right[1] or None in (left[0], right[0])):
        right = (right[0], True)
    got = outcome(op, operand(new.ExtRational, *left), operand(new.ExtRational, *right))
    want = outcome(op, operand(old.ExtRational, *left), operand(old.ExtRational, *right))
    if op is operator.sub and left[0] is None and right[0] is None:
        assert want == ("ext", None) and got == ("raises", OutOfRange)
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(st.lists(OPERANDS, min_size=1, max_size=4))
def test_min_and_hash_agree_with_the_oracle(values):
    got = [operand(new.ExtRational, *v) for v in values]
    want = [operand(old.ExtRational, *v) for v in values]
    assert new.ExtRational(min(got)).value == old.ext_min(*want).value
    for point, _ in values:
        assert hash(new.ExtRational(point)) == hash(old.ExtRational(point))
        assert new.ExtRational(new.ExtRational(point)) == new.ExtRational(point)


MATRICES = st.lists(st.lists(POINTS, min_size=2, max_size=2), min_size=2, max_size=2)


@settings(max_examples=200, deadline=None)
@given(MATRICES, MATRICES)
def test_tropical_mul_agrees_with_the_oracle(a, b):
    got = new.tropical_mul(new.ValMatrix(a), new.ValMatrix(b))
    want = old.tropical_mul(old.ValMatrix(a), old.ValMatrix(b))
    assert [[e.value for e in row] for row in got.entries] == \
        [[e.value for e in row] for row in want.entries]
