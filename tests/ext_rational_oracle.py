"""Q with infinity as it stood before its order came from one key: the oracle.

`ExtRational` here compares through `_cmp_key` and hand-written
`__le__`/`__gt__`/`__ge__`, takes minima by the hand loop `ext_min`, and
returns infinity for infinity - infinity.  `tropical_mul` is the min-plus
product of 2x2 `ValMatrix`es written with `ext_min`.  The differential
tests in test_ext_rational_oracle.py hold `iwt.padic_core` to this code.
"""

from fractions import Fraction

from iwt.errors import OutOfRange, ZeroInput


class ExtRational:
    """A rational number or +infinity, closed under + and min."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        # value None encodes infinity
        self.value = None if value is None else Fraction(value)

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinite(self):
        return self.value is None

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExtRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtRational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return ExtRational.infinity()
        return ExtRational(self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_infinite:
            return ExtRational.infinity()
        if other.is_infinite:
            raise OutOfRange("ExtRational subtraction: cannot subtract infinity")
        return ExtRational(self.value - other.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            if (self.value == 0) or (other.value == 0):
                raise ZeroInput("ExtRational product: 0 * infinity is undefined")
            return ExtRational.infinity()
        return ExtRational(self.value * other.value)

    __rmul__ = __mul__

    def _cmp_key(self, other):
        other = self._coerce(other)
        if other is None:
            raise TypeError("cannot compare")
        a = self.value if not self.is_infinite else None
        b = other.value if not other.is_infinite else None
        return a, b

    def __lt__(self, other):
        a, b = self._cmp_key(other)
        if a is None:
            return False
        if b is None:
            return True
        return a < b

    def __le__(self, other):
        return self < other or self == other

    def __gt__(self, other):
        return not (self <= other)

    def __ge__(self, other):
        return not (self < other)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "oo" if self.is_infinite else str(self.value)


def ext_min(*values):
    values = [v if isinstance(v, ExtRational) else ExtRational(v) for v in values]
    out = values[0]
    for v in values[1:]:
        if v < out:
            out = v
    return out


class ValMatrix:
    """A 2x2 matrix of extended rationals under min-plus multiplication."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(v if isinstance(v, ExtRational) else ExtRational(v)
                                   for v in row) for row in entries)


def tropical_mul(a, b):
    """(i,k) entry is min_j (a[i][j] + b[j][k])."""
    out = []
    for i in range(2):
        row = []
        for k in range(2):
            row.append(ext_min(a.entries[i][0] + b.entries[0][k],
                               a.entries[i][1] + b.entries[1][k]))
        out.append(row)
    return ValMatrix(out)
