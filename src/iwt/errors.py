"""Exception taxonomy shared by all iwt modules.

Every error carries enough context (prime, level, index, ...) in its message
to locate the failing operation without a debugger.
"""


class IwtError(Exception):
    """Base class for all iwt errors."""


class MixedPrime(IwtError):
    """Operands live over different primes."""


class NotAUnit(IwtError):
    """Attempted to invert an element divisible by p."""


class NotCoprime(IwtError):
    """Argument must be coprime to p."""


class LevelMismatch(IwtError):
    """Group-algebra operands live at incompatible levels."""


class OutOfRange(IwtError):
    """Index outside the range supported at this level."""


class NotDivisible(IwtError):
    """Exact polynomial division left a nonzero remainder."""


class ZeroInput(IwtError):
    """Operation is undefined on the zero element."""


class PrecisionExhausted(IwtError):
    """Result cannot be separated from zero at the working precision."""


class PrecisionMismatch(IwtError):
    """Operands are known to different p-adic precisions."""


class RingMismatch(IwtError):
    """Eisenstein-ring operands live in different rings."""


class InvalidK(IwtError):
    """k is not the minimal index for the given valuation."""


class InvalidParams(IwtError):
    """Parameters are missing or inconsistent: Kurihara terms, or command
    flags against each other or against the input."""


class SchemaError(IwtError):
    """Input document does not match the expected schema."""


class MissingSymbol(IwtError):
    """Modular-symbol table lacks a required entry."""


class NonIntegralDenominator(IwtError):
    """A modular-symbol value is not p-integral."""


class SporadicCase(IwtError):
    """The growth comparison is indeterminate for these invariants."""


class TieCase(IwtError):
    """Both growth scores are equal; the selection rule is undefined."""


class ExcludedCase(IwtError):
    """The decision table excludes this combination of invariants."""


class Unstable(IwtError):
    """Invariants did not stabilize across the supplied levels."""

    def __init__(self, message, levels=None):
        super().__init__(message)
        self.levels = levels
