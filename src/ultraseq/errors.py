"""Exception types shared across the package, and the cut that keeps an
echoed input short in their messages."""
import math
import reprlib


class _Brief(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # past the digits ``str`` converts: count them
            d = int(math.log10(abs(x))) + 1  # a float estimate, settled
            d += (abs(x) >= 10 ** d) - (abs(x) < 10 ** (d - 1))
            return f"<a {d}-digit integer>"


#: the most characters an echoed input keeps
_WIDTH = 80
_REPR = _Brief()
_REPR.maxstring = _REPR.maxlong = _WIDTH


def clip(text: str) -> str:
    """``text`` as is when it has at most ``_WIDTH`` characters, else its
    two ends around "...", ``_WIDTH`` characters in all."""
    if len(text) <= _WIDTH:
        return text
    head = (_WIDTH - 3) // 2
    return f"{text[:head]}...{text[len(text) - (_WIDTH - 3 - head):]}"


def brief(value) -> str:
    """``repr(value)`` for a one-line error message: ``reprlib`` keeps the
    ends of a long string or integer and the first items of a long or deep
    container, an integer too long for ``str`` is named by its digit count,
    and the text is clipped to ``_WIDTH`` characters."""
    return clip(_REPR.repr(value))


class UltraseqError(Exception):
    """Base class for all ultraseq errors."""


class OutOfDomain(UltraseqError):
    """An index was requested outside a window's defined domain."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"index {index} is outside the defined domain")


class NonDeterministic(UltraseqError):
    """A head value does not determine its successor.

    Carries the sum-zero constraint the successor region must satisfy:
    the values at positions ``constraint_lo .. constraint_hi`` (inclusive)
    must sum to ``constraint_sum``.  An empty range (lo > hi) means the
    successor is entirely unrestricted.
    """

    def __init__(self, position: int, head: int):
        self.position = position
        self.head = head
        self.constraint_lo = position + 2
        self.constraint_hi = position - 1 - head
        self.constraint_sum = 0
        if self.constraint_lo > self.constraint_hi:
            detail = "successor is unrestricted"
        else:
            detail = (
                f"values at [{self.constraint_lo}, {self.constraint_hi}] "
                f"must sum to {self.constraint_sum}"
            )
        super().__init__(
            f"head {head} at position {position} does not determine its "
            f"successor ({detail})"
        )


class WindowTooSmall(UltraseqError):
    """The window does not hold enough values for the operation."""


class NotPeriodic(UltraseqError):
    """The window is not periodic with the claimed period."""

    def __init__(self, period: int):
        self.period = period
        super().__init__(f"window is not periodic with period {period}")


class IncompatibleShape(UltraseqError):
    """Windows cannot be combined as requested."""


class InvalidConfig(UltraseqError):
    """A family configuration violates its invariants."""


class TooLarge(UltraseqError):
    """The request exceeds a configured size guard."""


class IdentityViolation(UltraseqError):
    """A checked identity failed; carries a counterexample message."""


class DomainExhausted(UltraseqError):
    """Iterated transformation ran out of computable positions."""


class WrongInitialCount(UltraseqError):
    """A recurrence was given the wrong number of initial values."""


class IndexUnderflow(UltraseqError):
    """A self-referential recursion reached an index below its seeds."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"recursion reached invalid index {index}")


class DegenerateBase(UltraseqError):
    """The growth model's base value is 0: the row has no growth to fit."""
