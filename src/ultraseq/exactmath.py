"""Exact arithmetic: Fibonacci/Lucas numbers and the quadratic field Q(sqrt 5).

Python integers are already arbitrary precision, so they serve directly as
the big-integer type.  ``QuadExt`` represents an exact element of Q(sqrt 5)
by three plain integers (p, q, d), meaning (p + q*sqrt 5)/d, kept canonical
(d > 0, gcd(p, q, d) = 1); each field operation is a few integer products
and one gcd.  Its rational components a = p/d and b = q/d are available as
``fractions.Fraction`` properties.  ``QuadExt`` is the workhorse behind every
golden-ratio closed form; ``closed_form_affine_row`` evaluates a whole row of
one in a single pass of integer additions.  ``fixed_point`` renders an exact
rational as decimal text.  No floating point is used anywhere in this module
except ``float(QuadExt)``, for display.
"""
from __future__ import annotations

import math
from fractions import Fraction

Scalar = int | Fraction


class QuadExt:
    """An element a + b*sqrt(5), stored as integers (p, q, d) meaning
    (p + q*sqrt 5)/d with d > 0 and gcd(p, q, d) = 1.

    The form is canonical, so equality and hashing are componentwise.
    Instances are immutable.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a: Scalar, b: Scalar = 0):
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)
        # both components are in lowest terms, so gcd(p, q, d) = 1 already
        _set_p(self, a.numerator * (d // a.denominator))
        _set_q(self, b.numerator * (d // b.denominator))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def __reduce__(self):
        return QuadExt, (self.a, self.b)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    @staticmethod
    def _coerce(other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.d == o.d:
            return _canonical(self.p + o.p, self.q + o.q, self.d)
        return _canonical(self.p * o.d + o.p * self.d,
                          self.q * o.d + o.q * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _canonical(self.p * o.p + 5 * self.q * o.q,
                          self.p * o.q + self.q * o.p, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # d / (p + q sqrt 5) = d (p - q sqrt 5) / (p^2 - 5 q^2); the norm is
        # zero only at zero, since sqrt 5 is irrational
        norm = self.p * self.p - 5 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("zero element of Q(sqrt 5)")
        return _canonical(self.d * self.p, -self.d * self.q, norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "QuadExt":
        return quad_pow(self, n)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_integer(self) -> bool:
        return self.q == 0 and self.d == 1

    def as_integer(self) -> int:
        """Return the value as a plain int; raises if it is not one."""
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.p

    def __float__(self) -> float:
        return self.p / self.d + self.q / self.d * 5 ** 0.5

    def __repr__(self) -> str:
        return f"QuadExt({self.a}, {self.b})"


_set_p, _set_q, _set_d = (QuadExt.p.__set__, QuadExt.q.__set__,
                          QuadExt.d.__set__)


def _raw(p: int, q: int, d: int) -> QuadExt:
    """(p + q*sqrt 5)/d from components already in canonical form."""
    x = object.__new__(QuadExt)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _canonical(p: int, q: int, d: int) -> QuadExt:
    """(p + q*sqrt 5)/d brought to canonical form, d != 0."""
    if d < 0:
        p, q, d = -p, -q, -d
    g = math.gcd(d, p, q)  # d first: it is the small one
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _raw(p, q, d)


#: golden ratio (1 + sqrt 5) / 2
PHI = QuadExt(Fraction(1, 2), Fraction(1, 2))
#: conjugate root 1 - phi = (1 - sqrt 5) / 2
PSI = QuadExt(Fraction(1, 2), Fraction(-1, 2))
ONE = QuadExt(1)
SQRT5 = QuadExt(0, 1)


def quad_pow(x: QuadExt, n: int) -> QuadExt:
    """Exact n-fold product by repeated squaring, n >= 0."""
    if n < 0:
        raise ValueError("quad_pow requires n >= 0")
    result = ONE
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for n >= 0, by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


def fib(n: int) -> int:
    """Fibonacci number, any integer index (backward recurrence for n < 0)."""
    if n >= 0:
        return _fib_pair(n)[0]
    f = _fib_pair(-n)[0]
    return f if (-n) % 2 == 1 else -f


def lucas(n: int) -> int:
    """Lucas number, any integer index (L_0 = 2, L_1 = 1)."""
    # L_n = F_{n-1} + F_{n+1}, valid for every integer n
    return fib(n - 1) + fib(n + 1)


def two_point_constants(lambda_e: int, lambda_e1: int) -> tuple[QuadExt, QuadExt]:
    """Solve for (beta, gamma) with beta + gamma = lambda_e and
    beta*phi + gamma*psi = lambda_e1, exactly in Q(sqrt 5)."""
    beta = (QuadExt(lambda_e1) - PSI * lambda_e) / SQRT5
    gamma = (PHI * lambda_e - QuadExt(lambda_e1)) / SQRT5
    return beta, gamma


def closed_form_affine_row(a0: int, a1: int, eps: int, lo: int,
                           hi: int) -> list[int]:
    """Terms lo..hi of L_0 = a0, L_1 = a1, L_n = L_{n-1} + L_{n-2} + eps.

    Evaluated exactly through Q(sqrt 5) as beta*phi^n + gamma*psi^n - eps:
    the shifted sequence L_n + eps satisfies the pure two-term recurrence,
    so the irrational part cancels.  The constants and x = beta*phi^lo,
    y = gamma*psi^lo are ``QuadExt`` values computed once; the row then
    carries the numerators (p, q) of x and y, meaning (p + q*sqrt 5)/D, over
    one denominator D = 2*dx*dy.  A step by phi is ((p + 5q)/2, (p + q)/2),
    one by psi ((p - 5q)/2, (q - p)/2); both halvings are exact shifts,
    since the doubled starting numerators have p = q (mod 2) and each step
    keeps it.  So each index costs a few big-integer additions and one
    ``divmod`` by the small D, with no gcd and no ``QuadExt``.  Every term
    is checked: a nonzero sqrt 5 part or a remainder raises ValueError.
    """
    if not 0 <= lo <= hi:
        raise ValueError("closed_form_affine_row requires 0 <= lo <= hi")
    beta, gamma = two_point_constants(a0 + eps, a1 + eps)
    x = beta * quad_pow(PHI, lo)
    y = gamma * quad_pow(PSI, lo)
    den = 2 * x.d * y.d
    xp, xq = 2 * x.p * y.d, 2 * x.q * y.d
    yp, yq = 2 * y.p * x.d, 2 * y.q * x.d
    row = []
    for n in range(lo, hi + 1):
        value, rest = divmod(xp + yp, den)
        if rest or xq + yq:
            raise ValueError(f"term {n} of the closed form is not an "
                             "integer")
        row.append(value - eps)
        xp, xq = (xp + 5 * xq) >> 1, (xp + xq) >> 1
        yp, yq = (yp - 5 * yq) >> 1, (yq - yp) >> 1
    return row


def closed_form_affine(a0: int, a1: int, eps: int, n: int) -> int:
    """n-th term of L_0 = a0, L_1 = a1, L_n = L_{n-1} + L_{n-2} + eps: the
    one-term row of ``closed_form_affine_row``."""
    return closed_form_affine_row(a0, a1, eps, n, n)[0]


def fixed_point(x: Scalar, places: int) -> str:
    """``x`` as decimal text with ``places`` digits after the point, rounded
    half to even on the exact value by one integer ``divmod``, so no size
    overflows and the Python-level calls do not depend on the rounding."""
    den = x.denominator
    n, rest = divmod(x.numerator * 10 ** places, den)
    if 2 * rest > den or 2 * rest == den and n & 1:  # half to even
        n += 1
    q, r = divmod(abs(n), 10 ** places)
    return "-" * (n < 0) + str(q) + (f".{r:0{places}d}" if places else "")
