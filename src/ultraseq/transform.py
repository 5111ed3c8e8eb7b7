"""Sequence transformations: the six-slot map H, its specialization O,
the classical linear map G with its eigen-recurrence, and the shift L.

Each map is one column pass over the input positions ``seqcore._margins``
gives, then one ``seqcore._assemble``, and computes exactly those output
positions whose input references are defined.  A periodic tail maps to a
tail of the same period: ``_assemble`` compares the margin's two outermost
periods, which read only the tail, and keeps one if they agree; otherwise
the output side becomes undefined.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from .errors import InvalidConfig, OutOfDomain, WrongInitialCount
from .seqcore import (
    SeqWindow,
    _assemble,
    _class_prefix,
    _column,
    _exact,
    _margins,
    check_window_len,
    o_successors,
    sign,
)

SlotFn = Callable[[int, int], int]


#: The six slot functions of the general transformation, each called with
#: (position p, value u_p) and returning an integer: nu_{p+1} is the sum
#: over i in [f1, f2) of f3 * u_{p*f4 - i*f5*sign(u_p)} + f6.  A periodic
#: tail maps exactly only if no slot reads p and f4 is 1; the margin reads
#: f1, f2 and f5 at p = 0 on the tails' values.
HParams = namedtuple("HParams", "f1 f2 f3 f4 f5 f6")


def _const(c: int) -> SlotFn:
    return lambda p, u: c


#: slots realizing O within the general formula: the index expression holds
#: the direction sign(u_p), so f5 = 1 gives the summand index p - i*sign(u_p)
O_SLOTS = HParams(
    f1=_const(0),
    f2=lambda p, u: abs(u),
    f3=_const(1),
    f4=_const(1),
    f5=_const(1),
    f6=_const(1),
)


GParams = namedtuple("GParams", "p q")


# --- the transformations ------------------------------------------------------

def apply_H(h: HParams, w: SeqWindow) -> SeqWindow:
    """The six-slot map: the heads from one slice of the margin range, and
    each sum C(y) - C(x), C the signed prefix sum (``_class_prefix``, one
    build per call) of the residue class mod |s| that holds the summands of
    a step s = f5*sign(u) != 0; s = 0 sums f2 - f1 copies of u[p*f4].  The
    margin reaches |f5|*max(|f1|, |f2|), slots read at p = 0 on the tails'
    values.  A tail is exact only if no slot reads p and f4 is 1."""
    f1, f2, f3, f4, f5, f6 = h.f1, h.f2, h.f3, h.f4, h.f5, h.f6
    a0, b0 = _margins(w, lambda u: abs(f5(0, u)) * max(abs(f1(0, u)),
                                                       abs(f2(0, u))))
    G, strided = _class_prefix(w, 1, 0), {}
    col: list[int | None] = []
    for p, u in zip(range(a0, b0 + 1), w.slice(a0, b0)):
        a, b = f1(p, u), f2(p, u)
        if b < a:
            raise InvalidConfig(f"slot bound f2 < f1 at position {p}")
        c, d, e, f = f3(p, u), f4(p, u), f5(p, u), f6(p, u)
        step, base = e * sign(u), p * d
        s = abs(step)
        try:
            if a == b:
                total = 0
            elif s == 0:
                total = (b - a) * (G(base + 1) - G(base))
            else:  # base - i*step for i in [a, b): class j*s + base % s
                C = G if s == 1 else strided.get(k := (s, base % s)) or \
                    strided.setdefault(k, _class_prefix(w, *k))
                j = base // s
                total = (C(j - a + 1) - C(j - b + 1) if step > 0
                         else C(j + b) - C(j + a))
            col.append(c * total + f * (b - a))
        except OutOfDomain:
            col.append(None)
    return _assemble(w, col, a0, 1)


def apply_O(w: SeqWindow) -> SeqWindow:
    """The self-generation map: each output value is the one the equation
    gives from its predecessor's position, all of them from one
    ``o_successors`` pass over the margin range, O(1) per position."""
    a, b = _margins(w, abs)
    return _assemble(w, o_successors(w, a, b), a, 1)


def apply_G(g: GParams, w: SeqWindow) -> SeqWindow:
    """The classical linear map: g.p * u[x] - g.q * u[x - 1] at x + 1,
    which reads one position back whatever u[x] holds."""
    a, b = _margins(w, lambda u: 1)
    col = w.slice(a, b)
    return _assemble(w, [g.p * y - g.q * x for x, y in zip(col, col[1:])],
                     a + 1, 1)


def shift_L(w: SeqWindow) -> SeqWindow:
    """Index shift by +1; extension rules are carried along."""
    return SeqWindow(w.lo + 1, w.values, left=w.left, right=w.right)


def recurrence_1_3_extend(g: GParams, r: int, initial: list[int],
                          n: int) -> SeqWindow:
    """Extend 2r initial values by the degree-2r eigen-recurrence of G^r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if len(initial) != 2 * r:
        raise WrongInitialCount(
            f"expected {2 * r} initial values, got {len(initial)}")
    if n < 0:
        raise ValueError("n must be >= 0")
    check_window_len(2 * r + n)
    coeffs = [(-1) ** i * math.comb(r, i) * g.p ** (r - i) * g.q ** i
              for i in range(r + 1)]
    vals = list(_exact(initial, "initial values"))
    for _ in range(n):
        vals.append(sum(coeffs[i] * vals[-r - i] for i in range(r + 1)))
    return SeqWindow(0, vals)


# collections.abc: typing's alias cache would pin earlier imports
Transformation = Callable[[SeqWindow], SeqWindow]


def iterate(t: Transformation, n: int, w: SeqWindow) -> SeqWindow:
    """n-fold composition; raises DomainExhausted if the computable window
    empties before n steps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for _ in range(n):
        w = t(w)
    return w


def windows_equal(a: SeqWindow, b: SeqWindow, lo: int, hi: int) -> bool:
    """Pointwise equality over [lo, hi]; undefined positions must match."""
    return _column(a, lo, hi) == _column(b, lo, hi)
