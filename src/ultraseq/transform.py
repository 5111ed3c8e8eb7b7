"""Sequence transformations: the six-slot map H, its specialization O,
the classical linear map G with its eigen-recurrence, and the shift L.

Each application computes exactly those output positions whose input
references are defined.  A periodic tail maps to a tail of the same
period: over a margin (``seqcore._margins``) whose two outermost periods
read only the tail, ``seqcore._assemble`` compares one period with the
next and, if they agree, makes it the output's tail; otherwise the output
side becomes undefined.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidConfig, OutOfDomain, WrongInitialCount
from .seqcore import (
    SeqWindow,
    _assemble,
    _column,
    _margins,
    check_window_len,
    o_successors,
    range_sum,
    sign,
)

SlotFn = Callable[[int, int], int]


@dataclass(frozen=True)
class HParams:
    """The six slot functions of the general transformation.

    Each slot receives (position p, value u_p) and returns an integer.
    nu_{p+1} = sum over i in [f1, f2) of f3 * u_{p*f4 - i*f5*sign(u_p)} + f6.
    A periodic tail maps exactly only if no slot reads p and f4 is 1.
    """

    f1: SlotFn
    f2: SlotFn
    f3: SlotFn
    f4: SlotFn
    f5: SlotFn
    f6: SlotFn


def _const(c: int) -> SlotFn:
    return lambda p, u: c


#: slots realizing O within the general formula.  The direction factor
#: sign(u_p) is already part of the index expression, so the fifth slot is
#: the constant 1; with it the summand index is p - i*sign(u_p).
O_SLOTS = HParams(
    f1=_const(0),
    f2=lambda p, u: abs(u),
    f3=_const(1),
    f4=_const(1),
    f5=_const(1),
    f6=_const(1),
)


@dataclass(frozen=True)
class GParams:
    p: int
    q: int


# --- generic application machinery -------------------------------------------

def _apply_pointwise(w: SeqWindow,
                     compute: Callable[[int], int],
                     out_offset: int = 1) -> SeqWindow:
    """Build the output window of a shift-invariant pointwise transformation.

    ``compute(p)`` evaluates the output value at position ``p + out_offset``
    from ``w`` and raises OutOfDomain when a reference is missing.  A range
    over the cap is refused before any position of it is evaluated.
    """
    p_lo, p_hi = _margins(w)
    check_window_len(p_hi - p_lo + 1, "range")
    computed: list[Optional[int]] = []
    for p in range(p_lo, p_hi + 1):
        try:
            computed.append(compute(p))
        except OutOfDomain:
            computed.append(None)
    return _assemble(w, computed, p_lo, out_offset)


# --- the transformations ------------------------------------------------------

def apply_H(h: HParams, w: SeqWindow) -> SeqWindow:
    """The six-slot map.  When the slot step f5*sign(u) is +1 or -1 the
    summands form one contiguous range of positions, so a value is one
    ``range_sum`` in O(1); other steps sum one lookup per summand.  A tail
    is carried exactly only when no slot reads p: else the map is not
    shift-invariant, and ``_assemble``, which compares only one input period
    with the next, may keep a wrong tail."""
    def compute(p: int) -> int:
        u = w.value_at(p)
        a, b = h.f1(p, u), h.f2(p, u)
        if b < a:
            raise InvalidConfig(f"slot bound f2 < f1 at position {p}")
        c, d, e, f = h.f3(p, u), h.f4(p, u), h.f5(p, u), h.f6(p, u)
        step = e * sign(u)
        base = p * d
        if step == 1:  # indices base - a down to base - b + 1
            return c * range_sum(w, base - b + 1, base - a) + f * (b - a)
        if step == -1:  # indices base + a up to base + b - 1
            return c * range_sum(w, base + a, base + b - 1) + f * (b - a)
        return sum(c * w.value_at(base - i * step) + f for i in range(a, b))

    return _apply_pointwise(w, compute, out_offset=1)


def apply_O(w: SeqWindow) -> SeqWindow:
    """The self-generation map: each output value is the one the equation
    gives from its predecessor's position, all of them from one
    ``o_successors`` pass over the margin range, O(1) per position."""
    a, b = _margins(w)
    return _assemble(w, o_successors(w, a, b), a, 1)


def apply_G(g: GParams, w: SeqWindow) -> SeqWindow:
    """The classical linear map: g.p * u[x] - g.q * u[x - 1] at x + 1."""
    a, b = _margins(w)
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
    vals = [int(v) for v in initial]
    for _ in range(n):
        q = len(vals)
        vals.append(sum(coeffs[i] * vals[q - r - i] for i in range(r + 1)))
    return SeqWindow(0, vals)


# collections.abc: typing's alias cache would pin earlier imports
Transformation = Callable[[SeqWindow], SeqWindow]


def iterate(t: Transformation, n: int, w: SeqWindow) -> SeqWindow:
    """n-fold composition; raises DomainExhausted if the computable window
    empties before n steps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = w
    for _ in range(n):
        out = t(out)
    return out


def windows_equal(a: SeqWindow, b: SeqWindow, lo: int, hi: int) -> bool:
    """Pointwise equality over [lo, hi]; undefined positions must match."""
    return _column(a, lo, hi) == _column(b, lo, hi)
