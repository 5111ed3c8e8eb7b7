"""Bi-infinite integer sequences as finite windows plus extension rules.

A ``SeqWindow`` materializes a contiguous block of values and may carry a
periodic extension rule on either side.  A left periodic tail is phased so
that the unit's last element sits immediately left of ``lo``; a right tail
starts with the unit's first element immediately right of ``hi``.  All
windows are immutable; every operation returns a new window.
"""
from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, chain, compress, cycle, islice, repeat

from .errors import (
    DomainExhausted,
    IncompatibleShape,
    NonDeterministic,
    NotPeriodic,
    OutOfDomain,
    TooLarge,
    WindowTooSmall,
    brief,
)

MAX_WINDOW_ENV = "ULTRASEQ_MAX_WINDOW"
DEFAULT_MAX_WINDOW = 10 ** 6


def max_window_len() -> int:
    return int(os.environ.get(MAX_WINDOW_ENV, DEFAULT_MAX_WINDOW))


def check_window_len(size: int, what: str = "window") -> None:
    """Refuse ``size`` values over the cap, before they are built."""
    cap = max_window_len()
    if size > cap:
        raise TooLarge(f"{what} of {brief(size)} values exceeds the "
                       f"cap ({cap}); raise {MAX_WINDOW_ENV} to override")


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _exact(items: Iterable, what: str) -> tuple[int, ...]:
    """``items`` as ints: each one's ``__index__`` or, if one has none (a
    float, Fraction or Decimal), each one's ``int``, checked by one C-level
    comparison of the converted tuple with the input, so that an item which
    differs from its int is refused."""
    items = tuple(items)
    try:
        return tuple(map(operator.index, items))
    except TypeError:
        pass
    ints = tuple(map(int, items))
    if ints != items:
        bad = next(v for v, i in zip(items, ints) if v != i)
        raise ValueError(f"{what}: {brief(bad)} is not an integer")
    return ints


class Frozen:
    """An immutable value over the slots a subclass's ``_fields`` names:
    ``==``, hashing and the repr read them in order, assignment and ``del``
    raise AttributeError, and pickle and copy pass them, in order, to the
    constructor.  Other slots are caches, outside the value."""

    __slots__ = ()

    def _value(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._value()


class Periodic(Frozen):
    """Periodic extension rule; a constant tail is a unit of length 1.

    The constructor checks each value of ``unit`` (``_exact``); a caller
    whose values are already ints, as the document reader's and the tau
    and opower configs' are, builds the rule by ``_fill`` without that
    second pass.  A rule is immutable, so both sides of a window may share
    one."""

    __slots__ = ("unit", "_prefix")  # _prefix: the unit's prefix sums
    _fields = ("unit",)

    def __init__(self, unit: Iterable[int]):
        self._fill(_exact(unit, "periodic unit"))

    def _fill(self, ints: Iterable) -> Periodic:
        """``self`` over ``ints``, which must be ints: no second pass."""
        ints = tuple(ints)
        if not ints:
            raise ValueError("periodic unit must be nonempty")
        object.__setattr__(self, "unit", ints)
        object.__setattr__(self, "_prefix", tuple(accumulate(ints, initial=0)))
        return self

    @property
    def period(self) -> int:
        return len(self.unit)

    def take(self, t0: int, t1: int) -> Iterator[int]:
        """unit[t % period] for t in t0..t1, read off the cycling unit: no
        repeat of the unit is built."""
        r = t0 % self.period
        return islice(cycle(self.unit), r, r + t1 - t0 + 1)


def constant(value: int) -> Periodic:
    return Periodic((value,))


# None means undefined; a types.UnionType, which no module-level cache
# keeps, so a fresh import releases the previous one's classes
ExtRule = Periodic | None


class SeqWindow(Frozen):
    __slots__ = ("lo", "values", "left", "right", "_sums")
    _fields = ("lo", "values", "left", "right")

    def __init__(self, lo: int, values: Iterable[int],
                 left: ExtRule = None, right: ExtRule = None):
        self._fill(lo, _exact(values, "window values"), left, right)

    def _fill(self, lo: int, ints: Iterable, left: ExtRule, right: ExtRule):
        """``self`` over ``ints``, which must be ints: no second pass."""
        ints = tuple(ints)
        if not ints:
            raise WindowTooSmall("window must hold at least one value")
        check_window_len(len(ints))
        object.__setattr__(self, "lo", _exact((lo,), "lo")[0])
        object.__setattr__(self, "values", ints)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_sums", None)
        return self

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def defined(self, k: int) -> bool:
        return _column(self, k, k)[0] is not None

    def value_at(self, k: int) -> int:
        return self.slice(k, k)[0]

    @property
    def _prefix(self) -> list[int]:
        """Prefix sums of ``values``, built on first use into the ``_sums``
        slot, unless ``extend_right_by_O`` filled it; a cache, outside the
        value."""
        if self._sums is None:
            object.__setattr__(self, "_sums",
                               list(accumulate(self.values, initial=0)))
        return self._sums

    def slice(self, a: int, b: int) -> list[int]:
        """Values at positions a..b inclusive, ``_column``'s list.  A range
        over the cap is refused before anything is built; an undefined side
        raises ``OutOfDomain`` at its first position in the range."""
        col = _column(self, a, b)
        if col and a < self.lo and self.left is None:
            raise OutOfDomain(a)
        if col and b > self.hi and self.right is None:
            raise OutOfDomain(max(a, self.hi + 1))
        return col

    def __repr__(self) -> str:
        def tail(rule):
            return "undef" if rule is None else f"per{list(rule.unit)}"
        shown = list(self.values[:12])
        more = "..." if len(self.values) > 12 else ""
        return (f"SeqWindow(lo={self.lo}, {tail(self.left)} | "
                f"{shown}{more} | {tail(self.right)})")


def _signed_prefix(lo: int, prefix: list[int], left: ExtRule,
                   right: ExtRule) -> Callable[[int], int]:
    """G(k), the signed sum of the values between ``lo`` and k: the sum over
    [lo, k) for k >= lo and minus the sum over [k, lo) for k < lo, so that
    the sum over [s, t) is G(t) - G(s) wherever it lies.  Inside the span G
    reads ``prefix``, the span's prefix sums.  Past either end it is O(1) on
    the tail unit's prefix sums: with F(t) the sum of unit[j % p] over
    [0, t) (minus the sum over [t, 0) for t < 0), F(q*p + r) = q * F(p) +
    F(r), and the left tail is counted from ``lo``, the right one from the
    span's end.  An undefined side raises ``OutOfDomain`` at the far end of
    the range G would sum."""
    if left is not None:
        lpre, lp = left._prefix, left.period
        ltot = lpre[-1]
    if right is not None:
        rpre, rp = right._prefix, right.period
        rtot = rpre[-1]

    def G(k: int) -> int:
        i = k - lo
        if i < 0:
            if left is None:
                raise OutOfDomain(k)
            q, r = divmod(i, lp)
            return q * ltot + lpre[r]
        n = len(prefix)
        if i < n:
            return prefix[i]
        if right is None:
            raise OutOfDomain(k - 1)
        q, r = divmod(i - n + 1, rp)
        return prefix[-1] + q * rtot + rpre[r]

    return G


def _class_prefix(w: SeqWindow, e: int, r: int) -> Callable[[int], int]:
    """G over the residue class j*e + r of ``w``, indexed by j, so that the
    sum over j in [s, t) is G(t) - G(s): every e-th stored value from the
    class's first, and on a periodic side of period q every e-th tail value,
    a unit of period q / gcd(q, e) phased as a window phases its tails.
    With e = 1 it is the window's own G, over ``w._prefix``."""
    if e == 1:
        return _signed_prefix(w.lo, w._prefix, w.left, w.right)
    j0 = (w.lo - r + e - 1) // e
    t0 = j0 * e + r - w.lo
    vals = w.values[t0::e]

    def tail(rule: ExtRule, t: int) -> ExtRule:  # its unit[0] at offset t
        return rule and Periodic(
            rule.unit[(t + i * e) % rule.period]
            for i in range(rule.period // math.gcd(rule.period, e)))

    return _signed_prefix(j0, list(accumulate(vals, initial=0)),
                          tail(w.left, t0),
                          tail(w.right, t0 + len(vals) * e - len(w.values)))


def range_sum(w: SeqWindow, a: int, b: int) -> int:
    """Sum of values at positions a..b inclusive, G(b + 1) - G(a): O(1)
    big-int operations however long the range is (heads can be huge).  An
    undefined side raises ``OutOfDomain`` at a, else at b, as G does."""
    if a > b:
        return 0
    G = _signed_prefix(w.lo, w._prefix, w.left, w.right)
    return -G(a) + G(b + 1)


def _column(w: SeqWindow, a: int, b: int) -> list[int | None]:
    """Values at positions a..b, None at each undefined one: the one reader
    of a window, by one slice of its span and ``Periodic.take`` per periodic
    side.  A range longer than the span is checked against the cap before
    anything is built; a shorter one builds no more than the window holds."""
    if a > b:
        return []
    if b - a + 1 > len(w.values):
        check_window_len(b - a + 1, "range")
    lo, hi = w.lo, w.hi
    out: list[int | None] = []
    if a < lo:  # positions a..end on the left side
        end = min(b, lo - 1)
        out += (repeat(None, end - a + 1) if w.left is None
                else w.left.take(a - lo, end - lo))
    out += w.values[max(a - lo, 0):max(b - lo + 1, 0)]
    if b > hi:  # positions start..b on the right side
        start = max(a, hi + 1)
        out += (repeat(None, b - start + 1) if w.right is None
                else w.right.take(start - hi - 1, b - hi - 1))
    return out


# --- shift-invariant maps ----------------------------------------------------

def _margins(w: SeqWindow, reach: Callable[[int], int]) -> tuple[int, int]:
    """The input positions a shift-invariant map evaluates: the stored span
    and, on a periodic side, R + 2 * period + 1 more, R the largest
    ``reach(u)`` over the tail's values u, a bound on how far the map reads
    from a position holding u; so the two outermost periods read only the
    tail.  An undefined side adds none: every map reads its own position."""
    left, right = (0 if rule is None else
                   max(map(reach, set(rule.unit))) + 2 * rule.period + 1
                   for rule in (w.left, w.right))
    return w.lo - left, w.hi + right


def _assemble(w: SeqWindow, col: list[int | None], a: int,
              out_offset: int) -> SeqWindow:
    """The output window of a shift-invariant map from ``col``, its values at
    input positions a, a + 1, ... (None where undefined), each landing
    ``out_offset`` further right.  The output keeps the run of ``col`` that
    reaches a periodic side of ``w``, else the longest (leftmost on ties),
    found by one C-level ``index`` scan per None.  Where the run reaches a
    periodic side, its two outermost periods are compared and, if equal, the
    inner one becomes the tail; the output stores no copy of its tails."""
    n = len(col)
    runs, i = [], 0
    while i < n:
        try:
            j = col.index(None, i)
        except ValueError:
            j = n
        if j > i:
            runs.append((i, j))
        i = j + 1
    if not runs:
        raise DomainExhausted("no computable output positions")
    start, end = max(runs, key=lambda r: (
        r[0] == 0 and w.left is not None or r[1] == n and w.right is not None,
        r[1] - r[0]))
    left = right = None
    if w.left is not None and start == 0:
        p = w.left.period
        if end > 2 * p and col[:p] == col[p:2 * p]:
            left = Periodic(col[p:2 * p])
            start = 2 * p
    if w.right is not None and end == n:
        p = w.right.period
        if end - start > 2 * p and col[-p:] == col[-2 * p:-p]:
            right = Periodic(col[-2 * p:-p])
            end -= 2 * p
    return SeqWindow(a + start + out_offset, col[start:end], left=left,
                     right=right)


def _one_period(w: SeqWindow, a: int, b: int) -> tuple[int, int]:
    """The range s..t to compute for a..b.  ``w`` is periodic everywhere
    with period q when both sides carry a unit of length q, the span
    continues the left tail in phase and the right tail continues the span
    (two C-level tuple compares).  Then any shift-invariant column repeats
    with period q, so for a..b longer than q it is the one period in phase
    with a that starts in the first q stored positions, after a..b is
    checked against the cap.  Otherwise it is a..b itself."""
    left, right = w.left, w.right
    if left is None or right is None:
        return a, b
    q = left.period
    if b - a < q or right.period != q:
        return a, b
    s = w.values + right.unit
    if s[:q] != left.unit or s[q:] != s[:-q]:
        return a, b
    check_window_len(b - a + 1, "range")
    a = w.lo + (a - w.lo) % q
    return a, a + q - 1


def _repeat(col: list, n: int) -> list:
    """``col``, one period of a column, repeated to n rows."""
    if len(col) >= n:
        return col
    whole, rest = divmod(n, len(col))
    return col * whole + col[:rest]


def o_successors(w: SeqWindow, a: int, b: int) -> list[int | None]:
    """``|u| + sum_{i<|u|} w[p - i*sign(u)]`` with u = w[p], the value the
    self-generation equation gives p+1, for every p in a..b; None where the
    head or a summand is undefined.  A negative head reads its successors,
    p+1 included.  On a window periodic everywhere the equation is
    shift-invariant, so one period (``_one_period``) is computed and
    repeated."""
    s, t = _one_period(w, a, b)
    return _repeat(_successors(w, s, t), b - a + 1)


def _successors(w: SeqWindow, a: int, b: int) -> list[int | None]:
    """``o_successors`` at every position of a..b, by one loop over the
    summand ranges [t - c, t), c = |u|, with P, ``pre`` and T a tail's
    period, unit prefix sums and total.  One that ends in the span, i = t -
    lo values past lo, and starts in the left tail is read from the head:
    with Q, R = divmod(c, P) and q, r = divmod(i - R, P), it is Q * (P + T)
    + prefix[i] + (R - q * T - pre[r]); on pi's -2 tail a head stored in
    the span reads the sum before it, prefix[i - 1] - i * T, one big-int
    operation.  One wholly in a tail, x its end's offset from the span, is
    Q * T + F(x) - F(x - R) + c, F(x) the tail's sum over offsets [0, x) as
    G reads it.  Any other range crosses the span's right end: G(t) - G(t -
    c) + c."""
    lo, n, prefix, left, right = w.lo, len(w.values), w._prefix, w.left, w.right
    G = _signed_prefix(lo, prefix, left, right)
    # each side's period, the unit's prefix sums and total
    sides = [rule and (rule.period, rule._prefix, rule._prefix[-1])
             for rule in (left, right)]
    if left is not None:
        P, pre, T = sides[0]
        PT = P + T
        flat = P == 1 and PT == -1  # pi's -2 tail: a head's coefficient 0
    out: list[int | None] = []
    append = out.append
    for p, u in zip(range(a, b + 1), _column(w, a, b)):
        if u is None:
            append(None)
            continue
        if u >= 0:
            t, c = p + 1, u
        else:
            t, c = p - u, -u
        i = t - lo
        if 0 <= i <= n:
            if c <= i:
                append(prefix[i] - prefix[i - c] + c)
            elif left is None:
                append(None)
            elif flat and p >= lo:  # a head in the span: the sum before it
                append(prefix[i - 1] - i * T)
            else:
                Q, R = divmod(c, P)  # c - i = (Q - q) * P - r
                q, r = divmod(i - R, P)
                append(Q * PT + prefix[i] + (R - q * T - pre[r]))
            continue
        side, x = (sides[0], i) if i < 0 else (sides[1], i - n)
        if side is None:
            append(None)
        elif c > x > 0:  # crosses the span's right end
            try:
                append(G(t) - G(t - c) + c)
            except OutOfDomain:
                append(None)
        else:  # wholly in a tail
            SP, spre, ST = side
            Q, R = divmod(c, SP)
            r = x % SP
            append(Q * (SP + ST) + R + spre[r] - (
                spre[r - R] if r >= R else spre[r - R + SP] - ST))
    return out


def o_successor(w: SeqWindow, p: int) -> int:
    """``o_successors`` at the one position p; raises OutOfDomain at the
    undefined head or at the undefined end of the summand range."""
    value = o_successors(w, p, p)[0]
    if value is None:
        u = w.value_at(p)
        raise OutOfDomain(p - u + 1 if u >= 0 else p - u - 1)
    return value


# --- verification -----------------------------------------------------------

OK = "ok"
VIOLATION = "violation"
UNCHECKABLE = "uncheckable"


#: the equation at one position; a tuple, so cheap to build per position
CheckEntry = namedtuple("CheckEntry", "position expected actual status")


class CheckReport(Frozen):
    """The equation's check at each of its positions, held as the expected,
    actual and status columns over one period of q rows, repeated to the n
    positions.  A report of a window periodic everywhere holds one period;
    any other report is one period of q = n rows.  No report builds its
    entries until they are read."""

    # caches, outside the value: the one-period columns, the positions (a
    # range from ``verify_O_range``), and the entries once read
    __slots__ = ("_columns", "_positions", "_entries")
    _fields = ("entries",)

    def __new__(cls, entries: Iterable[CheckEntry]):
        entries = tuple(entries)
        positions, *columns = zip(*entries) if entries else ((),) * 4
        if not all(map(operator.lt, positions, positions[1:])):
            raise ValueError("entries must have strictly increasing positions")
        report = cls._of(columns, positions)
        object.__setattr__(report, "_entries", entries)
        return report

    @classmethod
    def _of(cls, columns: Sequence[Sequence],
            positions: Sequence[int]) -> CheckReport:
        """The report whose ``columns`` repeat over ``positions``,
        unchecked."""
        report = object.__new__(cls)
        object.__setattr__(report, "_columns", columns)
        object.__setattr__(report, "_positions", positions)
        return report

    @property
    def entries(self) -> tuple[CheckEntry, ...]:
        """A ``CheckEntry`` per position, built on the first read by
        ``tuple.__new__``: no Python-level call per position."""
        try:
            return self._entries
        except AttributeError:
            object.__setattr__(self, "_entries", tuple(map(
                tuple.__new__, repeat(CheckEntry),
                zip(self._positions, *map(cycle, self._columns)))))
            return self._entries

    # the columns over the whole range, by list repetition
    _expected, _actual, _statuses = (
        property(lambda self, i=i: _repeat(self._columns[i],
                                           len(self._positions)))
        for i in range(3))

    def count(self, status: str) -> int:
        statuses = self._columns[2]
        whole, rest = divmod(len(self._positions), len(statuses) or 1)
        return statuses.count(status) * whole + statuses[:rest].count(status)

    @property
    def ok_count(self) -> int:
        return self.count(OK)

    @property
    def violation_count(self) -> int:
        return self.count(VIOLATION)

    @property
    def uncheckable_count(self) -> int:
        return self.count(UNCHECKABLE)

    @property
    def all_ok(self) -> bool:
        return self.violation_count == 0

    def violations(self) -> list[CheckEntry]:
        """The violating entries, one built per violating position, at
        each period's offset, by ``tuple.__new__``: no Python-level call
        per entry."""
        expected, actual, statuses = self._columns
        bad = list(compress(range(len(statuses)), map(
            operator.eq, statuses, repeat(VIOLATION))))
        if not bad:  # no loop over the periods
            return []
        positions, q = self._positions, len(statuses)
        n = len(positions)
        return [tuple.__new__(CheckEntry, (positions[k + i], expected[i],
                                           actual[i], VIOLATION))
                for k in range(0, n, q) for i in bad if k + i < n]


def verify_O_point(w: SeqWindow, p: int) -> CheckEntry:
    """Check the self-generation equation at position p."""
    return verify_O_range(w, p, p).entries[0]


def verify_O_range(w: SeqWindow, a: int, b: int) -> CheckReport:
    """Check the self-generation equation at every position a..b, from one
    ``o_successors`` pass and one column of the values it is checked
    against.  A position whose successor or a summand is undefined is
    uncheckable; a range over the cap is refused before anything is built.

    The report is built by C-level passes over the two columns: one
    comparison per position gives its status, ``count`` finds how many None
    each column holds and one ``index`` scan per None marks the uncheckable
    ones, so a column without None raises nothing.  The report holds the
    three columns and the range, and builds no entry until one is read.  On
    a window periodic everywhere the columns cover one period
    (``_one_period``), and the report repeats them.

    A negative head reads its successors (including the very value being
    checked); this is an equality test, never a generation step.
    """
    if a > b:
        raise ValueError("range must satisfy a <= b")
    s, t = _one_period(w, a, b)
    expected = _successors(w, s, t)
    actual = _column(w, s + 1, t + 1)
    statuses = list(map((VIOLATION, OK).__getitem__,
                        map(operator.eq, expected, actual)))
    for col in (expected, actual):
        i = -1
        for _ in range(col.count(None)):
            i = col.index(None, i + 1)
            expected[i] = actual[i] = None
            statuses[i] = UNCHECKABLE
    return CheckReport._of((expected, actual, statuses), range(a, b + 1))


# --- generation --------------------------------------------------------------

def extend_right_by_O(w: SeqWindow, steps: int,
                      supplied: dict[int, int] | None = None) -> SeqWindow:
    """Append ``steps`` values generated by the self-referential rule.

    A head h >= 0 or h = -1 determines its successor; h = -2 leaves it
    unrestricted and any h <= -3 under-determines it, so those raise
    ``NonDeterministic`` unless ``supplied`` maps the successor position to
    a caller-chosen value.  Supplied values must be integers; they are not
    checked against the equation here (that is the verifier's job).

    A head h > 0 sums [pos - h, pos) as ``o_successors`` sums a range that
    ends in the span; 0 and -1 give 0.  Heads that reach the left tail
    (h > i, with i values stored before pos) are generated by runs until a
    head falls inside the span, a value is supplied or the steps end: one
    loop on pi's -2 tail, from the sum before the head, and one on any
    other tail, from the head.  Every other step goes through one general
    step.  The new window keeps the prefix sums in its ``_sums`` cache.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if w.right is not None:
        raise IncompatibleShape("window already has a right extension rule")
    check_window_len(len(w.values) + steps, "extended window")
    lo, left = w.lo, w.left
    if left is not None:  # the period, the unit's prefix sums and total
        P, pre, T = left.period, left._prefix, left._prefix[-1]
        PT = P + T
        flat = P == 1 and PT == -1  # pi's -2 tail: a head's coefficient 0
    vals, prefix = list(w.values), list(accumulate(w.values, initial=0))
    head, total = vals[-1], prefix[-1]
    i, end = len(vals), len(vals) + steps  # i: the index of the next value
    # the indices of the supplied values in order, then the end
    stops = [k - lo for k in filter(supplied.__contains__, range(
        lo + i, lo + end))] if supplied else []
    stops = iter(stops + [end])
    stop = next(stops)
    append, append_sum = vals.append, prefix.append
    while i < end:
        if i < stop and head > i and left is not None:
            # a run of heads that reach the left tail, their sums read from
            # the head as ``_successors`` reads them
            if flat:  # from the sum before the head, prefix[i - 1]
                while i < stop and head > i:
                    head = prefix[i - 1] - i * T
                    total += head
                    append(head)
                    append_sum(total)
                    i += 1
            else:
                while i < stop and head > i:
                    Q, R = divmod(head, P)
                    q, r = divmod(i - R, P)
                    head = Q * PT + total + (R - q * T - pre[r])
                    total += head
                    append(head)
                    append_sum(total)
                    i += 1
            continue
        if i == stop:
            (head,) = _exact((supplied[lo + i],), "supplied value")
            stop = next(stops)
        elif head > 0:  # the equation at lo + i - 1
            if head > i:  # the left side is undefined
                raise OutOfDomain(lo + i - head)
            head += total - prefix[i - head]
        elif head >= -1:
            head = 0
        else:
            raise NonDeterministic(lo + i - 1, head)
        total += head
        append(head)
        append_sum(total)
        i += 1
    out = object.__new__(SeqWindow)._fill(lo, vals, left, None)
    object.__setattr__(out, "_sums", prefix)
    return out


# --- differences and sums ----------------------------------------------------

def difference(w: SeqWindow, k: int = 1) -> SeqWindow:
    """k-fold forward difference, the k-th difference of w at x reading
    w[x..x + k]: one ``slice`` of the ``_margins`` range for reach k - 1,
    differenced k times, then ``_assemble``, so a periodic tail differences
    to one of the same period.  The output stores lo - k (lo on an undefined
    left side) to hi (hi - k on an undefined right side)."""
    if k < 1:
        raise ValueError("difference order must be >= 1")
    if w.left is None and w.right is None and len(w.values) <= k:
        raise WindowTooSmall(
            f"window of {len(w.values)} values cannot take {k} differences")
    a, b = _margins(w, lambda u: k - 1)
    col = w.slice(a, b)
    for _ in range(k):
        col = list(map(operator.sub, col[1:], col))
    return _assemble(w, col, a, 0)


def partial_sums(w: SeqWindow, n: int) -> tuple[int, int]:
    """(sum of values at 0..n-1, sum of values at -n..-1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return range_sum(w, 0, n - 1), range_sum(w, -n, -1)


# --- structural predicates ---------------------------------------------------

FreeCheck = namedtuple("FreeCheck", "ok position condition",
                       defaults=(None, None))


def is_free(s: Sequence[int], alpha: int) -> FreeCheck:
    """Check the three freeness conditions on a finite indexed segment.

    Conditions, checked in order: (1) no term reaches an index outside
    [alpha, beta]; (2) every term generates its successor; (3) the last
    element is -2.  The first violated condition is reported.
    """
    if not s:
        raise ValueError("segment must be nonempty")
    beta = alpha + len(s) - 1
    if beta > alpha:
        # a summand outside [alpha, beta] leaves a position uncheckable
        statuses = verify_O_range(SeqWindow(alpha, s), alpha,
                                  beta - 1)._statuses
        for condition, status in enumerate((UNCHECKABLE, VIOLATION), 1):
            try:
                i = statuses.index(status)
            except ValueError:
                continue
            return FreeCheck(False, alpha + i, condition)
    if s[-1] != -2:
        return FreeCheck(False, beta, 3)
    return FreeCheck(True)


def unitary(w: SeqWindow, p: int) -> list[int]:
    """One-period slice at positions 1..p of a period-p window."""
    if p < 1:
        raise ValueError("period must be >= 1")
    vals = w.slice(w.lo - (w.left.period if w.left else 0),
                   w.hi + (w.right.period if w.right else 0))
    if vals[:-p] != vals[p:]:
        raise NotPeriodic(p)
    try:
        return w.slice(1, p)
    except OutOfDomain:
        raise NotPeriodic(p)


def breve(unit: Sequence[int], beta: int) -> SeqWindow:
    """Left-infinite periodic window ending at ``beta``.

    ``unit`` is the one-period slice at positions 1..p; the window's last
    value is the period's wrap-around element a_0 = a_p.
    """
    unit = tuple(unit)
    if not unit:
        raise ValueError("unit must be nonempty")
    # phase the tail so value_at(beta - t) = a_{p - t} cyclically
    return SeqWindow(beta, unit[-1:], left=Periodic(unit[-1:] + unit[:-1]))


def concat(a: SeqWindow, b: Sequence[int] | SeqWindow) -> SeqWindow:
    """Append ``b`` immediately after ``a``'s last index."""
    if a.right is not None:
        raise IncompatibleShape("left operand must have an undefined right side")
    if isinstance(b, SeqWindow):
        if b.left is not None:
            raise IncompatibleShape("appended window must not extend leftward")
        return SeqWindow(a.lo, a.values + b.values, left=a.left, right=b.right)
    b = tuple(b)
    if not b:
        return a
    return SeqWindow(a.lo, a.values + b, left=a.left, right=None)


def window_add(a: SeqWindow, b: SeqWindow) -> SeqWindow:
    """Pointwise sum on the intersection of the materialized ranges; a side
    where both end together with tails gets one of the lcm period, read by
    ``slice``, which refuses a tail over the cap before building it."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        raise IncompatibleShape("windows do not overlap")

    def added(s: int, t: int) -> Iterable[int]:
        return map(operator.add, a.slice(s, t), b.slice(s, t))

    left = right = None
    if a.left is not None and b.left is not None and lo == a.lo == b.lo:
        p = math.lcm(a.left.period, b.left.period)
        left = Periodic(added(lo - p, lo - 1))
    if a.right is not None and b.right is not None and hi == a.hi == b.hi:
        p = math.lcm(a.right.period, b.right.period)
        right = Periodic(added(hi + 1, hi + p))
    return SeqWindow(lo, added(lo, hi), left=left, right=right)


# --- text ----------------------------------------------------------------------

def int_rows(columns: Sequence[Iterable], row: str | Iterator[str],
             head: str = "", sep: str = "", tail: str = "") -> str:
    """``head``, then the ``%`` template ``row`` for each row of the zipped
    ``columns``, ``sep`` between each two, then ``tail``: the one writer of
    integer text.  ``row`` may instead be an iterator of one template per
    row.  The cells go into one list, a column at a time by extended slice,
    and one ``%`` over them, with ``head`` and ``tail`` in its template,
    writes the output string; no rows write ``head`` and ``tail`` alone.
    The largest integer cell of the end rows goes first, to refuse it at
    once."""
    try:
        n = min(map(len, columns))
    except TypeError:  # an iterator column
        columns = tuple(map(tuple, columns))
        n = min(map(len, columns))
    if not n:
        return head + tail
    width = len(columns)
    if width == 1:  # a tuple column is its own cells
        cells = tuple(columns[0])
    else:
        cells = [None] * (n * width)
        for k, column in enumerate(columns):
            cells[k::width] = column if len(column) == n else column[:n]
        cells = tuple(cells)
    "%d" % max([c for c in cells[:width] + cells[-width:]
                if hasattr(c, "__index__")], key=abs, default=0)
    if not hasattr(row, "__next__"):  # one template for every row
        row = [row] * n
    return "".join((head.replace("%", "%%"), sep.join(row),
                    tail.replace("%", "%%"))) % cells


def records(fmt: str, columns: Sequence[Iterable], cells: dict,
            rows: Iterable | None = None) -> str:
    """``columns`` as "csv", a header row of the names then one line per
    row, or as "json", a list of objects laid out as ``json.dumps`` with
    ``indent`` 2 (``int_rows``).  ``cells`` maps each column's name (which
    needs no escaping) to its JSON cell template: ``"%d"``, ``'"%d"'``,
    ``'"%s"'``, ``"%r"``, a quoted literal, which takes no column, or None
    for null, whose column holds None.  A csv cell is its template unquoted,
    a null one empty.  With ``rows``, ``cells`` maps each kind of row to
    such a map, all with the same names, and ``rows`` gives each row's."""
    kinds = {None: cells} if rows is None else cells
    # a null cell's "%.0s" takes its None and writes none of it
    if fmt == "json":
        row = {kind: "{" + ",".join(f'\n    "{name}": {cell or "%.0snull"}'
                                    for name, cell in m.items()) + "\n  }"
               for kind, m in kinds.items()}
        layout = ("[\n  ", ",\n  ", "\n]")
    else:
        row = {kind: ",".join((cell or "%.0s").strip('"')
                              for cell in m.values()) + "\n"
               for kind, m in kinds.items()}
        layout = (",".join(next(iter(kinds.values()))) + "\n",)
    return int_rows(columns, row[None] if rows is None
                    else map(row.__getitem__, rows), *layout)


#: the columns of ``to_csv`` and of ``reference``
INDEX_VALUE = {"index": "%d", "value": '"%d"'}


# --- serialization -----------------------------------------------------------

# the ASCII characters ``int`` reads besides digits and "-"
_NOT_DECIMAL = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "_", "+")


def _decimals(items: list, what: str) -> Iterator[int]:
    """``items``, a list of decimal strings and JSON integers, as ints,
    lazily: the one reader of integer text.  Any other list, or text that
    is not ASCII ``-?[0-9]+`` but which ``int`` would read (``"1_0"``,
    ``" 2 "``, ``"+5"``, non-ASCII digits), is refused at once, by C-level
    scans of one join; ``int`` refuses every other text as it reads it."""
    if type(items) is not list or not set(map(type, items)) <= {str, int}:
        raise ValueError(f"{what} must be a list of decimal strings or "
                         "integers")
    try:
        text = "".join(items)
    except TypeError:  # JSON integers among the strings
        text = "".join(map(str, items))
    if not text.isascii() or any(map(text.__contains__, _NOT_DECIMAL)):
        raise ValueError(f"{what} must be decimal integers: ASCII digits "
                         "after an optional '-'")
    return map(int, items)


def _rule_from_json(d: dict) -> ExtRule:
    kind = d.get("kind") if type(d) is dict else None
    if kind == "undefined":
        return None
    if kind == "periodic":
        return object.__new__(Periodic)._fill(
            _decimals(d.get("unit"), "'unit'"))
    raise ValueError(f"unknown extension rule kind: {brief(kind)}")


def to_document(w: SeqWindow) -> dict:
    """The parse of ``to_json(w)``: values as decimal strings, to stay
    bit-exact."""
    return json.loads(to_json(w))


def from_document(d: dict) -> SeqWindow:
    """The window a document describes; a document that is not an object
    with an integer ``lo``, a ``values`` list and two extension rules
    raises ValueError."""
    if type(d) is not dict:
        raise ValueError("a sequence document must be a JSON object, got "
                         f"{type(d).__name__}")
    if type(d.get("lo")) is not int:
        raise ValueError(f"'lo' must be an integer, got {brief(d.get('lo'))}")
    return object.__new__(SeqWindow)._fill(
        d["lo"], _decimals(d.get("values"), "'values'"),
        _rule_from_json(d.get("left")), _rule_from_json(d.get("right")))


_UNDEFINED = '{\n    "kind": "undefined"\n  }'
#: the text of a periodic rule before, between and after its unit's values
_PERIODIC = ('{\n    "kind": "periodic",\n    "unit": [\n      ', ",\n      ",
             "\n    ]\n  }")


def to_json(w: SeqWindow) -> str:
    """The indented JSON document of ``w``, laid out by templates, its
    values and tail units written as strings by ``int_rows``."""
    left, right = (_UNDEFINED if rule is None
                   else int_rows((rule.unit,), '"%d"', *_PERIODIC)
                   for rule in (w.left, w.right))
    return int_rows((w.values,), '"%d"',
                    '{\n  "lo": %d,\n  "values": [\n    ' % w.lo, ",\n    ",
                    f'\n  ],\n  "left": {left},\n  "right": {right}\n}}')


def from_json(text: str) -> SeqWindow:
    """The window a JSON document describes; nesting past the recursion
    limit, in the parser or in a refused field's repr, is a ValueError.
    The text is let go once parsed, before any value is converted."""
    try:
        document = json.loads(text)
        del text
        return from_document(document)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def to_csv(w: SeqWindow, a: int | None = None, b: int | None = None) -> str:
    """``index,value`` rows with header, LF line endings (``records``)."""
    a, b = w.lo if a is None else a, w.hi if b is None else b
    return records("csv", (range(a, b + 1), w.slice(a, b)), INDEX_VALUE)


def from_csv(text: str) -> SeqWindow:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a field past csv.field_size_limit(), say
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if rows[:1] != [list(INDEX_VALUE)]:
        raise ValueError("expected 'index,value' header")
    fields = rows[1:]
    if not fields:
        raise ValueError("no data rows")
    for line, row in enumerate(fields, 2):
        if len(row) != 2:
            raise ValueError(f"line {line}: expected 'index,value', got "
                             f"{len(row)} fields")
    ints = list(_decimals(list(chain.from_iterable(fields)),
                          "indices and values"))
    if ints[::2] != list(range(ints[0], ints[0] + len(fields))):
        raise ValueError("indices must be contiguous and ascending")
    return object.__new__(SeqWindow)._fill(ints[0], ints[1::2], None, None)
