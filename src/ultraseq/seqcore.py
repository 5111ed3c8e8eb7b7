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
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, cycle, islice
from typing import Iterable, NamedTuple, Optional, Sequence, Union

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
    raw = os.environ.get(MAX_WINDOW_ENV)
    if raw is None:
        return DEFAULT_MAX_WINDOW
    return int(raw)


def check_window_len(size: int, what: str = "window") -> None:
    """Refuse ``size`` values over the cap, before they are built."""
    cap = max_window_len()
    if size > cap:
        raise TooLarge(f"{what} of {size} values exceeds the cap ({cap}); "
                       f"raise {MAX_WINDOW_ENV} to override")


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class Periodic:
    """Periodic extension rule; a constant tail is a unit of length 1."""

    unit: tuple[int, ...]

    def __init__(self, unit: Iterable[int]):
        unit = tuple(map(int, unit))
        if not unit:
            raise ValueError("periodic unit must be nonempty")
        object.__setattr__(self, "unit", unit)
        # prefix sums of the unit; not a field, so equality, hashing and
        # repr ignore it
        object.__setattr__(self, "_prefix", tuple(accumulate(unit, initial=0)))

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


# None means undefined; typing.Optional's cache would pin earlier imports
ExtRule = Periodic | None


@dataclass(frozen=True)
class SeqWindow:
    lo: int
    values: tuple[int, ...]
    left: ExtRule = None
    right: ExtRule = None

    def __init__(self, lo: int, values: Iterable[int],
                 left: ExtRule = None, right: ExtRule = None):
        values = tuple(map(int, values))
        if not values:
            raise WindowTooSmall("window must hold at least one value")
        check_window_len(len(values))
        object.__setattr__(self, "lo", int(lo))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def defined(self, k: int) -> bool:
        if k < self.lo:
            return self.left is not None
        if k > self.hi:
            return self.right is not None
        return True

    def value_at(self, k: int) -> int:
        if self.lo <= k <= self.hi:
            return self.values[k - self.lo]
        if k < self.lo:
            if self.left is None:
                raise OutOfDomain(k)
            return self.left.unit[(k - self.lo) % self.left.period]
        if self.right is None:
            raise OutOfDomain(k)
        return self.right.unit[(k - self.hi - 1) % self.right.period]

    @cached_property
    def _prefix(self) -> list[int]:
        """Prefix sums of ``values``, built on first use; not a field, so
        equality, hashing and repr ignore it."""
        return list(accumulate(self.values, initial=0))

    def slice(self, a: int, b: int) -> list[int]:
        """Values at positions a..b inclusive: one tuple slice of the stored
        span, the tail positions filled from their units.  A range over the
        cap is refused before anything is built; an undefined side raises
        ``OutOfDomain`` at its first position in the range."""
        if a > b:
            return []
        check_window_len(b - a + 1, "range")
        lo, hi = self.lo, self.hi
        if a < lo and self.left is None:
            raise OutOfDomain(a)
        if b > hi and self.right is None:
            raise OutOfDomain(max(a, hi + 1))
        out: list[int] = []
        if a < lo:
            out += self.left.take(a - lo, min(b, lo - 1) - lo)
        out += self.values[max(a - lo, 0):max(b - lo + 1, 0)]
        if b > hi:
            out += self.right.take(max(a, hi + 1) - hi - 1, b - hi - 1)
        return out

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
    reads ``prefix``, the span's prefix sums, which may grow in place.  Past
    either end it is O(1) on the tail unit's prefix sums: with F(t) the sum
    of unit[j % p] over [0, t) (minus the sum over [t, 0) for t < 0),
    F(q*p + r) = q * F(p) + F(r), and the left tail is counted from ``lo``,
    the right one from the span's end.  An undefined side raises
    ``OutOfDomain`` at the far end of the range G would sum."""
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


def range_sum(w: SeqWindow, a: int, b: int) -> int:
    """Sum of values at positions a..b inclusive, G(b + 1) - G(a): O(1)
    big-int operations however long the range is (heads can be huge).  An
    undefined side raises ``OutOfDomain`` at a, else at b, as G does."""
    if a > b:
        return 0
    G = _signed_prefix(w.lo, w._prefix, w.left, w.right)
    return -G(a) + G(b + 1)


def _column(w: SeqWindow, a: int, b: int) -> list[Optional[int]]:
    """Values at positions a..b, None at each undefined one: one ``slice``
    of the defined part, padded on either side, or that slice itself when
    the whole range is defined.  A range over the cap is refused before
    anything is built."""
    check_window_len(b - a + 1, "range")
    da = max(a, w.lo) if w.left is None else a
    db = min(b, w.hi) if w.right is None else b
    if da > db:
        return [None] * (b - a + 1)
    col = w.slice(da, db)
    if da == a and db == b:
        return col
    return [None] * (da - a) + col + [None] * (b - db)


# --- shift-invariant maps ----------------------------------------------------

def _margins(w: SeqWindow, reach: Optional[int] = None) -> tuple[int, int]:
    """The input positions a shift-invariant map evaluates: the stored span
    and, on a periodic side, ``reach + 2 * period + 1`` more, where ``reach``
    bounds how far a value reads from its position (by default the tail's
    largest magnitude, the reach of O's summands); so the two outermost
    periods read only the tail.  An undefined side adds none, as every map
    reads its own position, so the whole range is defined."""
    def margin(rule: ExtRule) -> int:
        if rule is None:
            return 0
        r = max(map(abs, rule.unit)) if reach is None else reach
        return r + 2 * rule.period + 1

    return w.lo - margin(w.left), w.hi + margin(w.right)


def _assemble(w: SeqWindow, col: list[Optional[int]], a: int,
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


def o_successors(w: SeqWindow, a: int, b: int) -> list[Optional[int]]:
    """``|u| + sum_{i<|u|} w[p - i*sign(u)]`` with u = w[p], the value the
    self-generation equation gives p+1, for every p in a..b; None where the
    head or a summand is undefined.  A negative head reads its successors,
    p+1 included.

    One loop: each sum is G(t) - G(s) over the half-open summand range
    [s, t), with G the window's signed prefix sum (``_signed_prefix``); an
    end inside the stored span reads its prefix sums directly.
    """
    lo, end = w.lo, w.hi + 1
    prefix = w._prefix
    G = _signed_prefix(lo, prefix, w.left, w.right)
    out: list[Optional[int]] = []
    append = out.append
    for p, u in zip(range(a, b + 1), _column(w, a, b)):
        if u is None:
            append(None)
            continue
        if u >= 0:
            s, t, c = p - u + 1, p + 1, u
        else:
            s, t, c = p, p - u, -u
        try:
            gt = prefix[t - lo] if lo <= t <= end else G(t)
            gs = prefix[s - lo] if lo <= s <= end else G(s)
        except OutOfDomain:
            append(None)
            continue
        append(gt - gs + c)
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


class CheckEntry(NamedTuple):
    """The equation at one position; a tuple, so cheap to build per
    position."""

    position: int
    expected: Optional[int]
    actual: Optional[int]
    status: str


@dataclass(frozen=True)
class CheckReport:
    entries: tuple[CheckEntry, ...] = field(default_factory=tuple)

    def __init__(self, entries: Iterable[CheckEntry]):
        entries = tuple(entries)
        positions = [e.position for e in entries]
        if not all(map(operator.lt, positions, positions[1:])):
            raise ValueError("entries must have strictly increasing positions")
        object.__setattr__(self, "entries", entries)
        # counted once; not a field, so equality, hashing and repr ignore it
        object.__setattr__(self, "_counts",
                           Counter(e.status for e in entries))

    def count(self, status: str) -> int:
        return self._counts[status]

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
        return [e for e in self.entries if e.status == VIOLATION]


def verify_O_point(w: SeqWindow, p: int) -> CheckEntry:
    """Check the self-generation equation at position p."""
    return verify_O_range(w, p, p).entries[0]


def verify_O_range(w: SeqWindow, a: int, b: int) -> CheckReport:
    """Check the self-generation equation at every position a..b, from one
    ``o_successors`` pass and one column of the values it is checked
    against.  A position whose successor or a summand is undefined is
    uncheckable; a range over the cap is refused before anything is built.

    A negative head reads its successors (including the very value being
    checked); this is an equality test, never a generation step.
    """
    if a > b:
        raise ValueError("range must satisfy a <= b")
    entries = []
    append = entries.append
    for p, expected, actual in zip(range(a, b + 1), o_successors(w, a, b),
                                   _column(w, a + 1, b + 1)):
        if expected is None or actual is None:
            append(CheckEntry(p, None, None, UNCHECKABLE))
        else:
            append(CheckEntry(p, expected, actual,
                              OK if actual == expected else VIOLATION))
    return CheckReport(entries)


# --- generation --------------------------------------------------------------

def extend_right_by_O(w: SeqWindow, steps: int,
                      supplied: Optional[dict[int, int]] = None) -> SeqWindow:
    """Append ``steps`` values generated by the self-referential rule.

    A head h >= 0 or h = -1 determines its successor; h = -2 leaves it
    unrestricted and any h <= -3 under-determines it, so those raise
    ``NonDeterministic`` unless ``supplied`` maps the successor position to
    a caller-chosen value.  Supplied values are appended verbatim; they are
    not validated here (that is the verifier's job).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if w.right is not None:
        raise IncompatibleShape("window already has a right extension rule")
    check_window_len(len(w.values) + steps, "extended window")
    supplied = supplied or {}
    vals = list(w.values)
    prefix = list(accumulate(vals, initial=0))
    G = _signed_prefix(w.lo, prefix, w.left, None)  # sees each append
    hi = w.hi
    for _ in range(steps):
        head = vals[-1]
        pos = hi + 1
        if pos in supplied:
            value = int(supplied[pos])
        elif head >= -1:
            # the equation at hi; heads 0 and -1 both give 0
            n = abs(head)
            value = G(pos) - G(pos - n) + n
        else:
            raise NonDeterministic(hi, head)
        vals.append(value)
        prefix.append(prefix[-1] + value)
        hi += 1
    return SeqWindow(w.lo, vals, left=w.left, right=None)


# --- differences and sums ----------------------------------------------------

def difference(w: SeqWindow, k: int = 1) -> SeqWindow:
    """k-fold forward difference, the k-th difference of w at x reading
    w[x..x + k]: one ``slice`` over ``_margins(w, k - 1)``, differenced k
    times, then ``_assemble``, so a periodic tail differences to one of the
    same period.  The output stores lo - k (lo on an undefined left side) to
    hi (hi - k on an undefined right side)."""
    if k < 1:
        raise ValueError("difference order must be >= 1")
    if w.left is None and w.right is None and len(w.values) <= k:
        raise WindowTooSmall(
            f"window of {len(w.values)} values cannot take {k} differences")
    a, b = _margins(w, k - 1)
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

@dataclass(frozen=True)
class FreeCheck:
    ok: bool
    position: Optional[int] = None
    condition: Optional[int] = None


def is_free(s: Sequence[int], alpha: int) -> FreeCheck:
    """Check the three freeness conditions on a finite indexed segment.

    Conditions, checked in order: (1) no term reaches an index outside
    [alpha, beta]; (2) every term generates its successor; (3) the last
    element is -2.  The first violated condition is reported.
    """
    if not s:
        raise ValueError("segment must be nonempty")
    beta = alpha + len(s) - 1
    for n, a in enumerate(s[:-1], alpha):
        reach = n + sign(a) - a
        if not (alpha <= reach <= beta):
            return FreeCheck(False, n, 1)
    w = SeqWindow(alpha, s)  # condition 1 keeps every summand inside
    for n, want in enumerate(o_successors(w, alpha, beta - 1), alpha):
        if s[n + 1 - alpha] != want:
            return FreeCheck(False, n, 2)
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
    unit = tuple(int(v) for v in unit)
    if not unit:
        raise ValueError("unit must be nonempty")
    # phase the tail so value_at(beta - t) = a_{p - t} cyclically
    return SeqWindow(beta, unit[-1:], left=Periodic(unit[-1:] + unit[:-1]))


def concat(a: SeqWindow, b: Union[Sequence[int], SeqWindow]) -> SeqWindow:
    """Append ``b`` immediately after ``a``'s last index."""
    if a.right is not None:
        raise IncompatibleShape("left operand must have an undefined right side")
    if isinstance(b, SeqWindow):
        if b.left is not None:
            raise IncompatibleShape("appended window must not extend leftward")
        return SeqWindow(a.lo, a.values + b.values, left=a.left, right=b.right)
    b = tuple(int(v) for v in b)
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


# --- JSON text ------------------------------------------------------------------

_SCALARS = frozenset((str, int, float, bool, type(None)))


def json_text(obj) -> str:
    """Exactly the text ``json.dumps`` writes with ``indent`` 2, from
    C-level encoder calls.

    CPython runs its C encoder only when ``indent`` is None; with an indent
    it falls back to a generator in pure Python.  So the indentation is put
    into the item separator instead: a container whose items are all
    scalars is one ``json.dumps`` call with the separator ``",\n" + indent``,
    and other containers recurse.  This is exact because ``ensure_ascii``
    escapes every control character inside a string, so an encoded scalar
    never holds a newline: each newline in the encoder's output is one that
    the separator put there.  ``json_table`` encodes all the cells of a
    table in one call on the same ground.
    """
    out: list[str] = []
    _json_into(out, obj, "\n")
    return "".join(out)


def json_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """``json_text`` of the objects that pair the distinct names in
    ``header`` with each row's cells, without building the objects: the
    cells from one encoder call, laid out by one ``%`` template."""
    if not rows:
        return "[]"
    cells = list(chain.from_iterable(rows))
    if (not header or len(cells) != len(header) * len(rows)
            or not set(map(type, cells)) <= _SCALARS):
        return json_text([dict(zip(header, row)) for row in rows])
    row = ("{" + ",".join("\n    " + _json_key(k).replace("%", "%%") + ": %s"
                          for k in header) + "\n  }")
    # one cell to a line, so each newline separates two cells
    parts = json.dumps(cells, separators=("\n", ": ")).split("\n")
    parts[0] = parts[0][1:]
    parts[-1] = parts[-1][:-1]
    rest = (",\n  " + row) * (len(rows) - 1)
    return "".join(("[\n  ", row, rest, "\n]")) % tuple(parts)


def _json_into(out: list[str], obj, nl: str) -> None:
    """Append ``obj``'s text to ``out``, indenting its later lines by
    ``nl``, the newline and indent of its first."""
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        out.append(json.dumps(obj))
        return
    inner = nl + "  "
    if not obj:
        out.append("{}" if is_dict else "[]")
    elif set(map(type, obj.values() if is_dict else obj)) <= _SCALARS:
        text = json.dumps(obj, separators=("," + inner, ": "))
        out += text[0], inner, text[1:-1], nl, text[-1]
    elif is_dict:
        sep = inner
        out.append("{")
        for k, v in obj.items():
            out += sep, _json_key(k), ": "
            _json_into(out, v, inner)
            sep = "," + inner
        out += nl, "}"
    else:
        sep = inner
        out.append("[")
        for v in obj:
            out.append(sep)
            _json_into(out, v, inner)
            sep = "," + inner
        out += nl, "]"


def _json_key(key) -> str:
    """A key as json writes it: a str, or a scalar turned into one."""
    return json.dumps({key: 0})[1:-4]


# --- serialization -----------------------------------------------------------

def _rule_to_json(rule: ExtRule) -> dict:
    if rule is None:
        return {"kind": "undefined"}
    return {"kind": "periodic", "unit": list(map(str, rule.unit))}


# the ASCII characters ``int`` reads besides digits and "-"
_NOT_DECIMAL = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "_", "+")


def _check_decimal(items: list, what: str) -> None:
    """Refuse items whose text is not ASCII ``-?[0-9]+`` but which ``int``
    would read (``"1_0"``, ``" 2 "``, ``"+5"``, non-ASCII digits), by
    C-level scans of one join; ``int`` refuses every other text."""
    try:
        text = "".join(items)
    except TypeError:  # JSON integers among the strings
        text = "".join(map(str, items))
    if not text.isascii() or any(c in text for c in _NOT_DECIMAL):
        raise ValueError(f"{what} must be decimal integers: ASCII digits "
                         "after an optional '-'")


def _int_items(d: dict, key: str) -> list:
    """``d[key]``, checked to be a list of decimal strings or JSON integers;
    the items are checked at C level, with no loop per item."""
    items = d.get(key)
    if type(items) is not list or not set(map(type, items)) <= {str, int}:
        raise ValueError(f"{key!r} must be a list of decimal strings or "
                         "integers")
    _check_decimal(items, repr(key))
    return items


def _rule_from_json(d: dict) -> ExtRule:
    kind = d.get("kind") if type(d) is dict else None
    if kind == "undefined":
        return None
    if kind == "periodic":
        return Periodic(_int_items(d, "unit"))
    raise ValueError(f"unknown extension rule kind: {brief(kind)}")


def to_document(w: SeqWindow) -> dict:
    """JSON-ready document; values as decimal strings to stay bit-exact."""
    return {
        "lo": w.lo,
        "values": list(map(str, w.values)),
        "left": _rule_to_json(w.left),
        "right": _rule_to_json(w.right),
    }


def from_document(d: dict) -> SeqWindow:
    """The window a document describes; a document that is not an object
    with an integer ``lo``, a ``values`` list and two extension rules
    raises ValueError."""
    if type(d) is not dict:
        raise ValueError("a sequence document must be a JSON object, got "
                         f"{type(d).__name__}")
    if type(d.get("lo")) is not int:
        raise ValueError(f"'lo' must be an integer, got {brief(d.get('lo'))}")
    return SeqWindow(
        d["lo"],
        _int_items(d, "values"),
        left=_rule_from_json(d.get("left")),
        right=_rule_from_json(d.get("right")),
    )


def to_json(w: SeqWindow) -> str:
    return json_text(to_document(w))


def from_json(text: str) -> SeqWindow:
    """The window a JSON document describes; nesting past the recursion
    limit, in the parser or in a refused field's repr, is a ValueError."""
    try:
        return from_document(json.loads(text))
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def to_csv(w: SeqWindow, a: Optional[int] = None, b: Optional[int] = None) -> str:
    """``index,value`` rows with header, LF line endings, in one join; the
    bytes ``csv.writer`` wrote, since it never quotes an int."""
    if a is None:
        a = w.lo
    if b is None:
        b = w.hi
    return "index,value\n" + "".join(
        map("%d,%d\n".__mod__, zip(range(a, b + 1), w.slice(a, b))))


def from_csv(text: str) -> SeqWindow:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a field past csv.field_size_limit(), say
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if rows[:1] != [["index", "value"]]:
        raise ValueError("expected 'index,value' header")
    fields = rows[1:]
    if not fields:
        raise ValueError("no data rows")
    for line, row in enumerate(fields, 2):
        if len(row) != 2:
            raise ValueError(f"line {line}: expected 'index,value', got "
                             f"{len(row)} fields")
    _check_decimal(list(chain.from_iterable(fields)), "indices and values")
    indices, values = zip(*fields)
    lo = int(indices[0])
    if list(map(int, indices)) != list(range(lo, lo + len(fields))):
        raise ValueError("indices must be contiguous and ascending")
    return SeqWindow(lo, values)
