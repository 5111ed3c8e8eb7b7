"""The prefix-sum self-generation kernel against naive oracles.

The oracles below are the per-summand forms of the equation
``u[p+1] = |u[p]| + sum_{i<|u[p]|} u[p - i*sign(u[p])]``: one value lookup
per summand, no prefix sums.  They cost O(|head|) per position, so on pi
rows they only reach short windows.  Every lookup goes through ``read_at``,
which reads a window's fields by its own tail arithmetic, so no oracle
shares code with the reader it checks.
"""
import gc
import pickle
import sys
from collections import Counter
from itertools import accumulate
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from ultraseq import seqcore, transform
from ultraseq.errors import (
    DomainExhausted,
    InvalidConfig,
    NonDeterministic,
    OutOfDomain,
    UltraseqError,
    WindowTooSmall,
)
from ultraseq.families import (
    OPowerConfig,
    TauConfig,
    build_family,
    canonical_o_power_config,
    composite_row,
    o_power_window,
    omega_slice,
    pi_window,
    tau_enumerate,
    tau_window,
)
from ultraseq.seqcore import (
    CheckEntry,
    CheckReport,
    FreeCheck,
    Periodic,
    SeqWindow,
    constant,
    difference,
    extend_right_by_O,
    is_free,
    o_successor,
    o_successors,
    partial_sums,
    range_sum,
    sign,
    verify_O_range,
)
from ultraseq.transform import (
    GParams,
    HParams,
    O_SLOTS,
    apply_G,
    apply_H,
    apply_O,
)


# --- oracles -------------------------------------------------------------------

def read_at(w: SeqWindow, k: int) -> int:
    """The value at k, read off the window's fields: a left tail's unit
    ends at lo - 1, a right tail's starts at hi + 1; OutOfDomain where k is
    undefined."""
    i = k - w.lo
    if 0 <= i < len(w.values):
        return w.values[i]
    rule, t = (w.left, i) if i < 0 else (w.right, i - len(w.values))
    if rule is None:
        raise OutOfDomain(k)
    return rule.unit[t % len(rule.unit)]


def naive_range_sum(w: SeqWindow, a: int, b: int) -> int:
    """One lookup per position; raises OutOfDomain at an undefined one."""
    return sum(read_at(w, k) for k in range(a, b + 1))


def naive_successor(w: SeqWindow, p: int) -> int:
    """The per-summand sum that ``apply_O`` used to evaluate."""
    u = read_at(w, p)
    s = sign(u)
    return sum(read_at(w, p - i * s) + 1 for i in range(abs(u)))


def naive_column(value, a: int, b: int) -> list:
    """``value(p)`` at each of a..b, None where it raises OutOfDomain."""
    out = []
    for p in range(a, b + 1):
        try:
            out.append(value(p))
        except OutOfDomain:
            out.append(None)
    return out


def naive_map(w: SeqWindow, value, reach) -> SeqWindow:
    """The shift-invariant map whose value at p + 1 is ``value(p)``, one
    position of the margin range at a time, ``reach(u)`` bounding how far a
    tail value u reads; a range over the cap is refused before any position
    is evaluated."""
    a, b = seqcore._margins(w, reach)
    seqcore.check_window_len(b - a + 1, "range")
    return seqcore._assemble(w, naive_column(value, a, b), a, 1)


def naive_apply_O(w: SeqWindow) -> SeqWindow:
    return naive_map(w, lambda p: naive_successor(w, p), abs)


def naive_successors(w: SeqWindow, a: int, b: int) -> list:
    """The per-summand successor at each of a..b, None where it raises."""
    return naive_column(lambda p: naive_successor(w, p), a, b)


def tail_stretch_sum(w: SeqWindow, a: int, b: int) -> int:
    """The sum over [a, b), which lies in one tail: one period summed
    naively, times the number of whole periods, plus the remainder summed
    naively; OutOfDomain at a on an undefined side."""
    read_at(w, a)
    period = len((w.left if b <= w.lo else w.right).unit)
    whole, rest = divmod(b - a, period)
    if not whole:
        return naive_range_sum(w, a, b - 1)
    return (whole * naive_range_sum(w, a, a + period - 1)
            + naive_range_sum(w, b - rest, b - 1))


def tail_successor(w: SeqWindow, p: int) -> int:
    """The equation's value at p + 1 for heads of any size: the summand
    range's stretch in the span summed naively, the left one and then the
    right one by ``tail_stretch_sum``."""
    u = read_at(w, p)
    s, t = (p - u + 1, p + 1) if u >= 0 else (p, p - u)
    total = abs(u)
    for a, b in ((s, min(t, w.lo)), (max(s, w.hi + 1), t)):
        if a < b:
            total += tail_stretch_sum(w, a, b)
    return total + naive_range_sum(w, max(s, w.lo), min(t, w.hi + 1) - 1)


def tail_extend(w: SeqWindow, steps: int,
                supplied: Optional[dict] = None) -> list[int]:
    """Forward generation with ``tail_successor`` on the window so far; a
    value ``supplied`` for a position is taken whatever the head before
    it."""
    vals = list(w.values)
    for _ in range(steps):
        p, u = w.lo + len(vals) - 1, vals[-1]
        if supplied and p + 1 in supplied:
            vals.append(supplied[p + 1])
        elif u <= -2:
            raise NonDeterministic(p, u)
        else:
            vals.append(tail_successor(SeqWindow(w.lo, vals, left=w.left), p)
                        if u > 0 else 0)
    return vals


def dense_successors(w: SeqWindow, a: int, b: int) -> list:
    """The equation's value at p + 1 for each p in a..b, None where it
    reads an undefined position: every value the range reads listed once,
    with its prefix sums, and no period used."""
    heads = naive_column(lambda p: read_at(w, p), a, b)
    reach = max((abs(u) for u in heads if u is not None), default=0)
    s = a - reach
    vals = naive_column(lambda k: read_at(w, k), s, b + reach + 1)
    sums = list(accumulate((v or 0 for v in vals), initial=0))
    holes = list(accumulate((v is None for v in vals), initial=0))
    out = []
    for p, u in zip(range(a, b + 1), heads):
        if u is None:
            out.append(None)
            continue
        x, y = (p - u + 1 - s, p + 1 - s) if u >= 0 else (p - s, p - u - s)
        out.append(None if holes[y] > holes[x] else abs(u) + sums[y] - sums[x])
    return out


def dense_entries(w: SeqWindow, a: int, b: int) -> list[CheckEntry]:
    """``dense_successors`` checked against each next value."""
    out = []
    for p, e in zip(range(a, b + 1), dense_successors(w, a, b)):
        actual = naive_column(lambda k: read_at(w, k), p + 1, p + 1)[0]
        out.append(CheckEntry(p, None, None, "uncheckable")
                   if e is None or actual is None else
                   CheckEntry(p, e, actual,
                              "ok" if e == actual else "violation"))
    return out


def dense_apply_O(w: SeqWindow) -> SeqWindow:
    """``apply_O`` from ``dense_successors`` over the margin range; a range
    over the cap is refused before any position is evaluated."""
    a, b = seqcore._margins(w, abs)
    seqcore.check_window_len(b - a + 1, "range")
    return seqcore._assemble(w, dense_successors(w, a, b), a, 1)


def naive_check_entry(w: SeqWindow, p: int) -> CheckEntry:
    """The equation at p from one lookup per summand."""
    try:
        actual = read_at(w, p + 1)
        expected = naive_successor(w, p)
    except OutOfDomain:
        return CheckEntry(p, None, None, "uncheckable")
    return CheckEntry(p, expected, actual,
                      "ok" if actual == expected else "violation")


def assert_report_matches(report, want: list[CheckEntry],
                          w: SeqWindow) -> None:
    """The report's counts, violations and one-point checks agree with the
    oracle's entries ``want``."""
    for status in ("ok", "violation", "uncheckable"):
        assert report.count(status) == sum(e.status == status for e in want)
    assert (report.ok_count, report.violation_count,
            report.uncheckable_count) == tuple(
        map(report.count, ("ok", "violation", "uncheckable")))
    assert report.violations() == [e for e in want if e.status == "violation"]
    assert report.all_ok == all(e.status != "violation" for e in want)
    assert report.count("mystery") == 0
    for e in want:
        assert seqcore.verify_O_point(w, e.position) == e


def naive_h_value(h: HParams, w: SeqWindow, p: int) -> int:
    """The six-slot map's value at p + 1, with one lookup per summand."""
    u = read_at(w, p)
    a, b = h.f1(p, u), h.f2(p, u)
    if b < a:
        raise InvalidConfig(f"slot bound f2 < f1 at position {p}")
    c, d, e, f = h.f3(p, u), h.f4(p, u), h.f5(p, u), h.f6(p, u)
    s = sign(u)
    return sum(c * read_at(w, p * d - i * e * s) + f for i in range(a, b))


def naive_h_reach(h: HParams, u: int) -> int:
    """How far a head u reads, found by listing its summand offsets i*f5
    for i from f1 up to f2, the end of the slot range included, with the
    slots read at p = 0 as the kernel's margin reads them."""
    e = h.f5(0, u)
    return max((abs(i * e) for i in range(h.f1(0, u), h.f2(0, u) + 1)),
               default=0)


def naive_apply_H(h: HParams, w: SeqWindow) -> SeqWindow:
    """The six-slot map with one lookup per summand."""
    return naive_map(w, lambda p: naive_h_value(h, w, p),
                     lambda u: naive_h_reach(h, u))


def naive_extend(w: SeqWindow, steps: int,
                 supplied: Optional[dict] = None) -> list[int]:
    """Forward generation on a plain list, one summand at a time; a value
    ``supplied`` for a position is taken whatever the head before it."""
    vals = list(w.values)

    def at(k: int) -> int:
        return vals[k - w.lo] if k >= w.lo else read_at(w, k)

    for _ in range(steps):
        p, u = w.lo + len(vals) - 1, vals[-1]
        if supplied and p + 1 in supplied:
            vals.append(supplied[p + 1])
        elif u >= 1:
            vals.append(sum(at(p - i) + 1 for i in range(u)))
        elif u in (0, -1):
            vals.append(0)
        else:
            raise NonDeterministic(p, u)
    return vals


def naive_is_free(s, alpha: int) -> FreeCheck:
    """The freeness conditions with a per-summand generation check."""
    beta = alpha + len(s) - 1
    for n in range(alpha, beta):
        a = s[n - alpha]
        if not alpha <= n + sign(a) - a <= beta:
            return FreeCheck(False, n, 1)
    for n in range(alpha, beta):
        a, t = s[n - alpha], sign(s[n - alpha])
        if s[n + 1 - alpha] != sum(s[n - i * t - alpha] + 1
                                   for i in range(abs(a))):
            return FreeCheck(False, n, 2)
    if s[-1] != -2:
        return FreeCheck(False, beta, 3)
    return FreeCheck(True)


def outcome(fn, *args):
    """The value of fn(*args), or the type of the error it raised."""
    try:
        return fn(*args)
    except UltraseqError as exc:
        return type(exc)


def located_outcome(fn, *args):
    """The value of fn(*args), or the error it raised with its fields."""
    try:
        return fn(*args)
    except UltraseqError as exc:
        return type(exc), vars(exc)


def same_window(a: SeqWindow, b: SeqWindow) -> bool:
    return ((a.lo, a.values, a.left, a.right)
            == (b.lo, b.values, b.left, b.right))


# --- windows under test ------------------------------------------------------------

small_units = st.lists(st.integers(min_value=-6, max_value=6),
                       min_size=1, max_size=5).map(tuple)
small_rules = st.one_of(st.none(), st.builds(Periodic, small_units))
small_windows = st.builds(
    SeqWindow,
    st.integers(min_value=-10, max_value=10),
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=10),
    left=small_rules,
    right=small_rules,
)


#: left units of period 1 to 8 (period 1 drawn often), some undefined, and
#: heads up to about 2 ** 3000 of either sign among small values
head_units = st.one_of(st.integers(-6, 6).map(lambda v: (v,)),
                       st.lists(st.integers(-6, 6), min_size=2,
                                max_size=8).map(tuple))
big_heads = st.one_of(st.integers(-8, 8), st.integers(-2 ** 3000, 2 ** 3000))
head_windows = st.builds(
    SeqWindow,
    st.integers(min_value=-10, max_value=10),
    st.lists(big_heads, min_size=1, max_size=10),
    left=st.one_of(st.none(), st.builds(Periodic, head_units)),
    right=small_rules,
)


@st.composite
def everywhere_periodic(draw) -> tuple[SeqWindow, int]:
    """A window periodic everywhere and its period q, 1 to 8: values within
    4q of 0, so some units self-generate and most do not, any lo and phase,
    and a span of 1 to 5q values, often not a multiple of q."""
    q = draw(st.integers(1, 8))
    unit = draw(st.lists(st.integers(-4 * q, 4 * q), min_size=q, max_size=q))
    lo, phase = draw(st.integers(-20, 20)), draw(st.integers(0, q - 1))
    n = draw(st.integers(1, 5 * q))

    def at(k):
        return unit[(phase + k - lo) % q]
    return SeqWindow(lo, map(at, range(lo, lo + n)),
                     left=Periodic(map(at, range(lo - q, lo))),
                     right=Periodic(map(at, range(lo + n, lo + n + q)))), q


def periodic_windows() -> list[SeqWindow]:
    out = [tau_window(c, 3) for m in (1, 2) for c in tau_enumerate(m)[::7]]
    out += [o_power_window(canonical_o_power_config(m), 3) for m in (1, 2, 3)]
    out.append(o_power_window(OPowerConfig(4, ("+", "0", "-", "-")), 2))
    return out


def composite_rows() -> list[SeqWindow]:
    return [
        composite_row(TauConfig(1, {5}, {1}), (), 1, 14),
        composite_row(TauConfig(2, {6, 9}, {1, 3}), omega_slice(-4, 6), 2, 12),
        composite_row(TauConfig(2, {1, 4}, {6, 8}), (), 1, 12),  # collapses
    ]


def short_rows() -> list[SeqWindow]:
    """Rows whose heads stay small enough for the per-summand oracles."""
    return [pi_window(m, 14) for m in (1, 2, 5)] + composite_rows()


# --- range_sum -----------------------------------------------------------------------

class TestRangeSum:
    @given(small_windows, st.integers(-40, 40), st.integers(0, 40))
    def test_matches_per_position_sum(self, w, a, length):
        b = a + length - 1
        assert outcome(range_sum, w, a, b) == outcome(naive_range_sum, w, a, b)

    @given(small_windows, st.integers(1, 5), st.integers(0, 4),
           st.integers(-20, 20), st.integers(1, 20))
    def test_class_prefix_matches_per_position_sum(self, w, e, r, s, length):
        # the residue class j*e + r, read off its own signed prefix sum
        C = seqcore._class_prefix(w, e, r % e)

        def naive(s, t):
            return sum(read_at(w, j * e + r % e) for j in range(s, t))

        assert outcome(lambda: C(s + length) - C(s)) == \
            outcome(naive, s, s + length)

    def test_rows_and_periodic_windows(self):
        for w in short_rows() + periodic_windows():
            for a in range(w.lo - 9, w.hi + 10, 3):
                for b in range(a - 1, w.hi + 12, 4):
                    assert (outcome(range_sum, w, a, b)
                            == outcome(naive_range_sum, w, a, b)), (w, a, b)

    def test_partial_sums_on_a_pi_row(self):
        w = pi_window(3, 30)
        for n in (0, 1, 7, 30):
            assert partial_sums(w, n) == (naive_range_sum(w, 0, n - 1),
                                          naive_range_sum(w, -n, -1))
        with pytest.raises(OutOfDomain):
            partial_sums(w, 32)

    def test_prefix_cache_is_not_part_of_the_value(self):
        a = SeqWindow(-1, (4, 5, 6), left=constant(-2))
        b = SeqWindow(-1, (4, 5, 6), left=constant(-2))
        assert range_sum(a, -3, 1) == 11
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert list(a._fields) == ["lo", "values", "left", "right"]

    def test_window_pickles_after_its_caches_fill(self):
        w = pi_window(2, 12)
        assert range_sum(w, -5, 10) == naive_range_sum(w, -5, 10)
        assert verify_O_range(w, w.lo, w.hi - 1).all_ok
        apply_O(w)
        back = pickle.loads(pickle.dumps(w))
        assert back == w and same_window(back, w)
        assert range_sum(back, -5, 10) == range_sum(w, -5, 10)


# --- the equation: verification and apply_O ------------------------------------------

class TestSuccessor:
    @given(small_windows, st.integers(-30, 30))
    def test_matches_per_summand_sum(self, w, p):
        # small windows hold negative heads and undefined sides
        assert outcome(o_successor, w, p) == outcome(naive_successor, w, p)

    def test_rows_and_periodic_windows(self):
        for w in short_rows() + periodic_windows():
            for p in range(w.lo - 12, w.hi + 12):
                assert (outcome(o_successor, w, p)
                        == outcome(naive_successor, w, p)), (w, p)

    @given(small_windows, st.integers(-30, 30), st.integers(-1, 40))
    def test_range_matches_per_summand_sums(self, w, a, length):
        b = a + length - 1
        assert o_successors(w, a, b) == naive_successors(w, a, b)

    def test_range_on_rows_and_periodic_windows(self):
        for w in short_rows() + periodic_windows():
            for a, b in ((w.lo - 12, w.hi + 12), (w.lo - 3, w.lo + 2),
                         (w.hi - 2, w.hi + 5), (w.lo + 1, w.hi - 1)):
                assert o_successors(w, a, b) == naive_successors(w, a, b), \
                    (w, a, b)

    @given(small_windows, st.integers(-30, 30), st.integers(1, 40))
    # a positive head at lo - 1 over a constant tail: its sum has no value
    # of the span before the head
    @example(SeqWindow(0, (1, 2), left=constant(2)), -1, 3)
    def test_report_matches_per_point_oracle(self, w, a, length):
        b = a + length - 1
        want = [naive_check_entry(w, p) for p in range(a, b + 1)]
        report = verify_O_range(w, a, b)
        assert report.entries == tuple(want)
        assert_report_matches(report, want, w)

    def test_report_on_rows_and_periodic_windows(self):
        for w in short_rows() + periodic_windows():
            a, b = w.lo - 12, w.hi + 12
            report = verify_O_range(w, a, b)
            want = [naive_check_entry(w, p) for p in range(a, b + 1)]
            assert list(report.entries) == want, w
            assert_report_matches(report, want, w)

    def test_verify_reports_the_oracle_value(self):
        w = SeqWindow(0, (1, 2, 6, -1, 0, -3, 5), left=Periodic((-2, 4)))
        for e in verify_O_range(w, -4, 8).entries:
            want = outcome(naive_successor, w, e.position)
            if e.status == "uncheckable":
                assert (want is OutOfDomain
                        or not w.defined(e.position + 1))
            else:
                assert e.expected == want


    @given(st.lists(st.integers(-3, 4), min_size=1, max_size=9),
           st.integers(-5, 5))
    def test_freeness_matches_per_summand_check(self, s, alpha):
        assert is_free(s, alpha) == naive_is_free(s, alpha)

    def test_free_segments(self):
        for s in ((-2,), (-2, -2, -2), (1, 2, -2), (-2, 1, 2, -2),
                  (-1, 0, 0, -2)):
            assert is_free(s, 3) == naive_is_free(s, 3)


def python_calls(fn, *args) -> int:
    """The Python-level calls ``fn(*args)`` makes, G reads included, as
    every call-count pin counts them; with the collector off, which could
    finalize some other code's generator (a call to the profiler) in the
    middle."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return sum(calls.values())


class TestReportBuild:
    """``verify_O_range`` builds its report by C-level passes over its two
    columns, the same value the checked public constructor builds."""

    @given(small_windows, st.integers(-30, 30), st.integers(1, 40))
    def test_is_the_public_constructors_report(self, w, a, length):
        r = verify_O_range(w, a, a + length - 1)
        want = CheckReport(r.entries)
        assert all(type(e) is CheckEntry for e in r.entries)
        assert r == want and hash(r) == hash(want) and repr(r) == repr(want)
        for status in ("ok", "violation", "uncheckable", "mystery"):
            assert r.count(status) == want.count(status) == sum(
                e.status == status for e in r.entries)
        assert r.violations() == want.violations() == [
            e for e in r.entries if e.status == "violation"]

    @given(small_windows, st.integers(-30, 30), st.integers(1, 40))
    def test_caches_its_columns(self, w, a, length):
        # what ``verify --format csv|json`` writes from
        r = verify_O_range(w, a, a + length - 1)
        want = [list(col) for col in zip(*r.entries)][1:]
        for report in (r, CheckReport(r.entries)):
            assert [list(report._expected), list(report._actual),
                    list(report._statuses)] == want
        empty = CheckReport(())
        assert empty._expected == empty._statuses == () and empty.all_ok

    @given(small_windows, st.integers(-30, 30), st.integers(1, 40))
    def test_builds_no_entries_until_they_are_read(self, w, a, length):
        r = verify_O_range(w, a, a + length - 1)
        counts = list(map(r.count, ("ok", "violation", "uncheckable")))
        violations = r.violations()
        assert not hasattr(r, "_entries") and sum(counts) == length
        assert all(type(e) is CheckEntry for e in violations)
        assert violations == [e for e in r.entries if e.status == "violation"]
        assert len(violations) == counts[1]

    def test_violations_read_the_given_positions(self):
        # the public constructor takes increasing, not contiguous, positions
        entries = [CheckEntry(-4, 1, 2, "violation"), CheckEntry(0, 3, 3, "ok"),
                   CheckEntry(7, 5, 6, "violation"),
                   CheckEntry(9, None, None, "uncheckable")]
        assert CheckReport(entries).violations() == entries[::2]

    def test_python_calls_do_not_grow_with_the_row(self):
        # a fresh row of each length; every position past the first few
        # sums back past lo
        def report_calls(n):
            w = pi_window(1, n)
            return python_calls(verify_O_range, w, w.lo, w.hi)

        assert report_calls(2000) == report_calls(20)


COMPOSITE = "composite:left=tau:m=1,P=5,N=1,seed=1"


class TestFlatCalls:
    """Clock-free pins: on pi and composite rows, whose heads from index 1
    on reach deep into the left tail, verification and generation make as
    many Python-level calls, G reads included, over 2000 positions as over
    20; on a tau window, verification makes as many over 10,000 periods as
    over 10; ``apply_O`` on those rows and on a tau window, and three
    rounds of it on tau and opower windows, as many over 2000 values as
    over 200."""

    @staticmethod
    def rows(n):
        return pi_window(1, n), build_family(COMPOSITE, 0, n)

    @staticmethod
    def periodic(c, n):
        """``c``'s window: as many whole periods as fit in n values."""
        return tau_window(c, n // len(tau_window(c).values))

    def test_verify_O_range(self):
        def calls(n):
            return [python_calls(verify_O_range, w, w.lo, w.hi)
                    for w in self.rows(n)]

        assert calls(2000) == calls(20)

    def test_verify_O_range_on_a_tau_window(self):
        # periodic everywhere: one period is checked, whatever the range
        w = tau_window(TauConfig(2, {6, 9}, {1, 3}), 3)
        q = w.left.period

        def calls(periods):
            return python_calls(verify_O_range, w, w.lo - 3,
                                w.lo - 4 + periods * q)

        assert calls(10_000) == calls(10)

    def test_apply_O(self):
        def calls(n):
            return [python_calls(apply_O, w) for w in (
                *self.rows(n), self.periodic(TauConfig(1, {5}, {1}), n))]

        assert calls(2000) == calls(200)

    def test_iterate_apply_O(self):
        def calls(n):
            return [python_calls(transform.iterate, apply_O, 3,
                                 self.periodic(c, n))
                    for c in (TauConfig(1, {5}, {1}),
                              OPowerConfig(3, ("+", "-", "-")))]

        assert calls(2000) == calls(200)

    def test_extend_right_by_O(self):
        # each seed ends at index 0, the generation's start
        def calls(n):
            return [python_calls(extend_right_by_O, SeqWindow(
                w.lo, w.values[:1 - w.lo], left=w.left), n)
                for w in self.rows(2)]

        assert calls(2000) == calls(20)


def divisions(monkeypatch, fn, *args) -> int:
    """The ``divmod`` calls ``seqcore`` makes in ``fn(*args)``, counted by
    a ``divmod`` in the module's globals, which name lookup finds before
    the builtin."""
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return divmod(a, b)

    monkeypatch.setattr(seqcore, "divmod", counting, raising=False)
    fn(*args)
    monkeypatch.delattr(seqcore, "divmod")
    return calls


class TestDivisions:
    """Clock-free pins of the two head forms: over 2000 positions of a pi
    row, whose heads read the sum before them on the -2 tail, verification
    and generation make no ``divmod`` call; on the composite row, whose
    sums read a tau tail from the head, at most two per position (3998
    and 3996, measured)."""

    def test_verify_O_range(self, monkeypatch):
        pi, composite = TestFlatCalls.rows(2000)
        assert divisions(monkeypatch, verify_O_range, pi, pi.lo, pi.hi) == 0
        n = composite.hi - composite.lo + 1
        assert divisions(monkeypatch, verify_O_range, composite,
                         composite.lo, composite.hi) <= 2 * n

    def test_extend_right_by_O(self, monkeypatch):
        pi, composite = (SeqWindow(w.lo, w.values[:1 - w.lo], left=w.left)
                         for w in TestFlatCalls.rows(2))
        assert divisions(monkeypatch, extend_right_by_O, pi, 2000) == 0
        assert divisions(monkeypatch, extend_right_by_O, composite,
                         2000) <= 2 * 2000


class TestPeriodicEverywhere:
    """On a window periodic everywhere, a range longer than the period is
    computed over one period and repeated, and what is read off it equals a
    dense oracle; a window periodic only on its sides is checked densely."""

    @staticmethod
    def check(w: SeqWindow, a: int, b: int) -> None:
        assert o_successors(w, a, b) == dense_successors(w, a, b)
        want = dense_entries(w, a, b)
        r = verify_O_range(w, a, b)
        # no report builds its entries before they are read
        assert not hasattr(r, "_entries")
        for status in ("ok", "violation", "uncheckable", "mystery"):
            assert r.count(status) == sum(e.status == status for e in want)
        assert r.violations() == [e for e in want if e.status == "violation"]
        assert [r._expected, r._actual, r._statuses] == [
            list(col) for col in zip(*want)][1:]
        dense = CheckReport(want)
        assert r == dense and hash(r) == hash(dense) and repr(r) == repr(dense)
        assert r.entries == tuple(want)
        with pytest.MonkeyPatch.context() as mp:
            # three maps of a unit that does not self-generate can pass
            # the cap; both sides refuse the same range
            mp.setenv(seqcore.MAX_WINDOW_ENV, "5000")
            assert outcome(apply_O, w) == outcome(dense_apply_O, w)
            assert outcome(transform.iterate, apply_O, 3, w) == outcome(
                transform.iterate, dense_apply_O, 3, w)

    @settings(deadline=None)
    @given(everywhere_periodic(), st.integers(-40, 40), st.integers(1, 160))
    def test_matches_a_dense_oracle(self, wq, offset, length):
        w, q = wq
        a = w.lo + offset
        b = a + length - 1
        s, t = seqcore._one_period(w, a, b)
        if length > q:  # one period in phase with a, from the span's start
            assert t - s + 1 == q and (s - a) % q == 0 and w.lo <= s < w.lo + q
        else:
            assert (s, t) == (a, b)
        self.check(w, a, b)

    @settings(deadline=None)
    @given(everywhere_periodic(), st.integers(-40, 40), st.integers(1, 160),
           st.data())
    def test_a_broken_period_is_checked_densely(self, wq, offset, length,
                                                data):
        w, q = wq
        values = list(w.values)
        values[data.draw(st.integers(0, len(values) - 1))] += data.draw(
            st.sampled_from((-2, -1, 1, 2)))
        broken = [SeqWindow(w.lo, values, left=w.left, right=w.right)]
        k = data.draw(st.integers(1, q))  # k = q keeps the phase
        unit = w.right.unit[k:] + w.right.unit[:k]
        if unit != w.right.unit:
            broken.append(SeqWindow(w.lo, w.values, left=w.left,
                                    right=Periodic(unit)))
        a = w.lo + offset
        b = a + length - 1
        for v in broken:
            assert seqcore._one_period(v, a, b) == (a, b)
            self.check(v, a, b)


class TestApplyOKernel:
    @settings(deadline=None)
    @given(small_windows)
    def test_matches_per_summand_map(self, w):
        got, want = outcome(apply_O, w), outcome(naive_apply_O, w)
        if isinstance(want, SeqWindow):
            assert same_window(got, want)
        else:  # the same failure must come out
            assert got is want

    def test_rows_and_periodic_windows(self):
        for w in short_rows() + periodic_windows():
            assert same_window(apply_O(w), naive_apply_O(w)), w

    def test_long_pi_row_is_a_fixed_point(self):
        # heads reach 9e12; a per-summand sum could not finish here
        w = pi_window(1, 60)
        out = apply_O(w)
        assert out.lo < w.lo and out.hi == w.hi + 1
        for k in range(out.lo, w.hi + 1):
            assert out.value_at(k) == w.value_at(k)
        assert out.value_at(w.hi + 1) == w.value_at(w.hi) + \
            w.value_at(w.hi - 1) + 2


def _const(c):
    return lambda p, u: c


#: slot steps f5*sign(u) of +1, -1, 0 and +-2, with slot ranges that move
#: with the position and head, some of them empty
H_SLOTS = {
    "step+1": HParams(lambda p, u: p % 3, lambda p, u: p % 3 + abs(u) % 5,
                      _const(2), _const(1), lambda p, u: sign(u),
                      lambda p, u: u),
    "step-1": HParams(_const(0), lambda p, u: abs(u) % 4, lambda p, u: p,
                      _const(1), lambda p, u: -sign(u), _const(-1)),
    "step0": HParams(_const(1), _const(3), _const(-1), _const(1),
                     _const(0), _const(2)),
    "step2": HParams(_const(0), lambda p, u: abs(u) % 3, _const(1),
                     _const(1), _const(2), _const(1)),
    "empty": HParams(lambda p, u: u, lambda p, u: u, _const(5), _const(1),
                     _const(1), _const(7)),
    "O": O_SLOTS,
    **{f"O.f5={e}": O_SLOTS._replace(f5=_const(e))
       for e in (2, 3, -2)},
}

#: shift-invariant slot sets with a step f5 in -3..3 and a slot range
#: [f1, f2) that may be empty or hold negative i
swept_slots = st.builds(
    lambda lo, width, c, e, f: HParams(
        _const(lo), lambda p, u: lo + min(abs(u), width), _const(c),
        _const(1), _const(e), _const(f)),
    st.integers(-3, 2), st.integers(0, 6), st.integers(-2, 2),
    st.integers(-3, 3), st.integers(-2, 2))


class TestApplyHKernel:
    @settings(deadline=None)
    @given(small_windows,
           st.sampled_from(sorted(H_SLOTS)).map(H_SLOTS.get) | swept_slots)
    def test_matches_per_summand_map(self, w, h):
        got, want = outcome(apply_H, h, w), outcome(naive_apply_H, h, w)
        if isinstance(want, SeqWindow):
            assert same_window(got, want)
        else:
            assert got is want

    def test_rows_and_periodic_windows(self):
        for w in short_rows() + periodic_windows():
            for slots, h in H_SLOTS.items():
                got = outcome(apply_H, h, w)
                want = outcome(naive_apply_H, h, w)
                if isinstance(want, SeqWindow):
                    assert same_window(got, want), (slots, w)
                else:
                    assert got is want, (slots, w)

    def test_inverted_slot_range_is_refused(self):
        h = HParams(_const(1), _const(0), _const(1), _const(1), _const(1),
                    _const(0))
        w = SeqWindow(0, (1, 2, 5))
        with pytest.raises(InvalidConfig):
            apply_H(h, w)
        with pytest.raises(InvalidConfig):
            naive_apply_H(h, w)


# --- maps against values computed per position ------------------------------------

G_PARAMS = GParams(2, -3)


def h_map(h: HParams) -> tuple:
    """``apply_H`` with its per-summand value at position k."""
    return (lambda w: apply_H(h, w), lambda w, k: naive_h_value(h, w, k - 1))


#: each map with the value it must give at position k, computed on the
#: input at that one position (no assembler, margin or tail rule involved);
#: the H slot sets are the ones that read the head only, so that the map is
#: shift-invariant
MAPS = {
    "O": (apply_O, lambda w, k: o_successors(w, k - 1, k - 1)[0]),
    "G": (lambda w: apply_G(G_PARAMS, w),
          lambda w, k: G_PARAMS.p * read_at(w, k - 1)
          - G_PARAMS.q * read_at(w, k - 2)),
    "diff1": (difference, lambda w, k: read_at(w, k + 1) - read_at(w, k)),
    "diff2": (lambda w: difference(w, 2),
              lambda w, k: read_at(w, k + 2) - 2 * read_at(w, k + 1)
              + read_at(w, k)),
    **{f"H.{s}": h_map(H_SLOTS[s]) for s in ("O", "empty", "step0", "step2",
                                             "O.f5=2", "O.f5=3", "O.f5=-2")},
}


def check_against_truth(w: SeqWindow, fn, truth) -> Optional[SeqWindow]:
    """``fn(w)``, after checking that every position it defines within
    4(M + p + 3) + 2 of the span, M and p the tails' largest magnitude and
    period, holds ``truth(w, position)``: past the reach of every map here,
    at most 3M + 9, by more than a period."""
    try:
        out = fn(w)
    except (DomainExhausted, WindowTooSmall):
        return None
    tails = [r for r in (w.left, w.right) if r is not None]
    reach = 4 * (max((max(map(abs, r.unit)) for r in tails), default=0)
                 + max((r.period for r in tails), default=0) + 3) + 2
    for k in range(w.lo - reach, w.hi + reach + 1):
        try:
            got = read_at(out, k)
        except OutOfDomain:
            continue
        assert got == truth(w, k), (w, k)
    return out


def check_map(w: SeqWindow, fn, truth) -> None:
    """A map ``fn`` against its per-position values ``truth``; a periodic
    input side must give a periodic output side."""
    out = check_against_truth(w, fn, truth)
    if out is not None:
        assert w.left is None or out.left is not None, (w, out)
        assert w.right is None or out.right is not None, (w, out)


class TestMapsAgainstGroundTruth:
    @settings(deadline=None)
    @given(small_windows, st.sampled_from(sorted(MAPS)))
    def test_small_windows(self, w, name):
        check_map(w, *MAPS[name])

    @settings(deadline=None)
    @given(small_windows, swept_slots)
    def test_swept_slots(self, w, h):
        check_map(w, *h_map(h))

    def test_a_step_of_two_keeps_the_tail_its_reach_gives(self):
        # heads 5 on the right read ten positions back, past the span and
        # past O's reach: each value there sums 5 + 5 * 5
        h = O_SLOTS._replace(f5=_const(2))
        w = SeqWindow(0, [0, 0], left=constant(0), right=constant(5))
        out = check_against_truth(w, *h_map(h))
        assert out.right == constant(30)
        assert out.slice(11, 40) == [30] * 30

    def test_rows_and_periodic_windows(self):
        for w in short_rows() + periodic_windows():
            for name in MAPS:
                check_map(w, *MAPS[name])
        # heads near 10^8: too many summands for the per-summand H values
        for name in ("O", "G", "diff1", "diff2"):
            check_map(pi_window(2, 40), *MAPS[name])

    def test_a_slot_that_reads_the_position_keeps_no_unchecked_tail(self):
        # u[p] + p % 2 alternates over a constant tail: the two periods the
        # assembler compares differ, so neither side may get a tail
        h = HParams(_const(0), _const(1), _const(1), _const(1), _const(1),
                    lambda p, u: p % 2)
        w = SeqWindow(0, (5, 6, 7), left=constant(2), right=constant(3))
        out = check_against_truth(w, *h_map(h))
        assert out.left is None and out.right is None


class TestApplyGMargin:
    def test_reads_one_position_back(self, monkeypatch):
        # tail heads of 14 do not widen the margin of a map that reads
        # u[x] and u[x - 1] only
        w = tau_window(tau_enumerate(3)[0], 2)
        margins = []
        real = transform._margins

        def recording(w, reach):
            margins.append(real(w, reach))
            return margins[-1]

        monkeypatch.setattr(transform, "_margins", recording)
        out = check_against_truth(w, *MAPS["G"])
        assert margins == [(-29, 58)]
        assert (out.lo, len(out.values)) == (1, 31)
        assert out.left is not None and out.right is not None


class TestLookupCounts:
    """Clock-free pins: the read side makes O(positions) window lookups on
    pi rows, whose heads sum to far more than the positions."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts lookups (``value_at`` and ``range_sum``) in "n" and
        signed prefix sum builds in "builds"; every build, a residue
        class's included, goes through ``seqcore._signed_prefix``."""
        counter = {"n": 0, "builds": 0}

        def counting(fn, key="n"):
            def wrapper(*args):
                counter[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(SeqWindow, "value_at",
                            counting(SeqWindow.value_at))
        monkeypatch.setattr(seqcore, "range_sum", counting(seqcore.range_sum))
        monkeypatch.setattr(seqcore, "_signed_prefix",
                            counting(seqcore._signed_prefix, "builds"))
        return counter

    @pytest.mark.parametrize("m", [1, 4])
    def test_apply_H_on_a_pi_row(self, calls, m):
        w = pi_window(m, 19)
        p_lo, p_hi = transform._margins(w, abs)
        assert sum(map(abs, w.values)) > 1000 * (p_hi - p_lo + 1)
        calls.update(n=0, builds=0)
        out = apply_H(O_SLOTS, w)
        # the heads come from one slice and every sum off one G
        assert calls == {"n": 0, "builds": 1}
        assert same_window(out, apply_O(w))

    @pytest.mark.parametrize("e", [2, 3])
    def test_apply_H_with_a_wider_step_on_a_pi_row(self, calls, e):
        w = pi_window(2, 40)
        assert max(w.values) > 10 ** 8
        calls.update(n=0, builds=0)
        out = apply_H(O_SLOTS._replace(f5=_const(e)), w)
        # no lookup per summand, and at most one G per residue class mod e
        # besides the window's own
        assert calls["n"] == 0 and 1 <= calls["builds"] <= 1 + e
        # each head u >= 0 in the span sums every e-th value back from its
        # position, the ones left of the span -2 each
        for p in range(w.lo, w.hi):
            u = w.values[p - w.lo]
            if u >= 0:
                stored = w.values[p - w.lo::-e][:u]
                want = sum(stored) - 2 * (u - len(stored)) + u
                assert out.value_at(p + 1) == want, p

    def test_verify_on_a_pi_row(self, calls, monkeypatch):
        w = pi_window(3, 40)
        reads = []
        column = seqcore._column
        monkeypatch.setattr(seqcore, "_column", lambda w, a, b: (
            reads.append((a, b)) or column(w, a, b)))
        calls.update(n=0, builds=0)
        report = verify_O_range(w, w.lo - 5, w.hi)
        assert report.ok_count == len(w.values) + 4
        # one pass over the range: one column of heads, one of the values
        # checked, and every sum off one G
        assert reads == [(w.lo - 5, w.hi), (w.lo - 4, w.hi + 1)]
        assert calls == {"n": 0, "builds": 1}


class TestOneTailReader:
    """Clock-free pins: a sum that reaches a periodic tail is read off the
    one signed prefix sum ``_signed_prefix`` builds, except one that ends
    in the span, which reads the left unit from the head."""

    @pytest.fixture
    def reads(self, monkeypatch):
        counter = {"builds": 0, "reads": 0}
        build = seqcore._signed_prefix

        def counting(*args):
            counter["builds"] += 1
            G = build(*args)

            def counted(k):
                counter["reads"] += 1
                return G(k)
            return counted

        monkeypatch.setattr(seqcore, "_signed_prefix", counting)
        return counter

    def test_range_sum(self, reads):
        w = SeqWindow(0, (1, -2, 3), left=Periodic((4, 5)),
                      right=Periodic((-6,)))
        assert range_sum(w, -7, 9) == naive_range_sum(w, -7, 9)
        assert reads == {"builds": 1, "reads": 2}

    def test_o_successors_on_heads_that_reach_the_left_tail(self, reads):
        w = pi_window(3, 12)
        reads.update(builds=0, reads=0)
        # each head from 2 on sums back past lo into the constant tail, and
        # its summand range ends inside the span: no G read
        assert all(w.value_at(p) > p - w.lo + 1 for p in range(2, 12))
        assert o_successors(w, 2, 11) == [w.value_at(p) for p in range(3, 13)]
        assert reads == {"builds": 1, "reads": 0}

    def test_o_successors_in_the_tails_of_a_broken_tau_window(self, reads):
        # one span value changed: not periodic everywhere, so each position
        # is computed, but a sum wholly in a tail reads that tail's unit
        w = tau_window(TauConfig(1, {5}, {1}), 3)
        values = list(w.values)
        values[7] += 1
        w = SeqWindow(w.lo, values, left=w.left, right=w.right)

        def g_reads(periods):
            a, b = w.lo - 6 * periods, w.hi + 6 * periods
            reads.update(builds=0, reads=0)
            assert o_successors(w, a, b) == dense_successors(w, a, b)
            assert reads["builds"] == 1
            return reads["reads"]

        assert g_reads(200) == g_reads(2)

    def test_extend_right_by_O_on_a_pi_seed(self, reads):
        seed = SeqWindow(0, (3,), left=constant(-2))
        out = extend_right_by_O(seed, 12)
        assert list(out.values) == naive_extend(seed, 12)
        # the running total is the sum's end, the prefix sums hold every
        # start inside the span, and the 11 values whose summand range
        # starts left of lo read the left unit: no G is built or read
        assert reads == {"builds": 0, "reads": 0}
        assert sum(out.values[k] > k + 1 for k in range(12)) == 11


class TestHeadForm:
    """Sums that start in the left tail and end in the span, read from the
    head (two divmods by the period, none for a head stored in the span on
    pi's -2 tail), against an oracle that sums the tail one period at a
    time.  The examples sit at the one branch point: a period-2 unit with
    P + T = -1 takes the periodic form, and so do constant -1 and -3
    tails, with heads at lo - 1, in the tail and in the span, and the -2
    tail's heads at lo - 1 and in the tail."""

    @settings(deadline=None)
    @given(head_windows, st.integers(0, 12), st.integers(0, 12))
    @example(SeqWindow(0, (5, 1, 9), left=Periodic((-1, -2))), 4, 0)
    @example(SeqWindow(0, (4, 2, 9), left=constant(-1)), 2, 0)
    @example(SeqWindow(0, (4, 2, 9), left=constant(-3)), 4, 0)
    @example(SeqWindow(0, (4, 2, 9), left=constant(-2)), 3, 0)
    def test_o_successors(self, w, before, after):
        a, b = w.lo - before, w.hi + after
        assert o_successors(w, a, b) == naive_column(
            lambda p: tail_successor(w, p), a, b)

    @settings(deadline=None)
    @given(head_windows.map(lambda w: SeqWindow(w.lo, w.values[:-1] + (
        abs(w.values[-1]),), left=w.left)), st.integers(1, 6))
    @example(SeqWindow(0, (5, 1, 9), left=Periodic((-1, -2))), 4)
    @example(SeqWindow(0, (4, 2, 9), left=constant(-1)), 4)
    @example(SeqWindow(0, (4, 2, 9), left=constant(-3)), 4)
    def test_extend_right_by_O(self, w, steps):
        # an undefined left side raises OutOfDomain where the sum starts
        def generated(w, steps):
            return list(extend_right_by_O(w, steps).values)
        assert located_outcome(generated, w, steps) == \
            located_outcome(tail_extend, w, steps)

    def test_both_forms_at_every_residue(self):
        unit = (3, -1, 4, -1, 5, -9, 2)
        for period in range(1, 8):
            w = SeqWindow(-2, (2 ** 3000 + 17, 5, -1, 2 ** 2999),
                          left=Periodic(unit[:period]))
            for shift in range(period + 1):
                v = SeqWindow(w.lo, w.values[:-1] + (w.values[-1] + shift,),
                              left=w.left)
                assert o_successors(v, v.lo - 3, v.hi) == naive_column(
                    lambda p: tail_successor(v, p), v.lo - 3, v.hi)
                assert list(extend_right_by_O(v, 3).values) == \
                    tail_extend(v, 3)


#: tail units of period 1 to 8, some values past 2 ** 64, so a head in a
#: tail sums many whole periods
tail_units = st.lists(st.one_of(st.integers(-9, 9),
                                st.integers(-2 ** 70, 2 ** 70)),
                      min_size=1, max_size=8).map(tuple)
tail_rules = st.one_of(st.none(), st.builds(Periodic, tail_units))


class TestTailForm:
    """Sums wholly inside one tail, read from the unit's prefix sums,
    against an oracle that sums the tail one period at a time."""

    @settings(deadline=None)
    @given(st.builds(SeqWindow, st.integers(-10, 10),
                     st.lists(st.integers(-8, 8), min_size=1, max_size=10),
                     left=tail_rules, right=tail_rules),
           st.integers(0, 40), st.integers(0, 40))
    # at hi + 3, the head 2 sums offsets 1 and 2: r = 0 < R = 2 wraps
    @example(SeqWindow(0, (0,), right=Periodic((1, 3, 2))), 0, 4)
    def test_o_successors(self, w, before, after):
        a, b = w.lo - before, w.hi + after
        assert o_successors(w, a, b) == naive_column(
            lambda p: tail_successor(w, p), a, b)


# --- forward generation ------------------------------------------------------------

class TestExtendKernel:
    def test_pi_and_composite_seeds(self):
        seeds = [SeqWindow(0, (m,), left=constant(-2)) for m in (1, 2, 5)]
        seeds += [SeqWindow(w.lo, w.values[:w.hi - w.lo - 11], left=w.left)
                  for w in composite_rows()]
        for w in seeds:
            assert list(extend_right_by_O(w, 12).values) == \
                naive_extend(w, 12), w

    @given(small_windows.filter(lambda w: w.right is None),
           st.integers(1, 6),
           st.dictionaries(st.integers(1, 6), st.integers(-8, 8)))
    def test_matches_list_generator(self, w, steps, offsets):
        # supplied values, when drawn, follow heads of every sign, -2 and
        # below included
        supplied = {w.hi + k: v for k, v in offsets.items()} or None

        def generated(w, steps, supplied):
            return list(extend_right_by_O(w, steps, supplied).values)
        assert outcome(generated, w, steps, supplied) == \
            outcome(naive_extend, w, steps, supplied)

    def test_errors_name_the_head_and_the_summand_start(self):
        seed = SeqWindow(0, (1,), left=constant(-2))
        for head in (-2, -3, -7):
            with pytest.raises(NonDeterministic) as exc:
                extend_right_by_O(seed, 4, supplied={2: head})
            assert (exc.value.position, exc.value.head) == (2, head)
            # a supplied successor lifts the block, and the value after it
            # sums back into the tail
            out = extend_right_by_O(seed, 4, supplied={2: head, 3: 6})
            assert list(out.values) == \
                naive_extend(seed, 4, {2: head, 3: 6})
        # an undefined left side: the start of the summand range
        with pytest.raises(OutOfDomain) as exc:
            extend_right_by_O(SeqWindow(0, (3,)), 1)
        assert exc.value.index == -2
        with pytest.raises(OutOfDomain) as exc:
            extend_right_by_O(SeqWindow(5, (1, 2, 4)), 1)
        assert exc.value.index == 4


#: small and large values, for units, seeds and supplied values
run_values = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))
#: constant (drawn often) and periodic left units, some undefined
run_rules = st.one_of(
    st.none(), st.builds(Periodic, st.tuples(run_values)),
    st.builds(Periodic, st.lists(run_values, min_size=2, max_size=5)))
#: seeds whose last head often reaches the left tail
run_seeds = st.builds(SeqWindow, st.integers(-5, 5),
                      st.lists(st.integers(-3, 12), min_size=1, max_size=4),
                      left=run_rules)


class TestRuns:
    """Heads that reach the left tail are generated by runs, one loop on
    pi's -2 tail and one on any other tail, a period-2 unit with P + T =
    -1 and constant -1 and -3 tails included; a run ends where a head
    falls inside the span, to 0 or -1, or to -2 or below, and where a
    value is supplied.  Each seed below ends a run in one of those ways;
    the property draws constant and periodic units with values up to
    2 ** 70."""

    @settings(deadline=None)
    @given(run_seeds, st.integers(1, 10),
           st.dictionaries(st.integers(1, 10), run_values, max_size=3))
    @example(SeqWindow(0, (2,), left=constant(-3)), 4, {})  # into the span
    @example(SeqWindow(0, (3,), left=constant(-3)), 4, {})  # to 0
    @example(SeqWindow(0, (4,), left=constant(-3)), 4, {})  # to -1
    @example(SeqWindow(0, (5,), left=constant(-3)), 4, {})  # to -2
    @example(SeqWindow(0, (5,), left=constant(-3)), 4, {2: 7})  # supplied
    @example(SeqWindow(0, (2,), left=Periodic((-6, -3))), 5, {})  # span
    @example(SeqWindow(0, (3,), left=Periodic((-3, -4))), 4, {})  # to -1
    @example(SeqWindow(0, (5,), left=Periodic((-3, -4))), 4, {})  # to -4
    # a supplied successor of -4, then a run that falls below -2
    @example(SeqWindow(0, (5,), left=Periodic((-3, -4))), 4, {2: 2 ** 70})
    @example(SeqWindow(0, (3,), left=constant(-2)), 8, {4: 1})  # mid-run
    # a run through 9 falls below -2, and its successor is supplied
    @example(SeqWindow(0, (2,), left=Periodic((-2 ** 70, 5))), 3, {3: 4})
    @example(SeqWindow(0, (3,)), 2, {})  # an undefined left side
    @example(SeqWindow(0, (5,), left=Periodic((-1, -2))), 6, {})  # P + T = -1
    @example(SeqWindow(0, (4,), left=constant(-1)), 6, {})
    @example(SeqWindow(0, (2 ** 70,), left=constant(-3)), 4, {})
    def test_matches_the_oracles(self, w, steps, offsets):
        supplied = {w.hi + k: v for k, v in offsets.items()}

        def generated(w, steps, supplied):
            out = extend_right_by_O(w, steps, supplied)
            # the generator's prefix sums, handed over with the row
            assert out._sums == list(accumulate(out.values, initial=0))
            return list(out.values)

        got = located_outcome(generated, w, steps, supplied)
        assert got == located_outcome(tail_extend, w, steps, supplied)
        if type(got) is list and max(map(abs, got)) < 1000:
            assert got == naive_extend(w, steps, supplied)
