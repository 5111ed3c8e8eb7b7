"""The prefix-sum self-generation kernel against naive oracles.

The oracles below are the per-summand forms of the equation
``u[p+1] = |u[p]| + sum_{i<|u[p]|} u[p - i*sign(u[p])]``: one value lookup
per summand, no prefix sums.  They cost O(|head|) per position, so on pi
rows they only reach short windows.
"""
import dataclasses
import pickle
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

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

def naive_range_sum(w: SeqWindow, a: int, b: int) -> int:
    """One lookup per position; raises OutOfDomain at an undefined one."""
    return sum(w.value_at(k) for k in range(a, b + 1))


def naive_successor(w: SeqWindow, p: int) -> int:
    """The per-summand sum that ``apply_O`` used to evaluate."""
    u = w.value_at(p)
    s = sign(u)
    return sum(w.value_at(p - i * s) + 1 for i in range(abs(u)))


def naive_column(value, a: int, b: int) -> list:
    """``value(p)`` at each of a..b, None where it raises OutOfDomain."""
    out = []
    for p in range(a, b + 1):
        try:
            out.append(value(p))
        except OutOfDomain:
            out.append(None)
    return out


def naive_map(w: SeqWindow, value) -> SeqWindow:
    """The shift-invariant map whose value at p + 1 is ``value(p)``, one
    position of the margin range at a time; a range over the cap is
    refused before any position is evaluated."""
    a, b = seqcore._margins(w)
    seqcore.check_window_len(b - a + 1, "range")
    return seqcore._assemble(w, naive_column(value, a, b), a, 1)


def naive_apply_O(w: SeqWindow) -> SeqWindow:
    return naive_map(w, lambda p: naive_successor(w, p))


def naive_successors(w: SeqWindow, a: int, b: int) -> list:
    """The per-summand successor at each of a..b, None where it raises."""
    return naive_column(lambda p: naive_successor(w, p), a, b)


def naive_check_entry(w: SeqWindow, p: int) -> CheckEntry:
    """The equation at p from one lookup per summand."""
    try:
        actual = w.value_at(p + 1)
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
    u = w.value_at(p)
    a, b = h.f1(p, u), h.f2(p, u)
    if b < a:
        raise InvalidConfig(f"slot bound f2 < f1 at position {p}")
    c, d, e, f = h.f3(p, u), h.f4(p, u), h.f5(p, u), h.f6(p, u)
    s = sign(u)
    return sum(c * w.value_at(p * d - i * e * s) + f for i in range(a, b))


def naive_apply_H(h: HParams, w: SeqWindow) -> SeqWindow:
    """The six-slot map with one lookup per summand."""
    return naive_map(w, lambda p: naive_h_value(h, w, p))


def naive_extend(w: SeqWindow, steps: int) -> list[int]:
    """Forward generation on a plain list, one summand at a time."""
    vals = list(w.values)

    def at(k: int) -> int:
        return vals[k - w.lo] if k >= w.lo else w.value_at(k)

    for _ in range(steps):
        p, u = w.lo + len(vals) - 1, vals[-1]
        if u >= 1:
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
        assert [f.name for f in dataclasses.fields(a)] == \
            ["lo", "values", "left", "right"]

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
}


class TestApplyHKernel:
    @settings(deadline=None)
    @given(small_windows, st.sampled_from(sorted(H_SLOTS)))
    def test_matches_per_summand_map(self, w, slots):
        h = H_SLOTS[slots]
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
          lambda w, k: G_PARAMS.p * w.value_at(k - 1)
          - G_PARAMS.q * w.value_at(k - 2)),
    "diff1": (difference, lambda w, k: w.value_at(k + 1) - w.value_at(k)),
    "diff2": (lambda w: difference(w, 2),
              lambda w, k: w.value_at(k + 2) - 2 * w.value_at(k + 1)
              + w.value_at(k)),
    **{f"H.{s}": h_map(H_SLOTS[s]) for s in ("O", "empty", "step0", "step2")},
}


def check_against_truth(w: SeqWindow, fn, truth) -> Optional[SeqWindow]:
    """``fn(w)``, after checking that every position it defines within
    4(M + p) + 2 of the span, M and p the tails' largest magnitude and
    period, holds ``truth(w, position)``."""
    try:
        out = fn(w)
    except (DomainExhausted, WindowTooSmall):
        return None
    tails = [r for r in (w.left, w.right) if r is not None]
    reach = 4 * (max((max(map(abs, r.unit)) for r in tails), default=0)
                 + max((r.period for r in tails), default=0)) + 2
    for k in range(w.lo - reach, w.hi + reach + 1):
        if out.defined(k):
            assert out.value_at(k) == truth(w, k), (w, k)
    return out


def check_map(w: SeqWindow, name: str) -> None:
    """One of ``MAPS`` against its per-position values; a periodic input
    side must give a periodic output side."""
    out = check_against_truth(w, *MAPS[name])
    if out is not None:
        assert w.left is None or out.left is not None, (name, w, out)
        assert w.right is None or out.right is not None, (name, w, out)


class TestMapsAgainstGroundTruth:
    @settings(deadline=None)
    @given(small_windows, st.sampled_from(sorted(MAPS)))
    def test_small_windows(self, w, name):
        check_map(w, name)

    def test_rows_and_periodic_windows(self):
        for w in short_rows() + periodic_windows():
            for name in MAPS:
                check_map(w, name)
        # heads near 10^8: too many summands for the per-summand H values
        for name in ("O", "G", "diff1", "diff2"):
            check_map(pi_window(2, 40), name)

    def test_a_slot_that_reads_the_position_keeps_no_unchecked_tail(self):
        # u[p] + p % 2 alternates over a constant tail: the two periods the
        # assembler compares differ, so neither side may get a tail
        h = HParams(_const(0), _const(1), _const(1), _const(1), _const(1),
                    lambda p, u: p % 2)
        w = SeqWindow(0, (5, 6, 7), left=constant(2), right=constant(3))
        out = check_against_truth(w, *h_map(h))
        assert out.left is None and out.right is None


class TestLookupCounts:
    """Clock-free pins: the read side makes O(positions) window lookups on
    pi rows, whose heads sum to far more than the positions."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts lookups (``value_at`` and ``range_sum``) in "n" and
        signed prefix sum builds in "builds"; ``transform`` imports
        ``_signed_prefix`` by name, so it is patched there too."""
        counter = {"n": 0, "builds": 0}

        def counting(fn, key="n"):
            def wrapper(*args):
                counter[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(SeqWindow, "value_at",
                            counting(SeqWindow.value_at))
        monkeypatch.setattr(seqcore, "range_sum", counting(seqcore.range_sum))
        build = counting(seqcore._signed_prefix, "builds")
        for module in (seqcore, transform):
            monkeypatch.setattr(module, "_signed_prefix", build)
        return counter

    @pytest.mark.parametrize("m", [1, 4])
    def test_apply_H_on_a_pi_row(self, calls, m):
        w = pi_window(m, 19)
        p_lo, p_hi = transform._margins(w)
        assert sum(map(abs, w.values)) > 1000 * (p_hi - p_lo + 1)
        calls.update(n=0, builds=0)
        out = apply_H(O_SLOTS, w)
        # the heads come from one slice and every sum off one G
        assert calls == {"n": 0, "builds": 1}
        assert same_window(out, apply_O(w))

    def test_verify_on_a_pi_row(self, calls):
        w = pi_window(3, 40)
        report = verify_O_range(w, w.lo - 5, w.hi)
        assert report.ok_count == len(w.values) + 4
        # one pass over the range: fewer lookups than positions
        assert calls["n"] < len(report.entries)


class TestOneTailReader:
    """Clock-free pins: every sum that reaches a periodic tail is read off
    the one signed prefix sum ``_signed_prefix`` builds."""

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
        # its summand range ends inside the span
        assert all(w.value_at(p) > p - w.lo + 1 for p in range(2, 12))
        assert o_successors(w, 2, 11) == [w.value_at(p) for p in range(3, 13)]
        assert reads == {"builds": 1, "reads": 10}

    def test_extend_right_by_O_on_a_pi_seed(self, reads):
        seed = SeqWindow(0, (3,), left=constant(-2))
        out = extend_right_by_O(seed, 12)
        assert list(out.values) == naive_extend(seed, 12)
        assert reads == {"builds": 1, "reads": 24}


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
           st.integers(1, 5))
    def test_matches_list_generator(self, w, steps):
        def generated(w, steps):
            return list(extend_right_by_O(w, steps).values)
        assert outcome(generated, w, steps) == outcome(naive_extend, w, steps)
