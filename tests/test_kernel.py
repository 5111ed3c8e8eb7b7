"""The prefix-sum self-generation kernel against naive oracles.

The oracles below are the per-summand forms of the equation
``u[p+1] = |u[p]| + sum_{i<|u[p]|} u[p - i*sign(u[p])]``: one value lookup
per summand, no prefix sums.  They cost O(|head|) per position, so on pi
rows they only reach short windows.
"""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from ultraseq.errors import NonDeterministic, OutOfDomain, UltraseqError
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
    FreeCheck,
    Periodic,
    SeqWindow,
    constant,
    extend_right_by_O,
    is_free,
    o_successor,
    partial_sums,
    range_sum,
    sign,
    verify_O_range,
)
from ultraseq.transform import _apply_pointwise, apply_O


# --- oracles -------------------------------------------------------------------

def naive_range_sum(w: SeqWindow, a: int, b: int) -> int:
    """One lookup per position; raises OutOfDomain at an undefined one."""
    return sum(w.value_at(k) for k in range(a, b + 1))


def naive_successor(w: SeqWindow, p: int) -> int:
    """The per-summand sum that ``apply_O`` used to evaluate."""
    u = w.value_at(p)
    s = sign(u)
    return sum(w.value_at(p - i * s) + 1 for i in range(abs(u)))


def naive_apply_O(w: SeqWindow) -> SeqWindow:
    return _apply_pointwise(w, lambda p: naive_successor(w, p), out_offset=1)


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
