"""The six-slot map H, the self-generation map O, G, and shifts."""
import pytest
from hypothesis import given, settings, strategies as st

from ultraseq.errors import DomainExhausted, TooLarge, WrongInitialCount
from ultraseq.families import (
    OPowerConfig,
    TauConfig,
    canonical_o_power_config,
    o_power_window,
    pi_window,
    tau_enumerate,
    tau_window,
)
from ultraseq.seqcore import (
    MAX_WINDOW_ENV,
    Periodic,
    SeqWindow,
    constant,
)
from ultraseq.transform import (
    GParams,
    HParams,
    O_SLOTS,
    apply_G,
    apply_H,
    apply_O,
    iterate,
    recurrence_1_3_extend,
    shift_L,
    windows_equal,
)


def _common_range(a: SeqWindow, b: SeqWindow) -> range:
    return range(max(a.lo, b.lo), min(a.hi, b.hi) + 1)


def _agree(a: SeqWindow, b: SeqWindow) -> bool:
    ks = _common_range(a, b)
    assert len(ks) > 0
    return all(a.value_at(k) == b.value_at(k) for k in ks)


class TestApplyO:
    def test_pi_rows_are_fixed_points(self):
        for m in (1, 4, 8):
            w = pi_window(m, 24)
            assert _agree(apply_O(w), w)

    def test_tau_windows_are_fixed_points_with_tails(self):
        w = tau_window(TauConfig(2, {6, 9}, {1, 3}), 3)
        out = apply_O(w)
        assert out.left is not None and out.right is not None
        for k in range(out.lo - 2 * out.left.period,
                       out.hi + 2 * out.right.period + 1):
            assert out.value_at(k) == w.value_at(k)

    def test_matches_h_specialization_everywhere(self):
        for w in (pi_window(3, 20), tau_window(TauConfig(1, {5}, {1}), 3)):
            a, b = apply_O(w), apply_H(O_SLOTS, w)
            assert a.lo == b.lo and a.values == b.values
            assert a.left == b.left and a.right == b.right

    def test_domain_exhaustion_on_tiny_window(self):
        with pytest.raises(DomainExhausted):
            apply_O(SeqWindow(0, (5, 4)))

    @settings(deadline=None)
    @given(st.sampled_from(tau_enumerate(2)))
    def test_every_tau_config_is_a_fixed_point(self, config):
        w = tau_window(config, 3)
        assert _agree(apply_O(w), w)


class TestApplyH:
    def test_constant_slots_build_plain_sums(self):
        # two-term sliding sum of successors: F=(0, 2, 1, 1, -1, 0)
        params = HParams(lambda p, u: 0, lambda p, u: 2, lambda p, u: 1,
                         lambda p, u: 1, lambda p, u: -1, lambda p, u: 0)
        w = SeqWindow(0, (1, 2, 3, 4, 5))
        out = apply_H(params, w)
        for k in _common_range(out, w):
            # value at p+1 sums the inputs at p and p+1
            assert out.value_at(k) == w.value_at(k - 1) + w.value_at(k)


class TestShiftAndOPower:
    def test_shift_preserves_values_one_step_right(self):
        w = pi_window(2, 10)
        s = shift_L(w)
        assert s.lo == w.lo + 1 and s.hi == w.hi + 1
        assert all(s.value_at(k + 1) == w.value_at(k)
                   for k in range(w.lo, w.hi + 1))

    def test_o_acts_as_shift_on_o_power_windows(self):
        for m in (1, 2, 3):
            cfg = canonical_o_power_config(m)
            w = o_power_window(cfg, 3)
            assert _agree(apply_O(w), shift_L(w))

    def test_o_power_order_is_exactly_r(self):
        cfg = canonical_o_power_config(2)  # r = 5
        w = o_power_window(cfg, 3)
        assert _agree(iterate(apply_O, 5, w), w)
        for s in range(1, 5):
            assert not _agree(iterate(apply_O, s, w), w)

    def test_iterated_o_stores_no_tail_copies(self):
        # r = 9: each step's output keeps its tails as rules, so the stored
        # span grows by about the tail's largest magnitude per side per step
        w = o_power_window(canonical_o_power_config(4), 3)
        out = iterate(apply_O, 9, w)
        assert len(out.values) <= 250
        assert out.left is not None and out.right is not None
        assert windows_equal(out, w, w.lo - 60, w.hi + 60)

    def test_a_run_reaching_a_tail_is_kept_over_a_longer_finite_one(self):
        # the head -12 at 0 reads past the undefined right side, which
        # splits the computable positions; the run reaching the zero tail
        # wins over the ten positions after the split
        w = SeqWindow(0, (-12,) + (1,) * 10, left=Periodic((0,)))
        out = apply_O(w)
        assert out.left == Periodic((0,)) and out.hi == 0
        assert windows_equal(out, SeqWindow(0, (0,), left=Periodic((0,))),
                             -30, 12)

    def test_zero_slots_are_carried_by_the_shift(self):
        cfg = OPowerConfig(4, ("+", "0", "-", "-"))
        w = o_power_window(cfg, 3)
        assert _agree(apply_O(w), shift_L(w))


class TestApplyG:
    def test_fibonacci_is_fixed_for_p1_q_minus1(self):
        g = GParams(1, -1)
        w = recurrence_1_3_extend(g, 1, [0, 1], 20)
        assert _agree(apply_G(g, w), w)

    def test_q_zero_reduces_to_scaled_shift(self):
        w = recurrence_1_3_extend(GParams(1, -1), 1, [0, 1], 12)
        out = apply_G(GParams(1, 0), w)
        assert all(out.value_at(k) == w.value_at(k - 1)
                   for k in _common_range(out, shift_L(w)))

    def test_pell_parameters(self):
        g = GParams(2, -1)
        w = recurrence_1_3_extend(g, 1, [0, 1], 8)
        assert w.values[:7] == (0, 1, 2, 5, 12, 29, 70)
        assert _agree(apply_G(g, w), w)


class TestRecurrenceExtension:
    def test_initial_count_is_enforced(self):
        with pytest.raises(WrongInitialCount):
            recurrence_1_3_extend(GParams(1, -1), 2, [1, 2, 3], 5)

    def test_degree_two_r_window_is_fixed_under_g_to_the_r(self):
        g = GParams(1, -1)
        for r, initial in ((1, [0, 1]), (2, [0, 1, 1, 3]),
                           (3, [0, 0, 1, 1, 2, 5])):
            w = recurrence_1_3_extend(g, r, initial, 18)
            out = iterate(lambda x: apply_G(g, x), r, w)
            assert _agree(out, w)

    @given(st.lists(st.integers(min_value=-9, max_value=9),
                    min_size=4, max_size=4))
    def test_any_degree_four_window_is_g_squared_fixed(self, initial):
        g = GParams(2, 1)
        w = recurrence_1_3_extend(g, 2, initial, 16)
        out = iterate(lambda x: apply_G(g, x), 2, w)
        assert all(out.value_at(k) == w.value_at(k)
                   for k in _common_range(out, w))


class _Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"g.{name} was read")


class TestRecurrenceGuard:
    def test_length_over_the_cap_is_refused_before_the_loop(self):
        # 2 + 1.5M values: refused before a coefficient is computed
        with pytest.raises(TooLarge, match="1500002"):
            recurrence_1_3_extend(_Untouchable(), 1, [0, 1], 1_500_000)


#: a tail magnitude of 3M widens the margin range of O and H past the cap
DEEP_TAIL = SeqWindow(0, (1, 2), left=Periodic((-3_000_000,)))


class TestMarginGuard:
    @pytest.mark.parametrize("transform, w, cap, size", [
        (apply_O, DEEP_TAIL, None, 3000005),
        (lambda w: apply_H(O_SLOTS, w), DEEP_TAIL, None, 3000005),
        # G reads one position back whatever the tail holds, so only a long
        # tail period widens its margin: 1 + 2 * 500 + 1 on the left
        (lambda w: apply_G(GParams(1, 1), w),
         SeqWindow(0, (1, 2), left=Periodic(range(500))), "1000", 1004)],
        ids=["apply_O", "apply_H", "apply_G"])
    def test_margin_range_over_the_cap_is_refused_first(self, monkeypatch,
                                                          transform, w, cap,
                                                          size):
        if cap is not None:
            monkeypatch.setenv(MAX_WINDOW_ENV, cap)

        def no_lookup(self, k):
            raise AssertionError("a position was evaluated")

        monkeypatch.setattr(SeqWindow, "value_at", no_lookup)
        with pytest.raises(TooLarge, match=str(size)):
            transform(w)

    def test_apply_G_margin_ignores_the_tail_magnitude(self):
        out = apply_G(GParams(1, 1), DEEP_TAIL)
        # u[x] - u[x - 1] at x + 1: 0 over the constant tail
        assert out.left == constant(0)
        assert [out.value_at(k) for k in range(-3, 3)] == [
            DEEP_TAIL.value_at(k - 1) - DEEP_TAIL.value_at(k - 2)
            for k in range(-3, 3)]


class TestIterateAndEquality:
    def test_iterate_validates_count(self):
        with pytest.raises(ValueError):
            iterate(apply_O, 0, pi_window(1, 5))

    def test_windows_equal_compares_definedness(self):
        a = SeqWindow(0, (1, 2), left=constant(-2))
        b = SeqWindow(0, (1, 2))
        assert windows_equal(a, b, 0, 1)
        assert not windows_equal(a, b, -1, 1)
        assert not windows_equal(a, SeqWindow(0, (1, 3)), 0, 1)
