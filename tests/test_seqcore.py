"""Windows, verification, generation, differences, and serialization."""
import gc
import importlib
import json
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from ultraseq import seqcore
from ultraseq.errors import (
    IncompatibleShape,
    NonDeterministic,
    NotPeriodic,
    OutOfDomain,
    TooLarge,
    WindowTooSmall,
)
from ultraseq.seqcore import (
    Periodic,
    SeqWindow,
    breve,
    concat,
    constant,
    difference,
    extend_right_by_O,
    from_csv,
    from_document,
    from_json,
    is_free,
    partial_sums,
    to_csv,
    to_document,
    to_json,
    unitary,
    verify_O_point,
    verify_O_range,
    window_add,
)

units = st.lists(st.integers(min_value=-9, max_value=9),
                 min_size=1, max_size=6).map(tuple)
rules = st.one_of(st.none(), st.builds(Periodic, units))
windows = st.builds(
    SeqWindow,
    st.integers(min_value=-30, max_value=30),
    st.lists(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
             min_size=1, max_size=12),
    left=rules,
    right=rules,
)


class TestSeqWindow:
    def test_basic_indexing(self):
        w = SeqWindow(-2, (7, 8, 9))
        assert w.lo == -2 and w.hi == 0
        assert [w.value_at(k) for k in (-2, -1, 0)] == [7, 8, 9]
        for k in (-3, 1):
            assert not w.defined(k)
            with pytest.raises(OutOfDomain):
                w.value_at(k)

    def test_left_tail_phase(self):
        # the unit's last element sits immediately left of lo
        w = SeqWindow(0, (99,), left=Periodic((1, 2, 3)))
        assert [w.value_at(k) for k in range(-6, 0)] == [1, 2, 3, 1, 2, 3]

    def test_right_tail_phase(self):
        # the unit's first element sits immediately right of hi
        w = SeqWindow(0, (99,), right=Periodic((1, 2, 3)))
        assert [w.value_at(k) for k in range(1, 7)] == [1, 2, 3, 1, 2, 3]

    def test_constant_rule(self):
        w = SeqWindow(0, (5,), left=constant(-2))
        assert w.value_at(-1000) == -2

    def test_empty_window_rejected(self):
        with pytest.raises(WindowTooSmall):
            SeqWindow(0, ())

    def test_window_cap_env(self, monkeypatch):
        monkeypatch.setenv("ULTRASEQ_MAX_WINDOW", "5")
        with pytest.raises(TooLarge):
            SeqWindow(0, range(6))
        SeqWindow(0, range(5))  # at the cap is fine

    def test_column_over_tails_peaks_near_its_own_size(self, monkeypatch):
        # the tails are read off their cycling units and a column with no
        # undefined position is the slice itself: no repeat, no copy
        monkeypatch.delenv("ULTRASEQ_MAX_WINDOW", raising=False)
        unit = (-6, -2, -2, -2, 6, -2)
        w = SeqWindow(1, unit, left=Periodic(unit), right=Periodic(unit))
        tracemalloc.start()
        try:
            col = seqcore._column(w, -499_999, 499_999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * len(col)
        assert col == [unit[(k - 1) % 6] for k in range(-499_999, 500_000)]

    @given(windows, st.integers(min_value=-50, max_value=50))
    def test_defined_agrees_with_value_at(self, w, k):
        if w.defined(k):
            w.value_at(k)
        else:
            with pytest.raises(OutOfDomain):
                w.value_at(k)


class TestVerify:
    def test_positive_heads_ok(self):
        w = SeqWindow(0, (1, 2, 5, 17), left=Periodic((6, -2)))
        report = verify_O_range(w, 0, 2)
        assert report.all_ok and report.ok_count == 3

    def test_violation_carries_expected_and_actual(self):
        w = SeqWindow(0, (1, 2, 6))
        entry = verify_O_point(w, 1)
        assert entry.status == "violation"
        assert entry.expected == 5 and entry.actual == 6

    def test_uncheckable_when_history_missing(self):
        w = SeqWindow(0, (3, 2, 5))  # head 3 needs values below lo
        assert verify_O_point(w, 0).status == "uncheckable"

    def test_negative_head_reads_successors(self):
        # head -1 at p: expected successor = -(u_p) - ... = 0 here
        w = SeqWindow(0, (-1, 0, 0))
        assert verify_O_point(w, 0).status == "ok"

    def test_range_validation(self):
        w = SeqWindow(0, (1, 2))
        with pytest.raises(ValueError):
            verify_O_range(w, 3, 1)


class TestExtendRightByO:
    def test_unit_seed_growth(self):
        w = extend_right_by_O(SeqWindow(0, (1,)), 2)
        assert w.values == (1, 2, 5)

    def test_heads_zero_and_minus_one_produce_zero(self):
        assert extend_right_by_O(SeqWindow(0, (0,)), 1).values == (0, 0)
        assert extend_right_by_O(SeqWindow(0, (5, -1)), 1).values == (5, -1, 0)

    def test_head_minus_two_is_unrestricted(self):
        with pytest.raises(NonDeterministic) as exc:
            extend_right_by_O(SeqWindow(0, (1, 2, -2)), 1)
        assert exc.value.position == 2 and exc.value.head == -2

    def test_deep_negative_head_carries_constraint(self):
        with pytest.raises(NonDeterministic) as exc:
            extend_right_by_O(SeqWindow(0, (1, 2, -3)), 1)
        e = exc.value
        assert (e.position, e.head) == (2, -3)
        assert (e.constraint_lo, e.constraint_hi, e.constraint_sum) == (4, 4, 0)

    def test_supplied_value_bypasses_nondeterminism(self):
        w = extend_right_by_O(SeqWindow(0, (1, 2, -2)), 1, supplied={3: 6})
        assert w.values == (1, 2, -2, 6)

    def test_existing_right_rule_rejected(self):
        w = SeqWindow(0, (1,), right=Periodic((1,)))
        with pytest.raises(IncompatibleShape):
            extend_right_by_O(w, 1)

    def test_generated_values_always_verify(self):
        w = extend_right_by_O(SeqWindow(0, (3,), left=constant(-2)), 12)
        assert verify_O_range(w, 0, 11).all_ok

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=20))
    def test_generation_verifies_for_any_seed(self, seed, steps):
        w = extend_right_by_O(SeqWindow(0, (seed,), left=constant(-2)), steps)
        report = verify_O_range(w, 0, steps - 1)
        assert report.violation_count == 0 and report.uncheckable_count == 0


class TestDifference:
    @given(windows, st.integers(min_value=1, max_value=3))
    def test_matches_brute_force_on_materialized_range(self, w, k):
        lo_ext = w.lo - (w.left.period * 3 if w.left else 0)
        hi_ext = w.hi + (w.right.period * 3 if w.right else 0)
        if hi_ext - lo_ext < k:
            return
        d = difference(w, k)

        def brute(n, order):
            if order == 0:
                return w.value_at(n)
            return brute(n + 1, order - 1) - brute(n, order - 1)

        for n in range(max(d.lo, lo_ext), min(d.hi, hi_ext - k) + 1):
            assert d.value_at(n) == brute(n, k)

    def test_periodic_tails_survive_differencing(self):
        w = SeqWindow(1, (4, -4, -4) * 2, left=Periodic((4, -4, -4)),
                      right=Periodic((4, -4, -4)))
        d = difference(w, 1)
        assert d.left is not None and d.right is not None
        for k in range(-9, 12):
            assert d.value_at(k) == w.value_at(k + 1) - w.value_at(k)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            difference(SeqWindow(0, (1, 2)), 0)


class TestPartialSums:
    def test_both_sides(self):
        w = SeqWindow(-3, (10, 20, 30, 1, 2, 3))
        assert partial_sums(w, 3) == (6, 60)
        assert partial_sums(w, 0) == (0, 0)


class TestStructuralPredicates:
    def test_free_segment(self):
        assert is_free((-2, -2, -2), 0).ok

    def test_generated_run_fails_last_element_condition(self):
        check = is_free((1, 2, 5), 0)
        assert not check.ok and check.condition == 3

    def test_reach_violation_detected(self):
        check = is_free((9, 1, 2), 0)
        assert not check.ok and check.condition == 1 and check.position == 0

    def test_generation_violation_detected(self):
        check = is_free((1, 2, -2), 0)
        assert not check.ok and check.condition == 2 and check.position == 1

    def test_unitary_extracts_period(self):
        unit = (-6, -2, -2, -2, 6, -2)
        w = SeqWindow(1, unit * 2, left=Periodic(unit), right=Periodic(unit))
        assert unitary(w, 6) == list(unit)

    def test_unitary_rejects_wrong_period(self):
        unit = (-6, -2, -2, -2, 6, -2)
        w = SeqWindow(1, unit * 2, left=Periodic(unit), right=Periodic(unit))
        with pytest.raises(NotPeriodic):
            unitary(w, 4)

    def test_breve_phases_period_to_end_at_beta(self):
        w = breve((-6, -2, -2, -2, 6, -2), -1)
        got = [w.value_at(k) for k in range(-10, 0)]
        assert got == [-2, -2, 6, -2, -6, -2, -2, -2, 6, -2]

    def test_concat_values_and_seed(self):
        w = concat(breve((-6, -2, -2, -2, 6, -2), -1), [1])
        assert w.hi == 0 and w.value_at(0) == 1 and w.value_at(-1) == -2

    def test_window_add_takes_lcm_of_tail_periods(self):
        a = SeqWindow(0, (1, 2, 1, 2), left=Periodic((1, 2)),
                      right=Periodic((1, 2)))
        b = SeqWindow(0, (5, 5, 5, 5), left=Periodic((5, 6, 7)),
                      right=Periodic((5, 6, 7)))
        s = window_add(a, b)
        assert s.left.period == 6 and s.right.period == 6
        for k in range(-12, 16):
            assert s.value_at(k) == a.value_at(k) + b.value_at(k)

    def test_window_add_refuses_an_lcm_tail_over_the_cap(self):
        # lcm(1009, 1013) = 1,022,117 values, refused before any is built
        a = SeqWindow(0, (1,), left=Periodic(range(1009)))
        b = SeqWindow(0, (1,), left=Periodic(range(1013)))
        with pytest.raises(TooLarge, match="1022117"):
            window_add(a, b)

    def test_window_add_requires_overlap(self):
        with pytest.raises(IncompatibleShape):
            window_add(SeqWindow(0, (1,)), SeqWindow(5, (1,)))


class TestSerialization:
    @given(windows)
    def test_json_roundtrip(self, w):
        assert from_json(to_json(w)) == w

    @given(windows)
    def test_document_roundtrip(self, w):
        doc = json.loads(json.dumps(to_document(w)))
        assert from_document(doc) == w

    def test_values_serialized_as_decimal_strings(self):
        doc = to_document(SeqWindow(0, (10 ** 50,)))
        assert doc["values"] == [str(10 ** 50)]

    def test_csv_shape(self):
        text = to_csv(SeqWindow(-1, (3, 4, 5)))
        assert text == "index,value\n-1,3\n0,4\n1,5\n"

    @given(windows)
    def test_csv_roundtrip_of_materialized_values(self, w):
        back = from_csv(to_csv(w))
        assert back.lo == w.lo and back.values == w.values

    def test_csv_rejects_gaps(self):
        with pytest.raises(ValueError):
            from_csv("index,value\n0,1\n2,3\n")

    def test_csv_rejects_bad_header(self):
        # the header is checked before the rows' field counts
        for text in ("n,u\n0,1\n", "index\n0\n", "n,u\n0\n",
                     "index,value,x\n0,1\n", ""):
            with pytest.raises(ValueError,
                               match="^expected 'index,value' header$"):
                from_csv(text)

    def test_document_rejects_unknown_rule(self):
        doc = to_document(SeqWindow(0, (1,)))
        doc["left"] = {"kind": "mystery"}
        with pytest.raises(ValueError):
            from_document(doc)


class TestReimport:
    def test_reimport_releases_the_previous_package(self):
        # a fresh import must not leave the previous one's classes pinned
        # in a module-level cache (typing caches the aliases it builds)
        saved = {name: mod for name, mod in sys.modules.items()
                 if name.split(".")[0] == "ultraseq"}

        def fresh_import():
            for name in [n for n in sys.modules
                         if n.split(".")[0] == "ultraseq"]:
                del sys.modules[name]
            return importlib.import_module("ultraseq")

        try:
            old = weakref.ref(fresh_import().seqcore.SeqWindow)
            fresh_import()
            gc.collect()
            assert old() is None
        finally:
            for name in [n for n in sys.modules
                         if n.split(".")[0] == "ultraseq"]:
                del sys.modules[name]
            sys.modules.update(saved)
