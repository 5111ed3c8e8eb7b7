"""Families: seeded rows, sparse-left variants, periodic placements,
composites, growth models, and descriptor parsing."""
import gc
import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ultraseq import families
from ultraseq.cli import dispatch
from ultraseq.errors import (
    DegenerateBase,
    IdentityViolation,
    InvalidConfig,
    TooLarge,
)
from ultraseq.exactmath import fib, lucas
from ultraseq.families import (
    OPowerConfig,
    Placements,
    TauConfig,
    approx_predict,
    approx_report,
    build_approx_model,
    build_family,
    composite_row,
    delta_identities,
    canonical_o_power_config,
    o_power_window,
    omega_slice,
    omega_value,
    omega_window,
    parse_family,
    pi_closed,
    pi_quad_row,
    pi_row_relation,
    pi_star_even_closed,
    pi_star_window,
    pi_two_point,
    pi_window,
    tau_enumerate,
    tau_window,
)
from ultraseq.seqcore import MAX_WINDOW_ENV, verify_O_range

# Seeded rows m = 1..8, indices 0..7.
PI_MATRIX = [
    [1, 2, 5, 9, 16, 27, 45, 74],
    [2, 2, 6, 10, 18, 30, 50, 82],
    [3, 2, 7, 11, 20, 33, 55, 90],
    [4, 2, 8, 12, 22, 36, 60, 98],
    [5, 2, 9, 13, 24, 39, 65, 106],
    [6, 2, 10, 14, 26, 42, 70, 114],
    [7, 2, 11, 15, 28, 45, 75, 122],
    [8, 2, 12, 16, 30, 48, 80, 130],
]

# Composite rows for seeds 1..6 over the period-6 left tail, indices 0..8.
SEED_MATRIX = [
    [1, 2, 5, 17, 24, 47, 93, 174, 321],
    [2, 2, 6, 18, 34, 62, 118, 218, 398],
    [3, 10, 19, 35, 60, 113, 215, 398, 731],
    [4, 10, 20, 36, 70, 128, 240, 442, 820],
    [5, 10, 21, 33, 68, 127, 229, 426, 793],
    [6, 10, 22, 34, 66, 122, 234, 430, 798],
]


class TestPiFamily:
    def test_matrix_reproduction(self):
        for m, row in enumerate(PI_MATRIX, start=1):
            w = pi_window(m, 7)
            assert w.slice(0, 7) == row
            assert w.value_at(-5) == -2

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=120))
    def test_closed_form_methods_agree(self, m, n):
        assert pi_closed(m, n, "fib") == pi_closed(m, n, "quad")

    @pytest.mark.parametrize("m, lo, hi", [(1, 0, 30), (7, 37, 45),
                                           (9, 150, 151), (4, 12, 12)])
    def test_quad_row_matches_fib_form(self, m, lo, hi):
        assert pi_quad_row(m, lo, hi) == [pi_closed(m, n, "fib")
                                          for n in range(lo, hi + 1)]

    def test_closed_form_matches_generation(self):
        for m in (1, 5, 8):
            w = pi_window(m, 40)
            for n in range(41):
                assert w.value_at(n) == pi_closed(m, n)

    def test_row_relation_and_two_point_hold(self):
        for m in (1, 3, 7):
            for t in (1, 2, 5):
                for n in range(0, 25, 3):
                    pi_row_relation(m, t, n)  # raises on failure
                    pi_two_point(m, t, 4, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            pi_window(0, 5)
        with pytest.raises(ValueError):
            pi_closed(1, -1)
        with pytest.raises(ValueError):
            pi_closed(1, 3, "mystery")
        with pytest.raises(ValueError):
            pi_quad_row(0, 0, 3)
        with pytest.raises(ValueError):
            pi_quad_row(1, -1, 3)


class TestDeltaIdentities:
    def test_all_checked_forms_over_grid(self):
        for m in (1, 2, 3, 6):
            for k in range(1, 5):
                for n in range(k + 1, 31):
                    checked = delta_identities(m, k, n)
                    assert {"fib_form", "recurrence",
                            "shift_form"} <= checked.keys()

    def test_special_forms_at_small_indices(self):
        # negative-index Lucas/Fibonacci values appear near the seam
        assert delta_identities(6, 1, 0)["value"] == -4 == 4 * lucas(-1)
        assert delta_identities(1, 1, 0)["value"] == 1 == lucas(1)
        assert delta_identities(2, 1, 1)["value"] == 4 == 4 * fib(1)

    def test_row_two_printed_index_is_one_too_low(self):
        # the generated difference refutes a shift of the row-2 form by one
        w = pi_window(2, 6)
        d1 = [w.value_at(n + 1) - w.value_at(n) for n in range(5)]
        assert d1 == [4 * fib(n + 1 - 1) for n in range(5)]
        assert d1 != [4 * fib(n - 1) for n in range(5)]

    def test_order_validation(self):
        with pytest.raises(ValueError):
            delta_identities(1, 0, 5)


class TestPiStarFamily:
    def test_displayed_window(self):
        w = pi_star_window(1, 9)
        assert w.slice(0, 9) == [1, 2, 5, 9, 16, 20, 38, 42, 82, 86]
        for pos, val in ((-6, -9), (-15, -20), (-35, -42), (-77, -86)):
            assert w.value_at(pos) == val
        # everything else on the materialized left side is -2
        marked = {-6, -15, -35, -77}
        for k in range(w.lo, 0):
            if k not in marked:
                assert w.value_at(k) == -2

    def test_verifies_on_checkable_positions(self):
        w = pi_star_window(1, 9)
        report = verify_O_range(w, w.lo, w.hi - 1)
        assert report.violation_count == 0 and report.ok_count > 50

    def test_even_closed_form(self):
        for m in range(1, 5):
            for n in range(2, 13):
                assert pi_star_even_closed(m, n) == 2 ** (n - 1) * (m + 10) - 6

    def test_validation(self):
        with pytest.raises(ValueError):
            pi_star_window(1, 2)
        with pytest.raises(ValueError):
            pi_star_even_closed(1, 1)


def _brute_force_tau(m: int, canonical: bool = False) -> list[tuple[int, ...]]:
    """Independent enumeration straight from the placement rules: every
    2m-subset of the period, kept when no two slots are cyclically adjacent
    and split every way into m positive and m negative placements; with
    ``canonical``, the least rotation of each unit.  Sorted units."""
    period = 4 * m + 2
    units = []
    for q in itertools.combinations(range(1, period + 1), 2 * m):
        if any((a - b) % period == 1 for a in q for b in q):
            continue
        for p in itertools.combinations(q, m):
            units.append(tuple(period if j in p else -period if j in q else -2
                               for j in range(1, period + 1)))
    if canonical:
        units = {min(u[t:] + u[:t] for t in range(period)) for u in units}
    return sorted(units)


def _burnside_classes(m: int) -> int:
    """Rotation classes by Burnside's lemma: a rotation by s fixes the units
    that repeat a block of g = gcd(s, period) values, and such a block holds
    k = m*g/period placements of each sign, no two cyclically adjacent."""
    period = 4 * m + 2
    fixed = 0
    for s in range(period):
        g = math.gcd(s, period)
        if m * g % period:
            continue
        k = m * g // period
        # 2k pairwise non-adjacent slots on a cycle of g, then k of them +
        fixed += (g * math.comb(g - 2 * k, 2 * k) // (g - 2 * k)
                  * math.comb(2 * k, k))
    return fixed // period


class TestTauFamily:
    def test_config_unit_and_descriptor(self):
        c = TauConfig(1, {5}, {1})
        assert c.unit() == (-6, -2, -2, -2, 6, -2)
        assert c.descriptor() == "tau:m=1,P=5,N=1"
        assert parse_family(c.descriptor()).config == c

    def test_validation_errors(self):
        with pytest.raises(InvalidConfig):
            TauConfig(1, {5}, {5})  # overlap
        with pytest.raises(InvalidConfig):
            TauConfig(1, {5}, {4})  # cyclically adjacent
        with pytest.raises(InvalidConfig):
            TauConfig(1, {6}, {1})  # adjacent across the wrap
        with pytest.raises(InvalidConfig):
            TauConfig(1, {7}, {1})  # out of range
        with pytest.raises(InvalidConfig):
            TauConfig(2, {5}, {1})  # wrong placement count

    def test_enumeration_matches_brute_force(self):
        for m in (1, 2, 3, 4):
            for canonical in (False, True):
                got = [c.unit() for c in tau_enumerate(m, canonical)]
                assert got == _brute_force_tau(m, canonical)

    def test_m1_counts(self):
        assert len(tau_enumerate(1)) == 18
        assert len(tau_enumerate(1, canonical=True)) == 3

    def test_canonical_units_are_distinct_least_rotations(self):
        canon = tau_enumerate(1, canonical=True)
        units = [c.unit() for c in canon]
        assert len(set(units)) == len(units)
        raw_units = {c.unit() for c in tau_enumerate(1)}
        period = 6
        for u in units:
            rotations = {tuple(u[(j + t) % period] for j in range(period))
                         for t in range(period)}
            assert u == min(rotations)
            assert rotations <= raw_units

    def test_every_config_verifies_over_three_periods(self):
        for c in tau_enumerate(1):
            w = tau_window(c, 3)
            report = verify_O_range(w, w.lo, w.lo + 3 * c.period - 1)
            assert report.violation_count == 0
            assert report.uncheckable_count == 0

    def test_large_periods_are_refused(self, monkeypatch):
        # the guard is the output size: count placements of 4m+2 values,
        # and about count values with canonical
        monkeypatch.delenv(MAX_WINDOW_ENV, raising=False)
        with pytest.raises(TooLarge):
            tau_enumerate(8)
        with pytest.raises(TooLarge):
            tau_enumerate(6)
        with pytest.raises(TooLarge):
            tau_enumerate(8, canonical=True)
        # m=2 emits 150 placements of 10 values
        for canonical, cap, n in ((False, 1500, 150), (True, 150, 16)):
            monkeypatch.setenv(MAX_WINDOW_ENV, str(cap))
            assert len(tau_enumerate(2, canonical)) == n
            monkeypatch.setenv(MAX_WINDOW_ENV, str(cap - 1))
            with pytest.raises(TooLarge):
                tau_enumerate(2, canonical)

    def test_validation_matches_pairwise_rule(self):
        for m in (1, 2):
            period = 4 * m + 2
            slots = range(0, period + 2)  # one out of range at each end
            for pos in itertools.combinations(slots, m):
                for neg in itertools.combinations(slots, m):
                    q = set(pos) | set(neg)
                    ok = (len(q) == 2 * m
                          and all(1 <= v <= period for v in q)
                          and not any((a - b) % period == 1
                                      for a in q for b in q))
                    if ok:
                        TauConfig(m, pos, neg)
                    else:
                        with pytest.raises(InvalidConfig):
                            TauConfig(m, pos, neg)

    def test_counts_match_closed_forms(self, monkeypatch):
        # with every item a valid placement and the units strictly
        # increasing, the right count means exactly the full set, in order;
        # canonical items must also be their own least rotations
        monkeypatch.delenv(MAX_WINDOW_ENV, raising=False)
        classes = [3, 16, 70, 318, 1386, 6016, 25740]
        for m in range(1, 8):
            assert _burnside_classes(m) == classes[m - 1]
            runs = [(True, classes[m - 1])]
            if m <= 5:
                runs.append((False, (2 * m + 1) ** 2 * math.comb(2 * m, m)))
            for canonical, count in runs:
                got = tau_enumerate(m, canonical)
                assert len(got) == count
                units = [c.unit() for c in got]  # each parsed and validated
                assert all(a < b for a, b in zip(units, units[1:]))
                if canonical:
                    assert all(u == min(u[t:] + u[:t] for t in range(len(u)))
                               for u in units)

    def test_placements_read_as_validated_configs(self):
        got = tau_enumerate(2)
        assert isinstance(got, Placements) and len(got) == 150
        assert len(got.descriptors) == 150
        configs = list(got)
        assert all(isinstance(c, TauConfig) for c in configs)
        assert [c.descriptor() for c in configs] == list(got.descriptors)
        for i in (0, 1, 77, 149, -1, -150):
            assert got[i] == configs[i]
            assert got.descriptors[i] == got[i].descriptor()
        for i in (150, -151):
            with pytest.raises(IndexError):
                got[i]
        for cut in (slice(3, 9), slice(None, None, 7), slice(-5, None),
                    slice(9, 3)):
            part = got[cut]
            assert isinstance(part, Placements)
            assert list(part) == configs[cut]
        assert got.index(configs[5]) == 5 and configs[5] in got
        assert list(reversed(got)) == configs[::-1]
        with pytest.raises(TypeError):
            got[0] = configs[1]

    @pytest.mark.parametrize("canonical", [False, True])
    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_cli_builds_no_configs(self, capsys, monkeypatch, canonical,
                                   fmt):
        argv = ["enumerate", "--m", "4", "--format", fmt]
        argv += ["--canonical"] * canonical
        assert dispatch(argv) == 0
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise RuntimeError("a TauConfig was built")

        monkeypatch.setattr(TauConfig, "__init__", refuse)
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == expected
        with pytest.raises(RuntimeError):
            tau_enumerate(1)[0]

    def test_huge_m_is_refused_with_small_binomials(self, monkeypatch):
        monkeypatch.delenv(MAX_WINDOW_ENV, raising=False)
        calls = []
        comb = families.math.comb

        def counted(n, k):
            calls.append(n)
            return comb(n, k)

        monkeypatch.setattr(families.math, "comb", counted)
        for canonical in (False, True):
            with pytest.raises(TooLarge, match=r"m=1000000 .* 1000000 "):
                tau_enumerate(10 ** 6, canonical)
        assert calls and max(calls) <= 100

    def test_enumeration_leaves_no_cyclic_garbage(self):
        gc.collect()
        gc.disable()
        try:
            for canonical in (False, True):
                tau_enumerate(2, canonical=canonical)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_canonical_is_the_least_rotations_of_the_plain_units(self, m):
        # the plain enumeration (joined half units) shares no code with the
        # canonical construction (gap patterns and sign words)
        least = sorted({min(u[t:] + u[:t] for t in range(len(u)))
                        for u in (c.unit() for c in tau_enumerate(m))})
        assert [c.unit() for c in tau_enumerate(m, canonical=True)] == least

    @pytest.mark.parametrize("m", [4, 5])
    def test_canonical_builds_few_candidates_without_recursion(
            self, m, monkeypatch):
        # each candidate class costs one min over its rotations; a search
        # would show up as repeated calls of a function of the module
        mins, calls = [], []

        def counted_min(rotations):
            mins.append(1)
            return min(rotations)

        monkeypatch.setattr(families, "min", counted_min, raising=False)

        def profile(frame, event, arg):
            code = frame.f_code
            if (event == "call" and code.co_filename == families.__file__
                    and not code.co_name.startswith("<")):
                calls.append(code.co_name)

        sys.setprofile(profile)
        try:
            got = families._canonical_descriptors(m)
        finally:
            sys.setprofile(None)
        assert calls == ["_canonical_descriptors"]
        assert len(got) <= len(mins) <= (m + 1) * math.comb(2 * m, m)


class TestOmega:
    def test_values(self):
        assert omega_slice(-4, 6) == [-10, -2, -6, -2, -2, -2, -2, 6, -2,
                                      10, -2]
        assert omega_value(3) == 6 and omega_value(7) == 14
        assert omega_value(-2) == -6 and omega_value(-8) == -18
        assert omega_value(0) == -2 and omega_value(1) == -2
        assert omega_value(2) == -2 and omega_value(-1) == -2

    def test_window_verifies(self):
        w = omega_window(4)
        report = verify_O_range(w, w.lo, w.hi - 1)
        assert report.violation_count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            omega_window(1)


class TestComposites:
    def test_seed_matrix(self):
        c = TauConfig(1, {5}, {1})
        for seed, row in enumerate(SEED_MATRIX, start=1):
            assert composite_row(c, (), seed, 8).slice(0, 8) == row

    def test_long_rows_with_mid_slices(self):
        r2 = composite_row(TauConfig(2, {6, 9}, {1, 3}),
                           omega_slice(-4, 6), 1, 12)
        assert r2.slice(0, 12) == [1, 2, 5, 21, 48, 83, 169, 302, 589,
                                   1121, 2128, 4075, 7753]
        r3 = composite_row(TauConfig(3, {8, 11, 13}, {1, 3, 6}),
                           omega_slice(-6, 8), 1, 12)
        assert r3.slice(0, 12) == [1, 2, 5, 25, 60, 103, 201, 402, 749,
                                   1477, 2852, 5495, 10641]

    def test_rows_verify(self):
        c = TauConfig(1, {5}, {1})
        w = composite_row(c, omega_slice(-4, 6), 2, 10)
        report = verify_O_range(w, w.lo - 12, w.hi - 1)
        assert report.violation_count == 0

    def test_validation(self):
        c = TauConfig(1, {5}, {1})
        with pytest.raises(ValueError):
            composite_row(c, (), 0, 5)
        with pytest.raises(ValueError):
            composite_row(c, (), 1, 0)


class TestApproxModel:
    def test_characteristic_values(self):
        phi1 = (5 + math.sqrt(37)) / 6
        phi2 = (9 + math.sqrt(101)) / 10
        m1 = build_approx_model(1, 7, 174, 321)
        m2 = build_approx_model(2, 11, 4075, 7753)
        assert m1.phi_m == pytest.approx(phi1)
        assert m2.phi_m == pytest.approx(phi2)
        assert float(m1.xi) == pytest.approx(2 - 1 / 3)
        assert float(m2.xi) == pytest.approx(2 - 1 / 5)

    def test_predictions_interpolate_base_exactly(self):
        model = build_approx_model(1, 7, 174, 321)
        assert approx_predict(model, 0) == 174
        assert approx_predict(model, 1) == 321
        assert approx_predict(model, 2) == Fraction(5 * 321 + 174, 3)

    @staticmethod
    def float_model(m, u_n, u_n1, r):
        """The model in floats, through its constants kappa+ and kappa-."""
        xi = 2 - 1 / (2 * m + 1)
        disc = math.sqrt((xi - 2) ** 2 + 4)
        phi = (xi + disc) / 2
        kappa_plus = (u_n1 - (xi - phi) * u_n) / disc
        kappa_minus = (phi * u_n - u_n1) / disc
        return kappa_plus * phi ** r + kappa_minus * (xi - phi) ** r

    @settings(max_examples=50, deadline=None)
    @given(u_n=st.integers(1, 2 ** 42),
           ratio=st.fractions(1, 2, max_denominator=1000))
    def test_predictions_agree_with_the_float_model(self, u_n, ratio):
        # a growing row rises by a ratio between 1 and 2, so every value
        # stays below 2^50 and the float sum does not cancel
        u_n1 = round(u_n * ratio)
        for m in range(1, 5):
            model = build_approx_model(m, 0, u_n, u_n1)
            for r in range(9):
                exact = approx_predict(model, r)
                assert type(exact) is Fraction and exact < 2 ** 50
                assert float(exact) == pytest.approx(
                    self.float_model(m, u_n, u_n1, r), rel=1e-9)

    def test_report_on_generated_row(self):
        row = composite_row(TauConfig(1, {5}, {1}), (), 1, 14)
        report = approx_report(row, 1, 8, 6)
        assert report.ratio_rel_error < 0.01
        assert max(r.rel_error for r in report.rows) < 0.05

    def test_report_past_float_range(self):
        row = composite_row(TauConfig(1, {5}, {1}), (), 1, 1510)
        report = approx_report(row, 1, 1500, 8)
        assert [r.exact for r in report.rows] == row.slice(1500, 1508)
        assert report.rows[0].exact > 2 ** 1024
        assert [r.rel_error for r in report.rows[:2]] == [0.0, 0.0]
        assert max(r.rel_error for r in report.rows) < 0.05

    def test_report_on_collapsed_row(self):
        row = composite_row(TauConfig(2, {1, 4}, {6, 8}), (), 1, 12)
        assert set(row.values[-8:]) == {0}
        with pytest.raises(DegenerateBase):
            approx_report(row, 2, row.hi - 7, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_approx_model(0, 0, 1, 2)
        model = build_approx_model(1, 7, 174, 321)
        with pytest.raises(ValueError):
            approx_predict(model, -1)


class TestOPowerFamily:
    def test_canonical_config_shapes(self):
        for m in (1, 2, 3):
            c = canonical_o_power_config(m)
            unit = c.unit()
            assert c.r == 2 * m + 1
            assert unit.count(2 * m + 2) == m
            assert unit.count(-(2 * m + 2)) == m + 1
            assert sum(unit) == -(2 * m + 2)

    def test_each_element_generates_the_previous_one(self):
        # O acts as the index shift here, so the generated value at p+1
        # always equals the value at p (never the value at p+1 itself)
        w = o_power_window(canonical_o_power_config(1), 3)
        for entry in verify_O_range(w, 1, 9).entries:
            assert entry.expected == w.value_at(entry.position)

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            OPowerConfig(3, ("+", "-"))  # wrong length
        with pytest.raises(InvalidConfig):
            OPowerConfig(3, ("+", "+", "-"))  # period sum is +4, not -4
        with pytest.raises(InvalidConfig):
            OPowerConfig(3, ("+", "x", "-"))
        with pytest.raises(InvalidConfig):
            OPowerConfig(0, ())

    def test_descriptor_roundtrip(self):
        c = OPowerConfig(4, ("+", "0", "-", "-"))
        w = build_family(c.descriptor(), 1, 8)
        assert w.slice(1, 4) == list(c.unit())


class TestDescriptors:
    @pytest.mark.parametrize("descriptor,first", [
        ("pi:m=3", [3, 2, 7, 11]),
        ("pistar:m=1", [1, 2, 5, 9]),
        ("omega:extent=4", [-2, -2, -2, 6]),
        ("opower:r=3,unit=+,-,-", None),
        ("composite:left=tau:m=1,P=5,N=1,seed=1", [1, 2, 5, 17]),
        ("composite:left=tau:m=2,P=6;9,N=1;3,mid=omega:-4..6,seed=1",
         [1, 2, 5, 21]),
    ])
    def test_build_family_prefixes(self, descriptor, first):
        w = build_family(descriptor, 0, 10)
        if first is not None:
            assert w.slice(0, 3) == first

    def test_tau_descriptor(self):
        w = build_family("tau:m=2,P=6;9,N=1;3", 1, 10)
        assert w.slice(1, 10) == list(TauConfig(2, {6, 9}, {1, 3}).unit())

    def test_growth_parameter_extraction(self):
        assert parse_family("tau:m=2,P=6;9,N=1;3").growth_m == 2
        assert parse_family(
            "composite:left=tau:m=1,P=5,N=1,seed=3").growth_m == 1
        for descriptor in ("pi:m=1", "pistar:m=1", "omega:extent=3",
                           "opower:r=3,unit=+,-,-"):
            assert parse_family(descriptor).growth_m is None

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            build_family("sigma:m=1", 0, 5)
        with pytest.raises(ValueError, match="got 'pi:m=1'"):
            parse_family("composite:left=pi:m=1,seed=1")
        with pytest.raises(ValueError, match="expected omega:"):
            parse_family("composite:left=tau:m=1,P=5,N=1,mid=pi:1..2,seed=1")

    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from(tau_enumerate(2)))
    def test_tau_descriptor_roundtrip(self, config):
        assert parse_family(config.descriptor()).config == config

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_tau_descriptor_parses_back(self, m):
        for config in tau_enumerate(m):
            family = parse_family(config.descriptor())
            assert family.kind == "tau" and family.config == config

    def test_opower_descriptor_parses_back(self):
        for config in (OPowerConfig(4, ("+", "0", "-", "-")),
                       canonical_o_power_config(2)):
            assert parse_family(config.descriptor()).config == config

    def test_readme_descriptors_parse(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        section = text.split("**Families.**", 1)[1].split("**Growth.**", 1)[0]
        descriptors = re.findall(r"^- `([a-z]+:[^`]*)`", section, re.M)
        assert sorted(d.partition(":")[0] for d in descriptors) == sorted(
            ["pi", "pistar", "tau", "omega", "composite", "opower"])
        for descriptor in descriptors:
            family = parse_family(descriptor)
            assert family.window(0, 10).defined(0), descriptor

    def test_nested_and_comma_values(self):
        family = parse_family(
            "composite:left=tau:m=2,P=6;9,N=1;3,mid=omega:-4..6,seed=1,"
            "steps=9")
        assert family.values == {"left": TauConfig(2, {6, 9}, {1, 3}),
                                 "mid": (-4, 6), "seed": 1, "steps": 9}
        assert parse_family("opower:r=3,unit=+,-,-").config == \
            OPowerConfig(3, ("+", "-", "-"))
        assert parse_family("opower:unit=+,-,-,r=3").config == \
            OPowerConfig(3, ("+", "-", "-"))


#: per kind, a valid descriptor, one with a key missing, one with an unknown
#: key, one with a repeated key and one with a value that is not an integer
BAD_DESCRIPTORS = {
    "pi": ("pi:m=1", "pi:", "pi:m=1,x=3", "pi:m=1,m=2", "pi:m=x"),
    "pistar": ("pistar:m=1", "pistar:", "pistar:m=1,q=1", "pistar:m=1,m=1",
               "pistar:m=1.5"),
    "tau": ("tau:m=1,P=5,N=1", "tau:m=1", "tau:m=1,P=5,N=1,Q=2",
            "tau:m=1,P=5,N=1,P=5", "tau:m=1,P=5,N=a"),
    "omega": ("omega:extent=3", "omega:", "omega:extent=3,width=2",
              "omega:extent=3,extent=4", "omega:extent=three"),
    "opower": ("opower:r=3,unit=+,-,-", "opower:r=3",
               "opower:r=3,unit=+,-,-,s=1", "opower:r=3,r=3,unit=+,-,-",
               "opower:r=x,unit=+,-,-"),
    "composite": ("composite:left=tau:m=1,P=5,N=1,seed=1",
                  "composite:left=tau:m=1,P=5,N=1",
                  "composite:left=tau:m=1,P=5,N=1,seed=1,bogus=3",
                  "composite:left=tau:m=1,P=5,N=1,seed=1,seed=2",
                  "composite:left=tau:m=1,P=5,N=1,seed=1,steps=x"),
}

ACCEPTED_KEYS = {"pi": ["m"], "pistar": ["m"], "tau": ["m", "P", "N"],
                 "omega": ["extent"], "opower": ["r", "unit"],
                 "composite": ["left", "mid", "seed", "steps"]}


class TestParseFamily:
    @pytest.mark.parametrize("kind", sorted(BAD_DESCRIPTORS))
    def test_each_kind_refuses_bad_keys_and_values(self, kind):
        good, *bad = BAD_DESCRIPTORS[kind]
        assert parse_family(good).kind == kind
        for descriptor, problem in zip(bad, ("missing", "unknown", "repeated",
                                             "invalid literal")):
            with pytest.raises(ValueError) as exc:
                parse_family(descriptor)
            message = str(exc.value)
            assert problem in message, message
            assert f"{kind} takes " + ", ".join(ACCEPTED_KEYS[kind]) in \
                message.replace(" (optional)", ""), message

    def test_unknown_key_inside_a_nested_descriptor(self):
        with pytest.raises(ValueError, match="tau takes m, P, N"):
            parse_family("composite:left=tau:m=1,P=5,N=1,bogus=3,seed=1")

    def test_invalid_placement_is_an_invalid_config(self):
        with pytest.raises(InvalidConfig):
            parse_family("tau:m=1,P=5,N=5")

    def test_equal_descriptors_give_equal_families(self):
        a = parse_family("composite:left=tau:m=1,P=5,N=1,seed=2")
        b = parse_family("composite:seed=2,left=tau:m=1,P=5,N=1")
        assert a == b and hash(a) == hash(b)
        assert parse_family("pi:m=1") != parse_family("pi:m=2")

    def test_build_family_is_parse_then_window(self):
        for descriptor in ("pi:m=2", "pistar:m=1", "omega:extent=2",
                           "composite:left=tau:m=1,P=5,N=1,seed=2"):
            assert build_family(descriptor, -3, 9) == \
                parse_family(descriptor).window(-3, 9)


class TestWindowCap:
    """Windows over the cap are refused before they are built: the peak of
    traced memory stays far below what the refused window would take."""

    @pytest.mark.parametrize("descriptor,lo,hi", [
        ("pistar:m=1", 0, 40),
        ("pistar:m=1", 0, 100000),
        ("pistar:m=1", -10 ** 7, 3),
        ("omega:extent=2", -3000000, 3),
        ("composite:left=tau:m=1,P=5,N=1,mid=omega:-3000000..3,seed=1", 0, 5),
    ])
    def test_refused_before_allocating(self, monkeypatch, descriptor, lo, hi):
        monkeypatch.delenv(MAX_WINDOW_ENV, raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                build_family(descriptor, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_pistar_grows_until_the_left_side_reaches(self):
        w = build_family("pistar:m=1", -700, 3)
        assert w.lo <= -700
        assert w == pi_star_window(1, w.hi, 0)
        # one step of two indices fewer would not reach
        assert pi_star_window(1, w.hi - 2).lo > -700
