"""The value classes: each is a ``collections.namedtuple`` or a
``seqcore.Frozen``, with the repr, equality, hashing, immutability and
pickling it had as a frozen dataclass, and the constructors take integral
values only."""
import copy
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ultraseq.families import (
    ApproxModel,
    ApproxReport,
    ApproxReportRow,
    Family,
    OPowerConfig,
    TauConfig,
    parse_family,
)
from ultraseq.seqcore import (
    CheckEntry,
    CheckReport,
    FreeCheck,
    Periodic,
    SeqWindow,
    breve,
    concat,
    constant,
    extend_right_by_O,
    from_csv,
    from_document,
    from_json,
    range_sum,
    to_csv,
    to_document,
    to_json,
)
from ultraseq.transform import GParams, HParams, recurrence_1_3_extend

MODEL = (1, Fraction(5, 3), 1.5, 2, 7, 11)
ROW = (1, Fraction(11), 11, 0.0)

#: each class: a builder of one value, the arguments of an equal value and
#: of an unequal one, and the repr the frozen dataclass wrote for the first
CASES = {
    "Periodic": (Periodic, [(1, -2)], [(-2, 1)],
                 "Periodic(unit=(1, -2))"),
    "SeqWindow": (lambda *a: SeqWindow(*a, left=constant(-2)),
                  [-1, (4, 5, 6)], [0, (4, 5, 6)],
                  "SeqWindow(lo=-1, per[-2] | [4, 5, 6] | undef)"),
    "CheckEntry": (CheckEntry, [0, 3, 3, "ok"], [0, 3, 4, "violation"],
                   "CheckEntry(position=0, expected=3, actual=3, "
                   "status='ok')"),
    "CheckReport": (lambda *e: CheckReport(CheckEntry(*x) for x in e),
                    [(0, 3, 3, "ok"), (1, None, None, "uncheckable")],
                    [(0, 3, 3, "ok")],
                    "CheckReport(entries=(CheckEntry(position=0, "
                    "expected=3, actual=3, status='ok'), CheckEntry("
                    "position=1, expected=None, actual=None, "
                    "status='uncheckable')))"),
    "FreeCheck": (FreeCheck, [False, 2, 1], [True],
                  "FreeCheck(ok=False, position=2, condition=1)"),
    "HParams": (HParams, [abs] * 6, [abs] * 5 + [round],
                "HParams(" + ", ".join(f"f{i}=<built-in function abs>"
                                       for i in range(1, 7)) + ")"),
    "GParams": (GParams, [3, -1], [3, 1], "GParams(p=3, q=-1)"),
    "TauConfig": (TauConfig, [1, {5}, {1}], [1, {1}, {5}],
                  "TauConfig(m=1, pos=frozenset({5}), neg=frozenset({1}))"),
    "ApproxModel": (ApproxModel, MODEL, MODEL[:-1] + (12,),
                    "ApproxModel(m=1, xi=Fraction(5, 3), phi_m=1.5, "
                    "base_n=2, u_n=7, u_n1=11)"),
    "ApproxReportRow": (ApproxReportRow, ROW, ROW[:-1] + (0.5,),
                        "ApproxReportRow(r=1, predicted=Fraction(11, 1), "
                        "exact=11, rel_error=0.0)"),
    "ApproxReport": (lambda m, r, e: ApproxReport(ApproxModel(*m),
                                                  (ApproxReportRow(*r),), e),
                     [MODEL, ROW, 1.5], [MODEL, ROW, 1.6],
                     "ApproxReport(model=ApproxModel(m=1, xi=Fraction(5, 3),"
                     " phi_m=1.5, base_n=2, u_n=7, u_n1=11), rows=("
                     "ApproxReportRow(r=1, predicted=Fraction(11, 1), "
                     "exact=11, rel_error=0.0),), empirical_ratio=1.5)"),
    "OPowerConfig": (OPowerConfig, [3, "+--"], [3, "-+-"],
                     "OPowerConfig(r=3, placement=('+', '-', '-'))"),
    "Family": (lambda text: parse_family(text), ["tau:m=1,P=5,N=1"],
               ["tau:m=1,P=1,N=5"],
               "Family(kind='tau', values={'m': 1, 'P': [5], 'N': [1]}, "
               "config=TauConfig(m=1, pos=frozenset({5}), "
               "neg=frozenset({1})))"),
}


@pytest.fixture(params=CASES, ids=str)
def case(request):
    build, args, other, text = CASES[request.param]
    return build(*args), build(*args), build(*other), text


class TestValueSemantics:
    def test_repr_is_the_dataclass_text(self, case):
        value, _, _, text = case
        assert repr(value) == text

    def test_equal_values_hash_equal_and_unequal_ones_differ(self, case):
        value, same, other, _ = case
        assert value is not same and value == same
        assert hash(value) == hash(same)
        assert value != other and not value == other

    def test_fields_can_be_neither_assigned_nor_deleted(self, case):
        value, same, _, _ = case
        field = type(value)._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 0
        assert value == same

    def test_pickle_and_copy_round_trip(self, case):
        value = case[0]
        for back in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                     copy.deepcopy(value)):
            assert type(back) is type(value) and back == value
            assert repr(back) == repr(value)

    def test_a_window_copies_after_its_cache_fills(self):
        w = SeqWindow(-1, (4, 5, 6), left=constant(-2))
        assert range_sum(w, -3, 1) == 11
        for back in (pickle.loads(pickle.dumps(w)), copy.copy(w),
                     copy.deepcopy(w)):
            assert back == w and hash(back) == hash(w)
            assert back._prefix == w._prefix == [0, 4, 9, 15]

    def test_a_family_hash_ignores_its_values(self):
        a, b = Family("pi", {"m": 1}), Family("pi", {"m": 2})
        assert a != b and hash(a) == hash(b)
        assert Family("pi", {"m": 1}) == a


# --- exact constructors ---------------------------------------------------------

fractional = st.one_of(
    st.floats(-1e6, 1e6).filter(lambda x: x != int(x)),
    st.fractions(-1000, 1000, max_denominator=1000).filter(
        lambda f: f.denominator != 1),
    st.decimals(-1000, 1000, places=3).filter(lambda d: d != int(d)),
)
integral = st.integers(-1000, 1000).flatmap(lambda n: st.sampled_from(
    [n, float(n), Fraction(n), Decimal(n).quantize(Decimal("0.01"))]))


@given(fractional)
def test_a_fractional_value_is_refused_by_name(x):
    builds = [
        lambda: SeqWindow(0, [1, x, 3]),
        lambda: SeqWindow(x, [1]),
        lambda: Periodic([x]),
        lambda: breve([1, x], 0),
        lambda: concat(SeqWindow(0, [1]), [x]),
        lambda: TauConfig(x, {5}, {1}),
        lambda: TauConfig(1, {x}, {1}),
        lambda: OPowerConfig(x, "+--"),
        lambda: extend_right_by_O(SeqWindow(0, [-3]), 1, supplied={1: x}),
        lambda: recurrence_1_3_extend(GParams(1, -1), 1, [1, x], 2),
    ]
    for build in builds:
        with pytest.raises(ValueError, match=re.escape(repr(x))):
            build()


@given(st.lists(integral, min_size=1, max_size=6), integral)
def test_integral_values_are_held_as_ints(values, lo):
    w = SeqWindow(lo, values, right=Periodic(values))
    assert w.lo == int(lo) and w.values == w.right.unit == tuple(
        map(int, values))
    assert set(map(type, (w.lo, *w.values))) == {int}
    assert TauConfig(Fraction(1), [5.0], [Decimal(1)]) == TauConfig(1, {5},
                                                                    {1})


@given(st.lists(st.integers(), min_size=1, max_size=6), st.integers())
def test_documents_read_as_before(values, lo):
    w = SeqWindow(lo, values, left=Periodic(values[:1]))
    assert from_json(to_json(w)) == w
    assert from_document({**to_document(w), "values": values}) == w
    assert from_csv(to_csv(w)) == SeqWindow(lo, values)
