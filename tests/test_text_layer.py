"""The fast text layer and tail kernel against their per-value forms.

Each oracle here is the form the fast path replaced: ``json.dumps`` with an
indent (CPython's pure-Python encoder), a ``csv.writer`` loop over
``value_at`` or over a table's rows, one ``value_at`` per position, and the
O(period) tail sum.
"""
import contextlib
import csv
import io
import json

import pytest
from hypothesis import example, given, strategies as st

from test_cli_golden import GOLDEN, docs  # noqa: F401  (docs is a fixture)
from ultraseq import reference
from ultraseq.cli import dispatch
from ultraseq.errors import OutOfDomain
from ultraseq.families import parse_family
from ultraseq.seqcore import (
    Periodic,
    SeqWindow,
    json_table,
    json_text,
    range_sum,
    to_csv,
    to_document,
    to_json,
)


# --- oracles -------------------------------------------------------------------

def csv_writer(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def csv_writer_rows(w: SeqWindow, a: int, b: int) -> str:
    return csv_writer(["index", "value"],
                      ([k, w.value_at(k)] for k in range(a, b + 1)))


def cli_text(*argv: str) -> tuple[int, str]:
    """Exit code and stdout of one command, with no pytest fixture, so that
    hypothesis can draw its arguments."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(list(argv))
    return code, out.getvalue()


def outcome(f, *args):
    try:
        return f(*args)
    except OutOfDomain as exc:
        return ("OutOfDomain", exc.index)


def per_position(w: SeqWindow, a: int, b: int) -> list[int]:
    return [w.value_at(k) for k in range(a, b + 1)]


def period_loop_sum(unit: tuple[int, ...], t0: int, t1: int) -> int:
    """Whole periods by multiplication, the rest one value at a time."""
    if t0 > t1:
        return 0
    p = len(unit)
    full, rem = divmod(t1 - t0 + 1, p)
    start = t0 + full * p
    return full * sum(unit) + sum(unit[(start + j) % p] for j in range(rem))


# --- JSON ------------------------------------------------------------------------

texts = st.text(alphabet=st.sampled_from(
    ["a", "s", "0", " ", "\n", "\r", "\t", '"', "\\", "%", "/", ",", ":",
     "[", "]", "{", "}", "é", "π", "\u2028", "\x00", "😀"]), max_size=8)
scalars = st.one_of(
    st.none(), st.booleans(), texts,
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True))
keys = st.one_of(texts, st.integers(-5, 5), st.booleans(), st.none(),
                 st.floats(allow_nan=False, width=16))


def tables(cells):
    """Lists of flat objects with the same keys, empty lists included."""
    return st.lists(texts, max_size=4, unique=True).flatmap(
        lambda names: st.lists(st.fixed_dictionaries(
            {name: cells for name in names}), max_size=5))


trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        tables(children)),
    max_leaves=30)


class TestJsonText:
    @given(trees)
    def test_matches_the_indented_encoder(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2)

    @given(st.lists(texts, max_size=4, unique=True), st.data())
    def test_json_table_is_the_list_of_objects(self, header, data):
        # a list among the cells takes the per-object path
        cells = st.one_of(scalars, st.lists(scalars, max_size=2))
        rows = data.draw(st.lists(st.tuples(*[cells] * len(header)),
                                  max_size=5))
        assert json_table(header, rows) == json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [{}], [{}, {}], {"": []}, [{"a": []}, {"a": 1}],
        [{"%s": "%", "b": "\n"}] * 3, [{"a": 1}], [{"a": 1}, {"b": 1}],
        {1: [2], None: {}, True: [[], [3]], 2.5: 4}, 2 ** 80, "x\ny",
        float("nan"), [float("-inf"), float("inf"), -0.0, 1e300]])
    def test_edges(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2)

    def test_a_number_over_the_digit_limit_is_refused_alike(self):
        for encode in (json_text, lambda o: json.dumps(o, indent=2)):
            with pytest.raises(ValueError):
                encode([10 ** 5000])


JSON_CASES = [case for case in GOLDEN if "--format json" in case[0]]


@pytest.mark.parametrize("line, code, stdout", JSON_CASES,
                         ids=[case[0] for case in JSON_CASES])
def test_golden_json_never_runs_the_python_encoder(line, code, stdout, docs,
                                                   capsys, monkeypatch):
    """Every JSON output comes from the C encoder: the pure-Python one is
    built by ``json.encoder._make_iterencode``, which raises here."""
    def slow(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", slow)
    argv = [arg.format(**docs) for arg in line.split()]
    assert dispatch(argv) == code
    assert capsys.readouterr().out == stdout


# --- integer text by template ----------------------------------------------------

TABLES = {"q": reference.hofstadter_q_table, "conway": reference.conway_table}
#: what each format printed through its old writer (json with the newline
#: the CLI appends)
TABLE_WRITERS = {
    "csv": lambda rows: csv_writer(["index", "value"], rows),
    "json": lambda rows: json.dumps(
        [{"index": n, "value": v} for n, v in rows], indent=2) + "\n",
    "table": lambda rows: "\n".join(f"{n}  {v}" for n, v in rows) + "\n",
}


@pytest.mark.parametrize("fmt", TABLE_WRITERS)
@pytest.mark.parametrize("sequence", TABLES)
def test_reference_text_is_its_writer(sequence, fmt):
    table = TABLES[sequence](4500)
    for n in [*range(1, 301), 4500]:
        rows = [(k, str(table[k])) for k in range(1, n + 1)]
        assert cli_text("reference", "--sequence", sequence, "--count",
                        str(n), "--format", fmt) == (0,
                                                     TABLE_WRITERS[fmt](rows))


@given(st.sampled_from(["pi", "pistar"]), st.integers(1, 9),
       st.integers(0, 300), st.integers(0, 60))
@example("pi", 1, 0, 0)
@example("pistar", 1, 0, 3)
def test_closed_form_csv_is_the_csv_writer(kind, m, lo, width):
    family, hi = f"{kind}:m={m}", lo + width
    names, columns = parse_family(family).closed_row(lo, hi)
    want = csv_writer(["index", *names], zip(range(lo, hi + 1), *columns))
    assert cli_text("closed-form", "--family", family, f"--range={lo}..{hi}",
                    "--format", "csv") == (0, want)


def largest(obj) -> int:
    """The most items any list, tuple or dict in ``obj`` holds."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if not isinstance(obj, (list, tuple)):
        return 0
    return max([len(obj), *map(largest, obj)])


class TestIntegerTextSkipsTheEncoder:
    """Documents and integer tables are laid out by template: the JSON
    encoder sees only small cells, such as a document's tail rules, however
    many values there are."""

    @pytest.fixture
    def encoded(self, monkeypatch):
        sizes = []
        dumps = json.dumps

        def recording(obj, *args, **kwargs):
            sizes.append(largest(obj))
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", recording)
        return sizes

    def test_a_document(self, encoded):
        to_json(SeqWindow(-3, range(2000), left=Periodic((1, -2, 3))))
        assert encoded and max(encoded) <= 4

    @pytest.mark.parametrize("sequence", TABLES)
    def test_a_reference_table(self, encoded, sequence):
        assert cli_text("reference", "--sequence", sequence, "--count",
                        "2000", "--format", "json")[0] == 0
        assert max(encoded, default=0) <= 4


# --- rows and tails ------------------------------------------------------------------

units = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(tuple)
rules = st.one_of(st.none(), st.builds(Periodic, units))
windows = st.builds(
    SeqWindow, st.integers(-20, 20),
    st.lists(st.integers(-10 ** 300, 10 ** 300), min_size=1, max_size=10),
    left=rules, right=rules)


class TestRows:
    @given(windows, st.integers(-30, 30), st.integers(0, 40))
    def test_slice_matches_value_at(self, w, a, length):
        b = a + length - 1
        assert outcome(w.slice, a, b) == outcome(per_position, w, a, b)

    @given(windows, st.integers(-30, 30), st.integers(0, 40))
    def test_to_csv_matches_the_csv_writer(self, w, a, length):
        b = a + length - 1
        assert outcome(to_csv, w, a, b) == outcome(csv_writer_rows, w, a, b)

    @given(windows)
    def test_to_csv_defaults_to_the_stored_span(self, w):
        assert to_csv(w) == csv_writer_rows(w, w.lo, w.hi)

    @given(windows)
    @example(SeqWindow(0, [-10 ** 300], right=Periodic((5, -6))))
    @example(SeqWindow(-1, [10 ** 300, 7], left=Periodic((0,))))
    def test_to_json_matches_the_indented_encoder(self, w):
        assert to_json(w) == json.dumps(to_document(w), indent=2)

    def test_tails_on_both_sides(self):
        w = SeqWindow(3, (10, 20), left=Periodic((1, 2, 3)),
                      right=Periodic((-4, 5)))
        for a in range(-8, 12):
            for b in range(a - 1, 14):
                assert w.slice(a, b) == per_position(w, a, b)
                assert to_csv(w, a, b) == csv_writer_rows(w, a, b)


class TestTailSum:
    """``range_sum`` on a window that holds unit[k % p] at every k, so each
    range reaches into both tails, or stays in one, at any magnitude."""

    @staticmethod
    def tail_sum(unit, t0, t1):
        rule = Periodic(unit)
        return range_sum(SeqWindow(0, unit, left=rule, right=rule), t0, t1)

    @given(units, st.integers(-10 ** 40, 10 ** 40), st.integers(0, 10 ** 40))
    def test_matches_the_period_loop(self, unit, t0, length):
        p = len(unit)
        # every residue of both ends near the drawn range
        for d0 in range(p):
            for d1 in range(p):
                s, e = t0 + d0, t0 + length + d1
                assert (self.tail_sum(unit, s, e)
                        == period_loop_sum(unit, s, e)), (s, e)

    @given(units, st.integers(-60, 60), st.integers(-1, 40))
    def test_matches_the_per_position_sum(self, unit, t0, length):
        t1 = t0 + length - 1
        assert self.tail_sum(unit, t0, t1) == sum(
            unit[t % len(unit)] for t in range(t0, t1 + 1))

    def test_prefix_sums_are_not_part_of_the_value(self):
        a, b = Periodic((1, -2, 3)), Periodic([1, -2, 3])
        assert self.tail_sum(a.unit, 0, 5) == 4
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
