"""The fast text layer and tail kernel against their per-value forms.

Each oracle here is the form the fast path replaced: ``json.dumps`` with an
indent (CPython's pure-Python encoder), a ``csv.writer`` loop over a
table's rows, a per-position reader with its own tail arithmetic, and the
O(period) tail sum.
"""
import contextlib
import csv
import io
import json
from typing import Optional

import pytest
from hypothesis import example, given, strategies as st

from test_cli_golden import GOLDEN, docs  # noqa: F401  (docs is a fixture)
from ultraseq import reference, seqcore
from ultraseq.cli import dispatch
from ultraseq.errors import OutOfDomain, TooLarge
from ultraseq.families import parse_family, tau_enumerate
from ultraseq.seqcore import (
    Periodic,
    SeqWindow,
    int_rows,
    json_table,
    range_sum,
    to_csv,
    to_document,
    to_json,
)


# --- oracles -------------------------------------------------------------------

def csv_writer(header, rows) -> str:
    """csv text of the rows, after the header row unless it is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def joined_rows(header, rows, sep: str) -> str:
    """Each line's cells as ``str`` joined by ``sep``, after the header line
    unless it is empty: the table layout ``int_rows`` replaced."""
    lines = [header, *rows] if header else rows
    return "".join(sep.join(map(str, line)) + "\n" for line in lines)


def read_at(w: SeqWindow, k: int) -> Optional[int]:
    """The value at k, None where undefined: a left tail's unit ends at
    lo - 1, a right tail's starts at hi + 1."""
    if k < w.lo:
        return w.left and w.left.unit[(k - w.lo) % len(w.left.unit)]
    if k > w.hi:
        return w.right and w.right.unit[(k - w.hi - 1) % len(w.right.unit)]
    return w.values[k - w.lo]


def per_position(w: SeqWindow, a: int, b: int) -> list[int]:
    """``read_at`` over a..b, or OutOfDomain at the first undefined
    position."""
    col = [read_at(w, k) for k in range(a, b + 1)]
    if None in col:
        raise OutOfDomain(a + col.index(None))
    return col


def csv_writer_rows(w: SeqWindow, a: int, b: int) -> str:
    return csv_writer(["index", "value"],
                      zip(range(a, b + 1), per_position(w, a, b)))


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
big_ints = st.integers(-10 ** 300, 10 ** 300)


class TestJsonText:
    @given(st.lists(texts, min_size=1, max_size=4, unique=True), st.data())
    def test_json_table_is_the_list_of_objects(self, header, data):
        rows = data.draw(st.lists(st.tuples(*[scalars] * len(header)),
                                  max_size=5))
        assert json_table(header, rows) == json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2)

    def test_a_number_over_the_digit_limit_is_refused_alike(self):
        big = 10 ** 5000
        for write in (lambda: json_table(["a"], [(1,), (big,)]),
                      lambda: json.dumps([{"a": 1}, {"a": big}], indent=2),
                      lambda: int_rows(["a"], [[1, big]]),
                      lambda: csv_writer(["a"], [[1], [big]])):
            with pytest.raises(ValueError):
                write()


@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.tuples(*[big_ints] * width), max_size=8))),
    st.booleans())
@example((2, []), True)
def test_int_rows_is_each_old_writer(table, named):
    width, rows = table
    columns = [[row[j] for row in rows] for j in range(width)]
    header = [f"c{j}" for j in range(width)] if named else []
    assert int_rows(header, columns) == csv_writer(header, rows)
    assert int_rows(header, columns, "  ") == joined_rows(header, rows, "  ")


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


#: what ``closed-form`` printed through its old writers
CLOSED_FORM_WRITERS = {
    "csv": csv_writer,
    "table": lambda header, rows: joined_rows(header, rows, "  "),
}


@given(st.sampled_from(["pi", "pistar"]), st.integers(1, 9),
       st.integers(0, 300), st.integers(0, 60),
       st.sampled_from(sorted(CLOSED_FORM_WRITERS)))
@example("pi", 1, 0, 0, "csv")
@example("pistar", 1, 0, 3, "csv")
@example("pi", 1, 0, 0, "table")
@example("pistar", 1, 0, 3, "table")
def test_closed_form_csv_is_the_csv_writer(kind, m, lo, width, fmt):
    family, hi = f"{kind}:m={m}", lo + width
    names, columns = parse_family(family).closed_row(lo, hi)
    want = CLOSED_FORM_WRITERS[fmt](["index", *names],
                                    list(zip(range(lo, hi + 1), *columns)))
    assert cli_text("closed-form", "--family", family, f"--range={lo}..{hi}",
                    "--format", fmt) == (0, want)


@pytest.mark.parametrize("canonical", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumerate_json_is_the_indented_encoder(m, canonical):
    configs = list(tau_enumerate(m, canonical=canonical).descriptors)
    want = json.dumps({"count": len(configs), "configs": configs}, indent=2)
    argv = ["enumerate", "--m", str(m), "--format", "json"]
    assert cli_text(*argv, *["--canonical"] * canonical) == (0, want + "\n")


def largest(obj) -> int:
    """The most items any list, tuple or dict in ``obj`` holds."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if not isinstance(obj, (list, tuple)):
        return 0
    return max([len(obj), *map(largest, obj)])


class TestIntegerTextSkipsTheEncoder:
    """Documents, enumerations and integer tables are laid out by template:
    the JSON encoder never sees a document or an enumeration, nor anything
    long, however many values there are."""

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
        for right in (None, Periodic((4,))):
            to_json(SeqWindow(-3, range(2000), left=Periodic((1, -2, 3)),
                              right=right))
        assert encoded == []

    def test_an_enumeration(self, encoded):
        assert cli_text("enumerate", "--m", "4", "--format", "json")[0] == 0
        assert encoded == []

    @pytest.mark.parametrize("sequence", TABLES)
    def test_a_reference_table(self, encoded, sequence):
        assert cli_text("reference", "--sequence", sequence, "--count",
                        "2000", "--format", "json")[0] == 0
        assert max(encoded, default=0) <= 4


ROW_CASES = [case for case in GOLDEN
             if case[0].split()[0] in ("gen", "diff", "export", "reference",
                                       "closed-form")
             and "--format json" not in case[0] and case[1] != 2]


@pytest.mark.parametrize("line, code, stdout", ROW_CASES,
                         ids=[case[0] for case in ROW_CASES])
def test_golden_integer_rows_never_run_the_csv_writer(line, code, stdout, docs,
                                                      capsys, monkeypatch):
    """csv and table rows of integers come from ``int_rows`` templates."""
    def writer(*args, **kwargs):
        raise AssertionError("csv.writer ran")

    monkeypatch.setattr(csv, "writer", writer)
    argv = [arg.format(**docs) for arg in line.split()]
    assert dispatch(argv) == code
    assert capsys.readouterr().out == stdout


# --- rows and tails ------------------------------------------------------------------

units = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(tuple)
rules = st.one_of(st.none(), st.builds(Periodic, units))
windows = st.builds(
    SeqWindow, st.integers(-20, 20),
    st.lists(big_ints, min_size=1, max_size=10),
    left=rules, right=rules)


class TestRows:
    @given(windows, st.integers(-30, 30), st.integers(0, 40))
    def test_slice_matches_the_per_position_reader(self, w, a, length):
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


class TestOneReader:
    """``_column`` is the one reader of a window; ``slice``, ``value_at`` and
    ``defined`` are views of it, each against ``read_at``."""

    @given(windows, st.integers(-30, 30), st.integers(0, 40))
    def test_column_is_the_per_position_reader(self, w, a, length):
        b = a + length - 1
        assert seqcore._column(w, a, b) == [read_at(w, k)
                                            for k in range(a, b + 1)]

    @given(windows, st.integers(-30, 30))
    def test_value_at_and_defined_are_the_reader(self, w, k):
        assert outcome(w.value_at, k) == outcome(
            lambda: per_position(w, k, k)[0])
        assert w.defined(k) == (read_at(w, k) is not None)

    def test_out_of_domain_names_the_first_undefined_position(self):
        w = SeqWindow(3, (10, 20))
        no_right = SeqWindow(3, (10, 20), left=Periodic((1, 2)))
        no_left = SeqWindow(3, (10, 20), right=Periodic((1, 2)))
        for view, a, b, index in [
                (w, 0, 4, 0), (w, 2, 9, 2), (w, 3, 9, 5), (w, 6, 9, 6),
                (no_right, -5, 9, 5), (no_right, 5, 5, 5),
                (no_left, -5, 9, -5), (no_left, 2, 2, 2)]:
            assert outcome(view.slice, a, b) == ("OutOfDomain", index)
            assert outcome(view.value_at, a) == (
                ("OutOfDomain", a) if read_at(view, a) is None
                else read_at(view, a))
        assert w.slice(5, 4) == w.slice(-9, -10) == []

    def test_the_cap_is_refused_before_an_undefined_side(self, monkeypatch):
        monkeypatch.setenv("ULTRASEQ_MAX_WINDOW", "5")
        w = SeqWindow(0, (1, 2))
        for a, b in [(-10, 0), (0, 9), (-3, 3), (20, 25)]:
            for read in (w.slice, lambda a, b: seqcore._column(w, a, b)):
                with pytest.raises(TooLarge):
                    read(a, b)
        with pytest.raises(OutOfDomain):
            w.slice(-2, 2)  # five positions, at the cap


class TestDigitLimitFirst:
    """A row past ``str``'s digit limit is refused after one conversion:
    the larger end goes first."""

    BIG = 10 ** 5000

    def test_to_document_converts_the_larger_end_first(self, monkeypatch):
        seen = []

        def counting(x):
            seen.append(x)
            return str(x)

        monkeypatch.setattr(seqcore, "str", counting, raising=False)
        for values in ([1, 2, self.BIG], [-self.BIG, 2, 3]):
            seen.clear()
            with pytest.raises(ValueError, match="4300 digits"):
                to_document(SeqWindow(0, values))
            assert [x.bit_length() for x in seen] == [self.BIG.bit_length()]
        seen.clear()
        doc = to_document(SeqWindow(0, [5, -7, -6]))
        assert seen == [-6, 5, -7, -6] and doc["values"] == ["5", "-7", "-6"]

    def test_int_rows_writes_the_larger_end_cell_first(self):
        seen = []

        class Cell:  # ``%d`` reads it through __index__
            def __init__(self, value):
                self.value = value

            def __index__(self):
                seen.append(self.value)
                return self.value

            def __abs__(self):
                return abs(self.value)

        def cells(*values):
            return [Cell(v) for v in values]

        assert int_rows(["a", "b"], [cells(1, 2, 3), cells(-9, 5, 8)]) == (
            "a,b\n1,-9\n2,5\n3,8\n")
        assert seen == [-9, 1, -9, 2, 5, 3, 8]
        assert int_rows(["a"], [[]]) == "a\n"


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
