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
import sys
from collections.abc import Iterator
from itertools import chain, islice
from typing import Optional

import pytest
from hypothesis import example, given, strategies as st

from test_cli_golden import GOLDEN, docs  # noqa: F401  (docs is a fixture)
from test_kernel import python_calls
from ultraseq import cli, reference, seqcore
from ultraseq.cli import dispatch
from ultraseq.errors import OutOfDomain, TooLarge, WindowTooSmall
from ultraseq.families import parse_family, tau_enumerate
from ultraseq.seqcore import (
    Periodic,
    SeqWindow,
    from_csv,
    from_json,
    int_rows,
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


def zipped_int_rows(columns, row, head="", sep="", tail="") -> str:
    """The integer writer ``int_rows`` replaced: a ``zip`` tuple per row
    flattened into the cells, its largest end-row integer written first,
    one ``%`` for the rows, then ``head`` and ``tail`` joined to them in a
    second copy of the whole text."""
    width = len(columns)
    cells = tuple(chain.from_iterable(zip(*columns)))
    "%d" % max([c for c in cells[:width] + cells[-width:]
                if hasattr(c, "__index__")], key=abs, default=0)
    if not isinstance(row, Iterator):
        row = [row] * (len(cells) // width)
    return "".join((head, sep.join(row) % cells, tail))


def naive_document(w: SeqWindow) -> dict:
    """The document of ``w`` built as a dict, one ``str`` per value: the
    writer that ``to_document``, the parse of ``to_json``, replaced."""
    def rule(r):
        return ({"kind": "undefined"} if r is None
                else {"kind": "periodic", "unit": list(map(str, r.unit))})

    return {"lo": w.lo, "values": list(map(str, w.values)),
            "left": rule(w.left), "right": rule(w.right)}


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

big_ints = st.integers(-10 ** 300, 10 ** 300)


class TestJsonText:
    def test_a_number_over_the_digit_limit_is_refused_alike(self):
        big = 10 ** 5000
        for write in (lambda: json.dumps([{"a": 1}, {"a": big}], indent=2),
                      lambda: int_rows([[1, big]], "%d\n", "a\n"),
                      lambda: csv_writer(["a"], [[1], [big]])):
            with pytest.raises(ValueError):
                write()

    @given(st.floats(min_value=0, allow_infinity=False))
    @example(0.006690997566909975)
    @example(1e16)
    @example(5e-324)
    def test_approx_float_cells_are_their_old_writers(self, x):
        """``rel_error`` is a finite float >= 0: ``%r`` is the text that
        ``json.dumps`` and ``csv.writer`` (``str``) wrote, and the table's
        ``%.4f%%`` of 100 * x is ``{x:.4%}``."""
        assert "%r" % x == json.dumps(x) == str(x)
        assert "%.4f%%" % (100 * x) == f"{x:.4%}"


@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.tuples(*[big_ints] * width), max_size=8))),
    st.booleans())
@example((2, []), True)
def test_int_rows_is_each_old_writer(table, named):
    width, rows = table
    columns = [[row[j] for row in rows] for j in range(width)]
    header = [f"c{j}" for j in range(width)] if named else []
    for sep, old in ((",", csv_writer(header, rows)),
                     ("  ", joined_rows(header, rows, "  "))):
        head = sep.join(header) + "\n" if header else ""
        assert int_rows(columns, sep.join(["%d"] * width) + "\n",
                        head) == old


#: an integer past the 4300-digit limit for integer text
PAST_THE_LIMIT = 10 ** 4300


@st.composite
def int_rows_calls(draw):
    """A maker of the arguments of one ``int_rows`` call, fresh each time,
    since an ``islice`` column and an iterator of templates are used up.
    One to four columns of 0 to 40 rows each, unequal lengths truncated to
    the shortest as ``zip`` does: ints of either sign up to 1000 digits, in
    a ``range``, tuple, list or ``islice``, or None cells written by
    ``%.0s``.  One integer past the digit limit may sit in the first, a
    middle or the last row.  The row template is one string, or an
    iterator of one template per row; ``head`` and ``tail`` may hold
    ``%``."""
    width = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(0, 40), min_size=width,
                            max_size=width))
    n = min(lengths)
    kinds = draw(st.lists(st.sampled_from(["range", tuple, list, islice,
                                           None]),
                          min_size=width, max_size=width))
    values = []
    for kind, length in zip(kinds, lengths):
        if kind == "range":
            start = draw(st.integers(-10 ** 6, 10 ** 6))
            values.append(range(start, start + length))
        elif kind is None:
            values.append([None] * length)
        else:
            values.append(draw(st.lists(
                st.integers(-10 ** 1000, 10 ** 1000), min_size=length,
                max_size=length)))
    at = draw(st.one_of(st.none(), st.sampled_from([0, n // 2, n - 1])))
    if at is not None and n:
        j = draw(st.integers(0, width - 1))
        if kinds[j] in ("range", None):
            kinds[j], values[j] = list, [0] * lengths[j]
        values[j][at] = draw(st.sampled_from([1, -1])) * PAST_THE_LIMIT

    def template():
        return draw(st.sampled_from([",", "  "])).join(
            "%.0s" if kind is None else draw(st.sampled_from(["%d", '"%d"']))
            for kind in kinds) + draw(st.sampled_from(["\n", ""]))

    rows = (template() if draw(st.booleans())
            else [template() for _ in range(n)])
    text = st.text("a%,\n", max_size=6)
    head, sep, tail = (draw(text), draw(st.sampled_from(["", ",\n  "])),
                       draw(text))

    def call():
        columns = [islice(col, None) if kind is islice
                   else col if kind in ("range", None) else kind(col)
                   for kind, col in zip(kinds, values)]
        return (columns, rows if isinstance(rows, str) else iter(rows),
                head, sep, tail)

    return call


def result(writer, args):
    """What ``writer(*args)`` returns, or the type of what it raises."""
    try:
        return writer(*args)
    except Exception as exc:
        return type(exc)


@given(int_rows_calls())
@example(lambda: ([[1, PAST_THE_LIMIT, 3]], "%d\n", "a%\n"))
@example(lambda: ([range(3), [None, 7]], iter(["%d,%.0s\n", "%d,%d\n"]),
                  "index%,value\n", "", "%"))
def test_int_rows_is_the_zipped_writer(call):
    """The zipped writer's text in one copy, or the same refusal."""
    assert result(int_rows, call()) == result(zipped_int_rows, call())


def test_no_rows_are_head_and_tail_in_one_call():
    """A table of no rows, ``verify``'s clean summary, makes no call past
    ``int_rows`` itself: fewer than the zipped writer, which made its
    end-row list and read its template's ABC."""
    args = (((),) * 3, cli._VIOLATION, "3 ok, 0 violations\n")
    for writer in (int_rows, zipped_int_rows):
        writer(((1,),) * 3, *args[1:])  # warm-up
    assert int_rows(*args) == zipped_int_rows(*args) == args[2]
    assert python_calls(int_rows, *args) == 1 < python_calls(
        zipped_int_rows, *args)


#: every output of a command, none of them a usage or input error
OUTPUT_CASES = [case for case in GOLDEN if case[1] != 2]


@pytest.mark.parametrize("line, code, stdout", OUTPUT_CASES,
                         ids=[case[0] for case in OUTPUT_CASES])
def test_golden_json_never_runs_the_python_encoder(line, code, stdout, docs,
                                                   capsys, monkeypatch):
    """No output runs the JSON encoder, in Python or in C: the pure-Python
    one is built by ``json.encoder._make_iterencode``, the C one by
    ``json.encoder.c_make_encoder``, and ``json.dumps`` calls one of them,
    so all three raise here."""
    def encoder(*args, **kwargs):
        raise AssertionError("the JSON encoder ran")

    for owner, name in ((json.encoder, "_make_iterencode"),
                        (json.encoder, "c_make_encoder"), (json, "dumps")):
        monkeypatch.setattr(owner, name, encoder)
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


@pytest.mark.parametrize("line, code, stdout", OUTPUT_CASES,
                         ids=[case[0] for case in OUTPUT_CASES])
def test_golden_integer_rows_never_run_the_csv_writer(line, code, stdout, docs,
                                                      capsys, monkeypatch):
    """csv and table rows come from ``int_rows`` templates."""
    def writer(*args, **kwargs):
        raise AssertionError("csv.writer ran")

    monkeypatch.setattr(csv, "writer", writer)
    argv = [arg.format(**docs) for arg in line.split()]
    assert dispatch(argv) == code
    assert capsys.readouterr().out == stdout


#: every output that holds a sequence value, an index or a closed-form
#: cell: all but enumerations
CELL_CASES = [case for case in OUTPUT_CASES
              if not case[0].startswith("enumerate")]


@pytest.mark.parametrize("line, code, stdout", CELL_CASES,
                         ids=[case[0] for case in CELL_CASES])
def test_golden_value_cells_all_go_through_int_rows(line, code, stdout, docs,
                                                    capsys, monkeypatch):
    """With ``int_rows`` refusing, every such output is refused: no value
    cell reaches the text by another writer."""
    def refused(*args, **kwargs):
        raise ValueError("int_rows ran")

    monkeypatch.setattr(seqcore, "int_rows", refused)
    argv = [arg.format(**docs) for arg in line.split()]
    assert dispatch(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [
    "gen --format table", "diff --format table", "verify --format csv",
    "verify --format json", "closed-form --format json"])
def test_a_row_past_the_digit_limit_is_one_error_line(command, capsys):
    """The writers that once converted every value before refusing one:
    pi:m=1 passes 640 digits, the least limit ``sys`` takes, at 3061."""
    name, *fmt = command.split()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = dispatch([name, "--family", "pi:m=1", "--range", "0..3070",
                         *fmt])
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("error: Exceeds the limit (640 digits)")


class TestTwoBoundaryFunctions:
    """Integers cross the text boundary in two functions: ``int_rows``
    writes every one, ``_decimals`` reads every one."""

    W = SeqWindow(-2, [5, -7, 10 ** 40], left=Periodic((1, -2)),
                  right=Periodic((3,)))

    def written(self):
        columns = (range(3), [5, -7, 10 ** 40])
        return [to_json(self.W), to_document(self.W), to_csv(self.W),
                *(seqcore.records(fmt, columns, seqcore.INDEX_VALUE)
                  for fmt in ("csv", "json"))]

    def test_no_writer_calls_str(self, monkeypatch):
        before = self.written()

        def refused(*args):
            raise AssertionError("str ran")

        monkeypatch.setattr(seqcore, "str", refused, raising=False)
        assert self.written() == before

    def test_every_reader_goes_through_decimals(self, monkeypatch, tmp_path,
                                                capsys):
        def refused(items, what):
            raise ValueError("_decimals ran")

        texts = {".json": to_json(self.W), ".csv": to_csv(self.W)}
        monkeypatch.setattr(seqcore, "_decimals", refused)
        for read, suffix in ((from_json, ".json"), (from_csv, ".csv")):
            with pytest.raises(ValueError, match="_decimals ran"):
                read(texts[suffix])
        for suffix, text in texts.items():
            path = tmp_path / f"w{suffix}"
            path.write_text(text)
            for argv in (["verify", "--input", str(path), "--range", "0..1"],
                         ["export", "--input", str(path), "--format", "csv"],
                         ["export", "--input", str(path), "--format", "json"]):
                assert dispatch(argv) == 2
        assert capsys.readouterr() == ("", "error: _decimals ran\n" * 6)

    def test_readers_convert_each_value_once(self, monkeypatch):
        exact, checked = seqcore._exact, []
        span = SeqWindow(-2, self.W.values)
        monkeypatch.setattr(seqcore, "_exact", lambda items, what: (
            checked.append(what) or exact(items, what)))
        assert from_json(to_json(self.W)) == self.W
        assert from_csv(to_csv(self.W)) == span
        # the ints ``_decimals`` reads, the values and the tail units,
        # take no second pass; only lo does
        assert "window values" not in checked
        assert "periodic unit" not in checked

    def test_readers_refuse_an_empty_window_and_one_over_the_cap(
            self, monkeypatch):
        doc = json.loads(to_json(self.W))
        with pytest.raises(WindowTooSmall):
            from_json(json.dumps({**doc, "values": []}))
        texts = ((from_json, to_json(self.W)), (from_csv, to_csv(self.W)))
        monkeypatch.setenv("ULTRASEQ_MAX_WINDOW", "2")
        for read, text in texts:
            with pytest.raises(TooLarge, match="window of 3 values"):
                read(text)


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

    @given(windows)
    @example(SeqWindow(0, [-10 ** 300], right=Periodic((5, -6))))
    @example(SeqWindow(-1, [10 ** 300, 7], left=Periodic((0,))))
    def test_to_document_is_the_naive_document(self, w):
        # the text pins key order and the type of every item as well
        assert json.dumps(to_document(w)) == json.dumps(naive_document(w))

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

    def test_a_read_within_the_span_does_not_read_the_cap(self,
                                                          monkeypatch):
        w = SeqWindow(-1, (4, 5, 6), left=Periodic((-2,)))
        reads = []
        monkeypatch.setattr(seqcore, "max_window_len",
                            lambda: reads.append(1) or 10 ** 6)
        assert [w.value_at(k) for k in (-5, -1, 0, 1)] == [-2, 4, 5, 6]
        assert w.defined(-9) and not w.defined(2)
        assert w.slice(-2, 0) == [-2, 4, 5] and reads == []
        assert w.slice(-2, 1) == [-2, 4, 5, 6] and len(reads) == 1

    def test_a_cap_lowered_after_the_build_bounds_only_longer_reads(
            self, monkeypatch):
        w = SeqWindow(0, (1, 2, 3))
        monkeypatch.setenv("ULTRASEQ_MAX_WINDOW", "2")
        assert w.slice(0, 2) == [1, 2, 3] and w.value_at(2) == 3
        with pytest.raises(TooLarge):
            w.slice(-1, 2)


class Cell:
    """An int that ``%d`` reads through ``__index__``, each read recorded
    in ``seen``."""

    def __init__(self, value, seen):
        self.value, self.seen = value, seen

    def __index__(self):
        self.seen.append(self.value)
        return self.value

    def __abs__(self):
        return abs(self.value)


#: the values of a column by its JSON cell template: ints of any sign and
#: size bare or quoted, text that needs no escaping or csv quoting, finite
#: floats, and null
CELL_KINDS = {
    "%d": big_ints, '"%d"': big_ints,
    '"%s"': st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                  blacklist_characters='",\\'), min_size=1),
    "%r": st.floats(allow_nan=False, allow_infinity=False),
    None: st.none(),
}
INT_CELLS = ("%d", '"%d"')


@st.composite
def record_tables(draw):
    """A map of column names to cell templates, and one or more rows of
    values.  A row of one null cell is left out: ``csv.writer`` writes it
    as ``""``, to tell it from a blank line."""
    cells = draw(st.dictionaries(
        st.text("abcxyz_019", min_size=1, max_size=6),
        st.sampled_from(list(CELL_KINDS)), min_size=1, max_size=5).filter(
            lambda cells: list(cells.values()) != [None]))
    kinds = [CELL_KINDS[kind] for kind in cells.values()]
    return cells, draw(st.lists(st.tuples(*kinds), min_size=1, max_size=6))


class TestDigitLimitFirst:
    """A row past ``str``'s digit limit is refused after one conversion:
    the larger end goes first."""

    BIG = 10 ** 5000

    def test_both_ends_of_a_document_refuse_at_the_limit(self):
        for values in ([1, 2, self.BIG], [-self.BIG, 2, 3]):
            with pytest.raises(ValueError, match="4300 digits"):
                to_document(SeqWindow(0, values))

    @pytest.fixture
    def cells(self):
        """A maker of ``Cell``s, each read recorded in ``cells.seen``; None
        stays None."""
        seen = []

        def make(*values):
            return [None if v is None else Cell(v, seen) for v in values]

        make.seen = seen
        return make

    def test_int_rows_writes_the_larger_end_cell_first(self, cells):
        assert int_rows([cells(1, 2, 3), cells(-9, 5, 8)], "%d,%d\n",
                        "a,b\n") == "a,b\n1,-9\n2,5\n3,8\n"
        assert cells.seen == [-9, 1, -9, 2, 5, 3, 8]
        assert int_rows([[]], "%d\n", "a\n") == "a\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verify_rows_by_status(self, cells, fmt):
        """One cell map per status; an uncheckable row's None cells are
        written empty or null, and the largest end cell is still converted
        first."""
        statuses = ("ok", "violation", "uncheckable", "ok")
        columns = (cells(1, 2, 3, 4), cells(2, 500, None, -90),
                   cells(2, 6, None, -90))
        text = seqcore.records(fmt, columns, cli._VERIFY_CELLS, statuses)
        assert cells.seen == [-90, 1, 2, 2, 2, 500, 6, 3, 4, -90, -90]
        rows = [(1, 2, 2), (2, 500, 6), (3, None, None), (4, -90, -90)]
        if fmt == "csv":
            assert text == csv_writer(
                ["position", "expected", "actual", "status"],
                [(p, e, a, s) for (p, e, a), s in zip(rows, statuses)])
        else:
            assert text == json.dumps([
                {"position": p, "expected": e and str(e),
                 "actual": a and str(a), "status": s}
                for (p, e, a), s in zip(rows, statuses)], indent=2)

    @given(record_tables(), st.sampled_from(["csv", "json"]))
    @example(({"index": "%d", "iterative": "%d", "closed_form": "%d"},
              [(0, 7, 7), (1, -800, 9)]), "json")
    def test_json_object_rows(self, table, fmt):
        """Every kind of cell, as ``csv.writer`` and the indented encoder
        write it; the largest integer cell of the end rows is converted
        first, then every integer cell in order."""
        cells, rows = table
        kinds = list(cells.values())
        seen = []
        columns = [[Cell(v, seen) if kind in INT_CELLS else v for v in col]
                   for kind, col in zip(kinds, zip(*rows))]
        text = seqcore.records(fmt, columns, cells)
        ints = [[v for kind, v in zip(kinds, row) if kind in INT_CELLS]
                for row in rows]
        ends = ints[0] + ints[-1]
        first = [max(ends, key=abs)] if ends else []
        assert seen == first + sum(ints, [])
        if fmt == "csv":
            assert text == csv_writer(list(cells), rows)
        else:
            assert text == json.dumps([
                {name: str(v) if kind == '"%d"' else v
                 for name, kind, v in zip(cells, kinds, row)}
                for row in rows], indent=2)

    def test_an_approx_row(self, cells):
        """``exact`` by ``%d``, ``predicted`` text by ``%s`` and the float
        ``rel_error`` by ``%r``; only integer cells go first."""
        text = seqcore.records("json", [cells(0, 1), ["321.000", "-1088.667"],
                                        cells(321, -1096),
                                        [0.0, 0.006690997566909975]],
                               cli._APPROX_CELLS)
        assert cells.seen == [-1096, 0, 321, 1, -1096]
        assert text == json.dumps([
            {"r": 0, "predicted": "321.000", "exact": "321", "rel_error": 0.0},
            {"r": 1, "predicted": "-1088.667", "exact": "-1096",
             "rel_error": 0.006690997566909975}], indent=2)


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
