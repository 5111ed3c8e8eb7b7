"""Malformed input documents never end in a traceback.

``verify --input`` and ``export --input`` read ``.json`` and ``.csv``
documents.  Whatever the text, the command either reads it and exits 0 or 1
with nothing on stderr, or refuses it and exits 2 with exactly one
``error:`` line.  Whether a text is readable is decided by the loader the
command uses; any other exception from the loader fails the test.
"""
import csv
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ultraseq.cli import dispatch
from ultraseq.errors import UltraseqError
from ultraseq.families import TauConfig, pi_window, tau_window
from ultraseq.seqcore import (
    SeqWindow,
    constant,
    from_csv,
    from_json,
    to_csv,
    to_document,
    to_json,
)

WINDOWS = [
    pi_window(1, 6),
    tau_window(TauConfig(1, {5}, {1}), 2),
    SeqWindow(-2, (3, -1, 0), right=constant(-2)),
]
LOADERS = {".json": from_json, ".csv": from_csv}
VALID = [(suffix, write(w)) for w in WINDOWS
         for suffix, write in ((".json", to_json), (".csv", to_csv))]

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=80)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(text, inner, max_size=4),
    max_leaves=12)


@st.composite
def json_documents(draw) -> str:
    """A valid document with one field, top-level or in a tail rule,
    replaced by an arbitrary JSON value."""
    doc = to_document(draw(st.sampled_from(WINDOWS)))
    key = draw(st.sampled_from(("lo", "values", "left", "right",
                                "left.kind", "right.unit")))
    value = draw(json_values)
    if "." in key:
        side, field = key.split(".")
        doc[side] = {**doc[side], field: value}
    else:
        doc[key] = value
    return json.dumps(doc)


@st.composite
def csv_documents(draw) -> str:
    """A valid csv row with one field, header included, replaced by
    arbitrary text, written as ``csv.writer`` would quote it."""
    w = draw(st.sampled_from(WINDOWS))
    rows = list(csv.reader(io.StringIO(to_csv(w))))
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, 1))
    rows[i][j] = draw(text)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def nested(depth: int, closed: bool, in_values: bool) -> str:
    """``depth`` nested JSON lists, closed or not, alone or as the
    document's values."""
    inner = "[" * depth + ("]" * depth if closed else "")
    return '{"lo": 0, "values": ' + inner + "}" if in_values else inner


deep = st.builds(nested, st.sampled_from((1, 10, 10**4, 10**5)),
                 st.booleans(), st.booleans())
# a field one past the csv module's limit, or far past it
long_field = st.builds(
    lambda extra, where: (
        "index,value\n0," + "1" * (csv.field_size_limit() + extra) + "\n"
        if where else "index,value\n" + "9" * (csv.field_size_limit()
                                              + extra) + ",1\n"),
    st.sampled_from((1, 1000)), st.booleans())

inputs = st.one_of(
    st.sampled_from(VALID),
    st.tuples(st.sampled_from(sorted(LOADERS)), text),
    st.tuples(st.just(".json"), json_documents()),
    st.tuples(st.just(".csv"), csv_documents()),
    st.tuples(st.sampled_from(sorted(LOADERS)), deep),
    st.tuples(st.sampled_from(sorted(LOADERS)), long_field),
)


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue()


def readable(path: Path) -> bool:
    """Whether the command's loader reads the file at ``path``; only the
    errors the command turns into exit 2 count as a refusal."""
    try:
        LOADERS[path.suffix](path.read_text(encoding="utf-8"))
    except (ValueError, UltraseqError):
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(inputs, st.sampled_from(("csv", "json")))
def test_malformed_input_exits_2_with_one_error_line(case, fmt):
    suffix, content = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"doc{suffix}"
        path.write_text(content, encoding="utf-8", newline="")
        valid = readable(path)
        for argv in (["verify", "--range", "0..0"],
                     ["export", "--format", fmt]):
            code, err = run([*argv, "--input", str(path)])
            if valid:
                assert code in (0, 1) and err == "", (argv, code, err)
            else:
                assert code == 2, (argv, code)
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert err.endswith("\n")
