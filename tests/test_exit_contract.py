"""The exit contract over argv drawn from a grammar of the eight commands:
every failure is a named refusal (an ``UltraseqError``, a ``ValueError``, or
the ``OSError`` of a file that cannot be read or written) with nothing on
stdout, every exit 0 or 1 prints text that parses in its format, and
``dispatch`` exits as the handler says; and each command's direct reader
reads an argv as the command's own parser does, or hands it over."""
import contextlib
import csv
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from ultraseq import cli
from ultraseq.cli import dispatch
from ultraseq.errors import UltraseqError
from ultraseq.families import parse_family, pi_window
from ultraseq.seqcore import SeqWindow, to_csv, to_json

FAMILIES = [
    "pi:m=1", "pi:m=3", "pistar:m=2", "omega:extent=2", "tau:m=1,P=5,N=1",
    "tau:m=2,P=3;9,N=1;6", "opower:r=3,unit=+,-,-",
    "opower:r=5,unit=+,+,-,-,-", "opower:r=7,unit=+,+,-,-,-,0,0",
    "composite:left=tau:m=1,P=5,N=1,seed=1",
    "composite:left=tau:m=1,P=5,N=1,mid=omega:-1..2,seed=2,steps=9",
]
#: the families with a periodic left tail, which ``approx`` reads
PERIODIC_LEFT = [f for f in FAMILIES if f.startswith(("tau", "composite"))]
BROKEN_FAMILIES = [
    "", "pi", "pi:m=0", "pi:m=x", "pi:k=1", "pi:m=1,m=2", "pistar:m=-1",
    "omega:extent=-1", "tau:m=1,P=5,N=5", "tau:m=1,P=1,N=2",
    "tau:m=1,P=9,N=1", "tau:m=1,P=5", "opower:r=2,unit=+,-",
    "opower:r=2,unit=+,x", "composite:left=pi:m=1,seed=1",
    "composite:left=tau:m=1,P=5,N=1,seed=0", "zeta:m=1",
]
TAU = parse_family("tau:m=1,P=5,N=1").window(0, 6)
#: documents by name, written once per module: five a reader accepts,
#: the two bad ones violating the equation (bad.json, a tau window with
#: one value off by one, at 1, 4 and 5; bad.csv at 1), then six it refuses
DOCUMENTS = {
    "tau.json": to_json(TAU),
    "pi.json": to_json(pi_window(2, 8)),
    "bad.json": to_json(SeqWindow(1, (-6, -2, -2, -3, 6, -2), TAU.left,
                                  TAU.right)),
    "pi.csv": to_csv(pi_window(1, 6)),
    "bad.csv": to_csv(SeqWindow(0, [1, 2, 6, 9])),
    "torn.json": '{"lo": 0, "values": ["1"',
    "kind.json": '{"lo": 0, "values": ["1"], "left": {"kind": "mirror"}}',
    "text.json": '{"lo": 0, "values": "125", "left": {"kind": "undefined"},'
                 ' "right": {"kind": "undefined"}}',
    "header.csv": "i,v\n0,1\n",
    "gap.csv": "index,value\n0,1\n2,5\n",
    "latin.json": "\udcff",
}


def mostly(valid, broken) -> st.SearchStrategy:
    """A draw from ``valid``, or one time in four from ``broken``; each is
    a strategy or a list to sample."""
    valid, broken = (s if isinstance(s, st.SearchStrategy)
                     else st.sampled_from(s) for s in (valid, broken))
    return st.integers(1, 4).flatmap(lambda i: broken if i == 4 else valid)


#: a small range, or one that is malformed, reversed or over the cap
ranges = mostly(
    st.tuples(st.integers(-6, 8), st.integers(0, 16)).map(
        lambda t: f"{t[0]}..{t[0] + t[1]}"),
    ["x..3", "3", "..", "1..", "5..2", "0..2000000"])
families = mostly(FAMILIES, BROKEN_FAMILIES)
#: an ``--input`` path that is missing, and one that is a directory
UNREADABLE = ["missing.json", "directory"]
#: an ``--output`` path in a directory that is missing
UNWRITABLE = "missing/out.txt"
documents = mostly(list(DOCUMENTS)[:5], list(DOCUMENTS)[5:] + UNREADABLE)


def counts(lo: int, hi: int) -> st.SearchStrategy:
    """A count option: an int in lo..hi, or "x", or None, which leaves the
    option out."""
    return mostly([*map(str, range(lo, hi + 1)), None], ["x"])


#: each command's options; None leaves one out, True is a bare flag
COMMANDS = {
    "gen": {"--family": families, "--range": ranges},
    "verify": {"--range": ranges, "--strict": st.booleans()},
    "diff": {"--family": families, "--range": ranges,
             "--order": counts(-1, 3)},
    "closed-form": {"--family": families, "--range": ranges},
    "enumerate": {"--m": counts(-1, 3), "--canonical": st.booleans()},
    "approx": {"--family": mostly(PERIODIC_LEFT, FAMILIES + BROKEN_FAMILIES),
               "--base": counts(-3, 40), "--rmax": counts(-1, 8)},
    "reference": {"--sequence": mostly(["q", "conway", None], ["z"]),
                  "--count": counts(-1, 40)},
    "export": {"--range": st.none() | ranges},
}


@st.composite
def argvs(draw, name: str) -> list[str]:
    options = {key: draw(value) for key, value in COMMANDS[name].items()}
    if name in ("verify", "export"):  # exactly one of the two is valid
        sources = draw(mostly([("--family",), ("--input",)],
                              [("--family", "--input"), ()]))
        if "--family" in sources:
            options["--family"] = draw(families)
        if "--input" in sources:
            options["--input"] = draw(documents)
    options["--format"] = draw(mostly(
        ["csv", "json"] if name == "export" else ["csv", "json", "table"],
        ["xml"]))
    if draw(st.integers(1, 8)) == 8:
        options["--output"] = UNWRITABLE
    if draw(st.integers(1, 8)) == 8:  # a required option left out
        options.pop(draw(st.sampled_from(sorted(options))))
    argv = [name]
    for key, value in options.items():  # as --key=value or --key value
        if value is True:
            argv.append(key)
        elif value not in (None, False):
            argv += [f"{key}={value}"] if draw(st.booleans()) else [key, value]
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Each document name, and each unreadable or unwritable one, by its
    path; the directory holds the documents and the directory alone."""
    root = tmp_path_factory.mktemp("documents")
    for name, text in DOCUMENTS.items():
        (root / name).write_text(text, encoding="utf-8",
                                 errors="surrogateescape")
    (root / "directory").mkdir()
    return {name: str(root / name)
            for name in (*DOCUMENTS, *UNREADABLE, UNWRITABLE)}


def located(argv: list[str], paths: dict[str, str]) -> list[str]:
    """``argv`` with each path name, alone or after "=", as its path."""
    out = []
    for arg in argv:
        key, eq, name = arg.partition("=")
        out.append(key + eq + paths[name] if name in paths
                   else paths.get(arg, arg))
    return out


def parses(fmt: str, text: str) -> bool:
    """Whether ``text`` reads as ``fmt``: one JSON value, or csv rows all
    as wide as the header; a table has no reader."""
    if fmt == "json":
        json.loads(text)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return bool(rows) and {len(row) for row in rows} == {len(rows[0])}
    return True


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_exit_is_a_refusal_or_text_that_parses(paths, command, data):
    argv = located(data.draw(argvs(command), label="argv"), paths)
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli._parse(argv)
        except SystemExit:
            args = None
        # as ``dispatch`` runs it; any other exception fails the test
        text, code = None, 2
        if args is not None:
            try:
                text, code = args.run(args)
                if args.output is not None:  # the grammar's --output fails
                    cli._emit(text, args.output)
            except (UltraseqError, ValueError, OSError):
                text, code = None, 2
        if text is not None:
            assert code in (0, 1)
            assert parses(args.format, text), text
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert dispatch(argv) == code
    assert out.getvalue() == (
        "" if text is None else text + "\n" * (not text.endswith("\n")))
    root = os.path.dirname(paths["directory"])
    assert sorted(os.listdir(root)) == sorted([*DOCUMENTS, "directory"])


def reads_as_the_command_parser(argv: list[str]) -> bool:
    """Whether ``cli._read`` reads ``argv[1:]`` as ``argv[0]`` itself; when
    it does, its namespace is the command parser's, with nothing left
    over."""
    args = cli._read(argv[0], argv[1:])
    if args is not None:
        want, extra = cli._parser()[1][argv[0]].parse_known_args(argv[1:])
        assert (vars(args), extra) == (vars(want), [])
    return args is not None


@settings(max_examples=1000, deadline=None)
@given(argv=st.sampled_from(sorted(COMMANDS)).flatmap(argvs))
def test_the_direct_reader_reads_as_the_command_parser(argv):
    reads_as_the_command_parser(argv)


@pytest.mark.parametrize("argv, read", [
    (["gen", "--fam", "pi:m=1", "--range", "0..2"], False),
    (["gen", "--family=", "--range", "0..2"], True),
    (["gen", "--family=a=b", "--range", "0..2"], True),
    (["gen", "--", "--family", "pi:m=1", "--range", "0..2"], False),
    (["verify", "--range", "0..2", "--strict=1"], False),
    (["enumerate", "--m", "-1"], False),
    (["enumerate", "--m", "1", "--m", "2"], True),
    (["enumerate", "--m", "1", "-h"], False),
    (["reference", "--sequence", "q", "--count", " 5"], True),
    (["approx", "--family", "pi:m=1", "--base", "-3"], False),
    (["approx", "--family", "pi:m=1", "--base=-3"], True),
    (["approx", "--family", "pi:m=1", "--base"], False),
    (["approx", "--family", "pi:m=1", "extra"], False),
    (["reference", "--count", "5"], False),
], ids=lambda v: " ".join(v) if isinstance(v, list) else f"read={v}")
def test_the_direct_reader_at_its_edges(argv, read):
    assert reads_as_the_command_parser(argv) == read
