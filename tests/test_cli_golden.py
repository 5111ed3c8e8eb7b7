"""Golden CLI outputs: stdout and exit code, byte for byte, for every
subcommand in every format it accepts, plus the usage and input errors.

Arguments name the documents of the ``docs`` fixture as ``{bad}``,
``{clean}`` and ``{csvdoc}``.  JSON outputs are spelled through ``_json``,
which fixes the bytes exactly as ``json.dumps(..., indent=2)`` writes them.
"""
import json

import pytest

from ultraseq.cli import dispatch

UNDEF = {"kind": "undefined"}


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _doc(lo, values, left=UNDEF, right=UNDEF) -> str:
    return _json({"lo": lo, "values": [str(v) for v in values],
                  "left": left, "right": right})


def _periodic(*unit):
    return {"kind": "periodic", "unit": [str(v) for v in unit]}


TAU5 = (-6, -2, -2, -2, 6, -2)
APPROX = "approx --family composite:left=tau:m=1,P=5,N=1,seed=1 --base 8 --rmax 2"
APPROX_ROWS = [(0, "321.000", "321", 0.0),
               (1, "589.000", "589", 0.0),
               (2, "1088.667", "1096", 0.006690997566909975)]
CLOSED_M7 = [(37, 231004434), (38, 373773027), (39, 604777463),
             (40, 978550492), (41, 1583327957), (42, 2561878451),
             (43, 4145206410), (44, 6707084863), (45, 10852291275)]
PISTAR_M1 = (1, 2, 5, 9, 16, 20, 38, 42)
PISTAR_M2 = [(3, 10), (4, 18), (5, 22), (6, 42), (7, 46), (8, 90), (9, 94)]
CANONICAL_M1 = ["tau:m=1,P=5,N=1", "tau:m=1,P=4,N=1", "tau:m=1,P=3,N=1"]
#: the 70 rotation classes of m = 3, in unit order
CANONICAL_M3 = """
tau:m=3,P=9;11;13,N=1;3;5 tau:m=3,P=8;11;13,N=1;3;5
tau:m=3,P=8;10;13,N=1;3;5 tau:m=3,P=8;10;12,N=1;3;5
tau:m=3,P=7;11;13,N=1;3;5 tau:m=3,P=7;10;13,N=1;3;5
tau:m=3,P=7;10;12,N=1;3;5 tau:m=3,P=7;9;13,N=1;3;5
tau:m=3,P=7;9;12,N=1;3;5 tau:m=3,P=7;9;11,N=1;3;5
tau:m=3,P=9;11;13,N=1;3;6 tau:m=3,P=8;11;13,N=1;3;6
tau:m=3,P=8;10;13,N=1;3;6 tau:m=3,P=8;10;12,N=1;3;6
tau:m=3,P=9;11;13,N=1;3;7 tau:m=3,P=7;11;13,N=1;3;9
tau:m=3,P=7;9;13,N=1;3;11 tau:m=3,P=6;11;13,N=1;3;8
tau:m=3,P=6;10;13,N=1;3;8 tau:m=3,P=6;10;12,N=1;3;8
tau:m=3,P=6;11;13,N=1;3;9 tau:m=3,P=6;9;13,N=1;3;11
tau:m=3,P=6;8;13,N=1;3;10 tau:m=3,P=6;8;12,N=1;3;10
tau:m=3,P=6;8;13,N=1;3;11 tau:m=3,P=6;8;10,N=1;3;12
tau:m=3,P=5;11;13,N=1;3;7 tau:m=3,P=5;10;13,N=1;3;7
tau:m=3,P=5;10;12,N=1;3;7 tau:m=3,P=5;9;13,N=1;3;7
tau:m=3,P=5;9;12,N=1;3;7 tau:m=3,P=5;9;11,N=1;3;7
tau:m=3,P=5;11;13,N=1;3;8 tau:m=3,P=5;10;13,N=1;3;8
tau:m=3,P=5;10;12,N=1;3;8 tau:m=3,P=5;11;13,N=1;3;9
tau:m=3,P=5;9;13,N=1;3;11 tau:m=3,P=5;8;13,N=1;3;10
tau:m=3,P=5;8;12,N=1;3;10 tau:m=3,P=5;8;13,N=1;3;11
tau:m=3,P=5;8;10,N=1;3;12 tau:m=3,P=5;7;13,N=1;3;9
tau:m=3,P=5;7;12,N=1;3;9 tau:m=3,P=5;7;11,N=1;3;9
tau:m=3,P=5;7;13,N=1;3;10 tau:m=3,P=5;7;12,N=1;3;10
tau:m=3,P=5;7;13,N=1;3;11 tau:m=3,P=5;7;10,N=1;3;12
tau:m=3,P=5;7;9,N=1;3;11 tau:m=3,P=5;7;9,N=1;3;12
tau:m=3,P=9;11;13,N=1;4;7 tau:m=3,P=7;11;13,N=1;4;9
tau:m=3,P=7;9;13,N=1;4;11 tau:m=3,P=6;11;13,N=1;4;8
tau:m=3,P=6;10;13,N=1;4;8 tau:m=3,P=6;10;12,N=1;4;8
tau:m=3,P=6;11;13,N=1;4;9 tau:m=3,P=6;9;13,N=1;4;11
tau:m=3,P=6;8;13,N=1;4;10 tau:m=3,P=6;8;12,N=1;4;10
tau:m=3,P=6;8;13,N=1;4;11 tau:m=3,P=7;11;13,N=1;5;9
tau:m=3,P=7;9;13,N=1;5;11 tau:m=3,P=5;9;13,N=1;7;11
tau:m=3,P=4;9;13,N=1;6;11 tau:m=3,P=4;8;12,N=1;6;10
tau:m=3,P=4;8;13,N=1;6;11 tau:m=3,P=4;9;13,N=1;7;11
tau:m=3,P=3;7;11,N=1;5;9 tau:m=3,P=3;7;12,N=1;5;10
""".split()

GOLDEN = [
    # gen
    ("gen --family pi:m=1 --range 0..4 --format csv", 0,
     "index,value\n0,1\n1,2\n2,5\n3,9\n4,16\n"),
    ("gen --family pi:m=2 --range 0..3 --format json", 0,
     _doc(0, [2, 2, 6, 10])),
    ("gen --family pi:m=1 --range=-3..2", 0,
     "-3  -2\n-2  -2\n-1  -2\n 0  1\n 1  2\n 2  5\n"),
    ("gen --family tau:m=1,P=5,N=1 --range 0..3 --format table", 0,
     "0  -2\n1  -6\n2  -2\n3  -2\n"),
    # verify
    ("verify --family tau:m=1,P=5,N=1 --range 1..4", 0,
     "4 ok, 0 violations, 0 uncheckable\n"),
    ("verify --family tau:m=1,P=5,N=1 --range 1..4 --format csv", 0,
     "position,expected,actual,status\n"
     "1,-2,-2,ok\n2,-2,-2,ok\n3,-2,-2,ok\n4,6,6,ok\n"),
    ("verify --family tau:m=1,P=5,N=1 --range 1..4 --format json", 0,
     _json([{"position": p, "expected": v, "actual": v, "status": "ok"}
            for p, v in ((1, "-2"), (2, "-2"), (3, "-2"), (4, "6"))])),
    ("verify --input {bad} --range 0..2", 1,
     "1 ok, 1 violations, 1 uncheckable\n"
     "violation at 1: expected 5, got 6\n"),
    ("verify --input {bad} --range 0..2 --format csv", 1,
     "position,expected,actual,status\n"
     "0,2,2,ok\n1,5,6,violation\n2,,,uncheckable\n"),
    ("verify --input {bad} --range 0..2 --format json", 1,
     _json([{"position": 0, "expected": "2", "actual": "2", "status": "ok"},
            {"position": 1, "expected": "5", "actual": "6",
             "status": "violation"},
            {"position": 2, "expected": None, "actual": None,
             "status": "uncheckable"}])),
    ("verify --input {clean} --range 0..2", 0,
     "2 ok, 0 violations, 1 uncheckable\n"),
    ("verify --input {clean} --range 0..2 --strict", 1,
     "2 ok, 0 violations, 1 uncheckable\n"),
    ("verify --input {clean} --range 2..2 --strict --format csv", 1,
     "position,expected,actual,status\n2,,,uncheckable\n"),
    # diff
    ("diff --family pi:m=1 --range 0..3 --format csv", 0,
     "index,value\n0,1\n1,3\n2,4\n3,7\n"),
    ("diff --family pi:m=6 --range 0..3 --order 2 --format json", 0,
     _doc(0, [12, -4, 8, 4])),
    ("diff --family pi:m=1 --range 0..3", 0, "0  1\n1  3\n2  4\n3  7\n"),
    # closed-form
    ("closed-form --family pi:m=5 --range 0..3 --format csv", 0,
     "index,iterative,fib_form,quad_form\n"
     "0,5,5,5\n1,2,2,2\n2,9,9,9\n3,13,13,13\n"),
    ("closed-form --family pi:m=5 --range 0..3 --format json", 0,
     _json([{"index": n, "iterative": v, "fib_form": v, "quad_form": v}
            for n, v in enumerate((5, 2, 9, 13))])),
    ("closed-form --family pi:m=5 --range 0..3", 0,
     "index  iterative  fib_form  quad_form\n"
     "0  5  5  5\n1  2  2  2\n2  9  9  9\n3  13  13  13\n"),
    ("closed-form --family pi:m=7 --range 37..45 --format csv", 0,
     "index,iterative,fib_form,quad_form\n"
     + "".join(f"{n},{v},{v},{v}\n" for n, v in CLOSED_M7)),
    ("closed-form --family pi:m=7 --range 37..45 --format json", 0,
     _json([{"index": n, "iterative": v, "fib_form": v, "quad_form": v}
            for n, v in CLOSED_M7])),
    ("closed-form --family pi:m=7 --range 37..45", 0,
     "index  iterative  fib_form  quad_form\n"
     + "".join(f"{n}  {v}  {v}  {v}\n" for n, v in CLOSED_M7)),
    ("closed-form --family pistar:m=1 --range 0..7 --format csv", 0,
     "index,iterative,closed_form\n"
     + "".join(f"{n},{v},{v}\n" for n, v in enumerate(PISTAR_M1))),
    ("closed-form --family pistar:m=1 --range 0..7 --format json", 0,
     _json([{"index": n, "iterative": v, "closed_form": v}
            for n, v in enumerate(PISTAR_M1)])),
    ("closed-form --family pistar:m=1 --range 0..7", 0,
     "index  iterative  closed_form\n"
     + "".join(f"{n}  {v}  {v}\n" for n, v in enumerate(PISTAR_M1))),
    ("closed-form --family pistar:m=2 --range 3..9 --format csv", 0,
     "index,iterative,closed_form\n"
     + "".join(f"{n},{v},{v}\n" for n, v in PISTAR_M2)),
    # enumerate
    ("enumerate --m 1 --canonical", 0,
     "\n".join(CANONICAL_M1) + "\n3 configurations\n"),
    ("enumerate --m 1 --canonical --format csv", 0,
     "descriptor\n" + "".join(f'"{d}"\n' for d in CANONICAL_M1)),
    ("enumerate --m 1 --canonical --format json", 0,
     _json({"count": 3, "configs": CANONICAL_M1})),
    ("enumerate --m 3 --canonical", 0,
     "\n".join(CANONICAL_M3) + "\n70 configurations\n"),
    ("enumerate --m 3 --canonical --format csv", 0,
     "descriptor\n" + "".join(f'"{d}"\n' for d in CANONICAL_M3)),
    ("enumerate --m 3 --canonical --format json", 0,
     _json({"count": 70, "configs": CANONICAL_M3})),
    ("enumerate --m 1", 0,
     "tau:m=1,P=5,N=1\ntau:m=1,P=4,N=1\ntau:m=1,P=3,N=1\ntau:m=1,P=6,N=2\n"
     "tau:m=1,P=5,N=2\ntau:m=1,P=4,N=2\ntau:m=1,P=6,N=3\ntau:m=1,P=5,N=3\n"
     "tau:m=1,P=6,N=4\ntau:m=1,P=4,N=6\ntau:m=1,P=3,N=5\ntau:m=1,P=3,N=6\n"
     "tau:m=1,P=2,N=4\ntau:m=1,P=2,N=5\ntau:m=1,P=2,N=6\ntau:m=1,P=1,N=3\n"
     "tau:m=1,P=1,N=4\ntau:m=1,P=1,N=5\n18 configurations\n"),
    # approx
    (APPROX, 0,
     "xi = 5/3, phi_m = 1.847127\n"
     "empirical ratio = 1.834891 (relative error 0.6624%)\n"
     "r=0  predicted=321.000  exact=321  rel_error=0.0000%\n"
     "r=1  predicted=589.000  exact=589  rel_error=0.0000%\n"
     "r=2  predicted=1088.667  exact=1096  rel_error=0.6691%\n"),
    (APPROX + " --format csv", 0,
     "r,predicted,exact,rel_error\n"
     + "".join(f"{r},{p},{e},{x!r}\n" for r, p, e, x in APPROX_ROWS)),
    (APPROX + " --format json", 0,
     _json([{"r": r, "predicted": p, "exact": e, "rel_error": x}
            for r, p, e, x in APPROX_ROWS])),
    # reference
    ("reference --sequence q --count 5 --format csv", 0,
     "index,value\n1,1\n2,1\n3,2\n4,3\n5,3\n"),
    ("reference --sequence q --count 5 --format json", 0,
     _json([{"index": n, "value": str(v)}
            for n, v in enumerate((1, 1, 2, 3, 3), start=1)])),
    ("reference --sequence conway --count 4", 0, "1  1\n2  1\n3  2\n4  2\n"),
    # export
    ("export --family tau:m=1,P=5,N=1 --range 1..3 --format json", 0,
     _doc(1, TAU5 * 3, left=_periodic(*TAU5), right=_periodic(*TAU5))),
    ("export --family pi:m=1 --range 0..3 --format csv", 0,
     "index,value\n0,1\n1,2\n2,5\n3,9\n"),
    ("export --input {bad} --format csv", 0, "index,value\n0,1\n1,2\n2,6\n"),
    ("export --input {bad} --format json", 0, _doc(0, [1, 2, 6])),
    ("export --input {bad} --range 1..2 --format csv", 0,
     "index,value\n1,2\n2,6\n"),
    # a cut JSON document could not keep its extension rules exact
    ("export --input {bad} --range 1..2 --format json", 2, ""),
    ("export --input {csvdoc} --format json", 0, _doc(2, [7, 8, -1])),
    ("export --input {csvdoc} --range 3..4 --format csv", 0,
     "index,value\n3,8\n4,-1\n"),
    # usage and input errors: exit 2, nothing on stdout
    ("mystery", 2, ""),
    ("gen --family pi:m=1", 2, ""),
    ("gen --family pi:m=1 --range 5", 2, ""),
    ("gen --family pi:m=1 --range 5..1", 2, ""),
    ("gen --family pi:m=1 --range 0..2 --format xml", 2, ""),
    ("export --family pi:m=1 --range 0..2", 2, ""),
    ("export --family pi:m=1 --range 0..2 --format table", 2, ""),
    ("export --family pi:m=1 --format csv", 2, ""),
    ("export --format csv", 2, ""),
    ("verify --family pi:m=1 --input {bad} --range 0..1", 2, ""),
    ("verify --range 0..1", 2, ""),
    ("verify --input {bad}.missing --range 0..1", 2, ""),
    ("diff --family pi:m=1 --range 0..3 --order 0", 2, ""),
    ("closed-form --family omega:extent=3 --range 0..2", 2, ""),
    ("closed-form --family tau:m=1,P=5,N=1 --range 0..2", 2, ""),
    ("closed-form --family pistar:m=1 --range=-1..2", 2, ""),
    ("enumerate --m 9", 2, ""),
    ("approx --family composite:left=tau:m=2,P=1;4,N=6;8,seed=1 --base 200",
     2, ""),
    ("reference --sequence q --count 0", 2, ""),
    ("reference --sequence z", 2, ""),
]


@pytest.fixture
def docs(tmp_path):
    """bad: a violation at 1; clean: no violation, 2 is uncheckable."""
    paths = {}
    for name, values in (("bad", ["1", "2", "6"]), ("clean", ["1", "2", "5"])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(
            {"lo": 0, "values": values, "left": UNDEF, "right": UNDEF}))
    paths["csvdoc"] = tmp_path / "w.csv"
    paths["csvdoc"].write_text("index,value\n2,7\n3,8\n4,-1\n")
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("line, code, stdout", GOLDEN,
                         ids=[case[0] for case in GOLDEN])
def test_golden(line, code, stdout, docs, capsys):
    argv = [arg.format(**docs) for arg in line.split()]
    assert dispatch(argv) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("line", [
    "gen --family pi:m=1 --range 0..4 --format csv",
    "verify --input {bad} --range 0..2 --format json",
    "closed-form --family pi:m=5 --range 0..3",
    "enumerate --m 1 --canonical --format csv",
    APPROX + " --format json",
    "export --input {bad} --format json",
])
def test_output_file_holds_stdout(line, docs, capsys, tmp_path):
    """--output writes what stdout shows, less the newline that stdout adds
    after text that lacks one."""
    argv = [arg.format(**docs) for arg in line.split()]
    code = dispatch(argv)
    shown = capsys.readouterr().out
    target = tmp_path / "out"
    assert dispatch(argv + ["--output", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert shown in (target.read_text(), target.read_text() + "\n")


@pytest.mark.parametrize("argv", [["gen", "--help"], ["export", "--help"]])
def test_subcommand_help(argv, capsys):
    assert dispatch(argv) == 0
    assert capsys.readouterr().out.startswith("usage: ultraseq")
