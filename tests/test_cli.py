"""Command-line interface: formats, exit codes, and file round trips."""
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from ultraseq import cli
from ultraseq.cli import dispatch
from ultraseq.errors import brief, clip
from ultraseq.families import build_family
from ultraseq.seqcore import from_json, to_json

UNDEF = {"kind": "undefined"}


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "pi:m=1",
                           "--range", "0..4", "--format", "csv")
        assert code == 0
        assert out == "index,value\n0,1\n1,2\n2,5\n3,9\n4,16\n"

    def test_json_values_are_strings(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "pi:m=2",
                           "--range", "0..3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["lo"] == 0 and doc["values"] == ["2", "2", "6", "10"]

    def test_table_is_default(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "pi:m=1",
                           "--range", "0..2")
        assert code == 0
        assert [line.split() for line in out.strip().splitlines()] == \
            [["0", "1"], ["1", "2"], ["2", "5"]]

    def test_negative_range_uses_left_tail(self, capsys):
        # ranges with a negative start need the --range=A..B spelling
        code, out, _ = run(capsys, "gen", "--family", "pi:m=1",
                           "--range=-3..1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "-3,-2"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "row.csv"
        code, out, _ = run(capsys, "gen", "--family", "pi:m=1",
                           "--range", "0..2", "--format", "csv",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "index,value\n0,1\n1,2\n2,5\n"


class TestVerify:
    def test_family_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--family",
                           "tau:m=1,P=5,N=1", "--range", "1..12")
        assert code == 0
        assert out.startswith("12 ok, 0 violations")

    def test_corrupted_document_fails_with_exit_1(self, capsys, tmp_path):
        doc = {"lo": 0, "values": ["1", "2", "6"],
               "left": {"kind": "undefined"}, "right": {"kind": "undefined"}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--input", str(path),
                           "--range", "1..1")
        assert code == 1
        assert "violation at 1: expected 5, got 6" in out

    def test_strict_promotes_uncheckable(self, capsys, tmp_path):
        doc = {"lo": 0, "values": ["3", "2", "5"],
               "left": {"kind": "undefined"}, "right": {"kind": "undefined"}}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "verify", "--input", str(path),
                         "--range", "0..0")
        assert code == 0
        code, _, _ = run(capsys, "verify", "--input", str(path),
                         "--range", "0..0", "--strict")
        assert code == 1

    def test_csv_has_one_row_per_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "lo": 0, "values": ["1", "2", "6"],
            "left": {"kind": "undefined"}, "right": {"kind": "undefined"}}))
        code, out, _ = run(capsys, "verify", "--input", str(path),
                           "--range", "0..2", "--format", "csv")
        assert code == 1
        assert list(csv.DictReader(io.StringIO(out))) == [
            {"position": "0", "expected": "2", "actual": "2", "status": "ok"},
            {"position": "1", "expected": "5", "actual": "6",
             "status": "violation"},
            {"position": "2", "expected": "", "actual": "",
             "status": "uncheckable"}]

    def test_json_values_are_decimal_strings_or_null(self, capsys, tmp_path):
        path = tmp_path / "clean.json"
        path.write_text(json.dumps({
            "lo": 0, "values": ["1", "2", "5"],
            "left": {"kind": "undefined"}, "right": {"kind": "undefined"}}))
        verify = ["verify", "--input", str(path), "--range", "0..2",
                  "--format", "json"]
        code, out, _ = run(capsys, *verify)
        assert code == 0
        assert json.loads(out) == [
            {"position": 0, "expected": "2", "actual": "2", "status": "ok"},
            {"position": 1, "expected": "5", "actual": "5", "status": "ok"},
            {"position": 2, "expected": None, "actual": None,
             "status": "uncheckable"}]
        code, _, _ = run(capsys, *verify, "--strict")
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["verify", "--range", "0..1"], ["export", "--format", "csv"]])
    @pytest.mark.parametrize("doc", [
        {"values": "125"},          # a string is not a list of values
        {"values": 5},
        {"values": None},
        {"values": ["1", 3.7]},     # floats would be truncated
        {"values": ["1", True]},    # so would bools
        {"values": [["1"]]},
        {"lo": 0.5},
        {"lo": True},
        {"lo": "0"},
        {"left": {"kind": "periodic", "unit": "12"}},
        {"right": {"kind": "periodic", "unit": [-2.0]}},
        {"right": "periodic"},
        [["1", "2", "5"]],          # not an object
        {"values": ["1_0", "2"]},   # int() reads each of these
        {"values": [" 2 ", "5"]},
        {"values": ["+5"]},
        {"values": ["5", "\u0661"]},
        {"left": {"kind": "periodic", "unit": ["-2\n"]}},
    ])
    def test_malformed_document_is_one_error_line(self, capsys, tmp_path,
                                                  command, doc):
        if isinstance(doc, dict):
            doc = {"lo": 0, "values": ["1", "2", "5"],
                   "left": {"kind": "undefined"},
                   "right": {"kind": "undefined"}, **doc}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *command, "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["verify", "--range", "0..1"], ["export", "--format", "json"]])
    @pytest.mark.parametrize("rows", [
        "0,1_0\n1,2\n", "0, 1\n1,2\n", "+0,1\n1,2\n", "0,1\n1,\u0662\n",
        "0,1\n1,2 \n"])
    def test_csv_values_and_indices_must_be_decimal(self, capsys, tmp_path,
                                                    command, rows):
        path = tmp_path / "row.csv"
        path.write_text("index,value\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, *command, "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["verify", "--range", "0..1"], ["export", "--format", "json"]])
    @pytest.mark.parametrize("rows, line, fields", [
        ("0,1\n1\n", 3, 1), ("0,1\n1,2,3\n2,5\n", 3, 3), ("0,1\n\n", 3, 0)])
    def test_csv_row_of_other_than_two_fields_is_named(
            self, capsys, tmp_path, command, rows, line, fields):
        path = tmp_path / "row.csv"
        path.write_text("index,value\n" + rows, encoding="utf-8")
        code, out, err = run(capsys, *command, "--input", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: line {line}: expected 'index,value', got "
                       f"{fields} fields\n")

    @pytest.mark.parametrize("command", [
        ["verify", "--range", "0..0"], ["export", "--format", "json"]])
    @pytest.mark.parametrize("name, text, message", [
        ("deep.json", "[" * 100_000, "JSON document is nested too deeply"),
        ("deep.json", '{"lo": 0, "values": ' + "[" * 5000 + "]" * 5000 + "}",
         "JSON document is nested too deeply"),
        ("long.csv",
         "index,value\n0,1\n1," + "9" * (csv.field_size_limit() + 1) + "\n",
         f"line 3: field larger than field limit ({csv.field_size_limit()})"),
    ], ids=["unclosed", "in-values", "long-field"])
    def test_deep_or_oversized_input_is_one_error_line(
            self, capsys, tmp_path, command, name, text, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *command, "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("doc", [
        {"lo": "7" * 5000, "values": [], "left": UNDEF, "right": UNDEF},
        {"lo": [[["x" * 5000] * 9] * 9], "values": []},
        {"lo": 0, "values": ["1"], "left": {"kind": "k" * 5000},
         "right": UNDEF},
    ], ids=["long-lo", "wide-lo", "long-kind"])
    def test_refused_field_is_echoed_in_brief(self, capsys, tmp_path, doc):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--input", str(path),
                             "--range", "0..0")
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: ") and len(err) <= 200

    def test_document_values_may_be_json_integers(self, capsys, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({
            "lo": 0, "values": [1, "2", 5],
            "left": {"kind": "undefined"},
            "right": {"kind": "periodic", "unit": [-2, "-2"]}}))
        code, out, _ = run(capsys, "verify", "--input", str(path),
                           "--range", "0..1")
        assert code == 0 and out.startswith("2 ok, 0 violations")

    def test_family_and_input_are_exclusive(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--family", "pi:m=1",
                           "--input", str(tmp_path / "x.json"),
                           "--range", "0..1")
        assert code == 2 and "error:" in err


class TestDiffAndClosedForm:
    def test_diff_first_order(self, capsys):
        code, out, _ = run(capsys, "diff", "--family", "pi:m=1",
                           "--range", "0..3", "--format", "csv")
        assert code == 0
        assert out == "index,value\n0,1\n1,3\n2,4\n3,7\n"

    def test_diff_rejects_bad_order(self, capsys):
        code, _, err = run(capsys, "diff", "--family", "pi:m=1",
                           "--range", "0..3", "--order", "0")
        assert code == 2 and "error:" in err

    def test_closed_form_table_agrees(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--family", "pi:m=5",
                           "--range", "0..5", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert all(r[1] == r[2] == r[3] for r in rows)
        assert [r[1] for r in rows] == ["5", "2", "9", "13", "24", "39"]

    def test_closed_form_requires_pi(self, capsys):
        code, _, err = run(capsys, "closed-form", "--family",
                           "omega:extent=3", "--range", "0..2")
        assert code == 2 and "error:" in err


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "1")
        assert code == 0 and out.strip().endswith("18 configurations")
        code, out, _ = run(capsys, "enumerate", "--m", "1", "--canonical",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3 and len(doc["configs"]) == 3

    @pytest.mark.parametrize("m", [1, 2])
    def test_csv_reads_back_as_the_json_descriptors(self, capsys, m):
        # descriptors hold commas, so each csv row must quote its one field
        _, out, _ = run(capsys, "enumerate", "--m", str(m), "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        _, out, _ = run(capsys, "enumerate", "--m", str(m), "--format", "json")
        assert rows[0] == ["descriptor"]
        assert rows[1:] == [[d] for d in json.loads(out)["configs"]]

    def test_guard(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "9")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("m", ["1000", "100000", "1000000"])
    def test_guard_names_m_and_the_cap(self, capsys, monkeypatch, m):
        monkeypatch.delenv("ULTRASEQ_MAX_WINDOW", raising=False)
        code, out, err = run(capsys, "enumerate", "--m", m)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith(f"error: the m={m} enumeration outputs more "
                              "than the cap of 1000000 values")


class TestApproxAndReference:
    def test_approx_report(self, capsys):
        code, out, _ = run(capsys, "approx", "--family",
                           "composite:left=tau:m=1,P=5,N=1,seed=1",
                           "--base", "8", "--rmax", "4")
        assert code == 0
        assert "phi_m = 1.847127" in out and "r=4" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_approx_rows(self, capsys, fmt):
        code, out, _ = run(capsys, "approx", "--family",
                           "composite:left=tau:m=1,P=5,N=1,seed=1",
                           "--base", "8", "--rmax", "4", "--format", fmt)
        assert code == 0
        if fmt == "csv":
            rows = list(csv.DictReader(io.StringIO(out)))
        else:
            rows = json.loads(out)
        assert [int(row["r"]) for row in rows] == [0, 1, 2, 3, 4]
        assert [row["exact"] for row in rows[:3]] == ["321", "589", "1096"]
        assert float(rows[1]["predicted"]) == pytest.approx(589)
        assert float(rows[2]["rel_error"]) == pytest.approx(0.006691, rel=1e-3)

    @pytest.mark.parametrize("base", [1500, 1700])
    def test_approx_past_float_range(self, capsys, base):
        code, out, err = run(capsys, "approx", "--family",
                             "composite:left=tau:m=1,P=5,N=1,seed=1",
                             "--base", str(base), "--rmax", "6")
        assert (code, err) == (0, "")
        rows = out.splitlines()[2:]
        assert len(rows) == 7
        for r, line in enumerate(rows):
            fields = dict(f.split("=") for f in line.split())
            exact = int(fields["exact"])
            assert int(fields["r"]) == r and exact > 2 ** 1024
            assert 20 * abs(Fraction(fields["predicted"]) - exact) <= exact

    def test_approx_base_values_are_printed_exactly(self, capsys):
        # the model passes through the two base values, so at r = 0 and 1
        # it prints them, however many digits they have
        code, out, _ = run(capsys, "approx", "--family",
                           "composite:left=tau:m=1,P=5,N=1,seed=1",
                           "--base", "600", "--rmax", "2")
        assert code == 0
        for r, line in enumerate(out.splitlines()[2:4]):
            exact = line.split("exact=")[1].split()[0]
            assert len(exact) > 100
            assert line == (f"r={r}  predicted={exact}.000  exact={exact}  "
                            "rel_error=0.0000%")

    def test_approx_on_collapsed_row_is_a_usage_error(self, capsys):
        # this row collapses to zeros at index 4: no growth to fit
        code, out, err = run(capsys, "approx", "--family",
                             "composite:left=tau:m=2,P=1;4,N=6;8,seed=1",
                             "--base", "200")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("rmax", ["-1", "-2"])
    def test_negative_rmax_is_a_usage_error(self, capsys, rmax):
        # -1 used to print an empty table, -2 to fail on an index error
        code, out, err = run(capsys, "approx", "--family",
                             "composite:left=tau:m=1,P=5,N=1,seed=1",
                             "--base", "8", "--rmax", rmax)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--rmax" in err

    def test_reference_q(self, capsys):
        code, out, _ = run(capsys, "reference", "--sequence", "q",
                           "--count", "5", "--format", "csv")
        assert code == 0
        assert out == "index,value\n1,1\n2,1\n3,2\n4,3\n5,3\n"

    def test_reference_conway_table(self, capsys):
        code, out, _ = run(capsys, "reference", "--sequence", "conway",
                           "--count", "4")
        assert code == 0
        assert out.splitlines() == ["1  1", "2  1", "3  2", "4  2"]


class TestExport:
    def test_family_to_json_and_back(self, capsys, tmp_path):
        path = tmp_path / "tau.json"
        code, _, _ = run(capsys, "export", "--family", "tau:m=1,P=5,N=1",
                         "--range", "1..6", "--format", "json",
                         "--output", str(path))
        assert code == 0
        w = from_json(path.read_text())
        assert w.left is not None and w.right is not None
        assert w.value_at(-3) == w.value_at(3)

    def test_reexport_json_to_csv(self, capsys, tmp_path):
        src = tmp_path / "w.json"
        src.write_text(json.dumps({
            "lo": 2, "values": ["7", "8"],
            "left": {"kind": "undefined"}, "right": {"kind": "undefined"}}))
        code, out, _ = run(capsys, "export", "--input", str(src),
                           "--format", "csv")
        assert code == 0 and out == "index,value\n2,7\n3,8\n"

    def test_reexport_json_refuses_range(self, capsys, tmp_path):
        src = tmp_path / "w.json"
        src.write_text(json.dumps({
            "lo": 2, "values": ["7", "8"],
            "left": {"kind": "undefined"}, "right": {"kind": "undefined"}}))
        code, out, err = run(capsys, "export", "--input", str(src),
                             "--range", "2..2", "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_family_requires_range(self, capsys):
        code, _, err = run(capsys, "export", "--family", "pi:m=1",
                           "--format", "csv")
        assert code == 2 and "error:" in err


class TestFamilyDescriptors:
    @pytest.mark.parametrize("descriptor,keys", [
        ("pi:m=1,x=3", "pi takes m"),
        ("pistar:m=1,q=1", "pistar takes m"),
        ("pi:m=1,m=2", "pi takes m"),
        ("pi:m=x", "pi takes m"),
        ("tau:m=1", "tau takes m, P, N"),
        ("opower:r=3", "opower takes r, unit"),
        ("omega:extent=3,extent=4", "omega takes extent"),
        ("composite:left=tau:m=1,P=5,N=1,seed=1,bogus=3",
         "composite takes left, mid (optional), seed, steps (optional)"),
        ("composite:left=tau:m=1,P=5,N=1", "composite takes left"),
    ])
    # gen, verify, diff and export share build_family; closed-form and
    # approx parse the descriptor themselves
    @pytest.mark.parametrize("command", ["gen", "closed-form", "approx"])
    def test_bad_descriptor_is_one_usage_error(self, capsys, command,
                                               descriptor, keys):
        argv = [command, "--family", descriptor]
        if command != "approx":
            argv += ["--range", "0..3"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert keys in err

    def test_approx_needs_a_periodic_left_tail(self, capsys):
        code, _, err = run(capsys, "approx", "--family", "pi:m=1")
        assert code == 2 and "no periodic left tail" in err

    @pytest.mark.parametrize("argv", [
        "approx --family pi:m={big}",
        "gen --family zz:{big} --range 0..1",
        "gen --family pi:m={big}{big} --range 0..1",  # past int's digit limit
        "gen --family pi:m=x{big} --range 0..1",
        "gen --family pi:q{big}=1 --range 0..1",
        "gen --family pi:m=1,m={big} --range 0..1",
        "gen --family pi:m=1 --range {big}",
        "gen --family pi:m=1 --range {big}..1",
    ])
    def test_long_descriptor_is_echoed_in_brief(self, capsys, argv):
        argv = argv.format(big="9" * 3000).split()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: ") and len(err) <= 200

    def test_clip_keeps_both_ends(self):
        assert clip("x" * 80) == "x" * 80
        assert clip("a" * 50 + "b" * 50) == "a" * 38 + "..." + "b" * 39
        assert brief("a" * 50 + "b" * 50) == "'" + "a" * 37 + "..." + \
            "b" * 38 + "'"

    def test_nested_descriptor_error_does_not_grow_with_its_input(
            self, capsys):
        # a composite names its own keys after the nested error, so its
        # line is longer, but it is the same for any length of input
        lengths = set()
        for digits in (100, 3000, 6000):
            code, out, err = run(
                capsys, "gen", "--family",
                f"composite:left=tau:m=1,P=5,N=1,{'9' * digits}=2,seed=1",
                "--range", "0..1")
            assert (code, out) == (2, "") and err.count("\n") == 1
            lengths.add(len(err))
        assert len(lengths) == 1 and lengths.pop() <= 250

    def test_pistar_over_the_cap_is_refused_before_it_is_built(self):
        # a 1.5 GB address-space limit: building the window would end in a
        # MemoryError traceback, refusing it first exits 2
        def limit():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2)

        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("ULTRASEQ_MAX_WINDOW", None)
        proc = subprocess.run(
            [sys.executable, "-m", "ultraseq", "gen", "--family", "pistar:m=1",
             "--range", "0..60"],
            capture_output=True, text=True, env=env, preexec_fn=limit,
            timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in \
            proc.stderr


TAU5 = "tau:m=1,P=5,N=1"


class TestRangeCap:
    """An output range over the cap is refused in every format, even where
    periodic tails could fill it, before its rows are built."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", TAU5, "--format", "csv"],
        ["gen", "--family", TAU5, "--format", "table"],
        ["gen", "--family", TAU5, "--format", "json"],
        ["diff", "--family", TAU5, "--format", "csv"],
        ["diff", "--family", TAU5, "--format", "table"],
        ["verify", "--family", TAU5, "--format", "table"],
        ["verify", "--family", TAU5, "--format", "json"],
        ["export", "--input", "{doc}", "--format", "csv"],
    ])
    def test_one_error_line(self, capsys, monkeypatch, tmp_path, argv):
        doc = tmp_path / "tau.json"
        doc.write_text(to_json(build_family(TAU5, 0, 9)))
        monkeypatch.setenv("ULTRASEQ_MAX_WINDOW", "100")
        argv = [arg.format(doc=doc) for arg in argv] + ["--range=0..1000"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: range of 1001 values exceeds the cap")
        # the same range under the default cap
        monkeypatch.delenv("ULTRASEQ_MAX_WINDOW")
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and err == "" and out

    def test_reference_count(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRASEQ_MAX_WINDOW", "100")
        code, out, err = run(capsys, "reference", "--sequence", "q",
                             "--count", "101", "--format", "csv")
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: table of 101 values exceeds the cap")
        code, out, _ = run(capsys, "reference", "--sequence", "q",
                           "--count", "100", "--format", "csv")
        assert code == 0 and out.count("\n") == 101

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", TAU5, "--range=0..100000000", "--format", "csv"],
        ["reference", "--sequence", "conway", "--count", "100000000"],
        ["gen", "--family", TAU5, "--range=0..2000000"],
        ["verify", "--family", TAU5, "--range=0..2000000"],
        ["verify", "--family", TAU5, "--range=0..2000000", "--format", "csv"],
    ])
    def test_refused_before_allocating(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("ULTRASEQ_MAX_WINDOW", raising=False)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert peak < 1_000_000


class TestUsage:
    def test_unknown_command(self, capsys):
        assert dispatch(["mystery"]) == 2

    def test_missing_required_argument(self, capsys):
        assert dispatch(["gen", "--family", "pi:m=1"]) == 2

    def test_bad_range_syntax(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "pi:m=1",
                           "--range", "5")
        assert code == 2 and "error:" in err

    def test_inverted_range(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "pi:m=1",
                           "--range", "5..1")
        assert code == 2 and "error:" in err

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0

    def test_parser_is_built_once_and_keeps_no_state(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({
            "lo": 0, "values": ["3", "2", "5"],
            "left": {"kind": "undefined"}, "right": {"kind": "undefined"}}))
        verify = ["verify", "--input", str(path), "--range", "0..0"]
        assert cli._build_parser() is cli._build_parser()
        assert dispatch(verify + ["--strict"]) == 1
        assert dispatch(verify) == 0
        assert dispatch(["gen", "--family", "pi:m=1"]) == 2
        assert dispatch(["--help"]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "gen", "--family", "pi:m=1",
                             "--range", "0..2", "--format", "csv")
        assert (code, out, err) == (0, "index,value\n0,1\n1,2\n2,5\n", "")

    def test_package_runs_as_a_module_from_the_checkout(self):
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def run_module(*argv):
            return subprocess.run([sys.executable, "-m", "ultraseq", *argv],
                                  capture_output=True, text=True, env=env)

        ok = run_module("gen", "--family", "pi:m=1", "--range", "0..2",
                        "--format", "csv")
        assert ok.returncode == 0
        assert ok.stdout == "index,value\n0,1\n1,2\n2,5\n"
        assert run_module("gen", "--family", "pi:m=1").returncode == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ultraseq.cli", "gen", "--family",
             "pi:m=1", "--range", "0..2", "--format", "csv"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "index,value\n0,1\n1,2\n2,5\n"
