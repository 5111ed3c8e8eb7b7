"""Command-line interface: formats, exit codes, and file round trips."""
import csv
import io
import json
import subprocess
import sys

import pytest

from ultraseq import cli
from ultraseq.cli import dispatch
from ultraseq.seqcore import from_json


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

    def test_approx_on_collapsed_row_is_a_usage_error(self, capsys):
        # this row collapses to zeros at index 4: no growth to fit
        code, out, err = run(capsys, "approx", "--family",
                             "composite:left=tau:m=2,P=1;4,N=6;8,seed=1",
                             "--base", "200")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

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

    def test_family_requires_range(self, capsys):
        code, _, err = run(capsys, "export", "--family", "pi:m=1",
                           "--format", "csv")
        assert code == 2 and "error:" in err


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

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ultraseq.cli", "gen", "--family",
             "pi:m=1", "--range", "0..2", "--format", "csv"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "index,value\n0,1\n1,2\n2,5\n"
