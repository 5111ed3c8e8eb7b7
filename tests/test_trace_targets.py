"""The benchmark's tracer still sees every function it names.

``perfbench/tracer.py`` looks each traced function up by name and swaps the
module globals that hold it, so a refactor that renames one, or that calls
it through anything but its global name, silently drops its spans from a
``--trace 1`` run.  These tests load the tracer as it stands and check both.
"""
import importlib.util
import json
from pathlib import Path

import pytest

import ultraseq
from ultraseq.cli import dispatch
from ultraseq.families import (
    canonical_o_power_config,
    o_power_window,
    pi_window,
)
from ultraseq.seqcore import from_json, to_document, verify_O_range

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
COMPOSITE = "composite:left=tau:m=1,P=5,N=1,seed=1"


@pytest.fixture
def tracer(monkeypatch):
    # the tracer imports its sibling module ``oracle``
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_callable_of_its_layer(tracer):
    for layer, names in tracer.TARGETS.items():
        home = getattr(ultraseq, layer)
        for name in names:
            assert callable(getattr(home, name, None)), f"{layer}.{name}"


def test_family_construction_is_traced(tracer, capsys):
    t = tracer.Tracer(ultraseq)
    t.install()
    try:
        for family in ("pi:m=1", COMPOSITE):
            argv = ["gen", "--family", family, "--range", "0..20"]
            assert dispatch(argv) == 0
        assert dispatch(["approx", "--family", COMPOSITE]) == 0
    finally:
        t.remove()
    capsys.readouterr()
    seen = {span[0] for span in t.spans}
    for name in ("families.build_family", "families.pi_window",
                 "families.composite_row", "families.approx_report"):
        assert name in seen, name


def test_differences_and_iterated_maps_are_traced(tracer, capsys):
    w = o_power_window(canonical_o_power_config(1), 3)
    t = tracer.Tracer(ultraseq)
    t.install()
    try:
        argv = ["diff", "--family", "pi:m=2", "--range", "0..30", "--order",
                "2"]
        assert dispatch(argv) == 0
        ultraseq.transform.iterate(ultraseq.transform.apply_O, 3, w)
        t.end_op()
    finally:
        t.remove()
    capsys.readouterr()
    names = [span[0] for span in t.spans]
    assert "seqcore.difference" in names
    assert names.count("transform.iterate") == 1
    assert names.count("transform.apply_O") == 3


def test_verify_counts_the_report_violations(tracer, capsys, tmp_path):
    doc = to_document(pi_window(2, 30))
    for k in (12, 20):  # two injected violations, at least
        doc["values"][k] = str(int(doc["values"][k]) + 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = ["verify", "--input", str(path), "--range=-3..30"]
    t = tracer.Tracer(ultraseq)
    t.install()
    try:
        assert dispatch(argv) == 1
        t.end_op()
    finally:
        t.remove()
    capsys.readouterr()
    assert "seqcore.verify_O_range" in {span[0] for span in t.spans}
    report = verify_O_range(from_json(path.read_text()), -3, 30)
    assert report.violation_count >= 2
    assert t.counts["seqcore.verify_O_range.violations"] == \
        report.violation_count
    assert t.counts["seqcore.verify_O_range.positions"] == 34


def test_enumerate_counts_configs_and_classes(tracer, capsys):
    t = tracer.Tracer(ultraseq)
    t.install()
    try:
        for extra in ([], ["--canonical"]):
            before = len(t.spans)
            assert dispatch(["enumerate", "--m", "2", *extra]) == 0
            assert "families.tau_enumerate" in {
                span[0] for span in t.spans[before:]}
            t.end_op()
    finally:
        t.remove()
    capsys.readouterr()
    assert t.counts["families.tau_enumerate.configs"] == 150
    assert t.counts["families.tau_enumerate_canonical.classes"] == 16
