"""End-to-end tests of `repro-stg profile` and the --trace-out options."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main

VME_G = str(Path(__file__).resolve().parents[2] / "examples" / "vme_bus.g")


@pytest.fixture(autouse=True)
def clean_tracer():
    """Profile/--trace-out must leave the default tracer disabled and the
    registry free of leftovers for the next command."""
    yield
    tracer = obs.get_tracer()
    assert not tracer.enabled
    tracer.reset()


class TestTracerHygiene:
    """A command that switched the default tracer on switches it off and
    drops what it recorded, so nothing leaks into the next caller."""

    def test_profile_leaves_no_spans(self, capsys):
        assert main(["profile", "RING", "--json"]) == 0
        assert not obs.enabled()
        assert obs.get_tracer().spans == []

    def test_check_trace_out_leaves_no_spans(self, tmp_path, capsys):
        trace = tmp_path / "check.jsonl"
        main(["check", VME_G, "--trace-out", str(trace)])
        assert trace.exists()
        assert not obs.enabled()
        assert obs.get_tracer().spans == []


class TestProfileText:
    def test_phase_table_and_verdicts(self, capsys):
        assert main(["profile", VME_G]) == 0
        out = capsys.readouterr().out
        assert "Phase breakdown: vme-read" in out
        for phase in ("parse", "unfold", "closure", "solver", "lint", "total"):
            assert phase in out
        assert "usc: violated" in out
        assert "csc: violated" in out
        assert "search.nodes" in out
        assert "unfold.queue_peak" in out

    def test_property_selection(self, capsys):
        assert main(["profile", VME_G, "-p", "usc"]) == 0
        out = capsys.readouterr().out
        assert "usc: violated" in out
        assert "csc:" not in out

    def test_registered_model_name(self, capsys):
        assert main(["profile", "RING", "-p", "usc"]) == 0
        assert "usc: violated" in capsys.readouterr().out

    def test_sg_method(self, capsys):
        assert main(["profile", VME_G, "-m", "sg", "-p", "csc"]) == 0
        assert "csc: violated" in capsys.readouterr().out


class TestProfileJson:
    def test_schema_and_phase_coverage(self, capsys):
        assert main(["profile", VME_G, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-profile/1"
        assert document["target"] == "vme-read"
        assert document["method"] == "ilp"
        assert document["properties"] == {"usc": "violated", "csc": "violated"}
        # the acceptance criterion: at least unfold, closure, solver, total
        assert {"unfold", "closure", "solver", "total"} <= set(document["phases"])
        assert document["phases"]["total"] > 0.0
        assert document["phases"]["unfold"] > 0.0
        assert document["counters"]["unfold.events"] == 24
        assert document["counters"]["unfold.cutoffs"] == 2
        assert document["counters"]["search.nodes"] > 0

    def test_trace_out_combined(self, tmp_path, capsys):
        trace = str(tmp_path / "p.jsonl")
        assert main(["profile", VME_G, "--json", "--trace-out", trace]) == 0
        json.loads(capsys.readouterr().out)
        snapshot = obs.read_jsonl(trace)
        names = {span["name"] for span in snapshot["spans"]}
        assert "unfold.run" in names and "profile.usc" in names


class TestTraceOut:
    def test_check_writes_valid_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "check.jsonl")
        assert main(["check", VME_G, "--trace-out", trace]) == 1
        err = capsys.readouterr().err
        assert f"records written to {trace}" in err
        snapshot = obs.read_jsonl(trace)
        names = {span["name"] for span in snapshot["spans"]}
        assert "unfold.run" in names
        # default check is csc only: one unfolding of the 12-event prefix
        assert snapshot["counters"]["unfold.events"] == 12

    def test_check_without_trace_out_untraced(self, capsys):
        assert main(["check", VME_G]) == 1
        assert obs.get_tracer().spans == []

    def test_batch_writes_trace_and_phase_footer(self, tmp_path, capsys):
        trace = str(tmp_path / "batch.jsonl")
        assert (
            main(
                ["batch", VME_G, "--jobs", "0", "--no-cache",
                 "--trace-out", trace]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "phases:" in captured.out  # EngineStats.report() breakdown
        snapshot = obs.read_jsonl(trace)
        names = {span["name"] for span in snapshot["spans"]}
        assert "engine.job_done" in names  # point events interleaved
        # stage zero decides without building the full lint report
        assert "lint.decide" in names
        assert "lint.run" not in names
