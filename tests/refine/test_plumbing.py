"""use_refinement plumbing: jobs, serve protocol, CLI, obs and the bench axis."""

import importlib.util
from pathlib import Path

import pytest

from repro import obs
from repro.analysis import clear_memo
from repro.cli import main
from repro.core.verifier import check_csc, check_usc
from repro.engine.jobs import VerificationJob
from repro.models import lazy_ring, token_ring, vme_bus
from repro.obs.tracer import PHASE_PREFIXES, Tracer
from repro.serve.protocol import SCHEMA, ProtocolError, parse_check_request

_HARNESS_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "harness.py"
)
_spec = importlib.util.spec_from_file_location("bench_harness", _HARNESS_PATH)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


class TestJobIdentity:
    def test_cache_identity_excludes_use_refinement(self):
        stg = vme_bus()
        plain = VerificationJob(stg=stg, property="csc")
        refined = VerificationJob(stg=stg, property="csc", use_refinement=True)
        assert plain.cache_fields() == refined.cache_fields()


class TestServeProtocol:
    def test_flag_reaches_the_jobs(self):
        request = parse_check_request(
            {"schema": SCHEMA, "model": "RING", "use_refinement": True}
        )
        assert all(job.use_refinement for job in request.jobs())
        bare = parse_check_request({"schema": SCHEMA, "model": "RING"})
        assert not any(job.use_refinement for job in bare.jobs())

    def test_dedup_key_tracks_the_flag(self):
        base = parse_check_request({"schema": SCHEMA, "model": "RING"})
        refined = parse_check_request(
            {"schema": SCHEMA, "model": "RING", "use_refinement": True}
        )
        assert base.dedup_key() != refined.dedup_key()

    def test_non_boolean_flag_rejected(self):
        with pytest.raises(ProtocolError, match="use_refinement"):
            parse_check_request(
                {"schema": SCHEMA, "model": "RING", "use_refinement": "yes"}
            )


class TestObsAndProfile:
    def test_refine_is_a_canonical_phase(self):
        assert "refine" in PHASE_PREFIXES
        assert PHASE_PREFIXES["refine"] == ("refine.",)

    def test_profile_row_appears_with_flag(self, capsys):
        pytest.importorskip("scipy")
        assert main(["profile", "CF-SYM-A-CSC", "--refine"]) == 0
        out = capsys.readouterr().out
        assert "refine" in out
        assert "refine.refuted" in out

    def test_profile_row_absent_without_flag(self, capsys):
        assert main(["profile", "RING"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert not any(line.strip().startswith("refine") for line in lines)


class TestFactBaseLicence:
    """Refinement reads the FactBase only for the DCF licence, which a
    structurally nested net never needs."""

    @pytest.mark.parametrize(
        "check, build",
        [(check_csc, lambda: lazy_ring(3)), (check_usc, lambda: token_ring(6))],
        ids=["vme-chain-3-csc", "token-ring-6-usc"],
    )
    def test_nested_net_builds_no_factbase(self, check, build):
        pytest.importorskip("scipy")
        stg = build()
        clear_memo()
        probe = Tracer(enabled=True)
        previous = obs.set_tracer(probe)
        try:
            check(stg, use_refinement=True)
        finally:
            obs.set_tracer(previous)
            clear_memo()
        names = {span.name for span in probe.spans}
        assert "refine.prescreen" in names
        assert "analysis.compute" not in names


class TestBenchAxis:
    def test_case_id_suffix_and_with_refine(self):
        case = harness.Case("token-ring", 4, "usc")
        assert case.case_id == "token-ring/n=4/usc"
        refined = case.with_refine(True)
        assert refined.case_id == "token-ring/n=4/usc/r=1"
        assert refined.refine and not case.refine

    def test_run_suite_expands_the_axis(self, monkeypatch):
        seen = []

        def fake_measure(case, warmup, repeat):
            seen.append(case.case_id)
            return {
                "id": case.case_id,
                "family": case.family,
                "size": case.size,
                "property": case.prop,
                "refine": case.refine,
                "holds": True,
                "repeats": repeat,
                "median_s": 0.001,
                "min_s": 0.001,
                "max_s": 0.001,
                "phases": {},
                "counters": {},
            }

        monkeypatch.setattr(harness, "measure_case", fake_measure)
        report = harness.run_suite(
            quick=True, families=["token-ring"], refine=(0, 1)
        )
        harness.validate_report(report)
        assert seen == ["token-ring/n=4/usc", "token-ring/n=4/usc/r=1"]

    def test_validate_report_rejects_bad_refine_field(self):
        record = {
            "id": "x",
            "family": "x",
            "size": 1,
            "property": "usc",
            "refine": "yes",
            "holds": True,
            "repeats": 1,
            "median_s": 0.0,
            "min_s": 0.0,
            "max_s": 0.0,
            "phases": {},
            "counters": {},
        }
        data = {
            "schema": harness.BENCH_SCHEMA,
            "generated": "now",
            "config": {},
            "env": {"python": "3", "cpu_count": 1},
            "results": [record],
        }
        with pytest.raises(ValueError, match="invalid refine field"):
            harness.validate_report(data)
