"""Tests for the repro-serve/1 wire schemas and the canonical JSON STG form."""

import pytest

from repro.models import TABLE1_BENCHMARKS, vme_bus
from repro.serve.protocol import (
    SCHEMA,
    ProtocolError,
    envelope,
    error_payload,
    exit_code_for,
    parse_check_request,
    result_to_dict,
    stg_from_json,
    stg_to_json,
)
from repro.engine.jobs import JobResult, execute_engine, VerificationJob
from repro.stg.parser import write_stg
from repro.stg.stg import STG, SignalEdge


class TestJsonStg:
    @pytest.mark.parametrize("name", sorted(TABLE1_BENCHMARKS))
    def test_roundtrip_preserves_content_hash(self, name):
        stg = TABLE1_BENCHMARKS[name]()
        rebuilt = stg_from_json(stg_to_json(stg))
        assert rebuilt.content_hash() == stg.content_hash()
        assert rebuilt.name == stg.name

    def test_roundtrip_preserves_dummies_and_initial_code(self):
        stg = STG("t", inputs=["a"], outputs=["b"])
        stg.add_place("p0", tokens=1)
        stg.add_place("p1")
        stg.add_transition("a+", SignalEdge("a", +1))
        stg.add_transition("eps", None)
        stg.add_arc("p0", "a+")
        stg.add_arc("a+", "p1")
        stg.add_arc("p1", "eps")
        stg.set_initial_value("b", 1)
        rebuilt = stg_from_json(stg_to_json(stg))
        assert rebuilt.content_hash() == stg.content_hash()
        assert rebuilt.is_dummy(1)
        assert rebuilt.declared_initial_code == {"b": 1}

    def test_same_hash_as_g_source_submission(self):
        stg = vme_bus()
        via_json = parse_check_request(
            {"schema": SCHEMA, "stg": stg_to_json(stg)}
        )
        via_source = parse_check_request(
            {"schema": SCHEMA, "source": write_stg(stg)}
        )
        assert via_json.stg_hash == via_source.stg_hash

    @pytest.mark.parametrize(
        "mutation, match",
        [
            ({"format": "nope"}, "unknown stg format"),
            ({"name": ""}, "name"),
            ({"places": [["p", -1]]}, "tokens"),
            ({"places": [["p", "x"]]}, "tokens"),
            ({"transitions": [["t"]]}, "transitions"),
            # bare strings are sequences too; they must be rejected by the
            # shape check, not by a downstream builder error
            ({"places": ["p0"]}, "places must be"),
            ({"transitions": ["ab"]}, "transitions must be"),
            ({"arcs": ["ab"]}, "arcs must be"),
            ({"arcs": [["a", "b", 0]]}, "weight"),
            ({"initial": {"a": 2}}, "0 or 1"),
            ({"initial": {"zz": 1}}, "invalid stg payload"),
        ],
    )
    def test_malformed_payloads_raise_protocol_error(self, mutation, match):
        payload = stg_to_json(vme_bus())
        payload.update(mutation)
        with pytest.raises(ProtocolError, match=match):
            stg_from_json(payload)

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError):
            stg_from_json([1, 2, 3])


class TestParseCheckRequest:
    def test_source_model_and_stg_accepted(self):
        stg = vme_bus()
        for payload in (
            {"source": write_stg(stg)},
            {"model": "RING"},
            {"stg": stg_to_json(stg)},
        ):
            request = parse_check_request(dict(payload, schema=SCHEMA))
            assert request.properties == ("csc",)
            assert request.engines == ("ilp",)

    def test_schema_default_and_mismatch(self):
        assert parse_check_request({"model": "RING"}).name == "RING"
        with pytest.raises(ProtocolError, match="unsupported schema"):
            parse_check_request({"schema": "repro-serve/999", "model": "RING"})

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({}, "exactly one of"),
            ({"source": "x", "model": "RING"}, "exactly one of"),
            ({"source": "   "}, "non-empty"),
            ({"source": "garbage"}, "cannot parse 'source'"),
            ({"model": "NO-SUCH"}, "unknown target"),
            ({"model": "RING", "properties": []}, "properties"),
            ({"model": "RING", "properties": ["nope"]}, "unknown property"),
            ({"model": "RING", "engines": []}, "engines"),
            ({"model": "RING", "engines": ["warp"]}, "unknown engine"),
            ({"model": "RING", "node_budget": 0}, "node_budget"),
            ({"model": "RING", "deadline": -1}, "deadline"),
            ("not a dict", "JSON object"),
        ],
    )
    def test_invalid_requests(self, payload, match):
        if isinstance(payload, dict):
            payload = dict(payload, schema=SCHEMA)
        with pytest.raises(ProtocolError, match=match):
            parse_check_request(payload)

    def test_properties_deduped_and_lowered(self):
        request = parse_check_request(
            {"schema": SCHEMA, "model": "RING", "properties": ["CSC", "usc", "csc"]}
        )
        assert request.properties == ("csc", "usc")

    def test_jobs_carry_deadline_and_budget(self):
        request = parse_check_request(
            {
                "schema": SCHEMA,
                "model": "RING",
                "properties": ["usc", "csc"],
                "deadline": 2.5,
                "node_budget": 100,
            }
        )
        jobs = request.jobs(default_deadline=9.0)
        assert [job.property for job in jobs] == ["usc", "csc"]
        assert all(job.timeout == 2.5 for job in jobs)
        assert all(job.node_budget == 100 for job in jobs)
        # the default only applies when the request did not set one
        bare = parse_check_request({"schema": SCHEMA, "model": "RING"})
        assert bare.jobs(default_deadline=9.0)[0].timeout == 9.0

    def test_dedup_key_tracks_limits(self):
        base = parse_check_request({"schema": SCHEMA, "model": "RING"})
        same = parse_check_request({"schema": SCHEMA, "model": "RING"})
        other = parse_check_request(
            {"schema": SCHEMA, "model": "RING", "node_budget": 5}
        )
        assert base.dedup_key() == same.dedup_key()
        assert base.dedup_key() != other.dedup_key()

    def test_retired_use_facts_field_is_ignored(self):
        # like any unknown key: accepted, dropped, and no separate dedup slot
        plain = parse_check_request({"schema": SCHEMA, "model": "RING"})
        for value in (True, "yes"):
            legacy = parse_check_request(
                {"schema": SCHEMA, "model": "RING", "use_facts": value}
            )
            assert legacy.dedup_key() == plain.dedup_key()
            assert not hasattr(legacy.jobs()[0], "use_facts")


class TestResultsAndExitCodes:
    def test_result_to_dict_roundtrips_engine_outcome(self):
        job = VerificationJob(stg=vme_bus(), property="csc")
        result = execute_engine(job, "ilp")
        wire = result_to_dict(result)
        assert wire["verdict"] == "violated"
        assert wire["holds"] is False
        assert wire["engine"] == "ilp"
        assert wire["witness"] == result.witness

    def test_exit_codes_match_check_semantics(self):
        holds = {"verdict": "holds", "holds": True}
        violated = {"verdict": "violated", "holds": False}
        limit = {"verdict": "limit", "holds": None}
        assert exit_code_for([holds, holds]) == 0
        assert exit_code_for([holds, violated]) == 1
        assert exit_code_for([violated, limit]) == 2
        assert exit_code_for([]) == 0

    def test_envelope_and_error_payload(self):
        assert envelope(x=1) == {"schema": SCHEMA, "x": 1}
        payload = error_payload("boom", retry_after=3)
        assert payload["schema"] == SCHEMA
        assert payload["error"] == "boom"
        assert payload["retry_after"] == 3

    def test_unsound_job_result_maps_to_exit_2(self):
        wire = result_to_dict(
            JobResult(
                job_id="x", name="x", property="csc", verdict="timeout",
                error="too slow",
            )
        )
        assert exit_code_for([wire]) == 2
