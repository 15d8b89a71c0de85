"""Campaign orchestration: determinism, corpus wiring, reproduction."""

import pytest

from repro.engine.jobs import ENGINES, register_engine
from repro.fuzz.campaign import reproduce_case, reproduce_outcome, run_campaign
from repro.fuzz.corpus import CorpusStore
from repro.fuzz.oracle import OracleConfig
from repro.stg.hashing import canonical_stg_hash

#: A cheap schedule for in-suite campaigns: no engine forks, no disk.
LEAN = OracleConfig(
    engines=(), parser_probes=2, refine_every=0, cache_every=0,
    max_states=512,
)


class TestDeterminism:
    def test_two_runs_are_identical(self):
        first = run_campaign(3, 10, LEAN)
        second = run_campaign(3, 10, LEAN)
        assert first.summary.to_dict() == second.summary.to_dict()
        assert first.summary.to_json() == second.summary.to_json()
        assert first.divergences == second.divergences
        assert [o.case_id for o in first.outcomes] == [
            o.case_id for o in second.outcomes
        ]

    def test_summary_accounts_for_every_case(self):
        result = run_campaign(0, 15, LEAN)
        summary = result.summary
        assert summary.cases == 15
        assert summary.checkable + sum(summary.skipped.values()) == 15
        assert summary.oracle_runs == sum(o.oracle_runs for o in result.outcomes)

    def test_progress_callback_sees_each_case(self):
        seen = []
        run_campaign(0, 5, LEAN, progress=lambda o: seen.append(o.case_id))
        assert seen == [f"s0-c{i}" for i in range(5)]


class TestCorpusWiring:
    @pytest.fixture
    def liar(self):
        def lying(job):
            from repro.stg.stategraph import build_state_graph

            graph = build_state_graph(job.stg)
            truth = (
                graph.has_usc() if job.property == "usc" else graph.has_csc()
            )
            return (not truth), None, {}

        register_engine("liar", lying)
        yield "liar"
        ENGINES.pop("liar", None)

    def test_divergences_reach_the_corpus(self, liar, tmp_path):
        config = OracleConfig(
            engines=(liar,), properties=("usc",), parser_probes=0,
            refine_every=0, cache_every=0, max_states=512,
        )
        corpus = CorpusStore(tmp_path / "corpus")
        result = run_campaign(0, 8, config, corpus=corpus)
        summary = result.summary
        assert summary.divergences > 0
        assert summary.unique_signatures >= 1
        assert summary.corpus_new == summary.unique_signatures
        assert summary.corpus_new + summary.corpus_dup == summary.divergences
        assert len(corpus) == summary.corpus_new

    def test_no_corpus_keeps_counters_zero(self, liar):
        config = OracleConfig(
            engines=(liar,), properties=("usc",), parser_probes=0,
            refine_every=0, cache_every=0, max_states=512,
        )
        summary = run_campaign(0, 4, config).summary
        assert summary.divergences > 0
        assert summary.corpus_new == summary.corpus_dup == 0


class TestReproduce:
    def test_reproduce_case_matches_generation(self):
        case = reproduce_case("s5-c9")
        assert (case.seed, case.index) == (5, 9)
        again = reproduce_case("s5-c9")
        assert canonical_stg_hash(case.stg) == canonical_stg_hash(again.stg)

    def test_reproduce_outcome_matches_campaign(self):
        campaign = run_campaign(2, 4, LEAN)
        for recorded in campaign.outcomes:
            replayed = reproduce_outcome(recorded.case_id, LEAN)
            assert replayed.checkable == recorded.checkable
            assert replayed.skip_reason == recorded.skip_reason
            assert replayed.oracle_runs == recorded.oracle_runs
            assert replayed.divergences == recorded.divergences

    def test_bad_case_id_raises(self):
        with pytest.raises(ValueError):
            reproduce_case("nonsense")
