"""The analyze() driver: memoization, serialization, DCF proof."""

import pytest

from repro import obs
from repro.analysis import (
    AnalysisOptions,
    FACT_SIPHON,
    FACT_TRAP,
    FactBase,
    analyze,
    clear_memo,
)
from repro.models import TABLE1_BENCHMARKS


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def ring():
    return TABLE1_BENCHMARKS["RING"]()


class TestMemo:
    def test_second_call_returns_same_object(self, ring):
        first = analyze(ring)
        assert analyze(ring) is first

    def test_clear_memo_forces_recompute(self, ring):
        first = analyze(ring)
        clear_memo()
        second = analyze(ring)
        assert second is not first
        assert second.to_dict() == first.to_dict()

    def test_cache_hit_counter(self, ring):
        from repro.obs.tracer import Tracer

        probe = Tracer(enabled=True)
        previous = obs.set_tracer(probe)
        try:
            analyze(ring)
            analyze(ring)
        finally:
            obs.set_tracer(previous)
        assert probe.counters.get("analysis.runs") == 1
        assert probe.counters.get("analysis.cache_hits") == 1


class TestFactBase:
    def test_serialization_round_trip(self, ring):
        facts = analyze(ring)
        clone = FactBase.from_dict(facts.to_dict())
        assert clone.to_dict() == facts.to_dict()
        # the derived relation views are rebuilt identically
        names = [ring.net.transition_name(t) for t in range(3)]
        for a in names:
            for b in names:
                assert clone.never_coenabled(a, b) == facts.never_coenabled(a, b)

    def test_ring_proves_dcf(self, ring):
        # RING is a marked graph: no structural conflicts, so DCF holds
        # vacuously — and the engine must notice
        assert analyze(ring).proves_dynamic_conflict_freeness()

    def test_counts_sum_to_total(self, ring):
        facts = analyze(ring)
        assert sum(facts.counts().values()) == len(facts.facts)


class TestOptions:
    def test_budgets_bound_enumeration(self, ring):
        tight = AnalysisOptions(
            trap_max_size=1, trap_max_count=1, siphon_max_size=1, siphon_max_count=1
        )
        facts = analyze(ring, options=tight)
        assert len(facts.of_kind(FACT_TRAP)) <= 1
        assert len(facts.of_kind(FACT_SIPHON)) <= 1
