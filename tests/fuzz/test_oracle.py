"""The oracle battery: guards, differential, lint, axes, metamorphic, parser."""

from dataclasses import replace

import pytest

import repro.fuzz.oracle as oracle_module
from repro.engine.jobs import ENGINES, register_engine
from repro.fuzz.generate import FuzzCase, generate_case
from repro.fuzz.oracle import (
    SKIP_INCONSISTENT,
    SKIP_UNBOUNDED,
    SKIP_UNSAFE,
    OracleConfig,
    run_oracles,
)
from repro.lint import Decision, decide
from repro.models import toggle_bank, vme_bus
from repro.stg.stg import STG, SignalEdge


def _case_for(stg, seed=0, index=0):
    return FuzzCase(
        seed=seed,
        index=index,
        base="handmade",
        mutations=(),
        preserving=True,
        stg=stg,
    )


@pytest.fixture
def plant_engine():
    """Register a throwaway engine for one test; always unregistered after."""
    planted = []

    def plant(name, fn):
        planted.append(name)
        register_engine(name, fn)
        return name

    yield plant
    for name in planted:
        ENGINES.pop(name, None)


class TestGuards:
    def test_unbounded_case_is_skipped(self):
        stg = STG("unbounded", outputs=["z"])
        stg.add_place("p", tokens=1)
        stg.add_transition("z+", SignalEdge("z", +1))
        stg.add_arc("p", "z+")
        stg.add_arc("z+", "p")
        stg.net.add_arc("z+", "p")  # weight 2 out: token count grows forever
        outcome = run_oracles(_case_for(stg), OracleConfig(parser_probes=0))
        assert not outcome.checkable
        assert outcome.skip_reason == SKIP_UNBOUNDED
        assert outcome.divergences == []

    def test_unsafe_case_is_skipped(self):
        stg = STG("unsafe", outputs=["z"])
        stg.add_place("p", tokens=2)
        stg.add_place("q")
        stg.add_transition("z+", SignalEdge("z", +1))
        stg.add_arc("p", "z+")
        stg.add_arc("z+", "q")
        outcome = run_oracles(_case_for(stg), OracleConfig(parser_probes=0))
        assert outcome.skip_reason == SKIP_UNSAFE

    def test_inconsistent_case_is_skipped(self):
        stg = STG("inconsistent", outputs=["z"])
        stg.add_place("p", tokens=1)
        stg.add_place("q")
        stg.add_transition("z+", SignalEdge("z", +1))
        stg.add_transition("z+/1", SignalEdge("z", +1))
        stg.add_arc("p", "z+")
        stg.add_arc("z+", "q")
        stg.add_arc("q", "z+/1")
        outcome = run_oracles(_case_for(stg), OracleConfig(parser_probes=0))
        assert outcome.skip_reason == SKIP_INCONSISTENT


class TestCleanRun:
    def test_vme_bus_has_no_divergence(self):
        outcome = run_oracles(_case_for(vme_bus()))
        assert outcome.checkable
        assert outcome.divergences == []
        assert outcome.oracle_runs > 5

    def test_generated_stream_is_clean(self):
        # a small slice of the default campaign must be divergence-free
        config = OracleConfig()
        for index in range(8):
            outcome = run_oracles(generate_case(11, index), config)
            assert outcome.divergences == [], outcome.divergences


class TestDifferential:
    def test_lying_engine_is_caught(self, plant_engine):
        def lying(job):
            from repro.stg.stategraph import build_state_graph

            graph = build_state_graph(job.stg)
            truth = graph.has_usc() if job.property == "usc" else graph.has_csc()
            return (not truth), None, {}

        name = plant_engine("liar", lying)
        config = OracleConfig(engines=("liar",), parser_probes=0)
        outcome = run_oracles(_case_for(vme_bus()), config)
        subjects = {d.subject for d in outcome.divergences}
        assert f"{name}-vs-sg:usc" in subjects
        assert f"{name}-vs-sg:csc" in subjects

    def test_crashing_engine_is_caught(self, plant_engine):
        def crashing(job):
            raise KeyError("boom")  # not a ReproError: must be reported

        name = plant_engine("crasher", crashing)
        config = OracleConfig(engines=(name,), parser_probes=0)
        outcome = run_oracles(_case_for(vme_bus()), config)
        crash = [d for d in outcome.divergences if d.oracle == "crash"]
        assert crash and crash[0].subject == f"engine.{name}"
        assert "KeyError" in crash[0].signature

    def test_refusing_engine_is_not_a_divergence(self, plant_engine):
        from repro.exceptions import ReproError

        def refusing(job):
            raise ReproError("this engine declines politely")

        name = plant_engine("refuser", refusing)
        config = OracleConfig(engines=(name,), parser_probes=0)
        outcome = run_oracles(_case_for(vme_bus()), config)
        assert outcome.divergences == []


class TestLintOracle:
    """Stage zero against run_lint, the ground truth and certificate replay."""

    CONFIG = OracleConfig(engines=(), parser_probes=0)

    @staticmethod
    def certified_case():
        # C301 decides toggle banks; index 1 samples no config axis
        return _case_for(toggle_bank(3), index=1)

    @pytest.fixture
    def doctor(self, monkeypatch):
        """Rewrite every decision the oracle's ``decide`` returns."""

        def install(rewrite):
            monkeypatch.setattr(
                oracle_module,
                "decide",
                lambda stg: {p: rewrite(d) for p, d in decide(stg).items()},
            )

        return install

    def test_certified_case_is_clean(self):
        lean = run_oracles(
            self.certified_case(),
            OracleConfig(engines=(), properties=(), parser_probes=0),
        )
        outcome = run_oracles(self.certified_case(), self.CONFIG)
        assert outcome.divergences == []
        assert outcome.oracle_runs == lean.oracle_runs + 1

    def test_wrong_verdict_is_caught(self, doctor):
        doctor(lambda d: Decision(d.property, not d.holds, d.diagnostic))
        outcome = run_oracles(self.certified_case(), self.CONFIG)
        subjects = {d.subject for d in outcome.divergences}
        assert {"decide-vs-run_lint", "C301-vs-sg:usc", "C301-vs-sg:csc"} <= subjects

    def test_unreplayable_certificate_is_caught(self, doctor):
        def tamper(d):
            bad = dict(d.diagnostic.certificate, matrix=[["7/3"]])
            return Decision(d.property, d.holds, replace(d.diagnostic, certificate=bad))

        doctor(tamper)
        outcome = run_oracles(self.certified_case(), self.CONFIG)
        subjects = {d.subject for d in outcome.divergences}
        assert "C301-certificate:usc" in subjects
        assert all(d.oracle == "lint" for d in outcome.divergences)


class TestAxes:
    def test_axes_run_on_sampled_indices(self):
        # index 0 samples the refine and cache axes
        config = OracleConfig(engines=(), parser_probes=0)
        outcome = run_oracles(_case_for(vme_bus(), index=0), config)
        assert outcome.divergences == []
        assert outcome.checkable

    def test_unsampled_index_skips_axes(self):
        config = OracleConfig(engines=(), parser_probes=0)
        lean = run_oracles(_case_for(vme_bus(), index=1), config)
        full = run_oracles(_case_for(vme_bus(), index=0), config)
        assert lean.oracle_runs < full.oracle_runs


class TestMetamorphicAndParser:
    def test_parser_probes_crash_free_on_stream(self):
        config = OracleConfig(
            engines=(), properties=(), parser_probes=6, max_states=64
        )
        for index in range(30):
            outcome = run_oracles(generate_case(23, index), config)
            crashes = [d for d in outcome.divergences if d.oracle == "crash"]
            assert crashes == [], crashes

    def test_roundtrip_oracle_skips_inexpressible(self):
        stg = STG("weighted", outputs=["z"])
        stg.add_place("p", tokens=1)
        stg.add_transition("z+", SignalEdge("z", +1))
        stg.net.add_arc("p", "z+", weight=2)
        stg.add_arc("z+", "p")
        # not round-trippable (weights); oracle must skip, not flag
        from repro.stg.parser import round_trippable

        assert not round_trippable(stg)
