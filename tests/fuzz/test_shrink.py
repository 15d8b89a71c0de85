"""Delta-debugging shrinker: fixpoint reduction under a stable signature."""

import pytest

from repro.engine.jobs import ENGINES, register_engine
from repro.fuzz.generate import FuzzCase
from repro.fuzz.oracle import OracleConfig
from repro.fuzz.shrink import shrink_case, shrink_stg
from repro.models import vme_bus


@pytest.fixture
def liar():
    """An engine that inverts the ground truth — a guaranteed divergence."""

    def lying(job):
        from repro.stg.stategraph import build_state_graph

        graph = build_state_graph(job.stg)
        truth = graph.has_usc() if job.property == "usc" else graph.has_csc()
        return (not truth), None, {}

    register_engine("liar", lying)
    yield "liar"
    ENGINES.pop("liar", None)


def _vme_case():
    # index 1 keeps the sampled axes (refine/cache) out of the
    # predicate, so each shrink check costs one liar run plus the guards
    return FuzzCase(
        seed=0, index=1, base="handmade", mutations=(), preserving=True,
        stg=vme_bus(),
    )


LIAR_CONFIG = OracleConfig(
    engines=("liar",), properties=("usc",), parser_probes=0
)
LIAR_SIG = "differential:liar-vs-sg:usc:mismatch"


class TestShrinkStg:
    def test_shrinks_to_small_reproducer(self):
        # predicate: "still declares signal d" — everything else must go
        stg = vme_bus()
        predicate = lambda s: "d" in s.signals  # noqa: E731
        shrunk = shrink_stg(stg, predicate, max_checks=500)
        assert shrunk is not None
        assert shrunk.accepted > 0
        assert shrunk.stg.signals == ["d"]
        assert not shrunk.exhausted

    def test_unreproducible_input_returns_none(self):
        assert shrink_stg(vme_bus(), lambda s: False) is None

    def test_budget_stops_a_pass(self):
        calls = []

        def predicate(s):
            calls.append(s)
            return True  # every reduction "reproduces": endless appetite

        shrunk = shrink_stg(vme_bus(), predicate, max_checks=5)
        assert shrunk is not None
        assert shrunk.exhausted
        assert shrunk.checks <= 5


class TestShrinkCase:
    def test_minimizes_a_planted_divergence(self, liar):
        case = _vme_case()
        result = shrink_case(case, LIAR_SIG, LIAR_CONFIG, max_checks=80)
        assert result is not None
        assert result.signature == LIAR_SIG
        assert result.accepted > 0
        before = case.stg.net.num_transitions + case.stg.net.num_places
        after = result.stg.net.num_transitions + result.stg.net.num_places
        assert after < before
        # the minimized STG still reproduces the signature
        from repro.fuzz.shrink import divergence_predicate

        assert divergence_predicate(case, LIAR_SIG, LIAR_CONFIG)(result.stg)
        assert "reduction" in result.stats()

    def test_stale_signature_returns_none(self, liar):
        result = shrink_case(
            _vme_case(), "differential:liar-vs-sg:csc:mismatch", LIAR_CONFIG
        )
        assert result is None  # config only checks usc; csc never reproduces
