"""``decide``: the engine's stage zero settles exactly what ``run_lint`` does.

``decide`` skips every rule that cannot change the report's decisions, so
its contract is equality with ``run_lint(stg).decisions()`` — same verdict,
same rule, same certificate — on every input.  The sweeps below pin that on
the bundled models, the example files and a fixed slice of the fuzz stream;
the gate tests pin the two early exits.
"""

from pathlib import Path

import pytest

from repro.fuzz.generate import iter_cases
from repro.lint import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    TIER_SEMANTICS,
    LintRule,
    RuleContext,
    decide,
    rules_prefilter,
    run_lint,
)
from repro.lint.diagnostics import Diagnostic
from repro.models import toggle_bank
from repro.stg.parser import parse_stg
from repro.stg.stg import STG, SignalEdge
from tests.lint.test_golden_models import sweep_targets

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.g"))


def fingerprint(decisions):
    return {
        prop: (d.holds, d.diagnostic.rule_id, d.diagnostic.certificate)
        for prop, d in decisions.items()
    }


def assert_same_decisions(stg):
    assert fingerprint(decide(stg)) == fingerprint(run_lint(stg).decisions())


@pytest.mark.parametrize("name", sorted(sweep_targets()))
def test_matches_run_lint_on_bundled_models(name):
    # the golden sweep covers every Table-1 model plus the classic ones
    assert_same_decisions(sweep_targets()[name]())


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_matches_run_lint_on_examples(path):
    assert_same_decisions(parse_stg(path.read_text(), filename=str(path)))


def test_matches_run_lint_on_fuzz_stream():
    decided = 0
    for case in iter_cases(1, 300):
        decisions = decide(case.stg)
        assert fingerprint(decisions) == fingerprint(
            run_lint(case.stg).decisions()
        ), case.case_id
        decided += bool(decisions)
    assert decided  # the slice exercises the certificate path, not just {}


def one_shot_signal():
    """``p0 -> a+ -> p1``: C301 certifies it, S204 flags ``a`` (rises only)."""
    stg = STG("one-shot", outputs=["a"])
    stg.add_place("p0", tokens=1)
    stg.add_place("p1")
    stg.add_transition("a+", SignalEdge("a", +1))
    stg.add_arc("p0", "a+")
    stg.add_arc("a+", "p1")
    return stg


def overmarked_toggle():
    """A toggle whose only marked place carries two tokens (W105)."""
    stg = STG("overmarked", outputs=["a"])
    stg.add_place("p0", tokens=2)
    stg.add_place("p1")
    stg.add_transition("a+", SignalEdge("a", +1))
    stg.add_transition("a-", SignalEdge("a", -1))
    stg.add_arc("p0", "a+")
    stg.add_arc("a+", "p1")
    stg.add_arc("p1", "a-")
    stg.add_arc("a-", "p0")
    return stg


class TestGates:
    def test_certificate_then_consistency_risk_returns_nothing(self):
        stg = one_shot_signal()
        # the certificate alone would decide both properties ...
        assert set(run_lint(stg, rules=["C301"]).decisions()) == {"usc", "csc"}
        # ... but S204 closes the gate after it fired
        assert run_lint(stg).of_rule("S204")
        assert decide(stg) == {}
        assert run_lint(stg).decisions() == {}

    def test_error_returns_nothing_before_any_certificate(self, monkeypatch):
        calls = []
        for builder in ("build_affine_certificate", "build_lp_certificate"):
            monkeypatch.setattr(
                rules_prefilter, builder, lambda stg, b=builder: calls.append(b)
            )
        stg = overmarked_toggle()
        assert [d.rule_id for d in run_lint(stg).errors] == ["W105"]
        assert decide(stg) == {}
        assert calls == []

    def test_no_lp_certificate_once_c301_decides(self, monkeypatch):
        def forbidden(stg):
            raise AssertionError("C302 solved its LPs after C301 decided")

        monkeypatch.setattr(rules_prefilter, "build_lp_certificate", forbidden)
        decisions = decide(toggle_bank(3))
        assert decisions["usc"].diagnostic.rule_id == "C301"


class TestRegisteredSeverityIsABound:
    def rule_emitting(self, severity, tier, decides=None):
        def fn(context):
            yield Diagnostic(
                rule_id="X999",
                severity=severity,
                message="planted",
                decides=decides or {},
            )

        return LintRule(
            rule_id="X999",
            name="planted",
            tier=tier,
            severity=SEVERITY_WARNING,
            doc="",
            fn=fn,
        )

    def test_more_severe_than_registered_raises(self):
        planted = self.rule_emitting(SEVERITY_ERROR, TIER_SEMANTICS)
        with pytest.raises(ValueError, match="registered as warning"):
            planted.run(RuleContext(one_shot_signal()))

    def test_less_severe_is_allowed(self):
        planted = self.rule_emitting(SEVERITY_INFO, TIER_SEMANTICS)
        assert len(planted.run(RuleContext(one_shot_signal()))) == 1

    def test_only_prefilter_rules_may_decide(self):
        planted = self.rule_emitting(
            SEVERITY_WARNING, TIER_SEMANTICS, decides={"usc": True}
        )
        with pytest.raises(ValueError, match="only conflict-prefilter"):
            planted.run(RuleContext(one_shot_signal()))
