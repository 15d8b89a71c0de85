"""The lint rule registry and driver.

Rules are plain functions decorated with :func:`rule`; each receives a
:class:`RuleContext` (the STG plus lazily-computed linear-algebra artefacts
shared across rules) and yields :class:`~repro.lint.diagnostics.Diagnostic`
objects.  Registration order is execution order, which matters for the
certifying pre-filter tier: the cheap exact-kernel certificate runs before
the LP relaxation, and a rule can consult ``context.decided`` to skip work
a predecessor already settled.

Two drivers share the rule loop and the pre-filter gate: :func:`run_lint`
produces the full report, and :func:`decide` runs only the rules that can
change the report's certified decisions (the engine's stage zero).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
)

import numpy as np

from repro.lint.diagnostics import (
    _SEVERITY_RANK,
    Decision,
    Diagnostic,
    LintReport,
    SEVERITY_ERROR,
    TIER_ANALYSIS,
    TIER_PREFILTER,
    TIERS,
)
from repro.stg.sourcemap import KIND_PLACE, KIND_SIGNAL, KIND_TRANSITION, SourceSpan
from repro.stg.stg import STG

if TYPE_CHECKING:
    from repro.analysis import FactBase


#: Default net size (places + transitions) up to which the LP-backed rules run.
SIZE_BUDGET = 160


class RuleContext:
    """Everything a rule may inspect, with shared lazy artefacts.

    ``size_budget`` bounds the net size (places + transitions) up to which
    the polyhedral pre-filter rules are allowed to run; rules that would
    exceed it must stay silent rather than stall the pipeline.
    """

    def __init__(self, stg: STG, size_budget: int = SIZE_BUDGET):
        self.stg = stg
        self.net = stg.net
        self.size_budget = size_budget
        #: Property verdicts established so far ({"usc": True, ...}).
        self.decided: Dict[str, bool] = {}
        self._incidence: Optional[np.ndarray] = None
        self._balance: Optional[np.ndarray] = None
        self._tinvariants: Optional[List[np.ndarray]] = None
        self._pinvariants: Optional[List[np.ndarray]] = None
        self._facts: Optional["FactBase"] = None

    # -- shared linear algebra -------------------------------------------------

    @property
    def incidence(self) -> np.ndarray:
        """The ``|S| x |T|`` incidence matrix of the underlying net."""
        if self._incidence is None:
            from repro.petri.incidence import incidence_matrix

            self._incidence = incidence_matrix(self.net)
        return self._incidence

    @property
    def balance(self) -> np.ndarray:
        """The ``|Z| x |T|`` signal-balance matrix ``B``.

        ``B[z, t]`` is the code delta of signal ``z`` when ``t`` fires:
        ``+1`` for ``z+`` labels, ``-1`` for ``z-``, 0 elsewhere (dummies
        contribute an all-zero column).
        """
        if self._balance is None:
            from repro.petri.incidence import balance_matrix_from_changes

            changes = [
                self.stg.signal_change(t)
                for t in range(self.net.num_transitions)
            ]
            self._balance = balance_matrix_from_changes(
                changes, len(self.stg.signals)
            )
        return self._balance

    @property
    def tinvariants(self) -> List[np.ndarray]:
        if self._tinvariants is None:
            from repro.petri.analysis import transition_invariants

            self._tinvariants = transition_invariants(self.net)
        return self._tinvariants

    @property
    def pinvariants(self) -> List[np.ndarray]:
        if self._pinvariants is None:
            from repro.petri.analysis import place_invariants

            self._pinvariants = place_invariants(self.net)
        return self._pinvariants

    @property
    def facts(self) -> "FactBase":
        """The structural :class:`~repro.analysis.FactBase` of the STG.

        Memoized per content hash inside :func:`repro.analysis.analyze`, so
        the A4xx rules, refinement and the CLI all share one computation.
        """
        if self._facts is None:
            from repro.analysis import analyze

            self._facts = analyze(self.stg)
        return self._facts

    def nonneg_pinvariants(self) -> List[np.ndarray]:
        """Basis P-invariants that are sign-definite, flipped non-negative."""
        result = []
        for vector in self.pinvariants:
            if (vector >= 0).all():
                result.append(vector)
            elif (vector <= 0).all():
                result.append(-vector)
        return result

    # -- span helpers ----------------------------------------------------------

    def place_span(self, index: int) -> Optional[SourceSpan]:
        if self.stg.source_map is None:
            return None
        return self.stg.source_map.get(KIND_PLACE, self.net.place_name(index))

    def transition_span(self, index: int) -> Optional[SourceSpan]:
        if self.stg.source_map is None:
            return None
        return self.stg.source_map.get(
            KIND_TRANSITION, self.net.transition_name(index)
        )

    def signal_span(self, name: str) -> Optional[SourceSpan]:
        if self.stg.source_map is None:
            return None
        return self.stg.source_map.get(KIND_SIGNAL, name)


#: A rule takes the context and yields diagnostics.
RuleFn = Callable[[RuleContext], Iterator[Diagnostic]]


@dataclass(frozen=True)
class LintRule:
    """Registered metadata of one rule."""

    rule_id: str
    name: str
    tier: str
    severity: str
    doc: str
    fn: RuleFn

    def run(self, context: RuleContext) -> List[Diagnostic]:
        """The rule's diagnostics; raises ``ValueError`` if the rule breaks
        its registration.

        The gates of :func:`run_lint` and :func:`decide` read rule metadata,
        so a diagnostic may be no more severe than the registered severity,
        and only pre-filter rules may decide a property.
        """
        diagnostics = list(self.fn(context))
        for diagnostic in diagnostics:
            if _SEVERITY_RANK[diagnostic.severity] < _SEVERITY_RANK[self.severity]:
                raise ValueError(
                    f"rule {self.rule_id} registered as {self.severity} "
                    f"emitted a {diagnostic.severity} diagnostic"
                )
            if diagnostic.decides and self.tier != TIER_PREFILTER:
                raise ValueError(
                    f"rule {self.rule_id} of tier {self.tier} decided "
                    f"{sorted(diagnostic.decides)}; only {TIER_PREFILTER} "
                    "rules may"
                )
        return diagnostics


#: Registry in registration (= execution) order.
RULES: Dict[str, LintRule] = {}


def rule(rule_id: str, name: str, tier: str, severity: str) -> Callable[[RuleFn], RuleFn]:
    """Register a lint rule; ``severity`` is the rule's default severity."""
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}")

    def decorate(fn: RuleFn) -> RuleFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        RULES[rule_id] = LintRule(
            rule_id=rule_id,
            name=name,
            tier=tier,
            severity=severity,
            doc=(fn.__doc__ or "").strip().split("\n", 1)[0],
            fn=fn,
        )
        return fn

    return decorate


def all_rules() -> List[LintRule]:
    _load_builtin_rules()
    return list(RULES.values())


def select_rules(patterns: Optional[Iterable[str]] = None) -> List[LintRule]:
    """Rules whose id or name matches any glob pattern (all when ``None``)."""
    rules = all_rules()
    if patterns is None:
        return rules
    wanted = list(patterns)
    return [
        r
        for r in rules
        if any(
            fnmatch.fnmatch(r.rule_id, p) or fnmatch.fnmatch(r.name, p)
            for p in wanted
        )
    ]


_BUILTINS_LOADED = False


def _load_builtin_rules() -> None:
    """Import the rule modules exactly once (registration side effect)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.lint import rules_analysis  # noqa: F401
    from repro.lint import rules_prefilter  # noqa: F401
    from repro.lint import rules_semantics  # noqa: F401
    from repro.lint import rules_wellformed  # noqa: F401


def run_lint(
    stg: STG,
    rules: Optional[Iterable[str]] = None,
    prefilter: bool = True,
    size_budget: int = SIZE_BUDGET,
) -> LintReport:
    """Run the (selected) rule set over ``stg`` and return the report.

    ``prefilter=False`` skips the conflict pre-filter tier (useful when only
    style diagnostics are wanted).  ``size_budget`` caps the net size for the
    polyhedral pre-filter; larger nets simply skip it.

    The certifying tier is gated on hygiene: if any *error* diagnostic or
    any consistency-risk warning (rules S202/S203/S204) fired, pre-filter
    rules do not run — their soundness argument presumes a consistent,
    well-formed STG.  The analysis-facts tier (``A4xx``) is likewise skipped
    when errors fired: the facts engine presumes a well-formed net.
    """
    from repro import obs

    with obs.trace("lint.run"):
        selected = select_rules(list(rules) if rules is not None else None)
        context = RuleContext(stg, size_budget=size_budget)
        report = LintReport(stg_name=stg.name)
        _run_rules(context, report, [r for r in selected if _hygiene(r)])
        if prefilter and _prefilter_allowed(report):
            _run_rules(
                context, report, [r for r in selected if r.tier == TIER_PREFILTER]
            )
        if not report.errors:
            _run_rules(
                context, report, [r for r in selected if r.tier == TIER_ANALYSIS]
            )
        return report


def decide(stg: STG) -> Dict[str, Decision]:
    """The property verdicts ``run_lint(stg).decisions()`` certifies, for
    a fraction of the work.

    Only the rules that can change those decisions run, cheapest gate
    first: the error-severity hygiene rules (an error closes the gate), the
    pre-filter tier in registration order, and — only once a certificate
    has fired — the consistency-risk rules, whose firing also closes the
    gate.  Any closed gate returns ``{}``.  The analysis facts, the
    advisory rules and the report are never built; advisory diagnostics
    come only from :func:`run_lint`.
    """
    from repro import obs

    with obs.trace("lint.decide"):
        rules = all_rules()
        context = RuleContext(stg)
        report = LintReport(stg_name=stg.name)
        _run_rules(
            context,
            report,
            [r for r in rules if _hygiene(r) and r.severity == SEVERITY_ERROR],
        )
        if not _prefilter_allowed(report):
            return {}
        _run_rules(context, report, [r for r in rules if r.tier == TIER_PREFILTER])
        if not context.decided:
            return {}
        _run_rules(
            context,
            report,
            [r for r in rules if r.rule_id in _CONSISTENCY_RISK_RULES],
        )
        if not _prefilter_allowed(report):
            return {}
        return report.decisions()


def _hygiene(lint_rule: LintRule) -> bool:
    """Rules that run before the pre-filter gate (well-formedness, semantics)."""
    return lint_rule.tier not in (TIER_PREFILTER, TIER_ANALYSIS)


def _run_rules(
    context: RuleContext, report: LintReport, rules: List[LintRule]
) -> None:
    """Run ``rules`` in order, recording each certified property verdict in
    ``context.decided`` so later rules can skip settled work."""
    for lint_rule in rules:
        report.rules_run.append(lint_rule.rule_id)
        diagnostics = lint_rule.run(context)
        report.extend(diagnostics)
        for diagnostic in diagnostics:
            for prop, holds in diagnostic.decides.items():
                context.decided.setdefault(prop, holds)


#: Warnings that undermine the pre-filter soundness argument (consistency).
_CONSISTENCY_RISK_RULES = frozenset({"S202", "S203", "S204"})


def _prefilter_allowed(report: LintReport) -> bool:
    if any(d.severity == SEVERITY_ERROR for d in report.diagnostics):
        return False
    return not any(
        d.rule_id in _CONSISTENCY_RISK_RULES for d in report.diagnostics
    )
