"""Analysis-facts rules (tier 4, ``A4xx``): findings backed by the
structural facts engine (:mod:`repro.analysis`).

Unlike the S2xx heuristics these rules consume the shared
:class:`~repro.analysis.FactBase` — every negative claim they rely on
(never co-enabled, dead transition, trap/siphon structure) is a
:class:`~repro.analysis.Fact` with a machine-checkable justification.  The
FactBase is memoized per content hash, so refinement and the
``repro-stg analyze`` command reuse the same computation.

Like the pre-filter tier, the rules stay silent on nets beyond the
context's size budget rather than stall the pipeline.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.analysis import FACT_DEAD_TRANSITION, FACT_SIPHON
from repro.lint.diagnostics import (
    Diagnostic,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    TIER_ANALYSIS,
)
from repro.lint.registry import RuleContext, rule


def _within_budget(context: RuleContext) -> bool:
    net = context.net
    return net.num_places + net.num_transitions <= context.size_budget


@rule("A401", "autoconcurrency-unrefuted", TIER_ANALYSIS, SEVERITY_INFO)
def autoconcurrency_unrefuted(context: RuleContext) -> Iterator[Diagnostic]:
    """Two same-signal edges that no structural fact keeps apart may be
    auto-concurrent.  The facts engine tries harder than S201 (weighted
    invariant exclusions, dead-transition proofs), so everything it still
    cannot refute is worth a look — reported as info, not warning, because
    the relation is an over-approximation."""
    if not _within_budget(context):
        return
    stg = context.stg
    net = context.net
    facts = context.facts
    for signal in stg.signals:
        transitions = stg.transitions_of(signal)
        for i, t1 in enumerate(transitions):
            name1 = net.transition_name(t1)
            for t2 in transitions[i + 1:]:
                name2 = net.transition_name(t2)
                if facts.in_structural_conflict(name1, name2):
                    continue  # firing one disables the other
                if facts.never_coenabled(name1, name2):
                    continue  # an invariant or deadness fact separates them
                yield Diagnostic(
                    rule_id="A401",
                    severity=SEVERITY_INFO,
                    message=f"no structural fact separates edges {name1!r} "
                    f"and {name2!r} of signal {signal!r}; they may be "
                    "auto-concurrent",
                    subject=signal,
                    span=context.transition_span(t1),
                )


@rule("A402", "fact-dead-transition", TIER_ANALYSIS, SEVERITY_WARNING)
def fact_dead_transition(context: RuleContext) -> Iterator[Diagnostic]:
    """A transition proven dead by an unmarked-siphon fact: its preset
    intersects a siphon that starts empty and can never gain a token, so
    the transition never fires and its signal edge is unreachable."""
    if not _within_budget(context):
        return
    net = context.net
    for fact in context.facts.of_kind(FACT_DEAD_TRANSITION):
        name = fact.subjects[0]
        yield Diagnostic(
            rule_id="A402",
            severity=SEVERITY_WARNING,
            message=f"transition {name!r} is dead: {fact.claim}",
            subject=name,
            span=context.transition_span(net.transition_index(name)),
            fixit="mark a place of the siphon or remove the transition",
        )


@rule("A403", "siphon-without-marked-trap", TIER_ANALYSIS, SEVERITY_INFO)
def siphon_without_marked_trap(context: RuleContext) -> Iterator[Diagnostic]:
    """A minimal siphon containing no marked trap can drain permanently —
    the Commoner-style liveness argument fails for it, flagging a deadlock
    risk.  Info severity: for non-free-choice nets the condition is only
    sufficient for liveness, not necessary."""
    if not _within_budget(context):
        return
    from repro.analysis import maximal_trap

    net = context.net
    initial = net.initial_marking
    seen: List[Tuple[str, ...]] = []
    for fact in context.facts.of_kind(FACT_SIPHON):
        places = frozenset(net.place_index(name) for name in fact.subjects)
        trap = maximal_trap(net, places)
        if any(int(initial[p]) > 0 for p in trap):
            continue  # the largest trap inside the siphon is marked: live
        if fact.subjects in seen:
            continue
        seen.append(fact.subjects)
        names = ", ".join(fact.subjects)
        yield Diagnostic(
            rule_id="A403",
            severity=SEVERITY_INFO,
            message=f"siphon {{{names}}} contains no marked trap; once it "
            "drains it stays empty and its output transitions die",
            subject=fact.subjects[0],
        )
