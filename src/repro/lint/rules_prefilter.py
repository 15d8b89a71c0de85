"""Conflict pre-filter rules (tier 3): certifying static USC/CSC verdicts.

These rules attempt to *decide* the coding-conflict properties without
building a state space, using the state-equation relaxation over the
incidence matrix (the same relaxation the paper's ILP formulation is built
on).  Both are sound only for consistent, dummy-free STGs — the driver gates
the tier accordingly (see :func:`repro.lint.registry.run_lint`) and each
rule additionally refuses nets with silent transitions.

Because USC conflicts subsume CSC conflicts (equal full codes in particular
agree on inputs and on the enabled-output signature), a USC-safety
certificate decides *both* properties positively.

``C301`` (affine-code certificate) is the cheap exact-kernel test: if the
marking is an affine function of the signal code, distinct markings always
differ in code.  ``C302`` (state-equation LP) is strictly stronger and
costlier: exact-rational LPs over the tangent cone of the relaxation, up to
``2 |P|`` of them to certify, though the first inconclusive one stops it
(usually the first).  It runs only when C301 was inconclusive and the net
fits the size budget.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.certificates import (
    build_affine_certificate,
    build_lp_certificate,
)
from repro.lint.diagnostics import (
    Diagnostic,
    SEVERITY_INFO,
    TIER_PREFILTER,
)
from repro.lint.registry import RuleContext, rule

#: Properties a USC-safety certificate settles (USC conflicts subsume CSC).
_DECIDES = {"usc": True, "csc": True}


@rule("C301", "usc-affine-certificate", TIER_PREFILTER, SEVERITY_INFO)
def usc_affine_certificate(context: RuleContext) -> Iterator[Diagnostic]:
    """The marking is an affine function of the signal code: every incidence
    row is a rational combination of signal-balance rows, so two reachable
    markings with equal codes are equal — USC (hence CSC) holds."""
    stg = context.stg
    if stg.has_dummies():
        return
    certificate = build_affine_certificate(stg)
    if certificate is None:
        return
    yield Diagnostic(
        rule_id="C301",
        severity=SEVERITY_INFO,
        message="statically USC-safe: the marking is an affine function of "
        "the signal code (certificate attached); USC and CSC hold without "
        "state-space search",
        subject=stg.name,
        decides=dict(_DECIDES),
        certificate=certificate,
    )


@rule("C302", "usc-state-equation", TIER_PREFILTER, SEVERITY_INFO)
def usc_state_equation(context: RuleContext) -> Iterator[Diagnostic]:
    """The state-equation relaxation admits no code-preserving marking
    change: for every place, the LP max/min of the token-flow difference
    over code-balanced Parikh-vector pairs is 0 — USC (hence CSC) holds."""
    stg = context.stg
    if stg.has_dummies():
        return
    if context.decided.get("usc") is not None:
        return  # C301 already settled it; skip the expensive LPs
    if stg.net.num_places + stg.net.num_transitions > context.size_budget:
        return  # up to 2|P| exact LPs would stall the zero-cost stage
    certificate = build_lp_certificate(stg)
    if certificate is None:
        return
    yield Diagnostic(
        rule_id="C302",
        severity=SEVERITY_INFO,
        message="statically USC-safe: the state-equation relaxation admits "
        "no code-preserving marking change (replayable LP certificate); "
        "USC and CSC hold without state-space search",
        subject=stg.name,
        decides=dict(_DECIDES),
        certificate=certificate,
    )
