"""repro.lint — static STG diagnostics with certifying conflict pre-filters.

The subsystem runs four tiers of rules over a parsed STG without building
any state space:

1. *well-formedness* (``W1xx``): structural defects of the net,
2. *stg-semantics* (``S2xx``): signal-level specification defects,
3. *conflict-prefilter* (``C3xx``): certifying USC/CSC verdicts from the
   state-equation relaxation — each positive verdict carries a
   machine-checkable certificate,
4. *analysis-facts* (``A4xx``): findings backed by the structural facts
   engine (:mod:`repro.analysis`) — autoconcurrency left unrefuted, dead
   transitions from unmarked siphons, siphons without marked traps.

Entry points: :func:`run_lint` builds the full report, which the CLI
exposes as ``repro-stg lint``.  :func:`decide` returns the same certified
decisions as ``run_lint(stg).decisions()`` but runs only the rules that can
change them — the error-severity rules, the pre-filter tier and, once a
certificate fired, the consistency-risk rules; the verification engine
runs it as stage zero of every portfolio job (see
:mod:`repro.engine.portfolio`).
"""

from repro.lint.certificates import (
    CERT_AFFINE,
    CERT_LP,
    build_affine_certificate,
    build_lp_certificate,
    state_equation_usc_safe,
    verify_certificate,
)
from repro.lint.diagnostics import (
    Decision,
    Diagnostic,
    LintReport,
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    TIER_ANALYSIS,
    TIER_PREFILTER,
    TIER_SEMANTICS,
    TIER_WELLFORMED,
    TIERS,
)
from repro.lint.registry import (
    LintRule,
    RuleContext,
    all_rules,
    decide,
    rule,
    run_lint,
    select_rules,
)
from repro.lint.render import render_json, render_text, report_to_dict

__all__ = [
    "CERT_AFFINE",
    "CERT_LP",
    "Decision",
    "Diagnostic",
    "LintReport",
    "LintRule",
    "RuleContext",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "TIERS",
    "TIER_ANALYSIS",
    "TIER_PREFILTER",
    "TIER_SEMANTICS",
    "TIER_WELLFORMED",
    "all_rules",
    "build_affine_certificate",
    "build_lp_certificate",
    "decide",
    "render_json",
    "render_text",
    "report_to_dict",
    "rule",
    "run_lint",
    "select_rules",
    "state_equation_usc_safe",
    "verify_certificate",
]
