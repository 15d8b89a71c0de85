"""repro.analysis — the structural facts engine (docs/analysis.md).

Computes, once per canonical STG hash, a :class:`FactBase` of whole-net
structural facts: concurrency/conflict/causality relation
over-approximations refined by place invariants and trap/siphon arguments,
minimal traps and siphons, and signal trigger/lock structure.  Every fact
carries a machine-checkable
justification replayed by the independent :func:`verify_fact` — the same
no-trust contract as :mod:`repro.lint.certificates`.

Consumers: the ``A4xx`` lint tier (:mod:`repro.lint.rules_analysis`), the
``repro-stg analyze`` CLI subcommand, and the dynamic-conflict-freeness
licence of the verifier's refinement prescreen (:mod:`repro.core.verifier`),
which builds the FactBase only where Proposition 1's structural test fails.
"""

from repro.analysis.engine import (
    AnalysisOptions,
    FactBase,
    analyze,
    clear_memo,
)
from repro.analysis.facts import (
    FACT_DEAD_TRANSITION,
    FACT_KINDS,
    FACT_LOCK,
    FACT_NEVER_COENABLED,
    FACT_SIPHON,
    FACT_STRUCTURAL_CONFLICT,
    FACT_TRAP,
    FACT_TRIGGER,
    FACT_VERSION,
    Fact,
    verify_fact,
)
from repro.analysis.structure import (
    is_siphon,
    is_trap,
    maximal_siphon,
    maximal_trap,
    minimal_siphons,
    minimal_traps,
)

__all__ = [
    "AnalysisOptions",
    "FACT_DEAD_TRANSITION",
    "FACT_KINDS",
    "FACT_LOCK",
    "FACT_NEVER_COENABLED",
    "FACT_SIPHON",
    "FACT_STRUCTURAL_CONFLICT",
    "FACT_TRAP",
    "FACT_TRIGGER",
    "FACT_VERSION",
    "Fact",
    "FactBase",
    "analyze",
    "clear_memo",
    "is_siphon",
    "is_trap",
    "maximal_siphon",
    "maximal_trap",
    "minimal_siphons",
    "minimal_traps",
    "verify_fact",
]
