"""CEGAR trap/siphon refinement of the conflict-system relaxation.

The paper's ILP encoding reaches more markings than the STG ever does, so
a feasible relaxation does not mean a real conflict.  This package closes
part of that gap the CEGAR way (Wimmel & Wolf, *Applying CEGAR to the
Petri Net State Equation*): solve the relaxation, ask whether the solution
marking could be reachable at all — a marked trap it empties or an
unmarked siphon it fills says no — and if not, add the violated
trap/siphon inequality as a cut and re-solve.  Combined with the integral
rounding step (a token-flow-difference bound below 1 proves the integral
difference is zero), the loop either *refutes* the conflict system with a
replayable exact-arithmetic certificate or falls through to the exact
search, stopping at the first place it cannot certify.

Modules
=======

:mod:`~repro.refine.relaxation`
    The canonical constraint system (shared row order with
    ``core.prescreen``) and cut bookkeeping.
:mod:`~repro.refine.cuts`
    Trap/siphon cuts, their exact-integer verifier, and their rows.
:mod:`~repro.refine.separation`
    FactBase scan + exact-rational separation LPs.
:mod:`~repro.refine.certificate`
    Dual-bound certificates and the LP-free replayer.
:mod:`~repro.refine.solver`
    The shared-relaxation sweep backends (incremental HiGHS / linprog).
:mod:`~repro.refine.cegar`
    The driving loop (:func:`refine_prescreen`).
"""

from repro.refine.cegar import RefinementOutcome, refine_prescreen
from repro.refine.certificate import (
    REFINE_VERSION,
    DualBound,
    RefinementCertificate,
    check_dual_bound,
    verify_certificate,
)
from repro.refine.cuts import (
    CUT_SIPHON,
    CUT_TRAP,
    Cut,
    cut_row,
    cut_set_hash,
    verify_cut,
)
from repro.refine.relaxation import Relaxation, build_relaxation, marking_vector
from repro.refine.separation import (
    cut_violated,
    find_cut,
    separate_siphon,
    separate_trap,
    violated_fact_cut,
    violated_known_cut,
)
from repro.refine.solver import (
    HighsSweepSolver,
    LinprogSweepSolver,
    SolveResult,
    make_sweep_solver,
)

__all__ = [
    "CUT_SIPHON",
    "CUT_TRAP",
    "Cut",
    "DualBound",
    "HighsSweepSolver",
    "LinprogSweepSolver",
    "REFINE_VERSION",
    "RefinementCertificate",
    "RefinementOutcome",
    "Relaxation",
    "SolveResult",
    "build_relaxation",
    "check_dual_bound",
    "cut_row",
    "cut_set_hash",
    "cut_violated",
    "find_cut",
    "make_sweep_solver",
    "marking_vector",
    "refine_prescreen",
    "separate_siphon",
    "separate_trap",
    "verify_certificate",
    "verify_cut",
    "violated_fact_cut",
    "violated_known_cut",
]
