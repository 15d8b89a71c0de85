"""Certified LP refutation of the conflict-system relaxation.

The paper's ILP encoding reaches more markings than the STG ever does, so
a feasible relaxation does not mean a real conflict — but an infeasible
one does mean none.  This package sweeps the nested-pair relaxation once
per original place and flow direction with a fast float LP; a
token-flow-difference bound below 1 proves the integral difference is
zero (Chvátal–Gomory rounding), and the float duals are turned into an
exact-arithmetic certificate that is replayed before anything is claimed.
The sweep either *refutes* the conflict system or stops at the first
objective it cannot certify and leaves the verdict to the exact search.

Modules
=======

:mod:`~repro.refine.relaxation`
    The canonical constraint system (rows from
    ``core.prescreen.nested_pair_rows``).
:mod:`~repro.refine.certificate`
    Dual-bound certificates and the LP-free replayer.
:mod:`~repro.refine.solver`
    The shared-relaxation sweep backends (incremental HiGHS / linprog).
:mod:`~repro.refine.cegar`
    The sweep itself (:func:`refine_prescreen`).
"""

from repro.refine.cegar import RefinementOutcome, refine_prescreen
from repro.refine.certificate import (
    REFINE_VERSION,
    DualBound,
    RefinementCertificate,
    check_dual_bound,
    verify_certificate,
)
from repro.refine.relaxation import Relaxation, build_relaxation
from repro.refine.solver import (
    HighsSweepSolver,
    LinprogSweepSolver,
    SolveResult,
    make_sweep_solver,
)

__all__ = [
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
    "make_sweep_solver",
    "refine_prescreen",
    "verify_certificate",
]
