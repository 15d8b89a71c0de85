"""A small exact-rational linear programming layer.

The paper notes that keeping all constraints linear lets "more good
heuristics" be applied.  One classical such heuristic — used by the related
deadlock-checking work [8] it builds on — is the *LP relaxation prescreen*:
if the rational relaxation of the integer conflict system is infeasible, the
integer system is too, and the (potentially exponential) search can be
skipped entirely.  This package provides a fractions-exact two-phase
simplex for feasibility and optimisation over rational polyhedra; lint's
state-equation certificates (C302, S201, S202) and the analysis engine's
invariant LPs solve on it.  The conflict-system relaxation itself is swept
with float LPs and certified exactly in :mod:`repro.refine`.
"""

from repro.lp.simplex import LinearProgram, SimplexResult, solve_lp

__all__ = ["LinearProgram", "SimplexResult", "solve_lp"]
