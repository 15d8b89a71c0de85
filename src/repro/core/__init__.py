"""The paper's contribution: coding-conflict detection by integer programming.

Given a finite complete prefix of an STG's unfolding, USC/CSC conflicts and
normalcy violations are characterised as systems of constraints over pairs of
0-1 Parikh vectors of configurations (paper Section 3) and solved by a
branch-and-bound search that only ever visits ``Unf``-compatible vectors,
using the minimal-compatible-closure propagation of Theorems 1-2 and linear
signal-balance pruning (Section 4).
"""

from repro.core.context import SolverContext
from repro.core.closure import minimal_compatible_closure, has_compatible_closure
from repro.core.search import PairSearch, SearchStats
from repro.core.verifier import (
    check_usc,
    check_csc,
    check_normalcy,
    CodingReport,
    NormalcyIPReport,
    ConflictWitness,
)
from repro.core.reachability import (
    marking_expression,
    find_configuration,
    check_deadlock,
    LinearConstraint,
)
from repro.core.prescreen import kernel_prescreen

__all__ = [
    "SolverContext",
    "minimal_compatible_closure",
    "has_compatible_closure",
    "PairSearch",
    "SearchStats",
    "check_usc",
    "check_csc",
    "check_normalcy",
    "CodingReport",
    "NormalcyIPReport",
    "ConflictWitness",
    "marking_expression",
    "find_configuration",
    "check_deadlock",
    "LinearConstraint",
    "kernel_prescreen",
]
