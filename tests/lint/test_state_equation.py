"""C302 over the tangent cone must answer exactly what the polyhedron did.

``state_equation_usc_safe`` solves its LPs over the tangent cone of the
state-equation polyhedron at the origin: homogeneous ``<=`` rows, only the
constraints tight at ``x1 = x2 = 0``, no phase 1, every optimum 0 or
unbounded.  That is only legal if the verdict equals the original
formulation's — every optimum over the polyhedron itself is 0.  This file
embeds that formulation as the reference and pins both against each other
on the golden-sweep models, the bundled examples and a slice of the fuzz
stream that holds C302-certified cases, and pins what the cheaper
formulation costs on Table 1.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from repro import obs
from repro.fuzz.generate import generate_case, iter_cases
from repro.lint import decide, state_equation_usc_safe
from repro.lint.certificates import balance_matrix
from repro.lp import LinearProgram, solve_lp
from repro.models import TABLE1_BENCHMARKS
from repro.obs.tracer import Tracer
from repro.petri.incidence import incidence_matrix
from repro.stg.parser import parse_stg
from tests.lint.test_golden_models import sweep_targets

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Fuzz cases checked: the first 120 of seed 1 hold fourteen C302-safe
#: nets, two of which ``decide`` settles by C302 (s1-c20, s1-c44).
FUZZ_SLICE = 120


def _reference_usc_safe(stg) -> bool:
    """The polyhedron formulation, as C302 first shipped it."""
    net = stg.net
    n = net.num_transitions
    if n == 0:
        return True
    incidence = incidence_matrix(net)
    balance = balance_matrix(stg)
    initial = net.initial_marking
    constraints = []
    for row in balance:
        if row.any():
            coeffs = [-int(c) for c in row] + [int(c) for c in row]
            constraints.append((coeffs, "==", 0))
    for p in range(net.num_places):
        row = [int(c) for c in incidence[p]]
        if not any(row):
            continue
        bound = -int(initial[p])
        constraints.append((row + [0] * n, ">=", bound))
        constraints.append(([0] * n + row, ">=", bound))

    for p in range(net.num_places):
        row = incidence[p]
        if not row.any():
            continue
        objective = [Fraction(-int(c)) for c in row] + [
            Fraction(int(c)) for c in row
        ]
        for sign in (1, -1):
            problem = LinearProgram.feasibility(2 * n, constraints)
            problem.objective = [sign * c for c in objective]
            result = solve_lp(problem)
            if not result.feasible:
                return False
            if result.objective_value is None or result.objective_value > 0:
                return False
    return True


def _targets():
    targets = [(name, factory()) for name, factory in sweep_targets().items()]
    for path in sorted(EXAMPLES.glob("*.g")):
        targets.append((f"examples/{path.name}", parse_stg(path.read_text())))
    for case in iter_cases(1, FUZZ_SLICE):
        targets.append((case.case_id, case.stg))
    return targets


def test_cone_matches_polyhedron():
    certified = set()
    for name, stg in _targets():
        expected = _reference_usc_safe(stg)
        assert state_equation_usc_safe(stg) == expected, name
        if expected:
            certified.add(name)
    # the sweep must exercise both answers, fuzz nets among the safe ones
    assert {"toggle_bank(3)", "s1-c20", "s1-c44"} <= certified
    assert "RING" not in certified


def test_c302_decides_fuzz_cases_c301_cannot():
    for index in (20, 44):
        decisions = decide(generate_case(1, index).stg)
        assert decisions["usc"].diagnostic.rule_id == "C302"
        assert decisions["csc"].holds is True


@pytest.fixture
def probe():
    tracer = Tracer(enabled=True)
    previous = obs.set_tracer(tracer)
    try:
        yield tracer
    finally:
        obs.set_tracer(previous)


def test_table1_stage_zero_costs_one_lp_each(probe):
    """No Table-1 STG is certified; each stops at its first LP, which
    starts from a feasible slack basis (90 pivots in all; the polyhedron
    took 916, most of them phase 1)."""
    for factory in TABLE1_BENCHMARKS.values():
        assert decide(factory()) == {}
    assert probe.counters["lp.solves"] == 15
    assert probe.counters["lp.pivots"] == 90
