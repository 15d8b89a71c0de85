"""Tests for the exact-rational simplex."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.lp import LinearProgram, solve_lp
from repro.obs.tracer import Tracer


def lp(num_vars, constraints, objective=None):
    problem = LinearProgram.feasibility(num_vars, constraints)
    if objective is not None:
        problem.objective = [Fraction(c) for c in objective]
    return problem


class TestFeasibility:
    def test_trivial(self):
        assert solve_lp(lp(1, [([1], "<=", 5)])).feasible

    def test_infeasible_pair(self):
        result = solve_lp(lp(1, [([1], ">=", 3), ([1], "<=", 2)]))
        assert not result.feasible

    def test_equality(self):
        result = solve_lp(lp(2, [([1, 1], "==", 4), ([1, -1], "==", 0)]))
        assert result.feasible
        assert result.solution == [Fraction(2), Fraction(2)]

    def test_infeasible_equalities(self):
        assert not solve_lp(
            lp(1, [([1], "==", 1), ([1], "==", 2)])
        ).feasible

    def test_negative_rhs_normalised(self):
        # x >= -1 is vacuous under x >= 0
        assert solve_lp(lp(1, [([1], ">=", -1)])).feasible

    def test_nonnegativity_is_implicit(self):
        # x <= -2 contradicts x >= 0
        assert not solve_lp(lp(1, [([1], "<=", -2)])).feasible


class TestOptimisation:
    def test_simple_max(self):
        result = solve_lp(
            lp(2, [([1, 1], "<=", 4), ([1, 0], "<=", 3)], objective=[3, 2])
        )
        assert result.feasible
        assert result.objective_value == Fraction(11)  # x=3, y=1

    def test_degenerate_cycling_guard(self):
        """The classical Beale cycling example must terminate (Bland)."""
        constraints = [
            ([Fraction(1, 4), -8, -1, 9], "<=", 0),
            ([Fraction(1, 2), -12, Fraction(-1, 2), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ]
        result = solve_lp(
            lp(4, constraints, objective=[Fraction(3, 4), -20, Fraction(1, 2), -6])
        )
        assert result.feasible
        assert result.objective_value == Fraction(5, 4)

    def test_unbounded(self):
        result = solve_lp(lp(1, [([1], ">=", 0)], objective=[1]))
        assert result.feasible
        assert result.objective_value is None

    def test_exact_fractions(self):
        result = solve_lp(
            lp(1, [([3], "<=", 1)], objective=[1])
        )
        assert result.objective_value == Fraction(1, 3)


class TestAddUpperBounds:
    def test_box_constraints(self):
        problem = lp(2, [([1, 1], ">=", 1)], objective=[1, 1])
        problem.add_upper_bounds(1)
        result = solve_lp(problem)
        assert result.objective_value == Fraction(2)


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                st.sampled_from(["<=", ">="]),
                st.integers(-5, 5),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_solution_satisfies_constraints(self, raw):
        problem = lp(3, raw)
        result = solve_lp(problem)
        if not result.feasible:
            return
        x = result.solution
        assert all(v >= 0 for v in x)
        for coeffs, sense, bound in raw:
            value = sum(Fraction(c) * v for c, v in zip(coeffs, x))
            if sense == "<=":
                assert value <= bound
            else:
                assert value >= bound

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=2, max_size=2),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_nonnegative_systems_always_feasible(self, raw):
        """A x <= b with A, b >= 0 always admits x = 0."""
        constraints = [(coeffs, "<=", bound) for coeffs, bound in raw]
        assert solve_lp(lp(2, constraints)).feasible


class TestArtificialColumns:
    def test_artificial_never_reenters_in_phase_two(self):
        # -x == 0 pins x to 0; however large the objective price, the
        # artificial variable phase 1 used must not come back
        result = solve_lp(lp(1, [([-1], "==", 0)], objective=[2 * 10**12]))
        assert result.feasible
        assert result.objective_value == 0
        assert result.solution == [0]

    def test_redundant_equality_keeps_its_artificial_basic(self):
        # the second row repeats the first: its artificial cannot be driven
        # out of the basis, and phase 2 must still optimise over x + y == 2
        result = solve_lp(
            lp(2, [([1, 1], "==", 2), ([2, 2], "==", 4)], objective=[1, 2])
        )
        assert result.objective_value == 4
        assert result.solution == [0, 2]


class TestIntegerRows:
    @pytest.mark.parametrize("seed", range(6))
    def test_int_and_fraction_rows_pivot_alike(self, seed):
        # a program built directly may hold ints (lint C302 does); they
        # must give what feasibility()'s Fraction cells give, pivot for pivot
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        m = rng.randint(2, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        senses = [rng.choice(["<=", ">=", "=="]) for _ in range(m)]
        rhs = [rng.randint(-4, 6) for _ in range(m)]
        objective = [rng.randint(-2, 3) for _ in range(n)]
        outcomes = []
        for exact in (int, Fraction):
            problem = LinearProgram(
                num_vars=n,
                rows=[[exact(c) for c in row] for row in rows],
                senses=list(senses),
                rhs=[exact(b) for b in rhs],
                objective=[exact(c) for c in objective],
            )
            problem.add_upper_bounds(3)
            probe = Tracer(enabled=True)
            previous = obs.set_tracer(probe)
            try:
                result = solve_lp(problem)
            finally:
                obs.set_tracer(previous)
            outcomes.append((result, probe.counters["lp.pivots"]))
        assert outcomes[0] == outcomes[1]


class TestCounters:
    def test_each_solve_adds_its_pivots(self):
        probe = Tracer(enabled=True)
        previous = obs.set_tracer(probe)
        try:
            # x enters (row 2 leaves), then y (row 1 leaves): two pivots
            solve_lp(
                lp(2, [([1, 1], "<=", 4), ([1, 0], "<=", 3)], objective=[3, 2])
            )
            solve_lp(lp(1, [([1], "<=", 5)]))
        finally:
            obs.set_tracer(previous)
        assert probe.counters == {"lp.solves": 2, "lp.pivots": 2}

    def test_nothing_recorded_while_tracing_is_off(self):
        tracer = obs.get_tracer()
        assert not tracer.enabled
        solve_lp(lp(1, [([1], ">=", 3), ([1], "<=", 2)]))
        assert "lp.solves" not in tracer.counters
