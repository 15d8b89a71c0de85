"""Two-phase primal simplex over exact rationals.

Solves ``max c x  s.t.  A x (<=|>=|==) b,  x >= 0`` with exact rational
arithmetic — no numerical tolerance games, which matters because a
certificate built on a solve must never declare a feasible system
infeasible.
Bland's rule guarantees termination.

The implementation is the textbook dense tableau, but each row is stored
as a list of integer numerators over one shared positive denominator
instead of per-cell :class:`~fractions.Fraction` objects: pivoting then
runs on machine integers (one gcd-reduction per updated row) rather than
constructing and normalising a ``Fraction`` per cell per pivot — the same
exact values, the same Bland pivot sequence, several times faster.
Coefficients may be ``int`` or ``Fraction``;
integer rows enter the tableau as they are.  Problem sizes here are a few
dozen variables/constraints, where exact arithmetic is entirely affordable.

With tracing on, every solve adds to the ``lp.solves`` and ``lp.pivots``
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro import obs

#: An exact coefficient.  :meth:`LinearProgram.feasibility` makes every cell
#: a Fraction; a program built directly may hold ints, which enter the
#: integer tableau as they are.
Number = Union[int, Fraction]

#: The sense a row takes when it is negated to make its rhs non-negative.
_FLIPPED = {"<=": ">=", ">=": "<=", "==": "=="}


@dataclass
class LinearProgram:
    """``max objective . x`` subject to ``rows[i] . x (senses[i]) rhs[i]``,
    ``x >= 0``."""

    num_vars: int
    rows: List[List[Number]]
    senses: List[str]
    rhs: List[Number]
    objective: List[Number]

    @classmethod
    def feasibility(
        cls,
        num_vars: int,
        constraints: Sequence[Tuple[Sequence[float], str, float]],
    ) -> "LinearProgram":
        """A pure feasibility problem (zero objective)."""
        rows: List[List[Number]] = []
        senses: List[str] = []
        rhs: List[Number] = []
        for coeffs, sense, bound in constraints:
            if sense not in _FLIPPED:
                raise ValueError(f"bad sense {sense!r}")
            rows.append([Fraction(c) for c in coeffs])
            senses.append(sense)
            rhs.append(Fraction(bound))
        return cls(
            num_vars=num_vars,
            rows=rows,
            senses=senses,
            rhs=rhs,
            objective=[Fraction(0)] * num_vars,
        )

    def add_upper_bounds(self, bound: float) -> None:
        """Add ``x_i <= bound`` for every variable (0-1 relaxations)."""
        for i in range(self.num_vars):
            row: List[Number] = [Fraction(0)] * self.num_vars
            row[i] = Fraction(1)
            self.rows.append(row)
            self.senses.append("<=")
            self.rhs.append(Fraction(bound))


@dataclass
class SimplexResult:
    feasible: bool
    objective_value: Optional[Fraction]
    solution: Optional[List[Fraction]]


def _reduce_row(nums: List[int], den: int) -> Tuple[List[int], int]:
    """Divide the integer row ``nums / den`` by the gcd of all entries."""
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                return nums, den
    if g > 1:
        return [v // g for v in nums], den // g
    return nums, den


def _int_row(values: Sequence[Number]) -> Tuple[List[int], int]:
    """An exact row as ``(numerators, shared positive denominator)``."""
    den = 1
    for value in values:
        d = value.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    return [value.numerator * (den // value.denominator) for value in values], den


def solve_lp(problem: LinearProgram) -> SimplexResult:
    """Two-phase simplex; returns feasibility, optimum and a solution point.

    Unbounded problems report ``feasible=True`` with ``objective_value``
    ``None``.  Phase 1 runs only when some row needs an artificial variable
    (a ``>=`` or ``==`` row once its rhs is non-negative); the artificial
    columns are dropped before phase 2, so none can re-enter the basis.
    """
    result, pivots = _solve(problem)
    obs.incr("lp.solves")
    obs.incr("lp.pivots", pivots)
    return result


def _solve(problem: LinearProgram) -> Tuple[SimplexResult, int]:
    """:func:`solve_lp` plus the number of pivots it took."""
    n = problem.num_vars

    # normal form: every row becomes an equality with a slack (<=: +s,
    # >=: -s + artificial, ==: artificial); rhs made non-negative first.
    # Slack and artificial cells are 0/±1, so a row's shared denominator
    # comes from its structural coefficients and rhs alone.
    rows: List[Tuple[List[int], int]] = []
    senses: List[str] = []
    for coeffs, sense, bound in zip(problem.rows, problem.senses, problem.rhs):
        if bound < 0:
            coeffs, bound, sense = [-c for c in coeffs], -bound, _FLIPPED[sense]
        rows.append(_int_row([*coeffs, bound]))
        senses.append(sense)
    total = n + sum(1 for s in senses if s != "==")
    width = total + sum(1 for s in senses if s != "<=")

    # The tableau lives as [numerators, denominator] pairs per row (see the
    # module docstring): signs, ratio comparisons and pivot updates all run
    # on the integer numerators, with the shared denominators kept positive
    # so sign tests never need them.
    tableau: List[List[Any]] = []
    basis: List[int] = []
    slack_index = n
    art_index = total
    for (nums, den), sense in zip(rows, senses):
        row = nums[:n] + [0] * (width - n) + nums[n:]
        if sense == "<=":
            row[slack_index] = den
            basis.append(slack_index)
            slack_index += 1
        else:
            if sense == ">=":
                row[slack_index] = -den
                slack_index += 1
            row[art_index] = den
            basis.append(art_index)
            art_index += 1
        tableau.append([row, den])
    pivots = 0

    def pivot(objective_row) -> bool:
        """Run simplex with Bland's rule; returns False if unbounded.

        Every column of the objective row but its last (the rhs) is a
        candidate to enter.  The entering test reads numerator signs; the
        ratio test compares ``rhs_i / coeff_i`` by cross-multiplication
        (each row's own denominator cancels inside the ratio, and the pivot
        candidates' numerators are positive, so the comparison never leaves
        integers).
        """
        while True:
            obj_nums = objective_row[0]
            entering = None
            for j in range(len(obj_nums) - 1):
                if obj_nums[j] > 0:
                    entering = j
                    break
            if entering is None:
                return True
            leaving = None
            best_num = best_den = 0
            for i, (nums_i, _) in enumerate(tableau):
                coeff = nums_i[entering]
                if coeff > 0:
                    ratio_num = nums_i[-1]
                    if leaving is None:
                        best_num, best_den, leaving = ratio_num, coeff, i
                        continue
                    lhs = ratio_num * best_den
                    rhs_ = best_num * coeff
                    if lhs < rhs_ or (
                        lhs == rhs_ and basis[i] < basis[leaving]
                    ):
                        best_num, best_den, leaving = ratio_num, coeff, i
            if leaving is None:
                return False
            _do_pivot(objective_row, leaving, entering)

    def _do_pivot(objective_row, leaving, entering):
        nonlocal pivots
        pivots += 1
        nums_l = tableau[leaving][0]
        p = nums_l[entering]
        # leaving row / pivot value: the old denominator cancels, the pivot
        # numerator becomes the new denominator (sign-fixed positive)
        if p < 0:
            new_nums, new_den = [-v for v in nums_l], -p
        else:
            new_nums, new_den = list(nums_l), p
        new_nums, new_den = _reduce_row(new_nums, new_den)
        tableau[leaving] = [new_nums, new_den]
        for i, (nums_i, den_i) in enumerate(tableau):
            if i == leaving:
                continue
            factor = nums_i[entering]
            if factor:
                merged = [
                    a * new_den - factor * b for a, b in zip(nums_i, new_nums)
                ]
                tableau[i] = list(_reduce_row(merged, den_i * new_den))
        factor = objective_row[0][entering]
        if factor:
            merged = [
                a * new_den - factor * b
                for a, b in zip(objective_row[0], new_nums)
            ]
            objective_row[0], objective_row[1] = _reduce_row(
                merged, objective_row[1] * new_den
            )
        basis[leaving] = entering

    # phase 1: minimise the artificial sum (maximise its negation)
    if width > total:
        phase1: List[Any] = [[0] * total + [-1] * (width - total) + [0], 1]
        # express in terms of the basis (artificials are basic)
        for i, (nums_i, den_i) in enumerate(tableau):
            if basis[i] >= total:
                merged = [
                    a * den_i + b * phase1[1]
                    for a, b in zip(phase1[0], nums_i)
                ]
                phase1 = list(_reduce_row(merged, phase1[1] * den_i))
        bounded = pivot(phase1)
        assert bounded, "phase 1 is always bounded"
        if phase1[0][-1] != 0:
            return SimplexResult(False, None, None), pivots
        # drive any lingering artificial out of the basis if possible
        for i in range(len(tableau)):
            if basis[i] >= total:
                nums_i = tableau[i][0]
                for j in range(total):
                    if nums_i[j] != 0:
                        _do_pivot(phase1, i, j)
                        break
        # Drop the artificial columns.  A row whose artificial is still
        # basic is zero on every other column (a redundant equality), so
        # it goes too; no pivot of phase 2 could have touched it.
        kept = [i for i in range(len(tableau)) if basis[i] < total]
        tableau[:] = [
            list(_reduce_row(nums_i[:total] + nums_i[-1:], den_i))
            for nums_i, den_i in (tableau[i] for i in kept)
        ]
        basis[:] = [basis[i] for i in kept]

    # phase 2
    obj_nums, obj_den = _int_row([*problem.objective, 0])
    objective_row: List[Any] = [
        obj_nums[:n] + [0] * (total - n) + obj_nums[n:], obj_den
    ]
    for i, (nums_i, den_i) in enumerate(tableau):
        factor = objective_row[0][basis[i]]
        if factor:
            merged = [
                a * den_i - factor * b
                for a, b in zip(objective_row[0], nums_i)
            ]
            objective_row = list(
                _reduce_row(merged, objective_row[1] * den_i)
            )
    bounded = pivot(objective_row)

    solution = [Fraction(0)] * n
    for (nums_i, den_i), column in zip(tableau, basis):
        if column < n:
            solution[column] = Fraction(nums_i[-1], den_i)
    if not bounded:
        return SimplexResult(True, None, solution), pivots
    value = sum(
        (c * x for c, x in zip(problem.objective, solution)), Fraction(0)
    )
    return SimplexResult(True, value, solution), pivots
