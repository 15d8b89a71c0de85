"""The canonical constraint system the refinement sweep works on.

One source of truth for row content *and* row order: the rows come from
:func:`repro.core.prescreen.nested_pair_rows` (signal balance,
Proposition 1 nesting, prefix compatibility), normalised here into the
two-block shape solvers and certificates share:

* **equality block** — the ``==`` rows;
* **inequality block** — the ``<=`` rows (``>=`` rows negated), then the
  ``2n`` box rows ``x_j <= 1`` (so ``box_offset + j`` addresses variable
  ``j``'s box row).

Certificates reference rows by index into these blocks, so the order is a
compatibility contract with :mod:`repro.refine.certificate`.  The system
never changes after :func:`build_relaxation`, so every derived view is
built once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from repro.core.context import SolverContext
from repro.core.prescreen import _flow_matrix, nested_pair_rows
from repro.petri.net import PetriNet

#: ``(coefficients over 2n variables, right-hand side)``.
Row = Tuple[List[int], int]

#: ``([(column, coefficient), ...], right-hand side)`` — a row's support.
SparseRow = Tuple[List[Tuple[int, int]], int]


def _sparse(rows: List[Row]) -> List[SparseRow]:
    return [([(j, c) for j, c in enumerate(coeffs) if c], rhs) for coeffs, rhs in rows]


@dataclass
class Relaxation:
    """The nested-pair relaxation of one prefix, in canonical row order."""

    num_vars: int                    # n: positions per Parikh copy
    net: PetriNet                    # the original net
    flow: np.ndarray                 # original places x positions token flow
    eq_rows: List[Row]               # the == rows
    ub_rows: List[Row]               # the <= rows (no box)

    @property
    def box_offset(self) -> int:
        """Canonical inequality index of the ``x_0 <= 1`` row."""
        return len(self.ub_rows)

    @cached_property
    def canonical_inequalities(self) -> List[Row]:
        """The ``<=`` rows, then the box rows — certificate order."""
        n2 = 2 * self.num_vars
        box: List[Row] = []
        for j in range(n2):
            coeffs = [0] * n2
            coeffs[j] = 1
            box.append((coeffs, 1))
        return self.ub_rows + box

    @cached_property
    def sparse_eq_rows(self) -> List[SparseRow]:
        """Equality rows by support — certification combines rows over
        their non-zero columns, not all ``2n``."""
        return _sparse(self.eq_rows)

    @cached_property
    def sparse_ub_rows(self) -> List[SparseRow]:
        """Non-box ``<=`` rows by support (the box rows are implicit:
        canonical ``box_offset + j`` is the singleton row ``x_j <= 1``)."""
        return _sparse(self.ub_rows)

    def diff_objective(self, place: int, sign: int) -> List[int]:
        """Maximise ``sign * (flow_p · x'' - flow_p · x')``."""
        row = self.flow[place]
        n = self.num_vars
        return [-sign * int(row[i]) for i in range(n)] + [
            sign * int(row[i]) for i in range(n)
        ]


def build_relaxation(context: SolverContext) -> Relaxation:
    """Normalise :func:`nested_pair_rows` into the two-block shape."""
    eq_rows: List[Row] = []
    ub_rows: List[Row] = []
    for coeffs, sense, rhs in nested_pair_rows(context):
        row = [int(c) for c in coeffs]
        if sense == "==":
            eq_rows.append((row, int(rhs)))
        elif sense == "<=":
            ub_rows.append((row, int(rhs)))
        else:  # ">=": negate into <= form
            ub_rows.append(([-c for c in row], -int(rhs)))
    return Relaxation(
        num_vars=context.num_vars,
        net=context.prefix.net,
        flow=_flow_matrix(context),
        eq_rows=eq_rows,
        ub_rows=ub_rows,
    )
