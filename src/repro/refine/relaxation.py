"""The canonical constraint system the refinement sweep works on.

One source of truth for row content *and* row order: the rows come from
:func:`repro.core.prescreen.nested_pair_rows` (signal balance,
Proposition 1 nesting, prefix compatibility), normalised here into the
two-block shape solvers and certificates share:

* **equality block** — the ``==`` rows;
* **inequality block** — the ``<=`` rows (``>=`` rows negated), then the
  ``2n`` box rows ``x_j <= 1`` (so ``box_offset + j`` addresses variable
  ``j``'s box row).

Each row is stored once, as its sparse support; the solvers and the exact
certificate arithmetic all read that one form.  Certificates reference
rows by index into these blocks, so the order is a compatibility contract
with :mod:`repro.refine.certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from repro.core.context import SolverContext
from repro.core.prescreen import _flow_matrix, nested_pair_rows
from repro.petri.net import PetriNet

#: ``([(column, coefficient), ...], right-hand side)`` — a row's support.
Row = Tuple[List[Tuple[int, int]], int]


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
        return self.ub_rows + [([(j, 1)], 1) for j in range(2 * self.num_vars)]

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
        flip = -1 if sense == ">=" else 1  # ">=" rows are negated into <= form
        support = [(j, flip * int(c)) for j, c in enumerate(coeffs) if c]
        (eq_rows if sense == "==" else ub_rows).append((support, flip * int(rhs)))
    return Relaxation(
        num_vars=context.num_vars,
        net=context.prefix.net,
        flow=_flow_matrix(context),
        eq_rows=eq_rows,
        ub_rows=ub_rows,
    )
