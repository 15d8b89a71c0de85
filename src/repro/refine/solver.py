"""LP backends for the refinement sweep over one shared relaxation.

The ``2|P|`` objectives of a sweep all optimise over the same polytope, so
the constraint matrix is loaded into HiGHS **once** as a row-wise sparse
structure and every objective is a ``changeColsCost`` + ``run`` pair
against that shared model.

Determinism contract
====================

Certificates must come out **byte-identical** whether the sweep shares one
model or builds a fresh one per solve (the golden-equivalence suite pins
this).  Warm-starting the simplex from the previous basis breaks that —
degenerate optima make the *duals* history-dependent even when the primal
solution is not — so the shared model is reset with ``clearSolver()``
before every ``run``.  Measured on the Table-1 models this is both the
fastest option (the model build, not the basis, is what a per-objective
rebuild pays for) and bit-identical to a fresh model per solve, which the
reference mode (``incremental=False``) builds.

Backends
========

* :class:`HighsSweepSolver` — the vendored HiGHS of scipy
  (``scipy.optimize._highspy``), driven directly so the sweep skips the
  ``linprog`` wrapper's per-call model construction and presolve.
* :class:`LinprogSweepSolver` — plain ``scipy.optimize.linprog`` over
  arrays built once; the degradation path when the private HiGHS bindings
  are absent.

Both read the relaxation's sparse rows (HiGHS as its row-wise matrix,
``linprog`` densified once) and return the same :class:`SolveResult`
shape — float duals keyed by the *canonical* row indices of
:mod:`repro.refine.relaxation` and signed the way the certificate reads
them, which is what the exact certification step consumes.
:func:`make_sweep_solver` picks the best available backend, or ``None``
when scipy is missing entirely (the sweep then degrades to its
``scipy-unavailable`` outcome).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.refine.relaxation import Relaxation, Row

BACKEND_HIGHS = "highs"
BACKEND_LINPROG = "linprog"


@dataclass
class SolveResult:
    """One objective's float solve: optimum and sparse duals.

    Duals are keyed by the canonical row indices of the relaxation —
    ``eq_duals`` by equality-block index, ``ub_duals`` by ``<=``-block
    index (the box rows carry none: certification derives their
    multipliers exactly) — and signed as weak-duality multipliers of the
    maximisation, ``c·x <= y_eq·b_eq + y_ub·b_ub`` with ``y_ub >= 0`` up to
    float noise, so the exact certification step is backend-agnostic.
    """

    success: bool
    optimum: float = 0.0
    eq_duals: Dict[int, float] = field(default_factory=dict)
    ub_duals: Dict[int, float] = field(default_factory=dict)


def _dense(rows: List[Row], ncols: int) -> Any:
    """``rows`` as a dense ``len(rows) x ncols`` coefficient array."""
    import numpy as np

    matrix = np.zeros((len(rows), ncols), dtype=np.float64)
    for r, (support, _) in enumerate(rows):
        for j, c in support:
            matrix[r, j] = c
    return matrix


class HighsSweepSolver:
    """Direct HiGHS driver: one shared model, ``clearSolver`` per solve."""

    backend = BACKEND_HIGHS

    def __init__(self, core: Any, relaxation: Relaxation, incremental: bool = True):
        self._core = core
        self.relaxation = relaxation
        self.incremental = incremental
        self._highs: Any = self._build_model() if incremental else None

    def _build_model(self) -> Any:
        import numpy as np

        core = self._core
        eq_rows = self.relaxation.eq_rows
        rows = eq_rows + self.relaxation.ub_rows
        ncols = 2 * self.relaxation.num_vars
        lp = core.HighsLp()
        lp.num_col_ = ncols
        lp.num_row_ = len(rows)
        lp.col_cost_ = np.zeros(ncols, dtype=np.float64)
        lp.col_lower_ = np.zeros(ncols, dtype=np.float64)
        lp.col_upper_ = np.ones(ncols, dtype=np.float64)
        upper = np.array([rhs for _, rhs in rows], dtype=np.float64)
        lower = upper.copy()
        lower[len(eq_rows):] = -np.inf  # equality rows are pinned from below
        lp.row_lower_ = lower
        lp.row_upper_ = upper
        lp.sense_ = core.ObjSense.kMaximize
        starts: List[int] = [0]
        indices: List[int] = []
        values: List[float] = []
        for support, _ in rows:
            for j, c in support:
                indices.append(j)
                values.append(float(c))
            starts.append(len(indices))
        matrix = core.HighsSparseMatrix()
        matrix.format_ = core.MatrixFormat.kRowwise
        matrix.num_col_ = ncols
        matrix.num_row_ = len(rows)
        matrix.start_ = np.array(starts, dtype=np.int32)
        matrix.index_ = np.array(indices, dtype=np.int32)
        matrix.value_ = np.array(values, dtype=np.float64)
        lp.a_matrix_ = matrix
        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
        highs.passModel(lp)
        return highs

    def solve(self, objective: Sequence[int]) -> SolveResult:
        import numpy as np

        core = self._core
        highs = self._highs if self.incremental else self._build_model()
        ncols = 2 * self.relaxation.num_vars
        highs.changeColsCost(
            ncols,
            np.arange(ncols, dtype=np.int32),
            np.array(objective, dtype=np.float64),
        )
        # no warm start: history-dependent bases make duals diverge between
        # the shared-model and reference paths (see the module docstring)
        highs.clearSolver()
        status = highs.run()
        if (
            status != core.HighsStatus.kOk
            or highs.getModelStatus() != core.HighsModelStatus.kOptimal
        ):
            return SolveResult(success=False)
        result = SolveResult(
            success=True,
            optimum=float(highs.getInfo().objective_function_value),
        )
        # a maximising HiGHS model reports row duals already signed as
        # weak-duality multipliers
        num_eq = len(self.relaxation.eq_rows)
        for row, dual in enumerate(highs.getSolution().row_dual):
            if dual:
                if row < num_eq:
                    result.eq_duals[row] = float(dual)
                else:
                    result.ub_duals[row - num_eq] = float(dual)
        return result


class LinprogSweepSolver:
    """``scipy.optimize.linprog`` over arrays built once per relaxation.

    Used when the private HiGHS bindings are unavailable.  ``linprog``
    builds its own model on every call, so there is no shared model to
    reuse and no separate reference mode.
    """

    backend = BACKEND_LINPROG

    def __init__(self, linprog: Any, relaxation: Relaxation):
        import numpy as np

        self._linprog = linprog
        self.relaxation = relaxation
        ncols = 2 * relaxation.num_vars
        ub_rows = relaxation.ub_rows
        self._a_ub = _dense(ub_rows, ncols)
        self._b_ub = np.array([rhs for _, rhs in ub_rows], dtype=np.float64)
        eq_rows = relaxation.eq_rows
        self._a_eq = _dense(eq_rows, ncols) if eq_rows else None
        self._b_eq = (
            np.array([rhs for _, rhs in eq_rows], dtype=np.float64)
            if eq_rows
            else None
        )

    def solve(self, objective: Sequence[int]) -> SolveResult:
        import numpy as np

        minimise = np.array([-c for c in objective], dtype=float)
        outcome = self._linprog(
            minimise,
            A_ub=self._a_ub,
            b_ub=self._b_ub,
            A_eq=self._a_eq,
            b_eq=self._b_eq,
            bounds=(0, 1),
            method="highs",
        )
        if not outcome.success:
            return SolveResult(success=False)
        result = SolveResult(success=True, optimum=-float(outcome.fun))
        # linprog minimises -c·x, so its marginals are the negated
        # weak-duality multipliers of the maximisation
        if self._a_eq is not None:
            for row, dual in enumerate(outcome.eqlin.marginals):
                if dual:
                    result.eq_duals[row] = -float(dual)
        for row, dual in enumerate(outcome.ineqlin.marginals):
            if dual:
                result.ub_duals[row] = -float(dual)
        return result


def make_sweep_solver(
    relaxation: Relaxation, incremental: bool = True
) -> Optional[Any]:
    """The best available backend attached to ``relaxation``, or ``None``.

    ``incremental=False`` makes the HiGHS backend rebuild its model per
    solve (the reference path the equivalence tests compare against).
    """
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        _core = None
    if _core is not None and hasattr(_core, "_Highs"):
        return HighsSweepSolver(_core, relaxation, incremental=incremental)
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    return LinprogSweepSolver(linprog, relaxation)
