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

Both return the same :class:`SolveResult` shape — float duals keyed by the
*canonical* row indices of :mod:`repro.refine.relaxation`, which is what
the exact certification step consumes.  :func:`make_sweep_solver` picks
the best available backend, or ``None`` when scipy is missing entirely
(the sweep then degrades to its ``scipy-unavailable`` outcome).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.refine.relaxation import Relaxation

BACKEND_HIGHS = "highs"
BACKEND_LINPROG = "linprog"

#: ``(kind, canonical_index, coefficients, lower, upper)`` of one model row.
_ModelRow = Tuple[str, int, List[int], float, float]

_INF = float("inf")


@dataclass
class SolveResult:
    """One objective's float solve: optimum and sparse duals.

    Duals are keyed by the canonical row indices of the relaxation —
    ``eq_duals`` by equality-block index, ``ub_duals`` by
    :attr:`~repro.refine.relaxation.Relaxation.canonical_inequalities`
    index, ``box_duals`` by variable (the ``x_j <= 1`` rows) — so the
    exact certification step is backend-agnostic.  Dual *signs* are
    whatever the backend produced; certification tries both conventions.
    """

    success: bool
    optimum: float = 0.0
    eq_duals: Dict[int, float] = field(default_factory=dict)
    ub_duals: Dict[int, float] = field(default_factory=dict)
    box_duals: Dict[int, float] = field(default_factory=dict)


def _model_rows(relaxation: Relaxation) -> List[_ModelRow]:
    """The model's rows: equality block, then ``<=`` block."""
    rows: List[_ModelRow] = []
    for i, (coeffs, rhs) in enumerate(relaxation.eq_rows):
        rows.append(("eq", i, coeffs, float(rhs), float(rhs)))
    for r, (coeffs, rhs) in enumerate(relaxation.ub_rows):
        rows.append(("ub", r, coeffs, -_INF, float(rhs)))
    return rows


class HighsSweepSolver:
    """Direct HiGHS driver: one shared model, ``clearSolver`` per solve."""

    backend = BACKEND_HIGHS

    def __init__(self, core: Any, relaxation: Relaxation, incremental: bool = True):
        self._core = core
        self.relaxation = relaxation
        self.incremental = incremental
        self._rows = _model_rows(relaxation)
        self._highs: Any = self._build_model() if incremental else None

    def _build_model(self) -> Any:
        import numpy as np

        core = self._core
        rows = self._rows
        ncols = 2 * self.relaxation.num_vars
        lp = core.HighsLp()
        lp.num_col_ = ncols
        lp.num_row_ = len(rows)
        lp.col_cost_ = np.zeros(ncols, dtype=np.float64)
        lp.col_lower_ = np.zeros(ncols, dtype=np.float64)
        lp.col_upper_ = np.ones(ncols, dtype=np.float64)
        lp.row_lower_ = np.array([low for _, _, _, low, _ in rows], dtype=np.float64)
        lp.row_upper_ = np.array([up for _, _, _, _, up in rows], dtype=np.float64)
        lp.sense_ = core.ObjSense.kMaximize
        starts: List[int] = [0]
        indices: List[int] = []
        values: List[float] = []
        for _, _, coeffs, _, _ in rows:
            for j, c in enumerate(coeffs):
                if c:
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
        solution = highs.getSolution()
        result = SolveResult(
            success=True,
            optimum=float(highs.getInfo().objective_function_value),
        )
        for (kind, canonical, _, _, _), dual in zip(self._rows, solution.row_dual):
            if dual:
                target = result.eq_duals if kind == "eq" else result.ub_duals
                target[canonical] = float(dual)
        # col_dual mixes both bounds' reduced costs; only variables at the
        # UPPER bound carry a multiplier for their box row x_j <= 1 (a
        # lower-bound reduced cost belongs to x_j >= 0, which weak duality
        # absorbs as slack) — mirror linprog's ``upper.marginals`` split
        for var, dual in enumerate(solution.col_dual):
            if dual and solution.col_value[var] > 0.5:
                result.box_duals[var] = float(dual)
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
        ub_rows = relaxation.ub_rows
        self._a_ub = np.array([c for c, _ in ub_rows], dtype=float)
        self._b_ub = np.array([b for _, b in ub_rows], dtype=float)
        eq_rows = relaxation.eq_rows
        self._a_eq = (
            np.array([c for c, _ in eq_rows], dtype=float) if eq_rows else None
        )
        self._b_eq = (
            np.array([b for _, b in eq_rows], dtype=float) if eq_rows else None
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
        if self.relaxation.eq_rows:
            for row, dual in enumerate(outcome.eqlin.marginals):
                if dual:
                    result.eq_duals[row] = float(dual)
        for row, dual in enumerate(outcome.ineqlin.marginals):
            if dual:
                result.ub_duals[row] = float(dual)
        for var, dual in enumerate(outcome.upper.marginals):
            if dual:
                result.box_duals[var] = float(dual)
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
