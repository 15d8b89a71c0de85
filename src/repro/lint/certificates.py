"""Machine-checkable certificates backing the conflict pre-filter verdicts.

A certifying lint diagnostic never asks to be trusted: it attaches a
JSON-safe certificate that an independent checker can replay against the STG
with exact rational arithmetic.  Two kinds exist:

``affine-code``
    A rational matrix ``C`` with ``C @ B = I`` (``I`` the incidence matrix,
    ``B`` the signal-balance matrix).  Then for any two reachable markings
    ``M1 = M0 + I x1`` and ``M2 = M0 + I x2`` with equal codes the balance
    difference ``B (x2 - x1)`` vanishes, hence ``M2 - M1 = C B (x2 - x1) =
    0``: *no two distinct reachable markings can agree on all signal codes*,
    so USC (and a fortiori CSC) holds.  Verification multiplies ``C @ B``
    and compares against ``I`` entry by entry.

``state-equation-lp``
    The claim that over the polyhedron ``{x1, x2 >= 0, M0 + I x_i >= 0,
    B (x2 - x1) = 0}`` every component of ``I (x2 - x1)`` has maximum and
    minimum 0 — i.e. the state-equation relaxation admits no code-preserving
    marking change.  Verification re-solves the LPs with the exact rational
    simplex, over the polyhedron's tangent cone at the origin (the same
    answer, see :func:`state_equation_usc_safe`); the certificate is a
    replayable claim rather than a succinct witness (the simplex exposes no
    duals).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Optional

import numpy as np

from repro.stg.stg import STG

CERT_AFFINE = "affine-code"
CERT_LP = "state-equation-lp"

#: Bump when a certificate payload layout changes.
CERT_VERSION = 1


# -- exact linear algebra ------------------------------------------------------


def solve_exact(
    matrix: List[List[Fraction]], rhs: List[Fraction]
) -> Optional[List[Fraction]]:
    """One exact solution of ``matrix @ x = rhs`` (None if inconsistent).

    Gaussian elimination over :class:`~fractions.Fraction`; free variables
    are pinned to 0, so the result is the minimal-support particular
    solution the certificate stores.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    work = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivot_of_col: Dict[int, int] = {}
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c]
        work[r] = [v / inv for v in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivot_of_col[c] = r
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if work[i][cols] != 0:
            return None  # 0 = nonzero: inconsistent
    solution = [Fraction(0)] * cols
    for c, pr in pivot_of_col.items():
        solution[c] = work[pr][cols]
    return solution


def balance_matrix(stg: STG) -> np.ndarray:
    """The ``|Z| x |T|`` signal-balance matrix (see RuleContext.balance)."""
    from repro.petri.incidence import balance_matrix_from_changes

    changes = [stg.signal_change(t) for t in range(stg.net.num_transitions)]
    return balance_matrix_from_changes(changes, len(stg.signals))


# -- affine-code certificates --------------------------------------------------


def build_affine_certificate(stg: STG) -> Optional[Dict[str, Any]]:
    """Try to express every incidence row as a combination of balance rows.

    Returns the certificate dict on success, ``None`` when some place's
    token flow is not an affine function of the code (the common case).
    """
    from repro.petri.incidence import incidence_matrix

    if stg.has_dummies():
        return None
    net = stg.net
    if net.num_transitions == 0 or not stg.signals:
        return None
    incidence = incidence_matrix(net)
    balance = balance_matrix(stg)
    # solve c @ B = row  <=>  B^T c = row^T, one system per place
    bt = [
        [Fraction(int(balance[z, t])) for z in range(balance.shape[0])]
        for t in range(balance.shape[1])
    ]
    matrix: List[List[str]] = []
    for p in range(net.num_places):
        rhs = [Fraction(int(incidence[p, t])) for t in range(net.num_transitions)]
        coefficients = solve_exact(bt, rhs)
        if coefficients is None:
            return None
        matrix.append([str(c) for c in coefficients])
    return {
        "kind": CERT_AFFINE,
        "version": CERT_VERSION,
        "signals": list(stg.signals),
        "places": list(net.places),
        "transitions": list(net.transitions),
        "matrix": matrix,
    }


def _verify_affine(stg: STG, certificate: Dict[str, Any]) -> bool:
    from repro.petri.incidence import incidence_matrix

    net = stg.net
    if (
        certificate.get("signals") != list(stg.signals)
        or certificate.get("places") != list(net.places)
        or certificate.get("transitions") != list(net.transitions)
    ):
        return False
    if stg.has_dummies():
        return False
    rows = certificate.get("matrix")
    if not isinstance(rows, list) or len(rows) != net.num_places:
        return False
    incidence = incidence_matrix(net)
    balance = balance_matrix(stg)
    num_signals = len(stg.signals)
    for p, row in enumerate(rows):
        if len(row) != num_signals:
            return False
        coefficients = [Fraction(value) for value in row]
        for t in range(net.num_transitions):
            combined = sum(
                coefficients[z] * int(balance[z, t]) for z in range(num_signals)
            )
            if combined != int(incidence[p, t]):
                return False
    return True


# -- state-equation LP certificates --------------------------------------------


def build_lp_certificate(stg: STG) -> Optional[Dict[str, Any]]:
    """Run the state-equation relaxation; certificate dict if conclusive."""
    if stg.has_dummies():
        return None
    if not state_equation_usc_safe(stg):
        return None
    return {
        "kind": CERT_LP,
        "version": CERT_VERSION,
        "signals": list(stg.signals),
        "places": list(stg.net.places),
        "transitions": list(stg.net.transitions),
        "claim": "max/min of every component of I(x2-x1) over the "
        "code-balanced state-equation polyhedron is 0",
    }


def state_equation_usc_safe(stg: STG) -> bool:
    """Exact LP check: no code-preserving marking change is state-equation
    feasible.

    Over the polyhedron of Parikh-vector pairs ``x1, x2 >= 0`` with
    ``M0 + I x_i >= 0`` and ``B (x2 - x1) = 0``, every component of the
    token-flow difference ``I (x2 - x1)`` must have maximum and minimum 0.
    All optima 0 proves that any two reachable markings with equal signal
    codes coincide, hence USC (and CSC) hold.  Sound but incomplete: a
    nonzero or unbounded optimum is *inconclusive*, never a conflict
    verdict.

    The polyhedron contains the origin and is convex, so a linear objective
    has maximum 0 over it iff it has maximum 0 over its tangent cone at the
    origin: the same rows with every rhs 0, keeping only the rows tight at
    the origin (the balance equalities and the places ``M0`` leaves
    unmarked).  That is the system solved here, built once: written as
    homogeneous ``<=`` rows its slack basis is feasible, so no LP needs a
    phase 1, and each LP ends at 0 or unbounded.
    """
    from repro.lp import LinearProgram, solve_lp
    from repro.petri.incidence import incidence_matrix

    net = stg.net
    n = net.num_transitions
    if n == 0:
        return True
    incidence = incidence_matrix(net).tolist()
    initial = net.initial_marking
    zeros = [0] * n
    rows = []
    for row in balance_matrix(stg).tolist():
        if any(row):
            negated = [-c for c in row]
            rows.append(negated + row)  # B (x2 - x1) <= 0
            rows.append(row + negated)  # B (x2 - x1) >= 0
    for p, row in enumerate(incidence):
        if any(row) and not initial[p]:
            negated = [-c for c in row]
            rows.append(negated + zeros)  # (I x1)_p >= 0
            rows.append(zeros + negated)  # (I x2)_p >= 0
    cone = LinearProgram(
        num_vars=2 * n,
        rows=rows,
        senses=["<="] * len(rows),
        rhs=[0] * len(rows),
        objective=[],
    )
    for row in incidence:
        if not any(row):
            continue
        flow = [-c for c in row] + row  # (I (x2 - x1))_p
        for objective in (flow, [-c for c in flow]):
            cone.objective = objective
            if solve_lp(cone).objective_value != 0:
                return False
    return True


def _verify_lp(stg: STG, certificate: Dict[str, Any]) -> bool:
    if (
        certificate.get("signals") != list(stg.signals)
        or certificate.get("places") != list(stg.net.places)
        or certificate.get("transitions") != list(stg.net.transitions)
    ):
        return False
    if stg.has_dummies():
        return False
    return state_equation_usc_safe(stg)


# -- dispatch ------------------------------------------------------------------


def verify_certificate(stg: STG, certificate: Dict[str, Any]) -> bool:
    """Replay ``certificate`` against ``stg``; True iff the claim checks out."""
    if not isinstance(certificate, dict):
        return False
    if certificate.get("version") != CERT_VERSION:
        return False
    kind = certificate.get("kind")
    if kind == CERT_AFFINE:
        return _verify_affine(stg, certificate)
    if kind == CERT_LP:
        return _verify_lp(stg, certificate)
    return False
