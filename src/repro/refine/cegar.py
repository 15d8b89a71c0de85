"""The refinement sweep over the nested-pair relaxation.

For each original place with a non-zero flow row, and each flow
direction, the sweep maximises the relaxed token-flow difference (``2|P|``
objectives over the rows of
:func:`repro.core.prescreen.nested_pair_rows` plus the ``[0,1]`` box) with
a fast floating-point LP and reads the optimum:

* **optimum < 1** — because the *integral* token-flow difference of a
  window is an integer, a relaxation bound below 1 already proves the
  integral maximum is ≤ 0 (Chvátal–Gomory rounding).  The solver's duals
  are rationalised, completed by exact box-row multipliers, and certified
  with exact arithmetic (:mod:`repro.refine.certificate`); only an
  *exactly certified* bound counts.
* **optimum ≥ 1** — the relaxation moves a token; the sweep cannot refute
  and the exact search must run.  A refutation needs every objective
  certified, so the sweep stops at the first one that is not
  (``reason="movable-solution"``, or ``"certification-failure"`` /
  ``"solver-failure"``).

If every objective is certified, the conflict system is refuted outright
and the sweep emits a
:class:`~repro.refine.certificate.RefinementCertificate` — which it
replays through :func:`~repro.refine.certificate.verify_certificate`
before claiming anything, so a certification bug degrades to
"inconclusive", never to a wrong verdict.

This is round 0 of Wimmel & Wolf's CEGAR on the state equation.  Their
refinement step (trap/siphon cuts against spurious solutions) is not
implemented: over the 40 model STGs and 785 guarded fuzz cases of
docs/refinement.md it never accepted a cut.

Avoiding solves
===============

The ``2|P|`` objectives share **one** solver model per run
(:mod:`repro.refine.solver`): the constraint matrix is loaded once and each
objective is a cost swap.  Two further tiers avoid LP work, each
deterministic so the certificate stays byte-identical to the
from-scratch reference path:

* **dominance** — two objectives with the same ``(sign, flow row)`` have
  the same coefficient vector, so a dual bound verified for one covers
  the other verbatim (counter ``refine.dominated``);
* **certificate store** — with a ``cert_store``, previously verified
  bounds keyed ``(stg hash, place, sign)`` replay after an exact
  :func:`~repro.refine.certificate.check_dual_bound` re-check — never
  trusted (counter ``refine.cert_cache_hits``).

SciPy (HiGHS) is an optional dependency: without it the sweep degrades to
an inconclusive outcome (``reason="scipy-unavailable"``) unless every place
is trivially flowless — the caller falls through to the exact search,
verdicts unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

import repro.obs as obs
from repro.core.context import SolverContext
from repro.refine.certificate import (
    DualBound,
    RefinementCertificate,
    check_dual_bound,
    combine_rows,
    verify_certificate,
)
from repro.refine.relaxation import Relaxation, build_relaxation
from repro.refine.solver import SolveResult, make_sweep_solver

#: Floating-point slack below the integral rounding threshold.
_EPS = 1e-6

#: Denominator cap when rationalising solver duals.
_DUAL_LIMIT = 10**9

#: Rationalised multipliers closer to zero than this are float noise.
_NOISE = Fraction(1, 10**6)


@dataclass
class RefinementOutcome:
    """Everything the caller needs from one refinement run."""

    refuted: bool                    # conflict system proved infeasible
    certificate: Optional[RefinementCertificate]
    iterations: int = 0              # optima >= 1 met (0 or 1: the sweep stops)
    lp_calls: int = 0
    dominated: int = 0               # objectives covered by a verified twin
    cert_cache_hits: int = 0         # bounds replayed from the cert store
    reason: str = ""


def _rationalise(value: float) -> Fraction:
    return Fraction(value).limit_denominator(_DUAL_LIMIT)


def _certify(
    relaxation: Relaxation,
    objective: List[int],
    place_name: str,
    sign: int,
    result: SolveResult,
) -> Optional[DualBound]:
    """Turn a float LP solve with optimum < 1 into an exact DualBound.

    The backend signs its duals the way the certificate reads them
    (:class:`~repro.refine.solver.SolveResult`).  They are rationalised;
    noise-sized negative inequality multipliers are dropped and real ones
    reject the solve.  Each box row ``x_j <= 1`` then gets exactly the
    multiplier that closes variable ``j``'s dual-feasibility deficit, and
    :func:`~repro.refine.certificate.check_dual_bound` decides whether the
    bound is below 1.  ``None`` means it is not — the caller must stop the
    sweep (sound, merely weaker).
    """
    y_eq = {row: _rationalise(dual) for row, dual in result.eq_duals.items()}
    y_ub: Dict[int, Fraction] = {}
    for row, dual in result.ub_duals.items():
        mult = _rationalise(dual)
        if mult <= -_NOISE:
            return None
        if mult > 0:
            y_ub[row] = mult
    combination = combine_rows(
        len(objective), relaxation.eq_rows, relaxation.ub_rows, y_eq, y_ub
    )
    if combination is None:
        return None
    combined, _, scale = combination
    box_offset = relaxation.box_offset
    for j, c in enumerate(objective):
        deficit = c * scale - combined[j]
        if deficit > 0:
            y_ub[box_offset + j] = Fraction(deficit, scale)
    value = check_dual_bound(
        objective,
        relaxation.eq_rows,
        relaxation.canonical_inequalities,
        y_eq,
        y_ub,
    )
    if value is None or value >= 1:
        return None
    return DualBound(place=place_name, sign=sign, y_eq=y_eq, y_ub=y_ub)


def _cached_bound(
    store: Any, stg_hash: str, place_name: str, sign: int
) -> Optional[DualBound]:
    """One objective's bound from the cert store, unchecked — the caller
    re-verifies it exactly.  ``None`` on a miss or a malformed payload."""
    payload = store.get_refine_cert(stg_hash, place_name, sign)
    if not payload:
        return None
    try:
        bound = DualBound.from_dict(payload["bound"])
    except (KeyError, TypeError, ValueError):
        return None
    if bound.place != place_name or bound.sign != sign:
        return None
    return bound


def refine_prescreen(
    context: SolverContext,
    cert_store: Optional[Any] = None,
    incremental: bool = True,
) -> RefinementOutcome:
    """Run the sweep; see the module docstring for the contract.

    ``cert_store`` is a duck-typed certificate store (the refine-cert
    domain of :class:`repro.engine.cache.ResultCache`);
    ``incremental=False`` forces the reference solver path that rebuilds
    the model per solve — the golden-equivalence suite pins both against
    each other.
    """
    relaxation = build_relaxation(context)
    net = relaxation.net
    flowing = [p for p in range(net.num_places) if relaxation.flow[p].any()]
    solver = make_sweep_solver(relaxation, incremental=incremental)
    if solver is None:
        refuted = not flowing
        return RefinementOutcome(
            refuted=refuted,
            certificate=RefinementCertificate(
                stg_name=context.stg.name, num_vars=context.num_vars
            )
            if refuted
            else None,
            reason="refuted" if refuted else "scipy-unavailable",
        )

    bounds: List[DualBound] = []
    outcome = RefinementOutcome(refuted=False, certificate=None)
    reason = ""  # why the sweep stopped early; empty while every bound holds
    stg_hash = context.stg.content_hash() if cert_store is not None else ""
    #: ``(sign, flow row) -> verified DualBound`` — the dominance tier.
    seen: Dict[Tuple[int, Tuple[int, ...]], DualBound] = {}
    #: Freshly certified bounds to persist (dropped if the replay fails).
    to_store: List[DualBound] = []
    for place in flowing:
        place_name = net.place_name(place)
        for sign in (1, -1):
            objective = relaxation.diff_objective(place, sign)
            signature = (sign, tuple(int(v) for v in relaxation.flow[place]))
            twin = seen.get(signature)
            if twin is not None:
                # identical objective vector: the verified witness carries
                # over verbatim
                bounds.append(
                    DualBound(
                        place=place_name, sign=sign, y_eq=twin.y_eq, y_ub=twin.y_ub
                    )
                )
                outcome.dominated += 1
                obs.incr("refine.dominated")
                continue
            if cert_store is not None:
                cached = _cached_bound(cert_store, stg_hash, place_name, sign)
                if cached is not None:
                    value = check_dual_bound(
                        objective,
                        relaxation.eq_rows,
                        relaxation.canonical_inequalities,
                        cached.y_eq,
                        cached.y_ub,
                    )
                    if value is not None and value < 1:
                        bounds.append(cached)
                        seen[signature] = cached
                        outcome.cert_cache_hits += 1
                        obs.incr("refine.cert_cache_hits")
                        continue
                    # tampered or stale: fall through and re-solve
            with obs.trace("refine.lp_solve"):
                result = solver.solve(objective)
            outcome.lp_calls += 1
            obs.incr("refine.lp_calls")
            if not result.success:
                reason = "solver-failure"
                break
            if result.optimum >= 1 - _EPS:
                # the relaxation moves a token: nothing to certify here
                outcome.iterations += 1
                obs.incr("refine.iterations")
                reason = "movable-solution"
                break
            with obs.trace("refine.certify"):
                dual = _certify(relaxation, objective, place_name, sign, result)
            if dual is None:
                reason = "certification-failure"
                break
            bounds.append(dual)
            seen[signature] = dual
            if cert_store is not None:
                to_store.append(dual)
        if reason:
            # a refutation needs every objective certified: stop at the
            # first one that is not
            outcome.reason = reason
            break
    else:
        certificate = RefinementCertificate(
            stg_name=context.stg.name,
            num_vars=context.num_vars,
            bounds=bounds,
        )
        # Never claim a refutation the replayer would reject.
        if verify_certificate(context, certificate):
            outcome.refuted = True
            outcome.certificate = certificate
            outcome.reason = "refuted"
            obs.incr("refine.refuted")
        else:
            outcome.reason = "certificate-replay-failed"
            to_store = []

    if cert_store is not None:
        for dual in to_store:
            cert_store.put_refine_cert(
                stg_hash, dual.place, dual.sign, {"bound": dual.to_dict()}
            )
    return outcome
