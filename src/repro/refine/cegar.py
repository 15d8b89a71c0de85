"""The CEGAR refinement loop over the nested-pair relaxation.

For each original place and flow direction the loop maximises the relaxed
token-flow difference (the same ``2|P|`` objectives as
:func:`repro.core.prescreen.lp_prescreen`) with a fast floating-point LP,
then sorts each optimum into one of three buckets:

* **optimum < 1** — because the *integral* token-flow difference of a
  window is an integer, a relaxation bound below 1 already proves the
  integral maximum is ≤ 0.  The solver's duals are rationalised, repaired
  against the box rows, and certified with exact
  :class:`~fractions.Fraction` arithmetic (:mod:`repro.refine.certificate`);
  only an *exactly certified* bound counts.
* **optimum ≥ 1, solution spurious** — the solution's markings
  ``M = M0 + I·x`` violate a marked-trap or unmarked-siphon inequality
  (known-cut replay first, FactBase scan second, separation LP third, see
  :mod:`repro.refine.separation`).  The violated inequality is re-verified
  with exact integer arithmetic, added as a cut for **both** Parikh copies,
  and the objective re-solved — the counterexample-guided step.
* **optimum ≥ 1, no separating cut** — the place is *movable*; the
  prescreen cannot refute and the exact search must run.  A refutation
  needs every place certified, so the loop stops at the first place it
  cannot certify instead of classifying the rest.

If every place with a non-zero flow row is certified immovable in both
directions, the conflict system is refuted outright and the loop emits a
:class:`~repro.refine.certificate.RefinementCertificate` — which it
replays through :func:`~repro.refine.certificate.verify_certificate`
before claiming anything, so a certification bug degrades to
"inconclusive", never to a wrong verdict.

Incremental solving
===================

The ``2|P|`` objectives share **one** solver model per run
(:mod:`repro.refine.solver`): the constraint matrix is loaded once, each
objective is a cost swap, and accepted cuts are row appends.  Three
further tiers avoid LP solves entirely, each deterministic so the swept
certificate stays byte-identical to the from-scratch reference path:

* **dominance** — two objectives with the same ``(sign, flow row)`` have
  the same coefficient vector, so a dual bound verified for one covers
  the other verbatim (counter ``refine.dominated``);
* **sign-convention memory** — the dual sign-guess that certified the
  previous objective is tried first on the next (counter
  ``refine.warm_hits``: the remembered guess worked first try);
* **certificate cache** — with a ``cert_store``, previously verified
  bounds keyed ``(stg hash, place, sign, cut-set hash)`` replay after an
  exact :func:`~repro.refine.certificate.check_dual_bound` re-check —
  never trusted (counter ``refine.cert_cache_hits``).  A cached bound
  certified under a deeper cut state first replays the missing cuts from
  the persisted cut log (each re-verified), keeping the warm run's cut
  sequence identical to the cold run's.

SciPy (HiGHS) is an optional dependency: without it the loop degrades to
an inconclusive outcome (``reason="scipy-unavailable"``) unless every place
is trivially flowless — the caller falls through to the exact search,
verdicts unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Any, Dict, List, Optional, Tuple

import repro.obs as obs
from repro.analysis.engine import FactBase, analyze
from repro.core.context import SolverContext
from repro.refine.certificate import (
    DualBound,
    RefinementCertificate,
    check_dual_bound,
    verify_certificate,
)
from repro.refine.cuts import Cut, cut_set_hash, verify_cut
from repro.refine.relaxation import Relaxation, build_relaxation, marking_vector
from repro.refine.separation import find_cut
from repro.refine.solver import SolveResult, make_sweep_solver

#: Floating-point slack below the integral rounding threshold.
_EPS = 1e-6

#: Denominator cap when rationalising solver duals / solutions.
_DUAL_LIMIT = 10**9
_PRIMAL_LIMIT = 10**6

#: Rationalised multipliers closer to zero than this are float noise.
_NOISE = Fraction(1, 10**6)

#: Dual sign-convention guesses, default order (see ``_certify``).
_GUESSES: Tuple[Tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass
class RefinementOutcome:
    """Everything the caller needs from one refinement run."""

    refuted: bool                    # conflict system proved infeasible
    certificate: Optional[RefinementCertificate]
    cuts: List[Cut] = field(default_factory=list)
    iterations: int = 0              # CEGAR iterations (spurious solutions met)
    lp_calls: int = 0
    separation_calls: int = 0
    dominated: int = 0               # objectives covered by a verified twin
    warm_hits: int = 0               # remembered sign guess certified first try
    cert_cache_hits: int = 0         # bounds replayed from the cert store
    reason: str = ""


def _rationalise(value: float, limit: int) -> Fraction:
    return Fraction(float(value)).limit_denominator(limit)


def _attempt_bound(
    y_eq: Dict[int, Fraction],
    y_ub: Dict[int, Fraction],
    objective: List[int],
    relaxation: Relaxation,
) -> Optional[Tuple[Dict[int, Fraction], Dict[int, Fraction]]]:
    """Repair one sign-convention guess into an exact dual witness.

    Rejects genuinely negative inequality multipliers (drops noise-sized
    ones), then closes any dual-infeasibility deficit at variable ``j`` by
    bumping the multiplier of ``j``'s box row ``x_j <= 1`` — which restores
    feasibility at the price of raising the bound by the deficit.  Returns
    the repaired vectors iff the final bound is < 1.

    Row combination runs over the sparse row supports
    (:meth:`~repro.refine.relaxation.Relaxation.sparse_eq_rows`), not all
    ``2n`` columns per row, and — after rescaling every multiplier by the
    common denominator — in plain integer arithmetic: exactly the same
    values as the :class:`~fractions.Fraction` formulation (the scale
    divides out at the end), at a fraction of the cost.
    """
    eq_sparse = relaxation.sparse_eq_rows()
    ub_sparse = relaxation.sparse_inequality_map()
    box_offset = relaxation.box_offset
    num_vars = len(objective)
    box_end = box_offset + num_vars
    cleaned: Dict[int, Fraction] = {}
    for row, mult in y_ub.items():
        if mult < 0:
            if mult > -_NOISE:
                continue
            return None
        if mult != 0:
            cleaned[row] = mult
    y_ub = cleaned
    scale = 1
    for mult in y_eq.values():
        den = mult.denominator
        scale = scale * den // gcd(scale, den)
    for mult in y_ub.values():
        den = mult.denominator
        scale = scale * den // gcd(scale, den)
    combined = [0] * num_vars          # scaled by ``scale``
    bound = 0                          # scaled by ``scale``
    for row, mult in y_eq.items():
        m = mult.numerator * (scale // mult.denominator)
        entries, rhs = eq_sparse[row]
        for j, c in entries:
            combined[j] += m * c
        bound += m * rhs
    for row, mult in y_ub.items():
        m = mult.numerator * (scale // mult.denominator)
        if box_offset <= row < box_end:
            combined[row - box_offset] += m
            bound += m
            continue
        entries, rhs = ub_sparse[row]
        for j, c in entries:
            combined[j] += m * c
        bound += m * rhs
    for j in range(num_vars):
        deficit = objective[j] * scale - combined[j]
        if deficit > 0:
            box_row = box_offset + j
            y_ub[box_row] = y_ub.get(box_row, Fraction(0)) + Fraction(
                deficit, scale
            )
            bound += deficit
    if bound >= scale:
        return None
    return dict(y_eq), y_ub


def _certify(
    relaxation: Relaxation,
    objective: List[int],
    place_name: str,
    sign: int,
    result: SolveResult,
    guesses: Tuple[Tuple[int, int], ...],
) -> Optional[Tuple[DualBound, Tuple[int, int], bool]]:
    """Turn a float LP solve with optimum < 1 into an exact DualBound.

    HiGHS dual sign conventions differ across problem transformations, so
    the duals are tried under both signs for the equality and the
    inequality blocks, in ``guesses`` order (the sweep puts the previously
    successful guess first).  Returns ``(bound, guess, first_try)`` for
    the first guess that repairs into a valid bound below 1; ``None``
    means no guess certifies — the caller must treat the objective as
    movable (sound, merely weaker).
    """
    box_offset = relaxation.box_offset
    for attempt, (eq_sign, ub_sign) in enumerate(guesses):
        y_eq = {
            row: eq_sign * _rationalise(mult, _DUAL_LIMIT)
            for row, mult in result.eq_duals.items()
        }
        y_ub: Dict[int, Fraction] = {
            row: ub_sign * _rationalise(mult, _DUAL_LIMIT)
            for row, mult in result.ub_duals.items()
        }
        for var, mult in result.box_duals.items():
            y_ub[box_offset + var] = ub_sign * _rationalise(mult, _DUAL_LIMIT)
        repaired = _attempt_bound(y_eq, y_ub, objective, relaxation)
        if repaired is not None:
            bound = DualBound(
                place=place_name, sign=sign, y_eq=repaired[0], y_ub=repaired[1]
            )
            return bound, (eq_sign, ub_sign), attempt == 0
    return None


def _load_known_cuts(store: Any, stg_hash: str, net: Any) -> List[Cut]:
    """The persisted cut log, truncated at the first entry that fails
    exact replay — a tampered tail is dropped, never trusted."""
    payload = store.get_refine_cuts(stg_hash)
    if not payload:
        return []
    cuts: List[Cut] = []
    try:
        entries = [Cut.from_dict(entry) for entry in payload]
    except (KeyError, TypeError, ValueError):
        return []
    for cut in entries:
        if not verify_cut(net, cut):
            break
        cuts.append(cut)
    return cuts


def _cached_bound(
    store: Any,
    stg_hash: str,
    place_name: str,
    sign: int,
    relaxation: Relaxation,
    known_cuts: List[Cut],
    max_cuts: int,
) -> Optional[Tuple[DualBound, List[Cut]]]:
    """Replay one objective's bound from the cert store, if it re-verifies.

    The key carries the cut-set hash at objective start; the payload names
    the cut-log depth at certification time, so a bound certified after
    in-objective cuts first yields the missing log cuts for the caller to
    append (each already exact-verified by :func:`_load_known_cuts`).
    Returns ``None`` — a plain miss — on any mismatch or failed re-check.
    """
    key_hash = cut_set_hash(relaxation.cuts)
    payload = store.get_refine_cert(stg_hash, place_name, sign, key_hash)
    if not payload:
        return None
    try:
        bound = DualBound.from_dict(payload["bound"])
        cuts_after = int(payload.get("cuts_after", len(relaxation.cuts)))
    except (KeyError, TypeError, ValueError):
        return None
    if bound.place != place_name or bound.sign != sign:
        return None
    if not len(relaxation.cuts) <= cuts_after <= min(len(known_cuts), max_cuts):
        return None
    extension = known_cuts[len(relaxation.cuts):cuts_after]
    if relaxation.cuts != known_cuts[: len(relaxation.cuts)]:
        return None  # this run's cut path diverged from the log
    return bound, extension


def refine_prescreen(
    context: SolverContext,
    factbase: Optional[FactBase] = None,
    max_cuts: int = 32,
    max_lp_separation_misses: int = 4,
    cert_store: Optional[Any] = None,
    incremental: bool = True,
) -> RefinementOutcome:
    """Run the CEGAR loop; see the module docstring for the contract.

    ``factbase`` is fetched lazily from :func:`repro.analysis.analyze`
    (memoized) the first time a spurious solution needs separating, so the
    common all-objectives-bounded path never pays for whole-net analysis.
    After ``max_lp_separation_misses`` exact separation LPs fail to find
    any cut, later objectives skip straight to the FactBase tier — on nets
    whose relaxation solutions sit inside the trap/siphon hull the LPs can
    never succeed, and the budget keeps the fall-through path fast.

    ``cert_store`` is a duck-typed certificate store (the refine-cert /
    refine-cuts domains of :class:`repro.engine.cache.ResultCache`);
    ``incremental=False`` forces the reference solver path that rebuilds
    the model per solve — the golden-equivalence suite pins both against
    each other.
    """
    relaxation = build_relaxation(context)
    net = relaxation.net
    num_places = net.num_places
    flowless = [not relaxation.flow[p].any() for p in range(num_places)]
    solver = make_sweep_solver(relaxation, incremental=incremental)
    if solver is None:
        return RefinementOutcome(
            refuted=all(flowless),
            certificate=RefinementCertificate(
                stg_name=context.stg.name, num_vars=context.num_vars
            )
            if all(flowless)
            else None,
            reason="refuted" if all(flowless) else "scipy-unavailable",
        )

    n = context.num_vars
    lp_separation_misses = 0
    all_fixed = True
    bounds: List[DualBound] = []
    outcome = RefinementOutcome(refuted=False, certificate=None)
    reason = "refuted"
    stg_hash = context.stg.content_hash() if cert_store is not None else ""
    known_cuts = (
        _load_known_cuts(cert_store, stg_hash, net)
        if cert_store is not None
        else []
    )
    #: ``(sign, flow row) -> verified DualBound`` — the dominance tier.
    seen: Dict[Tuple[int, Tuple[int, ...]], DualBound] = {}
    remembered: Optional[Tuple[int, int]] = None
    #: Freshly certified bounds to persist: (place, sign, key cut-state,
    #: cut-log depth at certification, bound).
    to_store: List[Tuple[str, int, int, int, DualBound]] = []
    for place in range(num_places):
        if flowless[place]:
            continue
        place_name = net.place_name(place)
        place_fixed = True
        for sign in (1, -1):
            objective = relaxation.diff_objective(place, sign)
            signature = (
                sign,
                tuple(int(v) for v in relaxation.flow[place]),
            )
            twin = seen.get(signature)
            if twin is not None:
                # identical objective vector: the verified witness carries
                # over verbatim (appended rows only zero-extend its duals)
                bounds.append(
                    DualBound(
                        place=place_name,
                        sign=sign,
                        y_eq=twin.y_eq,
                        y_ub=twin.y_ub,
                    )
                )
                outcome.dominated += 1
                obs.incr("refine.dominated")
                continue
            if cert_store is not None:
                cached = _cached_bound(
                    cert_store,
                    stg_hash,
                    place_name,
                    sign,
                    relaxation,
                    known_cuts,
                    max_cuts,
                )
                if cached is not None:
                    bound, extension = cached
                    for cut in extension:
                        relaxation.add_cut(cut)
                        outcome.cuts.append(cut)
                        obs.incr("refine.cuts")
                    value = check_dual_bound(
                        objective,
                        relaxation.eq_rows,
                        relaxation.canonical_inequalities(),
                        bound.y_eq,
                        bound.y_ub,
                    )
                    if value is not None and value < 1:
                        bounds.append(bound)
                        seen[signature] = bound
                        outcome.cert_cache_hits += 1
                        obs.incr("refine.cert_cache_hits")
                        continue
                    # tampered or stale: fall through and re-solve (the
                    # replayed cuts stay — they are exact-verified and
                    # match the cold run's state at this objective)
            key_cuts = len(relaxation.cuts)
            while True:
                with obs.trace("refine.lp_solve"):
                    result = solver.solve(objective)
                outcome.lp_calls += 1
                obs.incr("refine.lp_calls")
                if not result.success:
                    place_fixed = False
                    reason = "solver-failure"
                    break
                if result.optimum < 1 - _EPS:
                    guesses = _GUESSES
                    if remembered is not None and remembered != _GUESSES[0]:
                        guesses = (remembered,) + tuple(
                            g for g in _GUESSES if g != remembered
                        )
                    with obs.trace("refine.certify"):
                        certified = _certify(
                            relaxation,
                            objective,
                            place_name,
                            sign,
                            result,
                            guesses,
                        )
                    if certified is None:
                        place_fixed = False
                        reason = "certification-failure"
                    else:
                        dual, guess, first_try = certified
                        if remembered is not None and first_try:
                            outcome.warm_hits += 1
                            obs.incr("refine.warm_hits")
                        remembered = guess
                        bounds.append(dual)
                        seen[signature] = dual
                        if cert_store is not None:
                            to_store.append(
                                (
                                    place_name,
                                    sign,
                                    key_cuts,
                                    len(relaxation.cuts),
                                    dual,
                                )
                            )
                    break
                outcome.iterations += 1
                obs.incr("refine.iterations")
                if len(relaxation.cuts) >= max_cuts:
                    place_fixed = False
                    reason = "cut-budget"
                    break
                x = [_rationalise(v, _PRIMAL_LIMIT) for v in result.x]
                markings = [
                    marking_vector(relaxation, x[:n]),
                    marking_vector(relaxation, x[n:]),
                ]
                if factbase is None:
                    factbase = analyze(context.stg)
                outcome.separation_calls += 1
                use_lp = lp_separation_misses < max_lp_separation_misses
                cut = find_cut(
                    net,
                    markings,
                    factbase,
                    use_lp=use_lp,
                    known_cuts=known_cuts,
                    skip=relaxation.cuts,
                )
                if (
                    cut is None
                    or cut in relaxation.cuts
                    or not verify_cut(net, cut)
                ):
                    if use_lp and cut is None:
                        lp_separation_misses += 1
                    place_fixed = False
                    reason = "movable-solution"
                    break
                relaxation.add_cut(cut)
                outcome.cuts.append(cut)
                obs.incr("refine.cuts")
            if not place_fixed:
                break  # one movable direction already disqualifies the place
        if not place_fixed:
            # a refutation needs every place certified: stop at the first
            # one that is not
            all_fixed = False
            break

    if all_fixed:
        certificate = RefinementCertificate(
            stg_name=context.stg.name,
            num_vars=context.num_vars,
            cuts=list(relaxation.cuts),
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
    else:
        outcome.reason = reason

    if cert_store is not None:
        all_cuts = list(relaxation.cuts)
        if all_cuts and all_cuts != known_cuts[: len(all_cuts)]:
            # this run extended or corrected the log: persist the new path
            cert_store.put_refine_cuts(
                stg_hash, [cut.to_dict() for cut in all_cuts]
            )
        for place_name, sign, key_cuts, cuts_after, dual in to_store:
            cert_store.put_refine_cert(
                stg_hash,
                place_name,
                sign,
                cut_set_hash(all_cuts[:key_cuts]),
                {
                    "bound": dual.to_dict(),
                    "cuts_after": cuts_after,
                    "cuts_referenced": cuts_after > 0,
                },
            )
    return outcome
