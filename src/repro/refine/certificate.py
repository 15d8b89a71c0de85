"""Replayable refutation certificates for the refinement sweep.

A refuted conflict system is worth nothing if the refutation has to be
trusted.  The sweep therefore emits a :class:`RefinementCertificate`: for
every non-trivial objective (each original place and flow direction), a
sparse exact-rational dual multiplier vector whose weak-duality bound is
**strictly below 1**.  Since the integral token-flow difference of a
window is an integer, a bound below 1 proves the integral maximum is at
most 0 in both directions — no balanced window moves any token, hence no
USC conflict (the Chvátal–Gomory rounding step).

Replay (:func:`verify_certificate`) needs **no LP solver**:

1. the constraint system is rebuilt deterministically (the canonical row
   order of :mod:`repro.refine.relaxation`);
2. each dual vector is checked by :func:`check_dual_bound` — multipliers
   non-negative on inequalities, the combined row dominates the objective
   coordinatewise, and the combined right-hand side is below 1 — all in
   exact integer/:class:`~fractions.Fraction` arithmetic, through the one
   row-combination routine (:func:`combine_rows`) the sweep certifies
   with;
3. *coverage* is enforced: a certificate missing any (place, direction)
   objective is rejected, so a verifier cannot be talked into skipping
   objectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.context import SolverContext
from repro.refine.relaxation import Row, build_relaxation

#: Bump when the certificate payload layout changes.
#: v2: certificates carry dual bounds only (no cut list).
REFINE_VERSION = 2


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_from_str(text: str) -> Fraction:
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den or "1"))


def _sparse_to_dict(vector: Dict[int, Fraction]) -> Dict[str, str]:
    return {
        str(row): _fraction_to_str(mult)
        for row, mult in sorted(vector.items())
        if mult != 0
    }


def _sparse_from_dict(payload: Dict[str, str]) -> Dict[int, Fraction]:
    return {int(row): _fraction_from_str(mult) for row, mult in payload.items()}


@dataclass(frozen=True)
class DualBound:
    """One objective's exact dual bound: maximise ``sign * token-flow
    difference`` into ``place`` is at most ``y·b < 1``."""

    place: str                       # original-net place name
    sign: int                        # +1 / -1 flow direction
    y_eq: Dict[int, Fraction]        # sparse multipliers on equality rows
    y_ub: Dict[int, Fraction]        # sparse multipliers on inequality rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "place": self.place,
            "sign": self.sign,
            "y_eq": _sparse_to_dict(self.y_eq),
            "y_ub": _sparse_to_dict(self.y_ub),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DualBound":
        return cls(
            place=str(payload["place"]),
            sign=int(payload["sign"]),
            y_eq=_sparse_from_dict(payload["y_eq"]),
            y_ub=_sparse_from_dict(payload["y_ub"]),
        )


@dataclass
class RefinementCertificate:
    """The full refutation: one :class:`DualBound` per (place, direction)
    objective."""

    stg_name: str
    num_vars: int
    bounds: List[DualBound] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": REFINE_VERSION,
            "stg": self.stg_name,
            "num_vars": self.num_vars,
            "bounds": [bound.to_dict() for bound in self.bounds],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RefinementCertificate":
        if payload.get("version") != REFINE_VERSION:
            raise ValueError(
                f"unsupported certificate version {payload.get('version')!r}"
            )
        return cls(
            stg_name=str(payload["stg"]),
            num_vars=int(payload["num_vars"]),
            bounds=[DualBound.from_dict(b) for b in payload["bounds"]],
        )


def combine_rows(
    num_vars: int,
    eq_rows: Sequence[Row],
    ub_rows: Sequence[Row],
    y_eq: Dict[int, Fraction],
    y_ub: Dict[int, Fraction],
) -> Optional[Tuple[List[int], int, int]]:
    """The exact row combination ``(A_eq'y_eq + A_ub'y_ub, y_eq·b_eq +
    y_ub·b_ub)`` behind every dual bound, or ``None`` if a multiplier names
    an out-of-range row or an inequality multiplier is negative.

    Returns ``(combined, bound, scale)``: the multipliers are rescaled by
    their common denominator ``scale`` so the combination runs over each
    row's support in plain integer arithmetic — ``combined`` and ``bound``
    are the exact values times ``scale``.
    """
    scale = lcm(
        *(mult.denominator for mult in y_eq.values()),
        *(mult.denominator for mult in y_ub.values()),
    )
    combined = [0] * num_vars
    bound = 0
    for rows, multipliers, free in ((eq_rows, y_eq, True), (ub_rows, y_ub, False)):
        for row, mult in multipliers.items():
            if not 0 <= row < len(rows) or (mult < 0 and not free):
                return None
            if mult == 0:
                continue
            m = mult.numerator * (scale // mult.denominator)
            support, rhs = rows[row]
            for j, c in support:
                combined[j] += m * c
            bound += m * rhs
    return combined, bound, scale


def check_dual_bound(
    objective: Sequence[int],
    eq_rows: Sequence[Row],
    ub_rows: Sequence[Row],
    y_eq: Dict[int, Fraction],
    y_ub: Dict[int, Fraction],
) -> Optional[Fraction]:
    """Weak duality, exactly: if ``y_ub >= 0`` and
    ``A_eq'y_eq + A_ub'y_ub >= c`` coordinatewise, then every feasible
    ``x >= 0`` has ``c·x <= y_eq·b_eq + y_ub·b_ub``.  Returns that bound,
    or ``None`` if the multipliers are not a valid witness (out-of-range
    row, negative inequality multiplier, or dominated coordinate).
    """
    combination = combine_rows(len(objective), eq_rows, ub_rows, y_eq, y_ub)
    if combination is None:
        return None
    combined, bound, scale = combination
    if any(total < c * scale for total, c in zip(combined, objective)):
        return None
    return Fraction(bound, scale)


def verify_certificate(
    context: SolverContext, certificate: RefinementCertificate
) -> bool:
    """Replay the whole refutation against ``context`` — see module doc."""
    if certificate.num_vars != context.num_vars:
        return False
    relaxation = build_relaxation(context)
    net = relaxation.net
    ub_rows = relaxation.canonical_inequalities
    index = {net.place_name(p): p for p in range(net.num_places)}
    needed: set = {
        (net.place_name(p), sign)
        for p in range(net.num_places)
        if relaxation.flow[p].any()
        for sign in (1, -1)
    }
    for bound in certificate.bounds:
        place = index.get(bound.place)
        if place is None or bound.sign not in (1, -1):
            return False
        objective = relaxation.diff_objective(place, bound.sign)
        value = check_dual_bound(
            objective, relaxation.eq_rows, ub_rows, bound.y_eq, bound.y_ub
        )
        if value is None or value >= 1:
            return False
        needed.discard((bound.place, bound.sign))
    return not needed

