"""The fact data model and its independent checker.

A :class:`Fact` is one piece of *negative* structural knowledge about an STG
— "these two transitions are never co-enabled", "these places form a trap" —
together with a machine-checkable justification.  Facts follow the same
philosophy as :mod:`repro.lint.certificates`: nothing asks to be trusted.
Every justification is a JSON-safe dict an independent checker
(:func:`verify_fact`) can replay against the STG with exact integer
arithmetic; identity is bound by embedding the full name lists the claim
quantifies over, so a fact cannot be verified against the wrong net.

Fact kinds and their justifications:

``never-coenabled``
    Transitions ``t1, t2`` are never simultaneously enabled at any reachable
    marking.  Justification: a non-negative integer place vector ``y`` with
    ``y^T I = 0`` (a P-invariant) and ``y · max(pre(t1), pre(t2)) > y · M0``.
    Any reachable ``M`` has ``y · M = y · M0``; co-enabling would require
    ``M >= max(pre(t1), pre(t2))`` pointwise, contradiction.

``structural-conflict``
    ``t1, t2`` share the named input place (a potential choice).

``trap`` / ``siphon``
    The named place set ``S`` satisfies ``S• ⊆ •S`` (every consumer of a
    place in ``S`` also produces into ``S``) — dually ``•S ⊆ S•`` for
    siphons — plus the claimed initial markedness.  A marked trap stays
    marked forever; an unmarked siphon stays empty forever.

``dead-transition``
    The transition has an input place inside an initially unmarked siphon,
    hence can never become enabled.

``trigger`` / ``lock``
    Edge-level enabling structure: a transition of the first signal edge
    produces into (trigger) or competes for (lock) an input place of a
    transition of the second edge.  Justification names the witnessing
    transition pair and place.

The soundness contract: a fact whose justification passes
:func:`verify_fact` is true of the net, unconditionally.  Advisory claims
that the checker does *not* establish (e.g. minimality of a trap) live only
in the human-readable ``claim`` string, never in the justification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.stg.stg import STG

#: Bump when a justification payload layout changes.
FACT_VERSION = 1

FACT_NEVER_COENABLED = "never-coenabled"
FACT_STRUCTURAL_CONFLICT = "structural-conflict"
FACT_TRAP = "trap"
FACT_SIPHON = "siphon"
FACT_DEAD_TRANSITION = "dead-transition"
FACT_TRIGGER = "trigger"
FACT_LOCK = "lock"

FACT_KINDS = (
    FACT_NEVER_COENABLED,
    FACT_STRUCTURAL_CONFLICT,
    FACT_TRAP,
    FACT_SIPHON,
    FACT_DEAD_TRANSITION,
    FACT_TRIGGER,
    FACT_LOCK,
)


@dataclass(frozen=True)
class Fact:
    """One structural fact with its machine-checkable justification."""

    kind: str
    #: Names of the net/STG elements the fact is about (render order).
    subjects: Tuple[str, ...]
    #: One-line human-readable statement (may carry advisory qualifiers).
    claim: str
    #: JSON-safe payload replayed by :func:`verify_fact`.
    justification: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "subjects": list(self.subjects),
            "claim": self.claim,
            "justification": dict(self.justification),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Fact":
        return cls(
            kind=str(payload["kind"]),
            subjects=tuple(payload["subjects"]),
            claim=str(payload["claim"]),
            justification=dict(payload.get("justification", {})),
        )


def _justification(kind: str, **payload: Any) -> Dict[str, Any]:
    """The standard envelope every builder uses."""
    return {"kind": kind, "version": FACT_VERSION, **payload}


# -- the independent checker ---------------------------------------------------


def verify_fact(stg: STG, fact: Fact) -> bool:
    """Replay ``fact``'s justification against ``stg``.

    True iff the claim checks out under exact integer arithmetic.  Like
    :func:`repro.lint.certificates.verify_certificate` this is deliberately
    independent of the builders: it recomputes everything from the net.
    """
    just = fact.justification
    if not isinstance(just, dict):
        return False
    if just.get("version") != FACT_VERSION or just.get("kind") != fact.kind:
        return False
    checker = _CHECKERS.get(fact.kind)
    if checker is None:
        return False
    try:
        return checker(stg, fact)
    except (KeyError, IndexError, TypeError, ValueError):
        return False


def _name_indices(names: List[str], universe: List[str]) -> List[int]:
    """Map names to indices in ``universe`` (raises KeyError on strangers)."""
    index = {name: i for i, name in enumerate(universe)}
    return [index[name] for name in names]


def _check_never_coenabled(stg: STG, fact: Fact) -> bool:
    from repro.petri.incidence import incidence_matrix

    just = fact.justification
    net = stg.net
    if just.get("places") != list(net.places):
        return False
    t1, t2 = _name_indices(list(just["transitions"]), list(net.transitions))
    if t1 == t2:
        return False
    invariant = [int(v) for v in just["invariant"]]
    if len(invariant) != net.num_places or any(v < 0 for v in invariant):
        return False
    if not any(invariant):
        return False
    incidence = incidence_matrix(net)
    for t in range(net.num_transitions):
        if sum(invariant[p] * int(incidence[p, t]) for p in range(net.num_places)):
            return False  # not a P-invariant
    pre1, pre2 = net.preset(t1), net.preset(t2)
    joint = {p: w for p, w in pre1.items()}
    for p, w in pre2.items():
        joint[p] = max(joint.get(p, 0), w)
    needed = sum(invariant[p] * w for p, w in joint.items())
    initial = net.initial_marking
    budget = sum(invariant[p] * int(initial[p]) for p in range(net.num_places))
    return needed > budget


def _check_structural_conflict(stg: STG, fact: Fact) -> bool:
    just = fact.justification
    net = stg.net
    t1, t2 = _name_indices(list(just["transitions"]), list(net.transitions))
    if t1 == t2:
        return False
    (p,) = _name_indices([just["place"]], list(net.places))
    return p in net.preset(t1) and p in net.preset(t2)


def _check_trap(stg: STG, fact: Fact) -> bool:
    just = fact.justification
    net = stg.net
    places = set(_name_indices(list(just["places"]), list(net.places)))
    if not places:
        return False
    for p in places:
        for t in net.place_postset(p):  # consumers of p
            if not any(q in places for q in net.postset(t)):
                return False
    marked = any(int(net.initial_marking[p]) > 0 for p in places)
    return bool(just["marked"]) == marked


def _check_siphon(stg: STG, fact: Fact) -> bool:
    just = fact.justification
    net = stg.net
    places = set(_name_indices(list(just["places"]), list(net.places)))
    if not places:
        return False
    for p in places:
        for t in net.place_preset(p):  # producers of p
            if not any(q in places for q in net.preset(t)):
                return False
    marked = any(int(net.initial_marking[p]) > 0 for p in places)
    return bool(just["marked"]) == marked


def _check_dead_transition(stg: STG, fact: Fact) -> bool:
    just = fact.justification
    net = stg.net
    (t,) = _name_indices([just["transition"]], list(net.transitions))
    places = set(_name_indices(list(just["siphon"]), list(net.places)))
    if not places:
        return False
    # the named set must be a genuinely unmarked siphon ...
    for p in places:
        if int(net.initial_marking[p]) > 0:
            return False
        for producer in net.place_preset(p):
            if not any(q in places for q in net.preset(producer)):
                return False
    # ... feeding the transition: it then never gains a token to consume
    return any(p in places for p in net.preset(t))


def _check_edge_pair(stg: STG, fact: Fact, trigger: bool) -> bool:
    just = fact.justification
    net = stg.net
    t1, t2 = _name_indices(list(just["transitions"]), list(net.transitions))
    (p,) = _name_indices([just["place"]], list(net.places))
    e1, e2 = just["edges"]
    label1, label2 = stg.label(t1), stg.label(t2)
    if label1 is None or label2 is None:
        return False
    if str(label1) != e1 or str(label2) != e2:
        return False
    if trigger:
        return p in net.postset(t1) and p in net.preset(t2)
    return t1 != t2 and p in net.preset(t1) and p in net.preset(t2)


def _check_trigger(stg: STG, fact: Fact) -> bool:
    return _check_edge_pair(stg, fact, trigger=True)


def _check_lock(stg: STG, fact: Fact) -> bool:
    return _check_edge_pair(stg, fact, trigger=False)


_CHECKERS = {
    FACT_NEVER_COENABLED: _check_never_coenabled,
    FACT_STRUCTURAL_CONFLICT: _check_structural_conflict,
    FACT_TRAP: _check_trap,
    FACT_SIPHON: _check_siphon,
    FACT_DEAD_TRANSITION: _check_dead_transition,
    FACT_TRIGGER: _check_trigger,
    FACT_LOCK: _check_lock,
}
