"""The analysis driver: one :class:`FactBase` per canonical STG hash.

:func:`analyze` computes the whole-net structural facts (relations, traps,
siphons, trigger/lock structure) exactly once per STG content hash — an
in-process memo keyed by :meth:`repro.stg.stg.STG.content_hash` makes the
repeated calls from lint rules, the verifier's DCF licence and the CLI
free.  Everything is deterministic:
deterministic invariant bases (``petri.analysis._integer_kernel``),
index-ordered enumeration, sorted outputs.

Observability (all guarded, zero overhead untraced):

* span ``analysis.compute`` — fact computation wall time;
* counters ``analysis.runs``, ``analysis.facts``, ``analysis.cache_hits``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set

from repro import obs
from repro.analysis.facts import (
    FACT_DEAD_TRANSITION,
    FACT_NEVER_COENABLED,
    FACT_SIPHON,
    FACT_STRUCTURAL_CONFLICT,
    FACT_TRAP,
    Fact,
    _justification,
    verify_fact,
)
from repro.stg.stg import STG


@dataclass
class AnalysisOptions:
    """Budgets for the enumerative parts (relations are always complete)."""

    trap_max_size: int = 16
    trap_max_count: int = 32
    siphon_max_size: int = 16
    siphon_max_count: int = 32


@dataclass
class FactBase:
    """All structural facts of one STG, with derived relation views.

    The relation accessors are *sound over-approximations*: they answer
    "might this happen?" and only say no when a verified-style fact proves
    impossibility.  The facts themselves carry the proofs (see
    :mod:`repro.analysis.facts`).
    """

    stg_name: str
    content_hash: str
    facts: List[Fact] = field(default_factory=list)
    #: ``may_follow[t1]`` — transition names reachable from ``t1`` through
    #: the flow graph (derived causality over-approximation).
    may_follow: Dict[str, List[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._exclusive: Set[FrozenSet[str]] = set()
        self._conflicts: Set[FrozenSet[str]] = set()
        self._dead: Set[str] = set()
        for fact in self.facts:
            if fact.kind == FACT_NEVER_COENABLED:
                self._exclusive.add(frozenset(fact.subjects))
            elif fact.kind == FACT_STRUCTURAL_CONFLICT:
                self._conflicts.add(frozenset(fact.subjects))
            elif fact.kind == FACT_DEAD_TRANSITION:
                self._dead.add(fact.subjects[0])

    # -- relation views --------------------------------------------------------

    def of_kind(self, kind: str) -> List[Fact]:
        return [f for f in self.facts if f.kind == kind]

    def never_coenabled(self, t1: str, t2: str) -> bool:
        """Proven: no reachable marking enables both transitions."""
        if t1 in self._dead or t2 in self._dead:
            return True
        return frozenset((t1, t2)) in self._exclusive

    def in_structural_conflict(self, t1: str, t2: str) -> bool:
        return frozenset((t1, t2)) in self._conflicts

    def proves_dynamic_conflict_freeness(self) -> bool:
        """Every structural-conflict pair is proven never co-enabled.

        This is exactly the precondition of the paper's Proposition 1
        (Section 7): no reachable marking enables two transitions sharing
        an input place.  Conflict pairs are enumerated exhaustively by the
        builder, so coverage here is coverage of the net.
        """
        return all(
            pair & self._dead or pair in self._exclusive
            for pair in self._conflicts
        )

    # -- summaries & serialization ---------------------------------------------

    def counts(self) -> Dict[str, int]:
        result: Dict[str, int] = {}
        for fact in self.facts:
            result[fact.kind] = result.get(fact.kind, 0) + 1
        return result

    def verify_all(self, stg: STG) -> List[Fact]:
        """Replay every justification; the (hopefully empty) list of fakes."""
        return [f for f in self.facts if not verify_fact(stg, f)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stg_name": self.stg_name,
            "content_hash": self.content_hash,
            "facts": [f.to_dict() for f in self.facts],
            "may_follow": {k: list(v) for k, v in self.may_follow.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FactBase":
        return cls(
            stg_name=str(payload["stg_name"]),
            content_hash=str(payload["content_hash"]),
            facts=[Fact.from_dict(f) for f in payload.get("facts", [])],
            may_follow={
                str(k): [str(t) for t in v]
                for k, v in payload.get("may_follow", {}).items()
            },
        )


#: In-process memo: content hash -> FactBase (bounded FIFO).
_MEMO: "OrderedDict[str, FactBase]" = OrderedDict()
_MEMO_LIMIT = 64


def clear_memo() -> None:
    """Drop the in-process facts memo (tests)."""
    _MEMO.clear()


def analyze(stg: STG, options: Optional[AnalysisOptions] = None) -> FactBase:
    """The FactBase of ``stg``, computed once per content hash."""
    key = stg.content_hash()
    hit = _MEMO.get(key)
    if hit is not None:
        obs.incr("analysis.cache_hits")
        return hit
    with obs.trace("analysis.compute"):
        facts = _compute(stg, key, options or AnalysisOptions())
    obs.incr("analysis.runs")
    obs.incr("analysis.facts", len(facts.facts))
    _MEMO[key] = facts
    while len(_MEMO) > _MEMO_LIMIT:
        _MEMO.popitem(last=False)
    return facts


def _compute(stg: STG, content_hash: str, options: AnalysisOptions) -> FactBase:
    from repro.analysis import relations, structure, triggers

    net = stg.net
    facts: List[Fact] = []

    # structural conflicts (complete — the DCF proof quantifies over these)
    facts.extend(relations.structural_conflict_facts(net))

    # traps / siphons, then the dead transitions unmarked siphons imply
    traps = structure.minimal_traps(
        net, max_size=options.trap_max_size, max_count=options.trap_max_count
    )
    siphons = structure.minimal_siphons(
        net, max_size=options.siphon_max_size, max_count=options.siphon_max_count
    )
    initial = net.initial_marking
    for kind, sets in ((FACT_TRAP, traps), (FACT_SIPHON, siphons)):
        for places in sets:
            names = sorted(net.place_name(p) for p in places)
            marked = any(int(initial[p]) > 0 for p in places)
            word = "marked" if marked else "unmarked"
            noun = "trap" if kind == FACT_TRAP else "siphon"
            facts.append(
                Fact(
                    kind=kind,
                    subjects=tuple(names),
                    claim=f"minimal {word} {noun} {{{', '.join(names)}}}",
                    justification=_justification(
                        kind, places=names, marked=marked
                    ),
                )
            )
    dead_siphons = structure.unmarked_siphons(net, siphons)
    facts.extend(relations.dead_transition_facts(net, dead_siphons))

    # invariant exclusions for every structural-conflict pair plus every
    # same-signal pair (the autoconcurrency question lint asks about)
    pairs = sorted(
        set(relations.structural_conflict_pairs(net))
        | set(relations.same_signal_pairs(stg))
    )
    facts.extend(relations.never_coenabled_facts(net, pairs))

    # signal-edge trigger / lock structure
    facts.extend(triggers.trigger_facts(stg))
    facts.extend(triggers.lock_facts(stg))

    reach = relations.may_follow_relation(net)
    may_follow = {
        net.transition_name(t): sorted(net.transition_name(u) for u in reach[t])
        for t in range(net.num_transitions)
        if reach[t]
    }
    return FactBase(
        stg_name=stg.name,
        content_hash=content_hash,
        facts=facts,
        may_follow=may_follow,
    )
