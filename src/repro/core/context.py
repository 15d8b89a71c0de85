"""Shared solver context: the prefix viewed as a constraint system.

Collects everything the branch-and-bound searches need:

* the *free* events (cut-off constraints (3) of the paper applied: cut-off
  events and their causal successors are eliminated from the variable set);
* a topological branching order, so that every prefix of decisions is a
  potential configuration (downward closure comes for free);
* per-event signal contributions and suffix count tables for the
  signal-balance pruning of the conflict constraint (2);
* final-marking and ``Out``-set evaluation for candidate solutions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.exceptions import SolverError
from repro.petri.marking import Marking
from repro.stg.nextstate import enabled_outputs, next_state_value
from repro.unfolding.occurrence_net import Prefix
from repro.unfolding.relations import PrefixRelations


class SolverContext:
    """Precomputed views of an STG prefix for the IP conflict searches."""

    def __init__(self, prefix: Prefix, relations: Optional[PrefixRelations] = None):
        if prefix.stg is None:
            raise SolverError("coding-conflict detection needs an STG prefix")
        self.prefix = prefix
        self.stg = prefix.stg
        self.relations = relations or PrefixRelations(prefix)
        self.num_signals = len(self.stg.signals)

        # cut-off constraints: x(e) = 0 for cut-offs; their successors can
        # then never be 1 either, so both are dropped from the variable set
        free_mask = self.relations.free_events_mask()
        order = [
            e for e in self.relations.topological_order() if (free_mask >> e) & 1
        ]
        self.order: List[int] = order
        self.num_vars = len(order)
        self.position: Dict[int, int] = {e: i for i, e in enumerate(order)}

        # per-position relation masks re-indexed over *positions* so the
        # search can keep its state in plain integers
        self.pred_pos: List[int] = []
        self.conf_pos: List[int] = []
        for e in order:
            self.pred_pos.append(self._remap(self.relations.pred[e]))
            self.conf_pos.append(self._remap(self.relations.conf[e]))

        # signal contribution of each position: (signal_index, +1/-1/0)
        self.signal_of: List[Optional[int]] = []
        self.delta_of: List[int] = []
        for e in order:
            signal, delta = self.stg.signal_change(prefix.events[e].transition)
            self.signal_of.append(signal)
            self.delta_of.append(delta)

        # suffix_count[i][s]: number of events at positions >= i labelled by
        # signal s — the interval half-width for the balance pruning;
        # suffix_plus / suffix_minus split it by edge direction, which gives
        # the asymmetric (tighter) bound available in nested-pair mode
        self.suffix_count: List[List[int]] = [
            [0] * self.num_signals for _ in range(self.num_vars + 1)
        ]
        self.suffix_plus: List[List[int]] = [
            [0] * self.num_signals for _ in range(self.num_vars + 1)
        ]
        self.suffix_minus: List[List[int]] = [
            [0] * self.num_signals for _ in range(self.num_vars + 1)
        ]
        for i in range(self.num_vars - 1, -1, -1):
            row = list(self.suffix_count[i + 1])
            plus = list(self.suffix_plus[i + 1])
            minus = list(self.suffix_minus[i + 1])
            signal = self.signal_of[i]
            if signal is not None:
                row[signal] += 1
                if self.delta_of[i] > 0:
                    plus[signal] += 1
                else:
                    minus[signal] += 1
            self.suffix_count[i] = row
            self.suffix_plus[i] = plus
            self.suffix_minus[i] = minus

        self._non_input_set = frozenset(self.stg.non_input_signals)
        self._window_flows: Optional[List[Tuple[Tuple[int, int], ...]]] = None
        self._succ_pos: Optional[List[int]] = None

    @property
    def num_places(self) -> int:
        """Places of the *original* net (the marking-equation dimension)."""
        return self.prefix.net.num_places

    @property
    def window_flows(self) -> List[Tuple[Tuple[int, int], ...]]:
        """Original-net token flow of each position's transition, sparse —
        the marking-equation rows the window search folds incrementally."""
        if self._window_flows is None:
            net = self.prefix.net
            flows: List[Tuple[Tuple[int, int], ...]] = []
            for position in range(self.num_vars):
                transition = self.prefix.events[
                    self.order[position]
                ].transition
                delta: Dict[int, int] = {}
                for p, w in net.preset(transition).items():
                    delta[p] = delta.get(p, 0) - w
                for p, w in net.postset(transition).items():
                    delta[p] = delta.get(p, 0) + w
                flows.append(tuple((p, d) for p, d in delta.items() if d))
            self._window_flows = flows
        return self._window_flows

    @property
    def succ_pos(self) -> List[int]:
        """Causal-successor masks in position space (transpose of
        :attr:`pred_pos`; the window search's convexity check)."""
        if self._succ_pos is None:
            succ = [0] * self.num_vars
            for i in range(self.num_vars):
                rest = self.pred_pos[i]
                while rest:
                    low = rest & -rest
                    succ[low.bit_length() - 1] |= 1 << i
                    rest ^= low
            self._succ_pos = succ
        return self._succ_pos

    def _remap(self, event_mask: int) -> int:
        """Project an event-index mask onto the free-position index space."""
        mask = 0
        rest = event_mask
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            pos = self.position.get(e)
            if pos is not None:
                mask |= 1 << pos
            rest ^= low
        return mask

    # -- evaluation of candidate solutions -------------------------------------

    def positions_to_events(self, pos_mask: int) -> List[int]:
        events = []
        rest = pos_mask
        while rest:
            low = rest & -rest
            events.append(self.order[low.bit_length() - 1])
            rest ^= low
        return events

    def marking_of(self, pos_mask: int) -> Marking:
        """``Mark(C)`` of the configuration given as a position mask."""
        prefix = self.prefix
        consumed = set()
        produced = list(prefix.min_conditions)
        for e in self.positions_to_events(pos_mask):
            event = prefix.events[e]
            consumed.update(event.preset)
            produced.extend(event.postset)
        counts = [0] * prefix.net.num_places
        for b in produced:
            if b not in consumed:
                counts[prefix.conditions[b].place] += 1
        return Marking(counts)

    def code_change_of(self, pos_mask: int) -> Tuple[int, ...]:
        """The signal-change vector ``v_C`` (``Code(C) - v0``)."""
        change = [0] * self.num_signals
        rest = pos_mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            signal = self.signal_of[i]
            if signal is not None:
                change[signal] += self.delta_of[i]
            rest ^= low
        return tuple(change)

    def out_of(self, marking: Marking) -> FrozenSet[str]:
        """``Out(M)`` evaluated directly on the original STG (the paper's
        treatment of the non-linear CSC separating constraint).  For STGs
        with dummies the weak (silent-closure) excitation is used."""
        return enabled_outputs(self.stg, marking, weak=True)

    def nxt_of(self, marking: Marking, code: Sequence[int], signal: str) -> int:
        return next_state_value(self.stg, marking, code, signal)

    def initial_code(self) -> Tuple[int, ...]:
        """Infer ``v0`` from the prefix: a signal whose causally earliest edge
        rises must start at 0, and vice versa (consistency, Section 2.1).

        Signals with no edge in the prefix fall back to the STG's declared
        initial value (default 0) — their absolute level is irrelevant to
        the conflict constraints anyway, as the paper notes for (2).
        """
        cached = getattr(self, "_initial_code", None)
        if cached is not None:
            return cached
        declared = self.stg.declared_initial_code
        values: List[int] = []
        for index, signal in enumerate(self.stg.signals):
            value = declared.get(signal, 0)
            best = None  # minimal local configuration = causally earliest edge
            for position in range(self.num_vars):
                if self.signal_of[position] == index:
                    event = self.order[position]
                    size = self.prefix.events[event].local_size
                    if best is None or size < best[0]:
                        best = (size, self.delta_of[position])
            if best is not None:
                value = 0 if best[1] > 0 else 1
            values.append(value)
        self._initial_code = tuple(values)
        return self._initial_code

    def trace_of(self, pos_mask: int) -> List[str]:
        """A firing sequence (transition names) executing the configuration —
        the execution path to a conflict that the paper's method provides
        without any reachability analysis."""
        from repro.unfolding.configurations import linearise
        from repro.utils.bitset import BitSet

        events = BitSet.from_iterable(self.positions_to_events(pos_mask))
        return [
            self.prefix.net.transition_name(t)
            for t in linearise(self.prefix, events)
        ]
