"""Single-vector *window* search for dynamically conflict-free STGs.

Combining Proposition 1 with the marking equation collapses the pair search
to a search over single event sets:

* by Proposition 1 it suffices to look at nested pairs ``C' ⊂ C''``;
* the difference window ``D = C'' \\ C'`` determines both remaining
  constraints: the codes agree iff the signal-change vector of ``D``
  vanishes, and — by the marking equation on the original net —
  ``Mark(C'') - Mark(C') = I · parikh(D)`` depends on ``D`` alone;
* conversely any pairwise conflict-free and *convex* ``D`` embeds into a
  valid pair: take ``C'' = MCC(D)`` (which exists by Theorem 2) and
  ``C' = C'' \\ D``.  Convexity — no event of ``MCC(D) \\ D`` lies causally
  above an event of ``D`` — is exactly what makes ``C'`` downward closed,
  and every real difference window ``C'' \\ C'`` has it.

Hence a USC conflict exists iff some non-empty, conflict-free, convex event
set ``D`` has a zero signal-change vector and a non-zero original-net marking
delta.  The search below enumerates such windows with the same interval
pruning as the pair search, over a single 0-1 vector — exponentially fewer
nodes on the conflict-free benchmarks, where the pair search must enumerate
every configuration pair.  Because the branching order is topological,
convexity reduces to one incremental mask check per inclusion: none of the
new event's causal predecessors may be an excluded successor of the window.

Like :class:`repro.core.search.PairSearch`, the descent is an iterative
explicit-stack loop (one preallocated frame per depth, a small stage machine
for the include/exclude branches).
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator, List, Optional, Tuple

from repro.core.context import SolverContext
from repro.core.search import SearchStats
from repro.exceptions import SolverLimitError
from repro.obs import get_tracer

_NO_BOUND = 1 << 62

#: Frame stages of the iterative descent.
_FRESH = 0          # node not expanded yet
_TRY_EXCLUDE = 1    # include branch done (skipped or pruned), exclude next
_IN_INCLUDE = 2     # include child running; undo its deltas on return
_IN_EXCLUDE = 3     # exclude child running; pop on return


class WindowSearch:
    """Enumerate balanced, marking-changing, conflict-free windows.

    Yields pairs ``(closure_mask, window_mask)`` in position-mask space:
    ``closure_mask`` is ``C'' = MCC(D)`` and ``window_mask`` is ``D``; the
    corresponding ``C'`` is ``closure_mask & ~window_mask``.

    Only sound for dynamically conflict-free STGs (Proposition 1).
    """

    def __init__(
        self,
        context: SolverContext,
        require_marking_change: bool = True,
        node_budget: Optional[int] = None,
    ):
        self.context = context
        self.require_marking_change = require_marking_change
        self.node_budget = node_budget
        self.stats = SearchStats()
        self.flows: List[Tuple[Tuple[int, int], ...]] = context.window_flows
        self.succ_pos: List[int] = context.succ_pos
        # balance interval per position, for its own signal: the undecided
        # suffix can only raise the difference via s- events (exclusion side
        # of a nested pair) and lower it via s+ events
        self._lim_pos: List[int] = [_NO_BOUND] * context.num_vars
        self._lim_neg: List[int] = [-_NO_BOUND] * context.num_vars
        for index in range(context.num_vars):
            signal = context.signal_of[index]
            if signal is not None:
                self._lim_pos[index] = context.suffix_minus[index + 1][signal]
                self._lim_neg[index] = -context.suffix_plus[index + 1][signal]

    # -- the iterative hot loop --------------------------------------------------

    def solutions(self) -> Iterator[Tuple[int, int]]:
        context = self.context
        num_vars = context.num_vars
        depth_cap = num_vars + 1
        budget = self.node_budget if self.node_budget is not None else _NO_BOUND
        require_change = self.require_marking_change
        pred_pos = context.pred_pos
        conf_pos = context.conf_pos
        signal_of = context.signal_of
        delta_of = context.delta_of
        flows = self.flows
        succ_pos = self.succ_pos
        lim_pos = self._lim_pos
        lim_neg = self._lim_neg

        diff = [0] * context.num_signals
        place_delta = [0] * context.num_places
        # one preallocated frame per depth; the descent decides one position
        # per level, so depth is also the position being decided
        chosen = [0] * depth_cap
        succ = [0] * depth_cap
        nonzero = [0] * depth_cap
        stage = [_FRESH] * depth_cap

        nodes = leaves = pruned = found = 0
        depth = 0
        try:
            while depth >= 0:
                st = stage[depth]
                if st == _FRESH:
                    nodes += 1
                    if nodes > budget:
                        raise SolverLimitError(
                            f"window search exceeded node budget "
                            f"{self.node_budget}"
                        )
                    if depth == num_vars:
                        leaves += 1
                        window = chosen[depth]
                        if (
                            window != 0
                            and not any(diff)
                            and (nonzero[depth] != 0 or not require_change)
                        ):
                            found += 1
                            yield self._closure(window), window
                        depth -= 1
                        continue
                    # include the event: must be conflict-free with the
                    # window and must not create a gap (a causal predecessor
                    # outside the window that is itself above a window event
                    # would break convexity)
                    window = chosen[depth]
                    stage[depth] = _TRY_EXCLUDE
                    if (
                        conf_pos[depth] & window == 0
                        and pred_pos[depth] & succ[depth] & ~window == 0
                    ):
                        signal = signal_of[depth]
                        if signal is not None:
                            value = diff[signal] + delta_of[depth]
                            if value > lim_pos[depth] or value < lim_neg[depth]:
                                pruned += 1
                                continue
                            diff[signal] = value
                        nz = nonzero[depth]
                        for place, d in flows[depth]:
                            before = place_delta[place]
                            after = before + d
                            place_delta[place] = after
                            if after == 0:
                                nz -= 1
                            elif before == 0:
                                nz += 1
                        stage[depth] = _IN_INCLUDE
                        child = depth + 1
                        chosen[child] = window | (1 << depth)
                        succ[child] = succ[depth] | succ_pos[depth]
                        nonzero[child] = nz
                        stage[child] = _FRESH
                        depth = child
                    continue
                if st == _IN_INCLUDE:
                    # include child finished: undo its contributions
                    signal = signal_of[depth]
                    if signal is not None:
                        diff[signal] -= delta_of[depth]
                    for place, d in flows[depth]:
                        place_delta[place] -= d
                    st = _TRY_EXCLUDE
                if st == _TRY_EXCLUDE:
                    stage[depth] = _IN_EXCLUDE
                    signal = signal_of[depth]
                    if signal is not None:
                        value = diff[signal]
                        if value > lim_pos[depth] or value < lim_neg[depth]:
                            pruned += 1
                            depth -= 1
                            continue
                    child = depth + 1
                    chosen[child] = chosen[depth]
                    succ[child] = succ[depth]
                    nonzero[child] = nonzero[depth]
                    stage[child] = _FRESH
                    depth = child
                    continue
                # _IN_EXCLUDE: both branches done
                depth -= 1
        finally:
            stats = self.stats
            stats.nodes += nodes
            stats.leaves += leaves
            stats.pruned_balance += pruned
            stats.solutions += found

    def _closure(self, chosen: int) -> int:
        # MCC(D) in position space (Definition 1; existence by Theorem 2
        # since windows are conflict-free by construction)
        tracer = get_tracer()
        started = perf_counter() if tracer.enabled else 0.0
        closure = chosen
        rest = chosen
        while rest:
            low = rest & -rest
            closure |= self.context.pred_pos[low.bit_length() - 1]
            rest ^= low
        if tracer.enabled:
            tracer.add_time("closure.window", perf_counter() - started)
            tracer.incr("closure.mcc_calls")
            tracer.incr("closure.mcc_hits")
        return closure
