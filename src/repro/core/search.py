"""Branch-and-bound over pairs of ``Unf``-compatible 0-1 vectors.

This is the verification algorithm of the paper's Section 4.  Instead of
handing the constraint system (2)-(3) to a general-purpose solver, the search
walks the free events of the prefix in a topological order of causality and
decides, per event ``e``, the pair ``(x'(e), x''(e))``.  The partial-order
dependencies of Theorem 1 turn into constant-time mask checks:

* ``x(e) = 1`` is allowed only if all causal predecessors of ``e`` are
  already 1 and no event in conflict with ``e`` is 1 — so every partial
  assignment is a pair of partial configurations and the compatibility
  constraints need never be generated (cf. Section 4);
* cut-off events are excluded from the variable set up front (constraint (3)
  eliminates variables, as the paper notes).

The conflict constraint (2) — ``Code(x') = Code(x'')`` — is enforced by
interval pruning: per signal the undecided suffix can change the code
difference by at most the number of its occurrences.  Normalcy (Section 6)
uses the same engine with the relaxed per-signal constraint
``Code(x') <= Code(x'')``.

For STGs free of dynamic conflicts the search can be restricted to
set-ordered pairs ``C' ⊆ C''`` (Proposition 1), which prunes one of the four
branches at every level.

Paper mapping: the enumeration implements Section 4's branch-and-bound over
the constraint system (2)-(3) of Section 3; the implicit-compatibility
branching rule is Theorem 1, the cut-off variable elimination is constraint
(3), the ``nested_only`` restriction is Proposition 1, and :data:`MODE_LEQ`
is the relaxed system (5) of Section 6 (normalcy).

Implementation: the descent is an *iterative* explicit-stack loop — one
preallocated frame per depth, no recursion, no generator chain — driven by
precomputed per-position branch tables (the legal ``(a, b)`` successor
options with the signal delta and the balance-pruning interval folded in).

Observability: the search keeps its own :class:`SearchStats` (node, leaf,
prune and solution counts — the ablation benchmarks read these directly);
the high-level checkers in :mod:`repro.core.verifier` wrap each run in a
``search.pairs`` / ``search.window`` span and mirror the stats into the
``search.*`` counters of :mod:`repro.obs`, so the per-node hot path itself
carries no instrumentation at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.context import SolverContext
from repro.exceptions import SolverLimitError

#: Constraint placed on the per-signal code difference ``Code(x')-Code(x'')``.
MODE_EQUAL = "equal"   # USC / CSC: difference must vanish
MODE_LEQ = "leq"       # normalcy: Code(x') <= Code(x'') componentwise

#: Sentinel bound for disabled interval pruning (never exceeded).
_NO_BOUND = 1 << 62


@dataclass
class SearchStats:
    """Instrumentation of one search run (used by the ablation benchmarks)."""

    nodes: int = 0
    leaves: int = 0
    pruned_balance: int = 0
    pruned_structure: int = 0
    solutions: int = 0


class PairSearch:
    """Enumerates solution pairs ``(x', x'')`` of the conflict system.

    Parameters:

    ``mode``
        :data:`MODE_EQUAL` for USC/CSC conflicts, :data:`MODE_LEQ` for
        normalcy violations.
    ``nested_only``
        Apply Proposition 1 (sound only for dynamically conflict-free STGs):
        restrict the enumeration to pairs with ``C' ⊆ C''``.
    ``use_balance_pruning`` / ``use_order_propagation``
        Ablation switches; disabling order propagation falls back to
        validating compatibility at the leaves only (the "standard solver"
        behaviour the paper improves upon).
    ``node_budget``
        Raise :class:`SolverLimitError` after this many search nodes.
    """

    def __init__(
        self,
        context: SolverContext,
        mode: str = MODE_EQUAL,
        nested_only: bool = False,
        use_balance_pruning: bool = True,
        use_order_propagation: bool = True,
        node_budget: Optional[int] = None,
    ):
        if mode not in (MODE_EQUAL, MODE_LEQ):
            raise ValueError(f"unknown mode {mode!r}")
        self.context = context
        self.mode = mode
        self.nested_only = nested_only
        self.use_balance_pruning = use_balance_pruning
        self.use_order_propagation = use_order_propagation
        self.node_budget = node_budget
        self.stats = SearchStats()
        self._build_branch_tables()

    # -- the iterative hot loop --------------------------------------------------

    def _build_branch_tables(self) -> None:
        """Per-position successor options with pruning data folded in.

        Each entry is ``(abit, bbit, sig, dd, lim_pos, lim_neg)``: the mask
        bits the option sets, the signal index and code-difference delta it
        contributes (``dd == 0`` when the vectors agree or the event is a
        dummy), and the inclusive interval ``[lim_neg, lim_pos]`` the new
        difference must stay in (the balance pruning of constraint (2),
        using the tighter one-sided bounds in nested mode).

        ``_branch_sym`` additionally drops the ``(1, 0)`` option — used while
        the pair has not differed yet in :data:`MODE_EQUAL` (the unordered
        pair is enumerated once, first difference forced to ``(0, 1)``).
        """
        context = self.context
        equal = self.mode == MODE_EQUAL
        prune = self.use_balance_pruning
        plain: List[Tuple[Tuple[int, int, int, int, int, int], ...]] = []
        sym: List[Tuple[Tuple[int, int, int, int, int, int], ...]] = []
        for index in range(context.num_vars):
            bit = 1 << index
            signal = context.signal_of[index]
            delta = context.delta_of[index]
            if signal is not None and prune:
                nxt = index + 1
                if self.nested_only:
                    lim_pos = context.suffix_plus[nxt][signal]
                    lim_neg = (
                        -context.suffix_minus[nxt][signal] if equal else -_NO_BOUND
                    )
                else:
                    count = context.suffix_count[nxt][signal]
                    lim_pos = count
                    lim_neg = -count if equal else -_NO_BOUND
            else:
                lim_pos, lim_neg = _NO_BOUND, -_NO_BOUND
            entries = []
            for a, b in ((1, 1), (0, 1), (1, 0), (0, 0)):
                if a == 1 and b == 0 and self.nested_only:
                    continue  # Proposition 1: C' ⊆ C''
                dd = delta * (a - b) if signal is not None else 0
                entries.append(
                    (
                        bit if a else 0,
                        bit if b else 0,
                        signal if signal is not None else 0,
                        dd,
                        lim_pos,
                        lim_neg,
                    )
                )
            plain.append(tuple(entries))
            sym.append(tuple(e for e in entries if not (e[0] and not e[1])))
        self._branch_plain = plain
        self._branch_sym = sym

    def solutions(self) -> Iterator[Tuple[int, int]]:
        """Yield all pairs of position masks satisfying the code constraint
        (plus compatibility and the cut-off constraints), lazily.

        The caller applies the remaining (generally non-linear) separating
        constraints — ``Mark`` inequality for USC, ``Out`` inequality for
        CSC, ``Nxt`` comparisons for normalcy — to each candidate, which is
        exactly the paper's strategy of checking those directly on the STG.
        The descent is iterative, from the empty assignment to the leaves.
        """
        context = self.context
        num_vars = context.num_vars
        depth_cap = num_vars + 1
        mode_equal = self.mode == MODE_EQUAL
        propagate = self.use_order_propagation
        budget = self.node_budget if self.node_budget is not None else _NO_BOUND
        branch_plain = self._branch_plain
        branch_sym = self._branch_sym
        pred_pos = context.pred_pos
        conf_pos = context.conf_pos

        diff = [0] * context.num_signals
        # one preallocated frame per depth (the descent advances the index by
        # exactly one, so depth identifies the position being decided)
        ones_a = [0] * depth_cap
        ones_b = [0] * depth_cap
        differed = [False] * depth_cap
        cursor = [0] * depth_cap
        options: List[Tuple[Tuple[int, int, int, int, int, int], ...]] = [
            ()
        ] * depth_cap
        can_a = [False] * depth_cap
        can_b = [False] * depth_cap
        undo_sig = [0] * depth_cap
        undo_dd = [0] * depth_cap

        nodes = leaves = pruned = found = 0
        depth = 0
        fresh = True
        try:
            while depth >= 0:
                if fresh:
                    nodes += 1
                    if nodes > budget:
                        raise SolverLimitError(
                            f"pair search exceeded node budget {self.node_budget}"
                        )
                    if depth == num_vars:
                        leaves += 1
                        oa, ob = ones_a[depth], ones_b[depth]
                        if mode_equal:
                            ok = differed[depth] and not any(diff)
                        else:
                            ok = not any(d > 0 for d in diff)
                        if ok and not propagate:
                            ok = self._structure_ok(oa, ob)
                        if ok:
                            found += 1
                            yield oa, ob
                        dd = undo_dd[depth]
                        if dd:
                            diff[undo_sig[depth]] -= dd
                        depth -= 1
                        fresh = False
                        continue
                    oa, ob = ones_a[depth], ones_b[depth]
                    if propagate:
                        pred = pred_pos[depth]
                        conf = conf_pos[depth]
                        can_a[depth] = pred & ~oa == 0 and conf & oa == 0
                        can_b[depth] = pred & ~ob == 0 and conf & ob == 0
                    else:
                        can_a[depth] = can_b[depth] = True
                    options[depth] = (
                        branch_sym[depth]
                        if mode_equal and not differed[depth]
                        else branch_plain[depth]
                    )
                    cursor[depth] = 0
                    fresh = False

                row = options[depth]
                cur = cursor[depth]
                oa, ob = ones_a[depth], ones_b[depth]
                ca, cb = can_a[depth], can_b[depth]
                pushed = False
                while cur < len(row):
                    abit, bbit, sig, dd, lim_pos, lim_neg = row[cur]
                    cur += 1
                    if abit and not ca:
                        continue
                    if bbit and not cb:
                        continue
                    child = depth + 1
                    if dd:
                        value = diff[sig] + dd
                        if value > lim_pos or value < lim_neg:
                            pruned += 1
                            continue
                        diff[sig] = value
                        undo_sig[child] = sig
                        undo_dd[child] = dd
                    else:
                        undo_dd[child] = 0
                    cursor[depth] = cur
                    ones_a[child] = oa | abit
                    ones_b[child] = ob | bbit
                    differed[child] = differed[depth] or abit != bbit
                    depth = child
                    fresh = True
                    pushed = True
                    break
                if pushed:
                    continue
                # options exhausted: undo the edge that led here and pop
                dd = undo_dd[depth]
                if dd:
                    diff[undo_sig[depth]] -= dd
                depth -= 1
        finally:
            stats = self.stats
            stats.nodes += nodes
            stats.leaves += leaves
            stats.pruned_balance += pruned
            stats.solutions += found

    # -- leaf validation (ablation path only) -------------------------------------

    def _structure_ok(self, ones_a: int, ones_b: int) -> bool:
        """Validate compatibility at a leaf when order propagation is off."""
        from repro.core.closure import is_compatible

        context = self.context
        for mask in (ones_a, ones_b):
            events = 0
            for e in context.positions_to_events(mask):
                events |= 1 << e
            if not is_compatible(context.relations, events):
                self.stats.pruned_structure += 1
                return False
        return True
