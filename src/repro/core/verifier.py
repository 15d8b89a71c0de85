"""High-level USC / CSC / normalcy verification (the paper's tool interface).

Each checker takes an STG (or a pre-built prefix), builds the finite complete
prefix if needed, runs the pair branch-and-bound of :mod:`repro.core.search`
and returns a structured report with a witness — including execution paths
to the conflicting markings, which the paper highlights as a benefit over
state-graph methods.

The CSC checker implements the paper's two-stage strategy: search for USC
conflict candidates first (the linear system), and test the non-linear
separating constraint ``Out(M') != Out(M'')`` directly on the STG for each
candidate solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro import obs
from repro.core.context import SolverContext
from repro.core.search import MODE_EQUAL, MODE_LEQ, PairSearch, SearchStats
from repro.core.window import WindowSearch
from repro.exceptions import SolverLimitError
from repro.petri.marking import Marking
from repro.stg.stg import STG
from repro.unfolding.occurrence_net import Prefix
from repro.unfolding.unfolder import UnfoldingOptions, unfold


@dataclass
class ConflictWitness:
    """A pair of configurations witnessing a coding conflict."""

    kind: str                       # "usc" or "csc"
    code_a: Tuple[int, ...]         # signal-change vectors (Code - v0)
    code_b: Tuple[int, ...]
    marking_a: Marking
    marking_b: Marking
    out_a: FrozenSet[str]
    out_b: FrozenSet[str]
    trace_a: List[str]
    trace_b: List[str]

    def describe(self) -> str:
        return (
            f"{self.kind.upper()} conflict: "
            f"Out={{{', '.join(sorted(self.out_a))}}} after "
            f"[{', '.join(self.trace_a)}] vs "
            f"Out={{{', '.join(sorted(self.out_b))}}} after "
            f"[{', '.join(self.trace_b)}]"
        )


@dataclass
class CodingReport:
    """Outcome of a USC or CSC check."""

    property_name: str              # "USC" or "CSC"
    holds: bool
    witness: Optional[ConflictWitness]
    usc_only_candidates: int        # USC conflicts rejected by the Out test
    prefix_stats: Dict[str, int]
    search_stats: SearchStats
    elapsed: float

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class SignalVerdict:
    """Per-signal outcome of the IP normalcy check."""

    signal: str
    p_normal: bool
    n_normal: bool
    p_witness: Optional[ConflictWitness] = None
    n_witness: Optional[ConflictWitness] = None

    @property
    def normal(self) -> bool:
        return self.p_normal or self.n_normal


@dataclass
class NormalcyIPReport:
    """Outcome of the IP normalcy check (paper Section 6)."""

    per_signal: Dict[str, SignalVerdict]
    prefix_stats: Dict[str, int]
    search_stats: SearchStats
    elapsed: float

    @property
    def normal(self) -> bool:
        return all(v.normal for v in self.per_signal.values())

    def violating_signals(self) -> List[str]:
        return [s for s, v in self.per_signal.items() if not v.normal]


def _prepare(
    source: Union[STG, Prefix], unfolding_options: Optional[UnfoldingOptions]
) -> SolverContext:
    prefix = source if isinstance(source, Prefix) else unfold(source, unfolding_options)
    with obs.trace("unfold.context"):
        return SolverContext(prefix)


def _flush_search_stats(stats: SearchStats) -> None:
    """Mirror one search run's counters into :mod:`repro.obs` (traced only)."""
    tracer = obs.get_tracer()
    if not tracer.enabled:
        return
    tracer.incr("search.nodes", stats.nodes)
    tracer.incr("search.leaves", stats.leaves)
    tracer.incr("search.pruned_balance", stats.pruned_balance)
    tracer.incr("search.pruned_structure", stats.pruned_structure)
    tracer.incr("search.solutions", stats.solutions)


def _facts_dcf(context: SolverContext) -> bool:
    """Does the fact engine prove dynamic conflict-freeness (Proposition 1)?

    Licenses the refinement prescreen when :func:`_should_nest`'s purely
    structural test fails.  The proof is the invariant-exclusion coverage
    of every structural conflict pair (docs/analysis.md), computed once per
    STG content hash.
    """
    from repro.analysis import analyze

    return analyze(context.stg).proves_dynamic_conflict_freeness()


def _run_refinement(context: SolverContext, nest: bool, cert_cache=None) -> bool:
    """Run the :mod:`repro.refine` LP sweep when Proposition 1 licenses it
    (structural nesting or a facts-proven DCF certificate) and return
    whether it refuted the conflict system (with a replayed dual-bound
    certificate) — refuted means no USC conflict, hence no CSC conflict.

    The FactBase is built only when the structural test fails: on
    structurally nested nets refinement never reaches the fact engine.

    ``cert_cache`` is an optional :class:`repro.engine.cache.ResultCache`
    whose refine-cert domain the prescreen replays verified dual bounds
    from (always re-checked exactly) and persists fresh ones to.
    """
    if not (nest or _facts_dcf(context)):
        return False
    from repro.refine import refine_prescreen

    with obs.trace("refine.prescreen"):
        return refine_prescreen(context, cert_store=cert_cache).refuted


def _holds(
    property_name: str,
    context: SolverContext,
    started: float,
    stats: Optional[SearchStats] = None,
) -> CodingReport:
    """The report of a check settled without any conflict candidate."""
    return CodingReport(
        property_name=property_name,
        holds=True,
        witness=None,
        usc_only_candidates=0,
        prefix_stats=context.prefix.stats(),
        search_stats=stats if stats is not None else SearchStats(),
        elapsed=time.perf_counter() - started,
    )


def _should_nest(context: SolverContext, nested: Optional[bool]) -> bool:
    """Resolve the Proposition 1 switch.

    ``None`` (auto) applies the optimisation only under the *structural*
    sufficient condition for dynamic conflict-freeness: no place of the
    original net has two consumers (e.g. marked graphs).  Passing ``True``
    asserts the caller knows the STG is dynamically conflict-free.
    """
    if nested is not None:
        return nested
    net = context.prefix.net
    return all(
        len(net.place_postset(p)) <= 1 for p in range(net.num_places)
    )


def check_usc(
    source: Union[STG, Prefix],
    first_only: bool = True,
    nested: Optional[bool] = None,
    use_window_search: bool = True,
    prescreen: Optional[str] = "kernel",
    node_budget: Optional[int] = None,
    use_refinement: bool = False,
    cert_cache=None,
    unfolding_options: Optional[UnfoldingOptions] = None,
) -> CodingReport:
    """Check the Unique State Coding property on the unfolding prefix.

    On dynamically conflict-free STGs (``nested`` True or auto-detected) the
    check runs the single-vector window search of :mod:`repro.core.window`;
    otherwise, or when ``use_window_search`` is off (the ablation switch),
    the general pair search.

    ``prescreen`` selects the sound relaxation pre-pass for the nested
    case: ``"kernel"`` (default; sub-millisecond exact linear algebra) or
    ``None``.  A conclusive prescreen skips the search entirely.

    ``node_budget`` bounds the whole check: :class:`SolverLimitError` is
    raised once the search has visited more nodes than that.

    ``use_refinement`` runs the :mod:`repro.refine` LP sweep (when dynamic
    conflict-freeness licenses it): a refuted conflict system settles the
    check with a replayable dual-bound certificate and no search at all;
    otherwise the exact search runs unchanged.  Verdicts, witnesses
    and candidate counts are byte-identical either way (pinned by
    ``tests/refine``).
    """
    started = time.perf_counter()
    context = _prepare(source, unfolding_options)
    nest = _should_nest(context, nested)
    witness = None

    if nest and prescreen is not None:
        from repro.core.prescreen import kernel_prescreen

        if prescreen != "kernel":
            raise ValueError(f"unknown prescreen {prescreen!r}")
        with obs.trace("search.prescreen"):
            verdict = kernel_prescreen(context)
        if verdict is False:
            return _holds("USC", context, started)

    if use_refinement and _run_refinement(context, nest, cert_cache):
        return _holds("USC", context, started)

    if nest and use_window_search:
        search = WindowSearch(context, node_budget=node_budget)
        with obs.trace("search.window"):
            for closure_mask, window_mask in search.solutions():
                mask_b = closure_mask
                mask_a = closure_mask & ~window_mask
                witness = _witness(
                    "usc",
                    context,
                    mask_a,
                    mask_b,
                    context.marking_of(mask_a),
                    context.marking_of(mask_b),
                )
                if first_only:
                    break
        stats = search.stats
    else:
        pairs = PairSearch(
            context, mode=MODE_EQUAL, nested_only=nest, node_budget=node_budget
        )
        with obs.trace("search.pairs"):
            for mask_a, mask_b in pairs.solutions():
                mark_a = context.marking_of(mask_a)
                mark_b = context.marking_of(mask_b)
                if mark_a == mark_b:
                    continue  # separating constraint M' != M''
                witness = _witness("usc", context, mask_a, mask_b, mark_a, mark_b)
                if first_only:
                    break
        stats = pairs.stats

    _flush_search_stats(stats)
    return CodingReport(
        property_name="USC",
        holds=witness is None,
        witness=witness,
        usc_only_candidates=0,
        prefix_stats=context.prefix.stats(),
        search_stats=stats,
        elapsed=time.perf_counter() - started,
    )


def check_csc(
    source: Union[STG, Prefix],
    first_only: bool = True,
    nested: Optional[bool] = None,
    use_window_search: bool = True,
    node_budget: Optional[int] = None,
    use_refinement: bool = False,
    cert_cache=None,
    unfolding_options: Optional[UnfoldingOptions] = None,
) -> CodingReport:
    """Check the Complete State Coding property on the unfolding prefix.

    Uses the paper's strategy: enumerate USC-conflict candidates from the
    linear system, then filter them through the non-linear separating
    constraint ``Out(M') != Out(M'')`` evaluated directly on the STG.

    On dynamically conflict-free STGs a window-search pre-pass settles the
    common cases cheaply: no window at all means USC (hence CSC) holds, and
    a window whose minimal embedding already has differing ``Out`` sets is a
    CSC witness.  Only when every window is USC-but-not-CSC in its minimal
    embedding does the checker fall back to the general pair search (other
    embeddings of the same window reach different marking pairs).

    ``node_budget`` bounds the whole check, the window pre-pass and the pair
    fallback together: the fallback only gets the nodes the pre-pass left.

    ``use_refinement`` adds the :mod:`repro.refine` LP sweep under
    the same licence as :func:`check_usc`: a refuted conflict system means
    no USC conflict, hence CSC holds with zero candidates.  Verdicts,
    witnesses and candidate counts stay byte-identical (pinned by
    ``tests/refine``).
    """
    started = time.perf_counter()
    context = _prepare(source, unfolding_options)
    nest = _should_nest(context, nested)
    witness = None
    usc_only = 0
    stats = None

    if use_refinement and _run_refinement(context, nest, cert_cache):
        return _holds("CSC", context, started)

    if nest and use_window_search:
        window_search = WindowSearch(context, node_budget=node_budget)
        saw_window = False
        with obs.trace("search.window"):
            for closure_mask, window_mask in window_search.solutions():
                saw_window = True
                mask_b = closure_mask
                mask_a = closure_mask & ~window_mask
                mark_a = context.marking_of(mask_a)
                mark_b = context.marking_of(mask_b)
                out_a = context.out_of(mark_a)
                out_b = context.out_of(mark_b)
                if out_a == out_b:
                    usc_only += 1
                    continue
                witness = _witness(
                    "csc", context, mask_a, mask_b, mark_a, mark_b, out_a, out_b
                )
                if first_only:
                    break
        stats = window_search.stats
        if witness is None and not saw_window:
            # no USC conflict at all: CSC holds, no fallback needed
            _flush_search_stats(stats)
            return _holds("CSC", context, started, stats)

    if witness is None:
        left = node_budget
        if node_budget is not None and stats is not None:
            left = node_budget - stats.nodes  # what the window pass left
        search = PairSearch(
            context, mode=MODE_EQUAL, nested_only=nest, node_budget=left
        )
        try:
            with obs.trace("search.pairs"):
                for mask_a, mask_b in search.solutions():
                    mark_a = context.marking_of(mask_a)
                    mark_b = context.marking_of(mask_b)
                    if mark_a == mark_b:
                        continue
                    out_a = context.out_of(mark_a)
                    out_b = context.out_of(mark_b)
                    if out_a == out_b:
                        usc_only += 1
                        continue  # a USC conflict that is not a CSC conflict
                    witness = _witness(
                        "csc", context, mask_a, mask_b, mark_a, mark_b, out_a, out_b
                    )
                    if first_only:
                        break
        except SolverLimitError:
            raise SolverLimitError(
                f"CSC check exceeded node budget {node_budget}"
            ) from None
        stats = search.stats if stats is None else _merge_stats(stats, search.stats)

    _flush_search_stats(stats)
    return CodingReport(
        property_name="CSC",
        holds=witness is None,
        witness=witness,
        usc_only_candidates=usc_only,
        prefix_stats=context.prefix.stats(),
        search_stats=stats,
        elapsed=time.perf_counter() - started,
    )


def _merge_stats(a: SearchStats, b: SearchStats) -> SearchStats:
    return SearchStats(
        nodes=a.nodes + b.nodes,
        leaves=a.leaves + b.leaves,
        pruned_balance=a.pruned_balance + b.pruned_balance,
        pruned_structure=a.pruned_structure + b.pruned_structure,
        solutions=a.solutions + b.solutions,
    )


def check_normalcy(
    source: Union[STG, Prefix],
    signals: Optional[List[str]] = None,
    node_budget: Optional[int] = None,
    unfolding_options: Optional[UnfoldingOptions] = None,
) -> NormalcyIPReport:
    """Check normalcy of the given (default: all non-input) signals.

    Solves the system (5) of the paper: pairs with ``Code(x') <= Code(x'')``
    are enumerated and the ``Nxt_z`` comparisons are evaluated on the final
    markings.  The direction ``R_z`` is not fixed in advance: the search
    records violations of both directions and a signal is declared abnormal
    once both have been seen (the lazy-``R_z`` refinement of Section 6).

    ``node_budget`` bounds the whole check (one pair search).
    """
    started = time.perf_counter()
    context = _prepare(source, unfolding_options)
    stg = context.stg
    targets = signals if signals is not None else list(stg.non_input_signals)
    verdicts = {
        z: SignalVerdict(signal=z, p_normal=True, n_normal=True) for z in targets
    }
    search = PairSearch(
        context, mode=MODE_LEQ, nested_only=False, node_budget=node_budget
    )
    unresolved = set(targets)
    with obs.trace("search.pairs"):
        for mask_a, mask_b in search.solutions():
            mark_a = context.marking_of(mask_a)
            mark_b = context.marking_of(mask_b)
            if mark_a == mark_b:
                continue
            change_a = context.code_change_of(mask_a)
            change_b = context.code_change_of(mask_b)
            for z in list(unresolved):
                verdict = verdicts[z]
                nxt_a = context.nxt_of(mark_a, _code(context, change_a), z)
                nxt_b = context.nxt_of(mark_b, _code(context, change_b), z)
                if nxt_a > nxt_b and verdict.p_normal:
                    verdict.p_normal = False
                    verdict.p_witness = _witness(
                        "normalcy-p", context, mask_a, mask_b, mark_a, mark_b
                    )
                elif nxt_a < nxt_b and verdict.n_normal:
                    verdict.n_normal = False
                    verdict.n_witness = _witness(
                        "normalcy-n", context, mask_a, mask_b, mark_a, mark_b
                    )
                if not verdict.p_normal and not verdict.n_normal:
                    unresolved.discard(z)
            if not unresolved:
                break  # every signal already fails both directions
    _flush_search_stats(search.stats)
    return NormalcyIPReport(
        per_signal=verdicts,
        prefix_stats=context.prefix.stats(),
        search_stats=search.stats,
        elapsed=time.perf_counter() - started,
    )


def _code(context: SolverContext, change: Tuple[int, ...]) -> Tuple[int, ...]:
    """Absolute code ``v0 + v_C`` (needs the initial code of the STG)."""
    return tuple(v + c for v, c in zip(context.initial_code(), change))


def _witness(
    kind: str,
    context: SolverContext,
    mask_a: int,
    mask_b: int,
    mark_a: Marking,
    mark_b: Marking,
    out_a: Optional[FrozenSet[str]] = None,
    out_b: Optional[FrozenSet[str]] = None,
) -> ConflictWitness:
    return ConflictWitness(
        kind=kind,
        code_a=context.code_change_of(mask_a),
        code_b=context.code_change_of(mask_b),
        marking_a=mark_a,
        marking_b=mark_b,
        out_a=out_a if out_a is not None else context.out_of(mark_a),
        out_b=out_b if out_b is not None else context.out_of(mark_b),
        trace_a=context.trace_of(mask_a),
        trace_b=context.trace_of(mask_b),
    )
