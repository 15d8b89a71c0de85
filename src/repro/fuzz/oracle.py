"""The fuzzer's oracles: differential, configuration-axis and metamorphic.

A case first passes through three *guards* — boundedness (a capped
reachability probe), safety and consistency — because the verification
engines only promise answers on bounded, safe, consistent STGs.  A guard
rejecting a case is not a failure; a guard *crashing* (anything other than a
:class:`~repro.exceptions.ReproError` subclass escaping) is.

Checkable cases then run:

* **differential**: every configured engine against the explicit state
  graph ground truth, per property — sound verdicts must agree;
* **config axes**: the ilp engine re-run with ``use_refinement`` and the
  result cache toggled, asserting the determinism contracts pinned by the
  engine docs (byte-identical verdicts and witnesses);
* **lint**: the engine's stage zero (:func:`repro.lint.decide`) against
  the full ``run_lint`` report's decisions, against the ground truth, and
  through an independent certificate replay;
* **metamorphic**: verdict invariance under element reordering and signal
  renaming, canonical-hash stability, write/parse round-trips, and witness
  replay through the net's firing rule.

Every failed expectation becomes a :class:`Divergence` with a *signature*
that is stable across cases triggering the same underlying bug — the corpus
dedup key.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.core.verifier import CodingReport, check_csc, check_usc
from repro.engine.cache import ResultCache
from repro.engine.jobs import ENGINES, VerificationJob, execute_engine
from repro.exceptions import (
    InconsistentSTGError,
    ParseError,
    ReproError,
    UnboundedNetError,
)
from repro.fuzz.generate import FuzzCase, derive_rng, renamed_copy, shuffled_copy
from repro.lint import Decision, decide, run_lint, verify_certificate
from repro.petri.reachability import explore
from repro.stg.hashing import canonical_stg_hash
from repro.stg.nextstate import enabled_outputs
from repro.stg.parser import parse_stg, round_trippable, write_stg
from repro.stg.stategraph import StateGraph, build_state_graph
from repro.stg.stg import STG
from repro.unfolding.unfolder import UnfoldingOptions

#: Guard-rejection reasons (the ``skipped`` breakdown of a campaign).
SKIP_UNBOUNDED = "unbounded"
SKIP_UNSAFE = "unsafe"
SKIP_INCONSISTENT = "inconsistent"
SKIP_TOO_LARGE = "too-large"


@dataclass(frozen=True)
class OracleConfig:
    """Bounds and sampling rates for one campaign.

    The expensive axes are sampled by case index rather than run on every
    case: the refine axis solves LPs, the cache axis writes to disk.
    Sampling by index keeps the schedule deterministic — case ``s7-c64``
    runs the same oracles in every campaign that reaches it.
    """

    engines: Tuple[str, ...] = ("ilp", "sat", "bdd")
    properties: Tuple[str, ...] = ("usc", "csc")
    #: Reachability guard: cases beyond this many states are skipped.
    max_states: int = 4096
    #: Search/unfolding budgets for the ilp engine (hitting them yields an
    #: undecided outcome, not a divergence).
    node_budget: int = 200_000
    max_events: int = 5_000
    refine_every: int = 8
    cache_every: int = 8
    #: Parser robustness probes per case (0 disables the parser oracle).
    parser_probes: int = 4


@dataclass(frozen=True)
class Divergence:
    """One broken expectation, with a dedup signature stable across cases."""

    case_id: str
    oracle: str      # "differential" | "lint" | "axis" | "metamorphic" | "crash"
    subject: str     # e.g. "sat-vs-sg:csc", "refine:usc", "roundtrip"
    detail: str      # case-specific explanation
    signature: str   # (oracle, subject, coarse cause) — the corpus dedup key

    def describe(self) -> str:
        return f"[{self.case_id}] {self.oracle}/{self.subject}: {self.detail}"


@dataclass
class CaseOutcome:
    """Everything one case produced: guard verdict, oracle runs, divergences."""

    case_id: str
    checkable: bool = False
    skip_reason: Optional[str] = None
    oracle_runs: int = 0
    divergences: List[Divergence] = field(default_factory=list)


def _signature(oracle: str, subject: str, cause: str) -> str:
    return f"{oracle}:{subject}:{cause}"


def _crash(case_id: str, subject: str, exc: BaseException) -> Divergence:
    return Divergence(
        case_id=case_id,
        oracle="crash",
        subject=subject,
        detail=f"{type(exc).__name__}: {exc}",
        signature=_signature("crash", subject, type(exc).__name__),
    )


def _mismatch(case_id: str, oracle: str, subject: str, detail: str) -> Divergence:
    return Divergence(
        case_id=case_id,
        oracle=oracle,
        subject=subject,
        detail=detail,
        signature=_signature(oracle, subject, "mismatch"),
    )


# -- engine plumbing ----------------------------------------------------------


def _run_engine(
    case_id: str,
    engine: str,
    job: VerificationJob,
    divergences: List[Divergence],
) -> Optional[bool]:
    """One engine verdict, or ``None`` when undecided or crashed.

    Unlike :func:`repro.engine.jobs.execute_engine` this does *not* swallow
    unexpected exception types — seeing them is the whole point here.
    """
    try:
        holds, _witness, _stats = ENGINES[engine](job)
    except ReproError:
        return None  # engines may refuse inputs (budget, unsupported shape)
    except Exception as exc:
        divergences.append(_crash(case_id, f"engine.{engine}", exc))
        return None
    return holds


def _ilp_report(
    stg: STG,
    prop: str,
    config: OracleConfig,
    use_refinement: bool = False,
) -> CodingReport:
    check = check_usc if prop == "usc" else check_csc
    return check(
        stg,
        node_budget=config.node_budget,
        use_refinement=use_refinement,
        unfolding_options=UnfoldingOptions(max_events=config.max_events),
    )


def _report_fingerprint(report: CodingReport) -> Tuple[Any, ...]:
    """The byte-comparable part of a report (the determinism contract)."""
    witness = report.witness.describe() if report.witness is not None else None
    return (report.holds, witness, report.usc_only_candidates)


# -- the oracle pipeline ------------------------------------------------------


def run_oracles(case: FuzzCase, config: Optional[OracleConfig] = None) -> CaseOutcome:
    """Run every applicable oracle on one case."""
    config = config or OracleConfig()
    outcome = CaseOutcome(case_id=case.case_id)
    obs.incr("fuzz.cases")

    with obs.trace("fuzz.case"):
        # parser robustness runs even on cases the guards will reject —
        # malformed nets are exactly what a parser must survive
        if config.parser_probes:
            _parser_oracle(case, config, outcome)

        graph = _guards(case, config, outcome)
        if graph is None:
            obs.incr("fuzz.skipped")
            return outcome
        outcome.checkable = True
        obs.incr("fuzz.checkable")

        truth = {"usc": graph.has_usc(), "csc": graph.has_csc()}
        _differential_oracle(case, config, outcome, truth)
        if config.properties:
            _lint_oracle(case, outcome, truth)
        _axis_oracles(case, config, outcome)
        _metamorphic_oracles(case, config, outcome, graph, truth)

    obs.incr("fuzz.oracle_runs", outcome.oracle_runs)
    if outcome.divergences:
        obs.incr("fuzz.divergences", len(outcome.divergences))
    return outcome


def _guards(
    case: FuzzCase, config: OracleConfig, outcome: CaseOutcome
) -> Optional[StateGraph]:
    """Boundedness, safety, consistency.  Returns the annotated state graph
    of checkable cases, ``None`` (with ``skip_reason`` set) otherwise."""
    stg = case.stg
    try:
        reach = explore(
            stg.net, max_states=config.max_states, max_tokens_per_place=8
        )
    except UnboundedNetError:
        outcome.skip_reason = SKIP_UNBOUNDED
        return None
    except ReproError:
        outcome.skip_reason = SKIP_TOO_LARGE
        return None
    except Exception as exc:
        outcome.divergences.append(_crash(case.case_id, "guard.explore", exc))
        outcome.skip_reason = SKIP_TOO_LARGE
        return None
    if any(marking.max_count() > 1 for marking in reach.markings):
        outcome.skip_reason = SKIP_UNSAFE
        return None
    try:
        return build_state_graph(stg, max_states=config.max_states)
    except InconsistentSTGError:
        outcome.skip_reason = SKIP_INCONSISTENT
        return None
    except ReproError:
        outcome.skip_reason = SKIP_TOO_LARGE
        return None
    except Exception as exc:
        outcome.divergences.append(_crash(case.case_id, "guard.stategraph", exc))
        outcome.skip_reason = SKIP_TOO_LARGE
        return None


def _differential_oracle(
    case: FuzzCase,
    config: OracleConfig,
    outcome: CaseOutcome,
    truth: Dict[str, bool],
) -> None:
    """Every engine against the state-graph ground truth, per property."""
    for prop in config.properties:
        for engine in config.engines:
            if engine == "sg":
                continue  # sg *is* the truth
            job = VerificationJob(
                stg=case.stg,
                property=prop,
                engines=(engine,),
                node_budget=config.node_budget,
            )
            outcome.oracle_runs += 1
            verdict = _run_engine(case.case_id, engine, job, outcome.divergences)
            if verdict is not None and verdict != truth[prop]:
                outcome.divergences.append(
                    _mismatch(
                        case.case_id,
                        "differential",
                        f"{engine}-vs-sg:{prop}",
                        f"{engine} says {prop} "
                        f"{'holds' if verdict else 'violated'}, "
                        f"state graph says "
                        f"{'holds' if truth[prop] else 'violated'}",
                    )
                )


def _decision_fingerprint(
    decisions: Dict[str, Decision]
) -> Dict[str, Tuple[bool, str, Any]]:
    return {
        prop: (d.holds, d.diagnostic.rule_id, d.diagnostic.certificate)
        for prop, d in decisions.items()
    }


def _lint_oracle(
    case: FuzzCase, outcome: CaseOutcome, truth: Dict[str, bool]
) -> None:
    """Stage zero three ways: ``decide`` must equal the full report's
    decisions, agree with the ground truth, and replay its certificates."""
    outcome.oracle_runs += 1
    try:
        decisions = decide(case.stg)
        full = run_lint(case.stg).decisions()
    except Exception as exc:
        outcome.divergences.append(_crash(case.case_id, "lint", exc))
        return
    if _decision_fingerprint(decisions) != _decision_fingerprint(full):
        outcome.divergences.append(
            _mismatch(
                case.case_id,
                "lint",
                "decide-vs-run_lint",
                f"decide settles {sorted(decisions)}, run_lint settles "
                f"{sorted(full)} (or by another rule or certificate)",
            )
        )
    for prop, decision in sorted(decisions.items()):
        rule_id = decision.diagnostic.rule_id
        if decision.holds != truth[prop]:
            outcome.divergences.append(
                _mismatch(
                    case.case_id,
                    "lint",
                    f"{rule_id}-vs-sg:{prop}",
                    f"{rule_id} says {prop} "
                    f"{'holds' if decision.holds else 'violated'}, state "
                    f"graph says {'holds' if truth[prop] else 'violated'}",
                )
            )
        certificate = decision.diagnostic.certificate
        if certificate is None or not verify_certificate(case.stg, certificate):
            outcome.divergences.append(
                _mismatch(
                    case.case_id,
                    "lint",
                    f"{rule_id}-certificate:{prop}",
                    "the attached certificate does not replay",
                )
            )


def _axis_oracles(
    case: FuzzCase, config: OracleConfig, outcome: CaseOutcome
) -> None:
    """Re-run the ilp engine with refinement and the result cache toggled;
    results must agree."""
    run_refine = config.refine_every and case.index % config.refine_every == 0
    run_cache = config.cache_every and case.index % config.cache_every == 0
    for prop in config.properties:
        if run_refine and not _refine_axis(case, prop, config, outcome):
            continue  # undecided baseline: nothing to compare against
        if run_cache:
            _cache_axis(case, prop, config, outcome)


def _refine_axis(
    case: FuzzCase, prop: str, config: OracleConfig, outcome: CaseOutcome
) -> bool:
    """The refined ilp report must equal the plain one byte for byte.

    Returns ``False`` when the plain baseline is undecided or crashed.
    """
    try:
        baseline = _ilp_report(case.stg, prop, config)
    except ReproError:
        return False
    except Exception as exc:
        outcome.divergences.append(
            _crash(case.case_id, f"axis.baseline:{prop}", exc)
        )
        return False
    outcome.oracle_runs += 1
    try:
        variant = _ilp_report(case.stg, prop, config, use_refinement=True)
    except ReproError:
        return True
    except Exception as exc:
        outcome.divergences.append(_crash(case.case_id, f"axis.refine:{prop}", exc))
        return True
    if _report_fingerprint(variant) != _report_fingerprint(baseline):
        outcome.divergences.append(
            _mismatch(
                case.case_id,
                "axis",
                f"refine:{prop}",
                f"baseline {_report_fingerprint(baseline)!r} != "
                f"refine {_report_fingerprint(variant)!r}",
            )
        )
    return True


def _cache_axis(
    case: FuzzCase, prop: str, config: OracleConfig, outcome: CaseOutcome
) -> None:
    """Cold run -> cache -> warm read must reproduce the verdict exactly."""
    job = VerificationJob(
        stg=case.stg,
        property=prop,
        engines=("ilp",),
        node_budget=config.node_budget,
    )
    outcome.oracle_runs += 1
    try:
        cold = execute_engine(job, "ilp")
    except Exception as exc:
        outcome.divergences.append(_crash(case.case_id, f"cache.cold:{prop}", exc))
        return
    if not cold.sound:
        return
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        try:
            cache = ResultCache(tmp)
            cache.put(job, cold)
            warm = cache.get(job)
        except Exception as exc:
            outcome.divergences.append(
                _crash(case.case_id, f"cache.warm:{prop}", exc)
            )
            return
    if warm is None:
        outcome.divergences.append(
            _mismatch(
                case.case_id,
                "axis",
                f"cache:{prop}",
                "sound result did not survive a cache round-trip",
            )
        )
        return
    cold_fp = (cold.verdict, cold.holds, cold.witness)
    warm_fp = (warm.verdict, warm.holds, warm.witness)
    if cold_fp != warm_fp:
        outcome.divergences.append(
            _mismatch(
                case.case_id,
                "axis",
                f"cache:{prop}",
                f"cold {cold_fp!r} != warm {warm_fp!r}",
            )
        )


def _metamorphic_oracles(
    case: FuzzCase,
    config: OracleConfig,
    outcome: CaseOutcome,
    graph: StateGraph,
    truth: Dict[str, bool],
) -> None:
    stg = case.stg
    rng = derive_rng(case.seed, case.index, "metamorphic")

    # 1. canonical hash + verdicts invariant under declaration reordering
    outcome.oracle_runs += 1
    try:
        shuffled = shuffled_copy(stg, rng)
        if canonical_stg_hash(shuffled) != canonical_stg_hash(stg):
            outcome.divergences.append(
                _mismatch(
                    case.case_id,
                    "metamorphic",
                    "reorder-hash",
                    "canonical hash changed under element reordering",
                )
            )
        else:
            sgraph = build_state_graph(shuffled, max_states=config.max_states)
            got = {"usc": sgraph.has_usc(), "csc": sgraph.has_csc()}
            if got != truth:
                outcome.divergences.append(
                    _mismatch(
                        case.case_id,
                        "metamorphic",
                        "reorder-verdict",
                        f"verdicts {truth!r} became {got!r} after reordering",
                    )
                )
    except Exception as exc:
        outcome.divergences.append(_crash(case.case_id, "metamorphic.reorder", exc))

    # 2. verdicts invariant under signal renaming
    outcome.oracle_runs += 1
    try:
        renamed, _mapping = renamed_copy(stg)
        rgraph = build_state_graph(renamed, max_states=config.max_states)
        got = {"usc": rgraph.has_usc(), "csc": rgraph.has_csc()}
        if got != truth:
            outcome.divergences.append(
                _mismatch(
                    case.case_id,
                    "metamorphic",
                    "rename-verdict",
                    f"verdicts {truth!r} became {got!r} after signal renaming",
                )
            )
    except Exception as exc:
        outcome.divergences.append(_crash(case.case_id, "metamorphic.rename", exc))

    # 3. write/parse round-trip preserves the canonical form.  Guarded by
    # the dialect's expressibility limits (weights, arc-less places, names
    # that re-classify) — see :func:`repro.stg.parser.round_trippable`.
    if round_trippable(stg):
        outcome.oracle_runs += 1
        try:
            reparsed = parse_stg(write_stg(stg))
            if canonical_stg_hash(reparsed) != canonical_stg_hash(stg):
                outcome.divergences.append(
                    _mismatch(
                        case.case_id,
                        "metamorphic",
                        "roundtrip",
                        "canonical hash changed across write_stg/parse_stg",
                    )
                )
        except ParseError as exc:
            outcome.divergences.append(
                Divergence(
                    case_id=case.case_id,
                    oracle="metamorphic",
                    subject="roundtrip",
                    detail=f"write_stg produced unparseable text: {exc}",
                    signature=_signature("metamorphic", "roundtrip", "unparseable"),
                )
            )
        except Exception as exc:
            outcome.divergences.append(
                _crash(case.case_id, "metamorphic.roundtrip", exc)
            )

    # 4. witness replay: the ground-truth conflict must replay through the
    # net's firing rule to equal-code markings with the reported Out sets
    outcome.oracle_runs += 1
    try:
        _replay_oracle(case, outcome, graph)
    except Exception as exc:
        outcome.divergences.append(_crash(case.case_id, "metamorphic.replay", exc))


def _replay_oracle(case: FuzzCase, outcome: CaseOutcome, graph: StateGraph) -> None:
    conflicts = graph.usc_conflicts(first_only=True)
    if not conflicts:
        return
    conflict = conflicts[0]
    stg = case.stg
    net = stg.net
    for state, expected_marking, expected_out in (
        (conflict.state_a, conflict.marking_a, conflict.out_a),
        (conflict.state_b, conflict.marking_b, conflict.out_b),
    ):
        marking = net.initial_marking
        for name in graph.trace_to(state):
            marking = net.fire_by_name(marking, name)
        if marking != expected_marking:
            outcome.divergences.append(
                _mismatch(
                    case.case_id,
                    "metamorphic",
                    "replay-marking",
                    f"replaying the trace to state {state} reached "
                    f"{marking!r}, witness says {expected_marking!r}",
                )
            )
            return
        out = enabled_outputs(stg, marking, weak=True)
        if out != expected_out:
            outcome.divergences.append(
                _mismatch(
                    case.case_id,
                    "metamorphic",
                    "replay-out",
                    f"Out at state {state} is {sorted(out)!r}, "
                    f"witness says {sorted(expected_out)!r}",
                )
            )
            return
    if graph.code(conflict.state_a) != graph.code(conflict.state_b):
        outcome.divergences.append(
            _mismatch(
                case.case_id,
                "metamorphic",
                "replay-code",
                "witnessed conflict states do not share a code",
            )
        )


def _parser_oracle(
    case: FuzzCase, config: OracleConfig, outcome: CaseOutcome
) -> None:
    """Feed mutated ``.g`` text to the parser: only ParseError may escape."""
    try:
        text = write_stg(case.stg)
    except Exception as exc:
        outcome.divergences.append(_crash(case.case_id, "parser.write", exc))
        return
    rng = derive_rng(case.seed, case.index, "parser")
    for probe in range(config.parser_probes):
        mutated = _mutate_text(text, rng)
        outcome.oracle_runs += 1
        try:
            parse_stg(mutated)
        except ParseError:
            continue  # rejecting garbage is the contract
        except Exception as exc:
            outcome.divergences.append(_crash(case.case_id, "parser.parse", exc))


_GARBAGE = (
    ".marking { <q,r> }",
    ".initial zz=1",
    ".graph",
    "p0 p1",
    "a+ b+ <",
    ".places x=-1",
    "\x00\x01",
    ".marking { p= }",
)


def _mutate_text(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    op = rng.randrange(5)
    if op == 0 and len(lines) > 1:  # delete a line
        del lines[rng.randrange(len(lines))]
    elif op == 1:  # duplicate a line
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
    elif op == 2 and len(lines) > 1:  # swap two lines
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:  # insert garbage
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_GARBAGE))
    else:  # truncate
        lines = lines[: rng.randrange(1, len(lines) + 1)]
    return "\n".join(lines) + "\n"
