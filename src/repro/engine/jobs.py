"""Verification job specifications and structured results.

A :class:`VerificationJob` freezes everything needed to verify one property
of one STG — the STG itself, the property, the candidate engines, and the
resource limits — so a job can be pickled into a worker process, hashed into
a cache key, and replayed deterministically.  A :class:`JobResult` follows
the repo's reports-not-booleans convention: it carries the verdict *and* its
evidence (winning engine, witness description, engine statistics, timings).

The mapping from engine name to checker lives in the :data:`ENGINES`
registry; :func:`register_engine` lets extensions (and the robustness test
suite) add engines without touching this module.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro import obs
from repro.exceptions import ReproError, SolverLimitError
from repro.stg.stg import STG

#: Properties the engine subsystem can verify.
PROPERTIES = ("usc", "csc", "normalcy")

#: Sound verdicts — the property was definitely decided.
VERDICT_HOLDS = "holds"
VERDICT_VIOLATED = "violated"
#: Unsound verdicts — the engine gave up; never cached, portfolio keeps going.
VERDICT_TIMEOUT = "timeout"
VERDICT_LIMIT = "limit"
VERDICT_ERROR = "error"

SOUND_VERDICTS = frozenset({VERDICT_HOLDS, VERDICT_VIOLATED})

#: Where a result came from: a live engine run, the result cache, or the
#: static lint pre-filter (stage zero — no state space was built at all).
SOURCE_FRESH = "fresh"
SOURCE_CACHE = "cache"
SOURCE_LINT = "lint"

# Both dataclasses have a field named ``property`` (the checked property),
# which shadows the builtin inside their class bodies; alias it for decorators.
_property = property


@dataclass(frozen=True)
class VerificationJob:
    """An immutable, picklable job spec: verify ``property`` of ``stg``."""

    stg: STG = field(compare=False)
    property: str = "csc"
    engines: Tuple[str, ...] = ("ilp",)
    timeout: Optional[float] = None
    node_budget: Optional[int] = None
    #: Run the repro.refine LP sweep in the ilp engine.  Verdicts,
    #: witnesses and candidate counts are byte-identical either way, so —
    #: like the resource limits — the flag is excluded from the cache
    #: identity.
    use_refinement: bool = False
    #: Directory of a :class:`repro.engine.cache.ResultCache` whose
    #: refine-cert domain the refinement prescreen may replay verified
    #: certificates from (and persist new ones to).  Purely a perf hint —
    #: cached material is always re-verified — so it is excluded from the
    #: cache identity too.  Empty/None disables the store.
    cert_cache_dir: Optional[str] = None
    name: str = ""
    stg_hash: str = ""

    def __post_init__(self):
        if self.property not in PROPERTIES:
            raise ReproError(
                f"unknown property {self.property!r}; expected one of "
                f"{', '.join(PROPERTIES)}"
            )
        if not self.engines:
            raise ReproError("a job needs at least one engine")
        for engine in self.engines:
            if engine not in ENGINES:
                raise ReproError(
                    f"unknown engine {engine!r}; registered: "
                    f"{', '.join(sorted(ENGINES))}"
                )
        object.__setattr__(self, "engines", tuple(self.engines))
        if not self.name:
            object.__setattr__(self, "name", self.stg.name)
        if not self.stg_hash:
            object.__setattr__(self, "stg_hash", self.stg.content_hash())

    @_property
    def job_id(self) -> str:
        """Stable, human-readable id: name, property and content digest."""
        return f"{self.name}:{self.property}@{self.stg_hash[:10]}"

    def cache_fields(self) -> Tuple[str, str]:
        """The verdict-relevant identity: (content hash, property).

        Engine choice and resource limits are excluded on purpose — a sound
        verdict does not depend on which engine produced it or how much
        budget it was given, and unsound results are never cached.
        """
        return (self.stg_hash, self.property)


@dataclass
class JobResult:
    """Outcome of one job — verdict plus evidence."""

    job_id: str
    name: str
    property: str
    verdict: str
    engine: Optional[str] = None
    holds: Optional[bool] = None
    elapsed: float = 0.0
    from_cache: bool = False
    #: ``fresh`` / ``cache`` / ``lint`` — how the verdict was obtained.
    source: str = SOURCE_FRESH
    attempts: int = 1
    witness: Optional[str] = None
    stats: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    #: Machine-checkable evidence for lint-decided verdicts (see
    #: :func:`repro.lint.verify_certificate`); ``None`` for engine verdicts.
    certificate: Optional[Dict[str, Any]] = None

    @_property
    def sound(self) -> bool:
        return self.verdict in SOUND_VERDICTS

    def __bool__(self) -> bool:
        return self.holds is True

    def signature(self) -> Tuple:
        """Everything except timings — equal across deterministic reruns."""
        payload = asdict(self)
        payload.pop("elapsed")
        payload["stats"] = tuple(sorted(payload["stats"].items()))
        return tuple(sorted(payload.items()))


#: Engine registry: name -> callable(job) -> (holds, witness, stats).
EngineFn = Callable[[VerificationJob], Tuple[bool, Optional[str], Dict[str, Any]]]
ENGINES: Dict[str, EngineFn] = {}


def register_engine(name: str, fn: EngineFn) -> None:
    """Register (or replace) a verification engine under ``name``."""
    ENGINES[name] = fn


def engine_names() -> Tuple[str, ...]:
    return tuple(sorted(ENGINES))


def execute_engine(job: VerificationJob, engine: str) -> JobResult:
    """Run one engine on one job in-process and report the outcome.

    Engine exceptions never escape: resource exhaustion becomes a ``limit``
    verdict, any other :class:`ReproError` (or unexpected exception) becomes
    an ``error`` verdict, so a portfolio can keep racing the other engines.
    """
    if engine not in ENGINES:
        raise ReproError(
            f"unknown engine {engine!r}; registered: {', '.join(engine_names())}"
        )
    started = time.perf_counter()
    try:
        with obs.trace(f"engine.{engine}"):
            holds, witness, stats = ENGINES[engine](job)
    except SolverLimitError as exc:
        return JobResult(
            job_id=job.job_id,
            name=job.name,
            property=job.property,
            verdict=VERDICT_LIMIT,
            engine=engine,
            elapsed=time.perf_counter() - started,
            error=str(exc),
        )
    except ReproError as exc:
        return JobResult(
            job_id=job.job_id,
            name=job.name,
            property=job.property,
            verdict=VERDICT_ERROR,
            engine=engine,
            elapsed=time.perf_counter() - started,
            error=str(exc),
        )
    except Exception as exc:  # engine bug: report, do not kill the pool
        return JobResult(
            job_id=job.job_id,
            name=job.name,
            property=job.property,
            verdict=VERDICT_ERROR,
            engine=engine,
            elapsed=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
        )
    return JobResult(
        job_id=job.job_id,
        name=job.name,
        property=job.property,
        verdict=VERDICT_HOLDS if holds else VERDICT_VIOLATED,
        engine=engine,
        holds=holds,
        elapsed=time.perf_counter() - started,
        witness=witness,
        stats=stats,
    )


def failure_result(
    job: VerificationJob,
    verdict: str,
    engine: Optional[str] = None,
    error: Optional[str] = None,
    elapsed: float = 0.0,
    attempts: int = 1,
) -> JobResult:
    """Synthesise an unsound result for pool-level failures (timeout/crash)."""
    return JobResult(
        job_id=job.job_id,
        name=job.name,
        property=job.property,
        verdict=verdict,
        engine=engine,
        elapsed=elapsed,
        attempts=attempts,
        error=error,
    )


# -- built-in engines ---------------------------------------------------------


def _unsupported(engine: str, job: VerificationJob) -> ReproError:
    return ReproError(
        f"engine {engine!r} does not support property {job.property!r}"
    )


def _run_ilp(job: VerificationJob):
    """The paper's method: unfolding + integer programming."""
    from repro.core import check_csc, check_normalcy, check_usc

    if job.property == "normalcy":
        report = check_normalcy(job.stg, node_budget=job.node_budget)
        violating = report.violating_signals()
        witness = (
            f"abnormal signals: {', '.join(violating)}" if violating else None
        )
        return (
            report.normal,
            witness,
            {
                "prefix": dict(report.prefix_stats),
                "search_nodes": report.search_stats.nodes,
            },
        )
    check = check_usc if job.property == "usc" else check_csc
    cert_cache = None
    if job.use_refinement and job.cert_cache_dir:
        # built worker-side: ResultCache holds no file handles, so a fresh
        # instance per process is cheap and fork-safe
        from repro.engine.cache import ResultCache

        cert_cache = ResultCache(job.cert_cache_dir)
    report = check(
        job.stg,
        node_budget=job.node_budget,
        use_refinement=job.use_refinement,
        cert_cache=cert_cache,
    )
    return (
        report.holds,
        report.witness.describe() if report.witness is not None else None,
        {
            "prefix": dict(report.prefix_stats),
            "search_nodes": report.search_stats.nodes,
            "usc_only_candidates": report.usc_only_candidates,
        },
    )


def _run_sat(job: VerificationJob):
    """The SAT back-end (CDCL over the CNF conflict encoding)."""
    from repro.sat import check_csc_sat, check_usc_sat

    if job.property == "normalcy":
        raise _unsupported("sat", job)
    check = check_usc_sat if job.property == "usc" else check_csc_sat
    report = check(job.stg)
    witness = None
    if report.witness_traces is not None:
        trace_a, trace_b = report.witness_traces
        witness = (
            f"{job.property.upper()} conflict: "
            f"[{', '.join(trace_a)}] vs [{', '.join(trace_b)}]"
        )
    return (
        report.holds,
        witness,
        {
            "vars": report.num_vars,
            "clauses": report.num_clauses,
            "sat_conflicts": report.sat_conflicts,
            "candidates_blocked": report.candidates_blocked,
        },
    )


def _run_bdd(job: VerificationJob):
    """The symbolic (Petrify-style) state-graph baseline."""
    from repro.symbolic import symbolic_check

    if job.property == "normalcy":
        raise _unsupported("bdd", job)
    report = symbolic_check(job.stg, job.property)
    witness = None
    if report.witness is not None:
        code_a, code_b = report.witness
        witness = f"conflicting codes: {code_a} vs {code_b}"
    return (
        report.holds,
        witness,
        {
            "states": report.num_states,
            "conflict_pairs": report.num_conflict_pairs,
            "bdd_nodes": report.bdd_nodes,
        },
    )


def _run_sg(job: VerificationJob):
    """The explicit state graph — the ground-truth oracle."""
    from repro.stg.normalcy import check_normalcy_state_graph
    from repro.stg.stategraph import build_state_graph

    if job.property == "normalcy":
        report = check_normalcy_state_graph(job.stg)
        violating = report.violating_signals()
        witness = (
            f"abnormal signals: {', '.join(violating)}" if violating else None
        )
        return report.normal, witness, {}
    graph = build_state_graph(job.stg)
    conflicts = (
        graph.usc_conflicts(first_only=True)
        if job.property == "usc"
        else graph.csc_conflicts(first_only=True)
    )
    witness = conflicts[0].describe(job.stg) if conflicts else None
    return (
        not conflicts,
        witness,
        {"states": graph.num_states, "arcs": graph.num_arcs},
    )


register_engine("ilp", _run_ilp)
register_engine("sat", _run_sat)
register_engine("bdd", _run_bdd)
register_engine("sg", _run_sg)
