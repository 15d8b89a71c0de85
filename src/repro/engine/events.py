"""Structured progress/telemetry events of the verification engine.

Every stage of the engine (queueing, worker pool, portfolio arbitration,
result cache) reports what it does through an :class:`EventLog`: each event
is appended to an in-memory list (so tests and tools can assert on exact
sequences), forwarded to stdlib :mod:`logging` under the ``repro.engine``
logger (so ``repro-stg -v`` streams progress), and folded into an
:class:`EngineStats` aggregate (so batch reports can summarise a run).

When tracing is enabled (:mod:`repro.obs`), every event additionally leaves
a zero-duration ``engine.<kind>`` point span in the trace — so a JSONL
trace interleaves the engine's lifecycle markers with the spans of the
checkers they triggered — and :meth:`EngineStats.report` appends the
aggregated per-phase wall-time breakdown of the run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs

#: Event kinds emitted by the engine subsystem.
JOB_QUEUED = "job_queued"
JOB_DONE = "job_done"
JOB_FAILED = "job_failed"
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
ENGINE_WON = "engine_won"
LINT_PASS = "lint_pass"
LINT_DECIDED = "lint_decided"
TASK_STARTED = "task_started"
TASK_TIMEOUT = "task_timeout"
TASK_RETRY = "task_retry"
TASK_CRASHED = "task_crashed"
TASK_CANCELLED = "task_cancelled"
POOL_DEGRADED = "pool_degraded"

EVENT_KINDS = frozenset(
    {
        JOB_QUEUED,
        JOB_DONE,
        JOB_FAILED,
        CACHE_HIT,
        CACHE_MISS,
        ENGINE_WON,
        LINT_PASS,
        LINT_DECIDED,
        TASK_STARTED,
        TASK_TIMEOUT,
        TASK_RETRY,
        TASK_CRASHED,
        TASK_CANCELLED,
        POOL_DEGRADED,
    }
)


@dataclass(frozen=True)
class EngineEvent:
    """One structured telemetry event."""

    kind: str
    job_id: str = ""
    engine: Optional[str] = None
    elapsed: Optional[float] = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.kind]
        if self.job_id:
            parts.append(f"job={self.job_id}")
        if self.engine:
            parts.append(f"engine={self.engine}")
        if self.elapsed is not None:
            parts.append(f"elapsed={self.elapsed:.3f}s")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


@dataclass
class EngineStats:
    """Aggregate counters over one engine run — the batch report footer."""

    jobs: int = 0
    completed: int = 0
    failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lint_passes: int = 0
    lint_decided: int = 0
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    cancelled: int = 0
    degraded: int = 0
    wins_by_engine: Dict[str, int] = field(default_factory=dict)
    #: Per-phase wall-time breakdown (seconds) folded in from a traced run;
    #: empty when tracing was off (see :meth:`record_phases`).
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def record(self, event: EngineEvent) -> None:
        if event.kind == JOB_QUEUED:
            self.jobs += 1
        elif event.kind == JOB_DONE:
            self.completed += 1
        elif event.kind == JOB_FAILED:
            self.failed += 1
        elif event.kind == CACHE_HIT:
            self.cache_hits += 1
        elif event.kind == CACHE_MISS:
            self.cache_misses += 1
        elif event.kind == LINT_PASS:
            self.lint_passes += 1
        elif event.kind == LINT_DECIDED:
            self.lint_decided += 1
        elif event.kind == TASK_TIMEOUT:
            self.timeouts += 1
        elif event.kind == TASK_CRASHED:
            self.crashes += 1
        elif event.kind == TASK_RETRY:
            self.retries += 1
        elif event.kind == TASK_CANCELLED:
            self.cancelled += 1
        elif event.kind == POOL_DEGRADED:
            self.degraded += 1
        if event.kind in (ENGINE_WON, LINT_DECIDED) and event.engine:
            self.wins_by_engine[event.engine] = (
                self.wins_by_engine.get(event.engine, 0) + 1
            )

    def record_phases(self, phases: Dict[str, float]) -> None:
        """Fold a tracer's phase-time aggregation into the stats.

        Called by the batch driver after a traced run; only phases with
        measurable time are kept so :meth:`report` stays quiet otherwise.
        """
        for phase, seconds in phases.items():
            if seconds > 0.0:
                self.phase_seconds[phase] = (
                    self.phase_seconds.get(phase, 0.0) + seconds
                )

    def report(self) -> str:
        """A one-paragraph human-readable summary."""
        wins = ", ".join(
            f"{engine}={count}"
            for engine, count in sorted(self.wins_by_engine.items())
        )
        lines = [
            f"jobs: {self.jobs} queued, {self.completed} completed, "
            f"{self.failed} failed",
            f"lint: {self.lint_passes} passes, {self.lint_decided} "
            f"statically decided",
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses",
            f"pool: {self.timeouts} timeouts, {self.crashes} crashes, "
            f"{self.retries} retries, {self.cancelled} cancelled",
        ]
        if wins:
            lines.append(f"wins: {wins}")
        if self.phase_seconds:
            breakdown = " ".join(
                f"{phase}={seconds:.3f}s"
                for phase, seconds in sorted(self.phase_seconds.items())
            )
            lines.append(f"phases: {breakdown}")
        if self.degraded:
            lines.append("pool degraded to in-process execution")
        return "\n".join(lines)


class EventLog:
    """Collects :class:`EngineEvent` objects and mirrors them to logging."""

    def __init__(self, logger: Optional[logging.Logger] = None):
        self.events: List[EngineEvent] = []
        self.stats = EngineStats()
        self._logger = logger or logging.getLogger("repro.engine")

    def emit(
        self,
        kind: str,
        job_id: str = "",
        engine: Optional[str] = None,
        elapsed: Optional[float] = None,
        detail: str = "",
    ) -> EngineEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = EngineEvent(
            kind=kind, job_id=job_id, engine=engine, elapsed=elapsed, detail=detail
        )
        self.events.append(event)
        self.stats.record(event)
        obs.event(f"engine.{kind}")
        level = (
            logging.WARNING
            if kind in (TASK_CRASHED, TASK_TIMEOUT, JOB_FAILED, POOL_DEGRADED)
            else logging.INFO
        )
        self._logger.log(level, "%s", event)
        return event

    def of_kind(self, kind: str) -> List[EngineEvent]:
        return [event for event in self.events if event.kind == kind]
