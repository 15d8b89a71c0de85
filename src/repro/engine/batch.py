"""Batch verification driver: many STGs × many properties through the pool.

This is the back-end of the ``repro-stg batch`` subcommand.  Targets are
either registered benchmark model names (``TABLE1_BENCHMARKS`` /
``CLASSIC_MODELS``) or paths to astg ``.g`` files; every target × property
pair becomes one :class:`~repro.engine.jobs.VerificationJob`, the jobs flow
through the cache + portfolio pipeline of :mod:`repro.engine.portfolio`,
and the outcome is a :class:`BatchReport` with per-job rows and the
aggregate :class:`~repro.engine.events.EngineStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.engine import events as ev
from repro.engine.cache import ResultCache
from repro.engine.jobs import JobResult, VerificationJob
from repro.engine.pool import WorkerPool
from repro.engine.portfolio import run_jobs
from repro.exceptions import ReproError
from repro.stg.stg import STG
from repro.utils.tables import format_table


@dataclass
class BatchReport:
    """Everything one batch run produced."""

    results: List[JobResult]
    stats: ev.EngineStats
    elapsed: float

    @property
    def all_sound(self) -> bool:
        return all(result.sound for result in self.results)

    @property
    def violations(self) -> List[JobResult]:
        return [r for r in self.results if r.holds is False]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.from_cache)

    @property
    def lint_decided(self) -> List[JobResult]:
        """Jobs settled by the static lint pre-filter (no pool work at all)."""
        from repro.engine.jobs import SOURCE_LINT

        return [r for r in self.results if r.source == SOURCE_LINT]


def resolve_target(target: str) -> Tuple[str, STG]:
    """A registered model name, or a path to a ``.g`` file.

    Every way a target can be bad — unknown name, unreadable file,
    undecodable bytes, unparsable astg text — raises :class:`ReproError`
    naming the target, so callers can turn it into a structured per-target
    error (see :func:`build_jobs_reporting`) instead of crashing.
    """
    from repro.models import CLASSIC_MODELS, TABLE1_BENCHMARKS

    if target in TABLE1_BENCHMARKS:
        return target, TABLE1_BENCHMARKS[target]()
    if target in CLASSIC_MODELS:
        return target, CLASSIC_MODELS[target]()
    if target.endswith(".g"):
        from repro.stg.parser import parse_stg

        try:
            with open(target, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ReproError(f"cannot read {target}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ReproError(
                f"cannot decode {target}: not UTF-8 text ({exc})"
            ) from exc
        try:
            stg = parse_stg(text, filename=target)
        except ReproError as exc:
            raise ReproError(f"cannot parse {target}: {exc}") from exc
        return stg.name, stg
    raise ReproError(
        f"unknown target {target!r}: not a registered model name and not a "
        f".g file"
    )


def build_jobs(
    targets: Sequence[str],
    properties: Sequence[str] = ("csc",),
    engines: Sequence[str] = ("ilp",),
    timeout: Optional[float] = None,
    node_budget: Optional[int] = None,
) -> List[VerificationJob]:
    """One job per target × property, all racing the same engine portfolio.

    :func:`build_jobs_reporting` without the error rows: the first target
    (or property/engine name) that cannot become a job raises
    :class:`ReproError` with that error's message.
    """
    jobs, errors = build_jobs_reporting(
        targets, properties, engines, timeout, node_budget
    )
    if errors:
        raise ReproError(errors[0].error)
    return jobs


def build_jobs_reporting(
    targets: Sequence[str],
    properties: Sequence[str] = ("csc",),
    engines: Sequence[str] = ("ilp",),
    timeout: Optional[float] = None,
    node_budget: Optional[int] = None,
) -> Tuple[List[VerificationJob], List[JobResult]]:
    """One job per target × property; bad targets become structured errors.

    A target that cannot be resolved (unreadable, undecodable or unparsable
    ``.g`` file, unknown model name) yields one ``error``-verdict
    :class:`JobResult` per requested property instead of aborting the whole
    batch; the good targets still become jobs.  The CLI prepends the error
    rows to the batch report (making it exit 2 via ``all_sound``), and the
    service maps the same failures to HTTP 400 payloads.
    """
    from repro.engine.jobs import VERDICT_ERROR

    jobs: List[VerificationJob] = []
    errors: List[JobResult] = []
    for target in targets:
        try:
            name, stg = resolve_target(target)
        except ReproError as exc:
            for prop in properties:
                errors.append(
                    JobResult(
                        job_id=f"{target}:{prop}@invalid",
                        name=target,
                        property=prop,
                        verdict=VERDICT_ERROR,
                        error=str(exc),
                    )
                )
            continue
        for prop in properties:
            try:
                jobs.append(
                    VerificationJob(
                        stg=stg,
                        property=prop,
                        engines=tuple(engines),
                        timeout=timeout,
                        node_budget=node_budget,
                        name=name,
                    )
                )
            except ReproError as exc:  # unknown property/engine names
                errors.append(
                    JobResult(
                        job_id=f"{name}:{prop}@invalid",
                        name=name,
                        property=prop,
                        verdict=VERDICT_ERROR,
                        error=str(exc),
                    )
                )
    return jobs, errors


def default_targets() -> List[str]:
    """Every registered Table 1 benchmark model, in the paper's row order."""
    from repro.models import TABLE1_BENCHMARKS

    return list(TABLE1_BENCHMARKS)


def run_batch(
    jobs: Sequence[VerificationJob],
    max_workers: Optional[int] = None,
    max_retries: int = 1,
    cache_dir: Optional[Union[str, "ResultCache"]] = None,
    events: Optional[ev.EventLog] = None,
) -> BatchReport:
    """Run ``jobs`` through a fresh pool; returns the structured report."""
    events = events or ev.EventLog()
    cache: Optional[ResultCache]
    if cache_dir is None:
        cache = None
    elif isinstance(cache_dir, ResultCache):
        cache = cache_dir
    else:
        cache = ResultCache(cache_dir)
    started = time.perf_counter()
    with WorkerPool(
        max_workers=max_workers, max_retries=max_retries, events=events
    ) as pool:
        results = run_jobs(jobs, pool, cache=cache, events=events)
    tracer = obs.get_tracer()
    if tracer.enabled:
        # per-phase wall time of the run (in-process work only: engines that
        # ran inside forked workers traced into their own process's registry)
        events.stats.record_phases(tracer.phase_times())
    return BatchReport(
        results=results,
        stats=events.stats,
        elapsed=time.perf_counter() - started,
    )


def format_batch_report(report: BatchReport) -> str:
    """The batch table plus the aggregate stats footer."""
    headers = ["job", "property", "verdict", "engine", "time[s]", "source"]
    body = []
    for result in report.results:
        body.append(
            [
                result.name,
                result.property,
                result.verdict,
                result.engine or "-",
                f"{result.elapsed:.3f}",
                result.source,
            ]
        )
    table = format_table(headers, body, title="Batch verification")
    footer = report.stats.report()
    return (
        f"{table}\n\n{footer}\n"
        f"total wall time: {report.elapsed:.3f}s"
    )
