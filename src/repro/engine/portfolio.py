"""Portfolio racing: run several engines per job, first sound verdict wins.

The four back-ends (``ilp``, ``sat``, ``bdd``, ``sg``) are deliberately
independent implementations with very different performance profiles — the
paper's IP method is near-instant on conflict-carrying STGs but works for
its living on conflict-free ones, while the state-graph baselines behave the
other way around.  Racing them and cancelling the losers turns that spread
into a win: each job costs roughly the *minimum* over the portfolio instead
of a fixed engine's worst case.

Before any engine runs, every uncached job goes through the static lint
stage (:func:`repro.lint.decide`): it costs no state-space construction
and runs only the lint rules that can settle a verdict — the error gate,
the certifying pre-filter tier and, after a certificate fired, the
consistency-risk gate.  When a certificate decides the job's property the
verdict is returned immediately — with the machine-checkable certificate
attached — and the pool never sees the job.  Advisory diagnostics are left
to ``repro-stg lint``.  (The cache is consulted first: a disk read is
cheaper still than linting.)

:func:`run_jobs` is also the plain driver for single-engine jobs (a
portfolio of one); every job flows cache → lint → pool → arbitration →
result, and each step is reported through the
:class:`~repro.engine.events.EventLog`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.engine import events as ev
from repro.engine.cache import ResultCache
from repro.engine.jobs import (
    JobResult,
    SOURCE_LINT,
    VERDICT_ERROR,
    VERDICT_HOLDS,
    VERDICT_TIMEOUT,
    VERDICT_VIOLATED,
    VerificationJob,
    execute_engine,
    failure_result,
)
from repro.engine.pool import (
    STATUS_CRASHED,
    STATUS_OK,
    STATUS_TIMEOUT,
    Task,
    TaskOutcome,
    WorkerPool,
    register_runner,
)


def _run_verification_task(payload) -> JobResult:
    """Pool runner: one (job, engine) pair, executed inside a worker."""
    job, engine = payload
    return execute_engine(job, engine)


register_runner("verification", _run_verification_task)


def run_jobs(
    jobs: Sequence[VerificationJob],
    pool: WorkerPool,
    cache: Optional[ResultCache] = None,
    events: Optional[ev.EventLog] = None,
    lint: bool = True,
) -> List[JobResult]:
    """Run every job through cache + lint + portfolio racing; results in
    job order.

    Cache hits return immediately (re-badged ``source="cache"``).  Every
    uncached job then passes the static lint stage (once per distinct STG,
    shared across its properties); a certifying pre-filter decision
    short-circuits the job entirely.  Otherwise the engines in
    ``job.engines`` race in the pool; the first *sound* verdict
    (holds/violated) wins, the remaining engine tasks are cancelled, and the
    result is cached.  Unsound outcomes (timeout, budget exhaustion, engine
    error, worker crash) only fail the job once every engine of its
    portfolio has failed.  ``lint=False`` disables stage zero.
    """
    events = events or pool.events
    if cache is not None:
        # point refinement jobs at the result cache's refine-cert domain so
        # their dual certificates persist across runs; callers that already
        # set an explicit store keep theirs
        jobs = [
            replace(job, cert_cache_dir=str(cache.root))
            if job.use_refinement and not job.cert_cache_dir
            else job
            for job in jobs
        ]
    results: Dict[int, JobResult] = {}
    failures: Dict[int, List[JobResult]] = {}
    lint_decisions: Dict[str, Optional[tuple]] = {}

    for index, job in enumerate(jobs):
        events.emit(ev.JOB_QUEUED, job_id=job.job_id)
        if cache is not None:
            hit = cache.get(job)
            if hit is not None:
                results[index] = hit
                events.emit(
                    ev.CACHE_HIT, job_id=job.job_id, engine=hit.engine
                )
                continue
            events.emit(ev.CACHE_MISS, job_id=job.job_id)
        if lint:
            settled = _lint_stage(job, events, lint_decisions)
            if settled is not None:
                results[index] = settled
                continue
        failures[index] = []
        for engine in job.engines:
            pool.submit(
                Task(
                    task_id=f"{index}:{engine}",
                    group=str(index),
                    runner="verification",
                    payload=(job, engine),
                    timeout=job.timeout,
                )
            )

    for outcome in pool.outcomes():
        index = int(outcome.group)
        if index in results:
            continue  # stale outcome of an already-settled job
        job = jobs[index]
        result = _result_of(job, outcome)
        if result.sound:
            results[index] = result
            pool.cancel_group(outcome.group)
            events.emit(
                ev.ENGINE_WON,
                job_id=job.job_id,
                engine=result.engine,
                elapsed=result.elapsed,
            )
            events.emit(ev.JOB_DONE, job_id=job.job_id, engine=result.engine)
            if cache is not None:
                cache.put(job, result)
            continue
        failures[index].append(result)
        if len(failures[index]) == len(job.engines):
            results[index] = _aggregate_failure(job, failures[index])
            events.emit(
                ev.JOB_FAILED,
                job_id=job.job_id,
                detail=results[index].error or results[index].verdict,
            )

    missing = [i for i in range(len(jobs)) if i not in results]
    for index in missing:  # defensive: a drained pool should leave none
        results[index] = failure_result(
            jobs[index], VERDICT_ERROR, error="pool drained without outcome"
        )
    return [results[index] for index in range(len(jobs))]


def _lint_stage(
    job: VerificationJob,
    events: ev.EventLog,
    decided: Dict[str, Optional[tuple]],
) -> Optional[JobResult]:
    """Stage zero: a JobResult if a lint certificate decides the job.

    :func:`repro.lint.decide` runs once per distinct STG content hash and
    its decisions are reused for the other properties of the same STG.
    Lint failures are reported but never fail the job — the engines still
    run.  Lint-decided results are *not* cached: recomputing them is as
    cheap as reading the cache, and the certificate stays tied to the exact
    STG.
    """
    if job.stg_hash not in decided:
        from repro.lint import decide

        started = time.perf_counter()
        try:
            decisions = decide(job.stg)
        except Exception as exc:  # lint bug: degrade to the engines
            events.emit(
                ev.LINT_PASS,
                job_id=job.job_id,
                detail=f"lint crashed ({type(exc).__name__}: {exc})",
            )
            decided[job.stg_hash] = None
            return None
        decided[job.stg_hash] = (decisions, time.perf_counter() - started)
        events.emit(
            ev.LINT_PASS,
            job_id=job.job_id,
            elapsed=decided[job.stg_hash][1],
            detail=", ".join(
                f"{prop}={'holds' if d.holds else 'violated'}"
                for prop, d in sorted(decisions.items())
            )
            or "undecided",
        )
    cached = decided[job.stg_hash]
    if cached is None:  # earlier crash for this STG
        return None
    decisions, elapsed = cached
    decision = decisions.get(job.property)
    if decision is None:
        return None
    diagnostic = decision.diagnostic
    events.emit(
        ev.LINT_DECIDED,
        job_id=job.job_id,
        engine="lint",
        elapsed=elapsed,
        detail=f"{job.property}="
        f"{'holds' if decision.holds else 'violated'} by {diagnostic.rule_id}",
    )
    events.emit(ev.JOB_DONE, job_id=job.job_id, engine="lint")
    return JobResult(
        job_id=job.job_id,
        name=job.name,
        property=job.property,
        verdict=VERDICT_HOLDS if decision.holds else VERDICT_VIOLATED,
        engine="lint",
        holds=decision.holds,
        elapsed=elapsed,
        source=SOURCE_LINT,
        witness=diagnostic.message,
        stats={"lint_rule": diagnostic.rule_id},
        certificate=diagnostic.certificate,
    )


def _result_of(job: VerificationJob, outcome: TaskOutcome) -> JobResult:
    """Translate a pool outcome into a JobResult (synthesising failures)."""
    engine = outcome.task_id.split(":", 1)[1]
    if outcome.status == STATUS_OK and isinstance(outcome.value, JobResult):
        result = outcome.value
        result.attempts = outcome.attempts
        return result
    if outcome.status == STATUS_TIMEOUT:
        return failure_result(
            job,
            VERDICT_TIMEOUT,
            engine=engine,
            error=f"engine {engine} exceeded the {job.timeout}s deadline",
            elapsed=outcome.elapsed,
            attempts=outcome.attempts,
        )
    if outcome.status == STATUS_CRASHED:
        return failure_result(
            job,
            VERDICT_ERROR,
            engine=engine,
            error=outcome.error or "worker crashed",
            elapsed=outcome.elapsed,
            attempts=outcome.attempts,
        )
    return failure_result(
        job,
        VERDICT_ERROR,
        engine=engine,
        error=outcome.error or f"unexpected outcome {outcome.status!r}",
        elapsed=outcome.elapsed,
        attempts=outcome.attempts,
    )


def _aggregate_failure(
    job: VerificationJob, attempts: List[JobResult]
) -> JobResult:
    """Every engine failed: summarise the portfolio-wide failure."""
    verdict = (
        VERDICT_TIMEOUT
        if all(a.verdict == VERDICT_TIMEOUT for a in attempts)
        else VERDICT_ERROR
    )
    detail = "; ".join(
        f"{a.engine}: {a.verdict}" + (f" ({a.error})" if a.error else "")
        for a in attempts
    )
    return failure_result(
        job,
        verdict,
        error=f"all engines failed: {detail}",
        elapsed=max(a.elapsed for a in attempts),
        attempts=sum(a.attempts for a in attempts),
    )
