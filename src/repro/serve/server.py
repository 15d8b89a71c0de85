"""The verification service: admission, dispatch, observability, HTTP.

Architecture (one process, three kinds of threads):

* **HTTP handler threads** (``ThreadingHTTPServer``) parse requests and call
  :meth:`VerificationService.submit` / :meth:`get` / :meth:`metrics` — all
  cheap, lock-protected operations that never touch an engine;
* **one dispatcher thread** pulls admitted jobs from the
  :class:`~repro.serve.queue.AdmissionQueue` in FIFO batches and drives them
  through the *persistent* engine :class:`~repro.engine.pool.WorkerPool`
  (created once at service start, reused for every batch — the whole point
  of serving instead of one-shot CLI runs) via the same
  :func:`repro.engine.portfolio.run_jobs` pipeline the ``batch`` subcommand
  uses, so cache → lint → portfolio semantics are identical to the CLI;
* **engine worker processes** forked by the pool do the actual verification.

Every verdict therefore flows through the existing result cache and lint
pre-filter; concurrent identical requests additionally collapse through the
:class:`~repro.serve.dedup.DedupIndex` before ever reaching the queue.

Lifecycle: ``healthz`` is true from construction until shutdown — or until
the dispatcher dies abnormally, which turns health red and fails every
non-terminal job so orchestrators restart instead of routing to a service
that can never run its queue (liveness); ``readyz`` is true only while
admitting (readiness).  :meth:`drain` — the SIGTERM path — stops admission,
lets the dispatcher finish every accepted job (each bounded by its
deadline), then shuts the pool down; accepted work is only ever dropped by
:meth:`close` with ``cancel=True``, and then the affected jobs are reported
``cancelled``, never silently lost.

Memory: finished job documents are retained for a bounded window
(``terminal_cap`` newest, each for at most ``terminal_ttl`` seconds) so the
job table cannot grow with total requests served; polling an evicted id
answers 404.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.engine import events as ev
from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.jobs import JobResult
from repro.engine.pool import WorkerPool
from repro.engine.portfolio import run_jobs
from repro.exceptions import ReproError
from repro.serve import protocol
from repro.serve.dedup import DedupIndex
from repro.serve.protocol import CheckRequest, ProtocolError
from repro.serve.queue import AdmissionQueue, QueueClosed

logger = logging.getLogger("repro.serve")

#: Largest request body the HTTP layer accepts (a .g file is a few KB).
MAX_BODY_BYTES = 16 * 1024 * 1024


class ServiceSaturated(ReproError):
    """The admission queue is full (HTTP 429)."""

    def __init__(self, message: str, retry_after: int):
        super().__init__(message)
        self.retry_after = retry_after


class Histogram:
    """A fixed-bucket latency histogram (seconds), Prometheus-style.

    Cumulative bucket counts plus count/sum; :meth:`quantile` interpolates
    within the winning bucket, which is exact enough for p50/p95 reporting
    over log-spaced bounds.
    """

    BOUNDS = (
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
        0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += seconds
            for index, bound in enumerate(self.BOUNDS):
                if seconds <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    def quantile(self, q: float) -> Optional[float]:
        with self._lock:
            if self.count == 0:
                return None
            target = q * self.count
            cumulative = 0
            lower = 0.0
            for index, bound in enumerate(self.BOUNDS):
                in_bucket = self._counts[index]
                if cumulative + in_bucket >= target:
                    if in_bucket == 0:
                        return bound
                    fraction = (target - cumulative) / in_bucket
                    return lower + fraction * (bound - lower)
                cumulative += in_bucket
                lower = bound
            return self.BOUNDS[-1]

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            buckets: Dict[str, int] = {}
            cumulative = 0
            for index, bound in enumerate(self.BOUNDS):
                cumulative += self._counts[index]
                buckets[f"{bound:g}"] = cumulative
            buckets["+Inf"] = cumulative + self._counts[-1]
            count, total = self.count, self.sum
        return {
            "count": count,
            "sum_s": total,
            "buckets": buckets,
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
        }


@dataclass
class ServeJob:
    """One accepted ``POST /v1/check`` and everything that became of it."""

    id: str
    request: CheckRequest
    state: str = protocol.STATE_QUEUED
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    results: List[JobResult] = field(default_factory=list)
    error: Optional[str] = None
    #: Primary job id when this request was deduplicated in flight.
    deduped_of: Optional[str] = None
    #: Set once the job entered the service's terminal-retention window
    #: (guards against double-appending to the eviction order).
    noted_terminal: bool = field(default=False, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "name": self.request.name,
            "stg_hash": self.request.stg_hash,
            "properties": list(self.request.properties),
            "engines": list(self.request.engines),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "deduped_of": self.deduped_of,
            "error": self.error,
        }
        if self.results:
            results = [protocol.result_to_dict(result) for result in self.results]
            document["results"] = results
            if self.state in protocol.TERMINAL_STATES:
                document["exit_code"] = (
                    2
                    if self.state != protocol.STATE_DONE
                    else protocol.exit_code_for(results)
                )
        elif self.state in protocol.TERMINAL_STATES:
            document["results"] = []
            document["exit_code"] = 2
        return document


class VerificationService:
    """The long-lived verification service behind the HTTP endpoints."""

    def __init__(
        self,
        workers: Optional[int] = None,
        queue_limit: int = 64,
        deadline: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[str] = None,
        lint: bool = True,
        batch_limit: int = 8,
        terminal_cap: int = 1024,
        terminal_ttl: Optional[float] = 900.0,
    ):
        if batch_limit < 1:
            raise ReproError("batch_limit must be >= 1")
        if terminal_cap < 0:
            raise ReproError("terminal_cap must be >= 0")
        self.deadline = deadline
        self.lint = lint
        self.batch_limit = batch_limit
        #: Retention bounds for terminal job documents: at most
        #: ``terminal_cap`` are kept, each for at most ``terminal_ttl``
        #: seconds after finishing — without them a long-lived service would
        #: retain every job (request STG included) forever.  Evicted jobs
        #: answer 404 on ``GET /v1/jobs/{id}``.
        self.terminal_cap = terminal_cap
        self.terminal_ttl = terminal_ttl
        if cache is None and cache_dir is not None:
            cache = ResultCache(cache_dir)
        self.cache = cache
        self.events = ev.EventLog()
        self.pool = WorkerPool(max_workers=workers, events=self.events)
        self.queue = AdmissionQueue(limit=queue_limit)
        self.dedup = DedupIndex()
        self._jobs: Dict[str, ServeJob] = {}
        self._jobs_lock = threading.Lock()
        self._published = threading.Condition(self._jobs_lock)
        self._terminal_order: Deque[str] = deque()
        self.jobs_evicted = 0
        self._ids = itertools.count(1)
        self._started_at = time.time()
        self._draining = False
        self._closed = False
        self._crashed = False
        self._drained = threading.Event()
        self.latency = Histogram()        # submit -> finished
        self.queue_wait = Histogram()     # submit -> started
        self.exec_time = Histogram()      # started -> finished
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()
        logger.info(
            "service up: workers=%s queue_limit=%d deadline=%s cache=%s",
            "auto" if workers is None else workers,
            queue_limit,
            deadline,
            getattr(cache, "root", None),
        )

    # -- admission (HTTP handler threads) --------------------------------------

    def submit(self, payload: Any) -> ServeJob:
        """Admit one check request; raises
        :class:`~repro.serve.protocol.ProtocolError` (400),
        :class:`ServiceSaturated` (429) or
        :class:`~repro.serve.queue.QueueClosed` (503).
        """
        if self._draining or self._crashed:
            raise QueueClosed("service is draining; not admitting new work")
        request = protocol.parse_check_request(payload)
        job = ServeJob(id=self._new_id(request), request=request)
        key = request.dedup_key()
        # Register the job *before* touching the dedup index: the dispatcher's
        # dedup.complete() (and the release() rollback below) resolve follower
        # ids through self._jobs, and either may run the instant acquire()
        # returns — the dedup lock is only held *inside* acquire().  A
        # follower registered afterwards would be silently dropped and poll
        # as 'queued' forever.
        with self._jobs_lock:
            self._evict_terminal_locked(time.time())
            self._jobs[job.id] = job
        primary = self.dedup.acquire(key, job.id)
        if primary is not None:
            job.deduped_of = primary
            logger.info("job %s deduplicated onto %s", job.id, primary)
            return job
        try:
            admitted = self.queue.offer((key, job))
        except QueueClosed:
            orphans = self.dedup.release(key, job.id)
            self._forget(job.id)
            self._fail_orphans(orphans, "primary request was refused admission")
            raise
        if not admitted:
            orphans = self.dedup.release(key, job.id)
            self._forget(job.id)
            self._fail_orphans(orphans, "primary request was refused admission")
            raise ServiceSaturated(
                f"admission queue full ({self.queue.limit} pending)",
                retry_after=self.queue.retry_after(),
            )
        logger.info(
            "job %s admitted: %s %s (depth %d)",
            job.id,
            request.name,
            ",".join(request.properties),
            self.queue.depth,
        )
        return job

    def _new_id(self, request: CheckRequest) -> str:
        return f"j{next(self._ids):06d}-{request.stg_hash[:8]}"

    def _forget(self, job_id: str) -> None:
        """Unregister a job whose admission failed (the client never saw it)."""
        with self._jobs_lock:
            self._jobs.pop(job_id, None)

    def _fail_orphans(self, job_ids: List[str], reason: str) -> None:
        now = time.time()
        with self._jobs_lock:
            for job_id in job_ids:
                job = self._jobs.get(job_id)
                if job is not None and job.state not in protocol.TERMINAL_STATES:
                    job.state = protocol.STATE_FAILED
                    job.error = reason
                    job.finished = now
                    self._note_terminal_locked(job, now)
            if job_ids:
                self._published.notify_all()

    # -- terminal-job retention (all methods require _jobs_lock held) ----------

    def _note_terminal_locked(self, job: ServeJob, now: float) -> None:
        """Enter ``job`` into the bounded retention window of finished jobs."""
        if job.noted_terminal:
            return
        job.noted_terminal = True
        self._terminal_order.append(job.id)
        self._evict_terminal_locked(now)

    def _evict_terminal_locked(self, now: float) -> None:
        """Drop finished jobs beyond :attr:`terminal_cap` / ``terminal_ttl``."""
        while self._terminal_order:
            job = self._jobs.get(self._terminal_order[0])
            if job is None:
                self._terminal_order.popleft()
                continue
            over_cap = len(self._terminal_order) > self.terminal_cap
            expired = (
                self.terminal_ttl is not None
                and job.finished is not None
                and now - job.finished >= self.terminal_ttl
            )
            if not over_cap and not expired:
                break
            self._terminal_order.popleft()
            del self._jobs[job.id]
            self.jobs_evicted += 1

    # -- queries ---------------------------------------------------------------

    def get(self, job_id: str) -> Optional[ServeJob]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: float = 30.0) -> Optional[ServeJob]:
        """Block until ``job_id`` reaches a terminal state (or ``timeout``)."""
        deadline = time.monotonic() + timeout
        with self._jobs_lock:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.state in protocol.TERMINAL_STATES:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return job
                self._published.wait(remaining)

    @property
    def healthy(self) -> bool:
        """Liveness: the process is up and the dispatcher has not crashed.

        A crashed dispatcher sets :attr:`_drained` too (so :meth:`drain`
        cannot hang), but that is *not* a clean drain — the ``_crashed``
        flag keeps health red so orchestrators restart the process instead
        of routing to a service that can never run its queue.
        """
        return not self._closed and not self._crashed and (
            self._dispatcher.is_alive() or self._drained.is_set()
        )

    @property
    def ready(self) -> bool:
        """Readiness: admitting new work (false while draining)."""
        return self.healthy and not self._draining and not self.queue.closed

    def metrics(self) -> Dict[str, Any]:
        """The ``/v1/metrics`` document: queue, dedup, cache, engine, latency."""
        with self._jobs_lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            retained = len(self._jobs)
            evicted = self.jobs_evicted
        stats = self.events.stats
        cache_hits = self.cache.hits if self.cache else 0
        cache_misses = self.cache.misses if self.cache else 0
        looked_up = cache_hits + cache_misses
        return protocol.envelope(
            uptime_s=time.time() - self._started_at,
            ready=self.ready,
            draining=self._draining,
            jobs=states,
            jobs_retained=retained,
            jobs_evicted=evicted,
            queue=self.queue.stats(),
            dedup=self.dedup.stats(),
            cache={
                "enabled": self.cache is not None,
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_ratio": (cache_hits / looked_up) if looked_up else None,
            },
            engine={
                "jobs": stats.jobs,
                "completed": stats.completed,
                "failed": stats.failed,
                "lint_decided": stats.lint_decided,
                "timeouts": stats.timeouts,
                "crashes": stats.crashes,
                "retries": stats.retries,
                "cancelled": stats.cancelled,
                "wins_by_engine": dict(stats.wins_by_engine),
                "pool_workers": self.pool.max_workers,
                "pool_inline": self.pool.inline,
            },
            latency={
                "total": self.latency.to_dict(),
                "queue_wait": self.queue_wait.to_dict(),
                "exec": self.exec_time.to_dict(),
            },
        )

    # -- dispatch (the single dispatcher thread) -------------------------------

    def _dispatch_loop(self) -> None:
        try:
            while True:
                entry = self.queue.take(timeout=0.1)
                if entry is None:
                    if self.queue.closed:
                        break
                    continue
                batch = [entry] + self.queue.drain_batch(self.batch_limit - 1)
                self._run_batch(batch)
        except Exception:
            logger.exception("dispatcher crashed")
            self._crashed = True
            self.queue.close()  # stop admitting: nobody will run new work
            with self._jobs_lock:
                # fail everything non-terminal so pollers learn the truth
                # now instead of spinning until their own timeouts
                now = time.time()
                for job in list(self._jobs.values()):
                    if job.state not in protocol.TERMINAL_STATES:
                        job.state = protocol.STATE_FAILED
                        job.error = "dispatcher crashed"
                        job.finished = now
                        self._note_terminal_locked(job, now)
                self._published.notify_all()
            # swallow after recording: the crash lives on in _crashed (health
            # red), the log, and the failed jobs — re-raising into the thread
            # runtime adds nothing but an unhandled-exception hook firing
        finally:
            self._drained.set()

    def _run_batch(self, entries: List[Tuple[Any, ServeJob]]) -> None:
        now = time.time()
        with self._jobs_lock:
            for _, job in entries:
                job.state = protocol.STATE_RUNNING
                job.started = now
        verification_jobs = []
        slices: List[Tuple[Any, ServeJob, int, int]] = []
        cert_cache_dir = (
            str(self.cache.root) if self.cache is not None else None
        )
        for key, job in entries:
            jobs = job.request.jobs(
                default_deadline=self.deadline, cert_cache_dir=cert_cache_dir
            )
            slices.append(
                (key, job, len(verification_jobs), len(verification_jobs) + len(jobs))
            )
            verification_jobs.extend(jobs)
        try:
            results = run_jobs(
                verification_jobs,
                self.pool,
                cache=self.cache,
                events=self.events,
                lint=self.lint,
            )
        except Exception as exc:  # engine-layer bug: fail the batch, stay up
            logger.exception("batch execution failed")
            for key, job, _, _ in slices:
                self._publish(
                    key, job, [], error=f"{type(exc).__name__}: {exc}"
                )
            return
        for key, job, lo, hi in slices:
            self._publish(key, job, results[lo:hi])

    def _publish(
        self,
        key: Any,
        job: ServeJob,
        results: List[JobResult],
        error: Optional[str] = None,
    ) -> None:
        finished = time.time()
        followers = self.dedup.complete(key)
        with self._jobs_lock:
            targets = [job] + [
                f for f in (self._jobs.get(fid) for fid in followers)
                if f is not None
            ]
            for target in targets:
                target.results = results
                target.error = error
                target.started = target.started or job.started
                target.finished = finished
                target.state = (
                    protocol.STATE_FAILED if error else protocol.STATE_DONE
                )
                self._note_terminal_locked(target, finished)
            self._published.notify_all()
        service_time = finished - job.submitted
        self.queue.note_service_time(service_time)
        self.latency.observe(service_time)
        if job.started is not None:
            self.queue_wait.observe(job.started - job.submitted)
            self.exec_time.observe(finished - job.started)
        logger.info(
            "job %s %s in %.3fs (%d follower(s))",
            job.id,
            job.state,
            service_time,
            len(followers),
        )

    # -- lifecycle -------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; safe to call from a signal handler thread."""
        self._draining = True
        self.queue.close()
        logger.info("drain started: %d job(s) still queued", self.queue.depth)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting, finish accepted work.

        Returns ``True`` when every accepted job reached a terminal state
        within ``timeout`` (each engine run is itself bounded by its
        deadline); ``False`` when work is still running — call
        :meth:`close` with ``cancel=True`` to hard-stop it.
        """
        self.begin_drain()
        finished = self._drained.wait(timeout)
        if finished:
            if self.cache is not None:
                # result files are written eagerly; nothing buffered to lose
                logger.info(
                    "drain complete: cache %d hit(s) / %d miss(es)",
                    self.cache.hits,
                    self.cache.misses,
                )
            self.pool.shutdown()
        return finished

    def close(self, timeout: float = 5.0, cancel: bool = False) -> None:
        """Drain, then (optionally) cancel whatever is still in flight."""
        if not self.drain(timeout) and cancel:
            dropped = self.queue.clear()
            ids = [job.id for _, job in dropped]
            with self._jobs_lock:
                now = time.time()
                for job in list(self._jobs.values()):
                    if job.state not in protocol.TERMINAL_STATES:
                        job.state = protocol.STATE_CANCELLED
                        job.error = job.error or "service shut down"
                        job.finished = now
                        self._note_terminal_locked(job, now)
                self._published.notify_all()
            self.pool.shutdown()
            self._drained.wait(timeout)
            logger.warning("hard close: cancelled %d queued job(s)", len(ids))
        self._closed = True


# -- HTTP layer ----------------------------------------------------------------


class ServeHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`VerificationService`."""

    daemon_threads = True
    allow_reuse_address = True
    # the socketserver default (5) drops connections under concurrent
    # pollers long before the admission queue gets a say; raise the listen
    # backlog so saturation is reported as 429, not as connection resets
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: VerificationService):
        super().__init__(address, _Handler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: ``_send`` writes headers and body separately, and without
    # it every later response on a kept-alive connection waits ~40 ms for
    # the client's delayed ACK (Nagle)
    disable_nagle_algorithm = True
    server: ServeHTTPServer

    # -- plumbing --------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), fmt % args)

    def _send(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    # -- routes ----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path.rstrip("/") != "/v1/check":
            self._send(404, protocol.error_payload(f"no such route {self.path}"))
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length <= 0:
            self._send(400, protocol.error_payload("missing request body"))
            return
        if length > MAX_BODY_BYTES:
            self._send(413, protocol.error_payload("request body too large"))
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self._send(
                400, protocol.error_payload(f"request body is not JSON: {exc}")
            )
            return
        service = self.server.service
        try:
            job = service.submit(payload)
        except ProtocolError as exc:
            self._send(exc.status, protocol.error_payload(str(exc)))
            return
        except ServiceSaturated as exc:
            self._send(
                429,
                protocol.error_payload(
                    str(exc), retry_after=exc.retry_after
                ),
                headers={"Retry-After": str(exc.retry_after)},
            )
            return
        except QueueClosed as exc:
            self._send(503, protocol.error_payload(str(exc)))
            return
        except ReproError as exc:
            self._send(400, protocol.error_payload(str(exc)))
            return
        self._send(
            202,
            protocol.envelope(
                job=job.to_dict(), status_url=f"/v1/jobs/{job.id}"
            ),
        )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        path = self.path.rstrip("/") or "/"
        if path == "/v1/healthz":
            if service.healthy:
                self._send(200, protocol.envelope(status="alive"))
            else:
                self._send(500, protocol.envelope(status="dead"))
            return
        if path == "/v1/readyz":
            if service.ready:
                self._send(200, protocol.envelope(status="ready"))
            else:
                self._send(503, protocol.envelope(status="draining"))
            return
        if path == "/v1/metrics":
            self._send(200, service.metrics())
            return
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            job = service.get(job_id)
            if job is None:
                self._send(
                    404, protocol.error_payload(f"no such job {job_id!r}")
                )
                return
            self._send(200, protocol.envelope(job=job.to_dict()))
            return
        self._send(404, protocol.error_payload(f"no such route {self.path}"))


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    **service_kwargs: Any,
) -> ServeHTTPServer:
    """Build a bound (but not yet serving) server plus its service."""
    service = VerificationService(**service_kwargs)
    return ServeHTTPServer((host, port), service)


def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    drain_timeout: Optional[float] = None,
    **service_kwargs: Any,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain gracefully.  Blocks.

    The listening address is announced on stdout (``serving on http://...``)
    so wrappers binding port 0 can discover the ephemeral port.
    """
    import signal
    import sys

    httpd = make_server(host, port, **service_kwargs)
    service = httpd.service
    stop_started = threading.Event()

    def _stop(signum: int, _frame: Any) -> None:
        if stop_started.is_set():  # second signal: hard stop
            threading.Thread(
                target=lambda: (service.close(timeout=0.5, cancel=True),
                                httpd.shutdown()),
                daemon=True,
            ).start()
            return
        stop_started.set()
        service.begin_drain()  # refuse new work immediately

        def _graceful() -> None:
            service.drain(drain_timeout)
            httpd.shutdown()

        threading.Thread(target=_graceful, daemon=True).start()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _stop),
        signal.SIGINT: signal.signal(signal.SIGINT, _stop),
    }
    try:
        print(f"serving on {httpd.url}", flush=True)
        httpd.serve_forever(poll_interval=0.1)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        httpd.server_close()
        if not service._drained.is_set():
            service.close(timeout=drain_timeout or 5.0, cancel=True)
        print("serve: drained, bye", file=sys.stderr)
    return 0
