"""serve-mixed: open-loop HTTP traffic against a ``repro-stg serve`` process.

The server runs ``--port 0 --workers 0`` with lint and a fresh result cache.
One generator thread on one keep-alive connection sends requests at fixed
(jittered) times whether or not earlier ones are done:

* fresh requests (about 60%): a signal-renamed copy of one of 31 small
  STGs, so a new content hash: cache miss, lint, engine, cache write;
* repeats (about 40%): byte-identical to a fresh request due at least
  ``REPEAT_AGE_S`` earlier, long finished, so a cache read (lint-decided
  verdicts are not cached: those are linted again);
* a closing burst of fresh requests, smaller than the admission queue,
  sent back to back to measure capacity.

Latency is the job document's ``finished`` minus the time the request was
due; nothing is polled while traffic runs.  ``--workers 0``: lint runs
serially in the dispatcher, so a forked pool adds little here and mostly
adds fork noise; batch-table1 measures the pool instead.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import benchlib
from benchlib import Layers, Tally
from catalogue import serve_bases, state_graph_answers

PROPS = ("usc", "csc")
#: Open-loop arrival rate, requests per second: about half of what the
#: closing burst reaches on a 2-core box (21-22 req/s).
RATE = 10.0
#: Share of open-loop arrivals that are fresh; the rest repeat one.
FRESH_SHARE = 0.6
#: A repeat replays a fresh request due at least this many seconds earlier;
#: fresh requests finish in well under a second, so a repeat never becomes
#: an in-flight dedup follower (``serve.dedup_hits`` shows it if one does).
REPEAT_AGE_S = 3.0
#: Seconds of ``--seconds`` left for the closing burst to run.
BURST_ROOM_S = 4.0
#: Requests each set-up sends before the timed phase (distinct hashes).
WARMUP_REQUESTS = 8
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: How long to wait, after traffic, for every job to reach a terminal state.
DONE_TIMEOUT_S = 120.0
#: The tail percentile the per-layer ``*_p90`` metrics report.
TAIL_Q = 0.9


@dataclass(frozen=True)
class Request:
    index: int
    due: float  # seconds after the start of the timed phase
    kind: str  # fresh, repeat or burst
    base: int
    prop: str
    body: bytes
    of: int  # the fresh request a repeat replays; its own index otherwise


def request_body(source: str, prop: str) -> bytes:
    """The ``POST /v1/check`` body checking one property of ``.g`` text."""
    return json.dumps({"source": source, "properties": [prop]}).encode()


def make_schedule(seed: int, seconds: float, sources: List[str]) -> List[Request]:
    """The seed's request stream; the same seed gives the same bytes.

    Fresh requests are dealt from decks holding every (STG, property) pair
    once, and the open loop sends whole decks where it can, so every seed
    sends the same fresh mix; the closing burst is one more whole deck.
    The seed moves arrival jitter, the open loop's order, which requests
    repeat which, and the rename prefixes.
    """
    rng = random.Random(f"perfbench/serve-mixed/{seed}")
    pairs = [(base, prop) for base in range(len(sources)) for prop in PROPS]
    deck: List[Tuple[int, str]] = []
    prefixes = set()

    def fresh_body() -> Tuple[int, str, bytes]:
        if not deck:
            deck.extend(pairs)
            rng.shuffle(deck)
        base, prop = deck.pop()
        prefix = f"q{rng.getrandbits(32):08x}_"
        while prefix in prefixes:
            prefix = f"q{rng.getrandbits(32):08x}_"
        prefixes.add(prefix)
        return base, prop, request_body(benchlib.rename_signals(sources[base], prefix), prop)

    open_seconds = max(2.0, seconds - BURST_ROOM_S)
    dues = [(i + rng.uniform(-0.25, 0.25)) / RATE for i in range(1, int(open_seconds * RATE))]
    fresh_count = round(FRESH_SHARE * len(dues))
    if fresh_count >= len(pairs):
        fresh_count -= fresh_count % len(pairs)
    eligible = [i for i, due in enumerate(dues) if due - dues[0] >= REPEAT_AGE_S]
    repeats = set(rng.sample(eligible, min(len(eligible), len(dues) - fresh_count)))

    schedule: List[Request] = []
    fresh: List[Request] = []
    for index, due in enumerate(dues):
        if index in repeats:
            old = [r for r in fresh if r.due <= due - REPEAT_AGE_S]
            target = old[rng.randrange(len(old))]
            schedule.append(
                Request(index, due, "repeat", target.base, target.prop, target.body, target.index)
            )
            continue
        base, prop, body = fresh_body()
        request = Request(index, due, "fresh", base, prop, body, index)
        schedule.append(request)
        fresh.append(request)
    # the burst is one whole deck in the same order for every seed: its
    # latencies are mostly queue position, which must not depend on the seed
    burst = list(pairs)
    random.Random("perfbench/serve-mixed/burst").shuffle(burst)
    deck[:] = burst[::-1]  # fresh_body() pops from the end
    for _ in pairs:
        base, prop, body = fresh_body()
        schedule.append(Request(len(schedule), open_seconds, "burst", base, prop, body, len(schedule)))
    return schedule


class Inputs:
    """Base sources, their state-graph answers and the request schedule."""

    def __init__(self, seed: int, seconds: float):
        from repro.stg.parser import write_stg

        bases = serve_bases()
        self.names = [name for name, _ in bases]
        self.sources = [write_stg(stg) for _, stg in bases]
        self.expected = [state_graph_answers(stg, PROPS) for _, stg in bases]
        self.schedule = make_schedule(seed, seconds, self.sources)
        # (base, prop, body): the same warm-up for every seed, spread over
        # the catalogue so it reaches lint-decided and engine-decided paths;
        # own hashes
        self.warmup: List[Tuple[int, str, bytes]] = []
        for i in range(WARMUP_REQUESTS):
            base, prop = i * len(bases) // WARMUP_REQUESTS, PROPS[i % 2]
            text = benchlib.rename_signals(self.sources[base], f"w{i:08x}_")
            self.warmup.append((base, prop, request_body(text, prop)))


class Server:
    """A ``repro-stg serve`` child process on an ephemeral port."""

    def __init__(self, work: Path):
        cache = tempfile.mkdtemp(prefix="serve-cache-", dir=work)
        self._stderr = tempfile.TemporaryFile("w+")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--workers", "0", "--cache-dir", cache,
            ],
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=benchlib.child_env(), cwd=benchlib.ROOT,
        )
        killer = benchlib.kill_later(self.proc.pid, START_TIMEOUT_S)
        try:
            line = self.proc.stdout.readline()
        finally:
            killer.cancel()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}")
        host, port = line.strip().rsplit("/", 1)[-1].split(":")
        self.host, self.port = host, int(port)
        self.rusage = None

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> int:
        """SIGTERM (graceful drain), reap; returns the peak RSS in KB."""
        if self.rusage is None:
            os.kill(self.proc.pid, signal.SIGTERM)  # not yet reaped: no PID reuse
            killer = benchlib.kill_later(self.proc.pid, STOP_TIMEOUT_S)
            try:
                self.proc.stdout.read()
                _, status, self.rusage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                self.proc.stdout.close()
                self._stderr.close()
        return self.rusage.ru_maxrss


def _call(conn, method: str, path: str, body: Optional[bytes] = None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"{}")


def _get(server: "Server", path: str):
    """One GET on its own connection.

    Later GETs on a kept-alive connection to this server stall about 40 ms
    each (delayed ACK against the server's two-part response); a fresh
    connection answers in under a millisecond.  Only used after traffic.
    """
    conn = server.connect()
    try:
        return _call(conn, "GET", path)
    finally:
        conn.close()


def _wait_done(server: "Server", job_ids: List[str]) -> Dict[str, dict]:
    """Job documents once every job is terminal (only after timed phases)."""
    docs: Dict[str, dict] = {}
    deadline = time.monotonic() + DONE_TIMEOUT_S
    for job_id in reversed(job_ids):  # FIFO dispatch: the last finishes last
        while True:
            status, payload = _get(server, f"/v1/jobs/{job_id}")
            job = payload.get("job") if status == 200 else None
            if job is None or job["state"] in ("done", "failed", "cancelled"):
                break
            if time.monotonic() > deadline:
                break
            time.sleep(0.2)
        docs[job_id] = job
    return docs


def score_job(
    inputs: Inputs, what: str, base: int, prop: str, job: Optional[dict], tally: Tally
) -> bool:
    """Score one job document against the known answer.

    Returns False, after counting a failure, when there is no finished job.
    """
    if job is None or job["state"] != "done":
        tally.failure(f"{what}, job {job and job['state']}")
        return False
    got = {"holds": True, "violated": False}.get(job["results"][0]["verdict"])
    tally.verdict(what, inputs.expected[base][prop], got)
    return True


def setup(seed: int, seconds: float, work: Path, tally: Tally) -> Tuple[Inputs, Server]:
    """Inputs, a started server and its warm-up, whose verdicts count in ``tally``."""
    inputs = Inputs(seed, seconds)
    server = Server(work)
    try:
        conn = server.connect()
        sent = []
        for base, prop, body in inputs.warmup:
            status, payload = _call(conn, "POST", "/v1/check", body)
            job = payload.get("job") if status == 202 else None
            sent.append((base, prop, status, job["id"] if job else None))
        conn.close()
        docs = _wait_done(server, [job_id for *_, job_id in sent if job_id])
        for base, prop, status, job_id in sent:
            what = f"warm-up {inputs.names[base]}:{prop} (HTTP {status})"
            score_job(inputs, what, base, prop, docs.get(job_id), tally)
    except BaseException:
        server.stop()
        raise
    return inputs, server


@dataclass
class Sent:
    request: Request
    status: int
    job_id: Optional[str]
    due_wall: float
    late_ms: float
    post_ms: float


def drive(server: Server, schedule: List[Request]) -> List[Sent]:
    """Send the schedule open-loop on one keep-alive connection."""
    conn = server.connect()
    sent: List[Sent] = []
    wall0, perf0 = time.time(), time.perf_counter()
    try:
        for request in schedule:
            target = perf0 + request.due
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            posted = time.perf_counter()
            try:
                status, payload = _call(conn, "POST", "/v1/check", request.body)
            except (OSError, http.client.HTTPException, ValueError):
                conn.close()
                conn = server.connect()
                status, payload = 0, {}
            answered = time.perf_counter()
            job = payload.get("job") if status == 202 else None
            sent.append(
                Sent(
                    request, status, job["id"] if job else None, wall0 + request.due,
                    (posted - target) * 1e3, (answered - posted) * 1e3,
                )
            )
    finally:
        conn.close()
    return sent


class Outcome:
    """Per-population latencies and the burst rate of one driven schedule."""

    def __init__(self, inputs: Inputs, server: Server, sent: List[Sent], tally: Tally):
        docs = _wait_done(server, [s.job_id for s in sent if s.job_id])
        _, self.server_metrics = _get(server, "/v1/metrics")
        self.latency: Dict[str, List[float]] = {"fresh": [], "repeat": [], "burst": []}
        self.queue_wait: List[float] = []
        self.exec: List[float] = []
        self.post: List[float] = []
        self.late: List[float] = []
        burst_span = [float("inf"), float("-inf")]
        for record in sent:
            request = record.request
            what = (
                f"{request.kind} #{request.index} "
                f"{inputs.names[request.base]}:{request.prop} (HTTP {record.status})"
            )
            job = docs.get(record.job_id)
            if not score_job(inputs, what, request.base, request.prop, job, tally):
                continue
            self.latency[request.kind].append((job["finished"] - record.due_wall) * 1e3)
            if request.kind == "burst":
                burst_span[0] = min(burst_span[0], job["submitted"])
                burst_span[1] = max(burst_span[1], job["finished"])
                continue
            self.queue_wait.append((job["started"] - job["submitted"]) * 1e3)
            self.exec.append((job["finished"] - job["started"]) * 1e3)
            self.post.append(record.post_ms)
            self.late.append(record.late_ms)
        bursts = len(self.latency["burst"])
        self.burst_rate = bursts / (burst_span[1] - burst_span[0]) if bursts > 1 else 0.0

    def counts(self) -> Dict[str, int]:
        return {kind: len(samples) for kind, samples in self.latency.items()}


def median0(values: List[float]) -> float:
    """The median, or 0 for a population a short run never produced."""
    return benchlib.median(values) if values else 0.0


def tail_p90(values: List[float]) -> Tuple[float, float]:
    """(percentile, q): p90, or the highest one ten samples still lie beyond."""
    if len(values) < 20:
        return median0(values), 0.5
    q = min(TAIL_Q, (len(values) - 10) / len(values))
    if q <= 0.5:
        return benchlib.median(values), 0.5
    return benchlib.tail_percentile(values, q), q


def timed_run(seed: int, seconds: float, work: Path):
    tally = Tally()  # warm-up verdicts count like timed ones
    setups: List[float] = []
    server: Optional[Server] = None
    for _ in range(benchlib.SETUPS):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        inputs, server = setup(seed, seconds, work, tally)
        setups.append(time.perf_counter() - started)
    try:
        sent = drive(server, inputs.schedule)
        outcome = Outcome(inputs, server, sent, tally)
    finally:
        peak_kb = server.stop()
    metrics = benchlib.end_to_end(
        setup_s=benchlib.median(setups),
        checks_per_s=outcome.burst_rate,
        verdict_ms_geomean=benchlib.geomean(outcome.latency["burst"]),
        peak_rss_mb=peak_kb / 1024,
        correct_ratio=tally.ratio,
    )
    report = {
        "workload": "serve-mixed",
        "provenance": benchlib.provenance(
            seed, rate_per_s=RATE, requests=outcome.counts(),
        ),
        "fresh_ms_p50": median0(outcome.latency["fresh"]),
        "repeat_ms_p50": median0(outcome.latency["repeat"]),
        "setup_s": [round(s, 4) for s in setups],
    }
    return tally, metrics, report


# -- the traced run -------------------------------------------------------------


def _score(inputs: Inputs, request: Request, results, tally: Tally) -> None:
    for result in results:
        tally.verdict(
            f"replay #{request.index} {inputs.names[request.base]}:{result.property}",
            inputs.expected[request.base][result.property],
            result.holds if result.sound else None,
        )


def _replay_untraced(inputs: Inputs, work: Path, tally: Tally) -> float:
    """The server's per-request work in-process: protocol parse, run_jobs."""
    from repro.analysis import clear_memo
    from repro.engine import ResultCache, WorkerPool, run_jobs
    from repro.serve import parse_check_request

    cache = ResultCache(tempfile.mkdtemp(prefix="cache-", dir=work))
    clear_memo()
    outcomes = []
    started = time.perf_counter()
    with WorkerPool(max_workers=0) as pool:
        for request in inputs.schedule:
            checked = parse_check_request(json.loads(request.body))
            jobs = checked.jobs(cert_cache_dir=str(cache.root))
            outcomes.append((request, run_jobs(jobs, pool, cache=cache)))
    elapsed = (time.perf_counter() - started) * 1e3
    for request, results in outcomes:
        _score(inputs, request, results, tally)
    return elapsed


def _replay_traced(inputs: Inputs, work: Path, tally: Tally) -> Tuple[float, Layers]:
    from repro.analysis import clear_memo
    from repro.engine import ResultCache, VerificationJob

    import pipeline

    cache = ResultCache(tempfile.mkdtemp(prefix="cache-", dir=work))
    layers = Layers()
    clear_memo()
    outcomes = []
    started = time.perf_counter()
    for request in inputs.schedule:
        payload = json.loads(request.body)
        stg, digest = pipeline.parse_and_hash(payload["source"], layers)
        jobs = [
            VerificationJob(stg=stg, property=prop, name=stg.name, stg_hash=digest)
            for prop in payload["properties"]
        ]
        outcomes.append((request, pipeline.run_jobs_traced(jobs, cache, layers)))
    elapsed = (time.perf_counter() - started) * 1e3
    for request, results in outcomes:
        _score(inputs, request, results, tally)
    return elapsed, layers


def trace_run(seed: int, seconds: float, work: Path):
    import pipeline
    from repro.stg.parser import parse_stg

    tally = Tally()
    inputs, server = setup(seed, seconds, work, tally)
    try:
        sent = drive(server, inputs.schedule)
        outcome = Outcome(inputs, server, sent, tally)
    finally:
        server.stop()
    serve_metrics = outcome.server_metrics
    fresh_p90, fresh_q = tail_p90(outcome.latency["fresh"])
    hol_p90, hol_q = tail_p90(outcome.latency["repeat"])
    queue_p90, queue_q = tail_p90(outcome.queue_wait)
    engine = serve_metrics.get("engine", {})

    pairs = []
    began = time.perf_counter()
    while len(pairs) < 2 or time.perf_counter() - began < seconds / 2:
        untraced = _replay_untraced(inputs, work, tally)
        traced, layers = _replay_traced(inputs, work, tally)
        pairs.append((untraced, traced, layers))
    stgs = [
        parse_stg(json.loads(r.body)["source"])
        for r in inputs.schedule if r.kind != "repeat"
    ]
    analysis_ms, facts = pipeline.analysis_probe(stgs)
    lint_ms = benchlib.median([layers.ms.get("lint", 0.0) for _, _, layers in pairs])
    extra = {
        "analysis.busy_ms": analysis_ms,
        "analysis.facts": facts,
        "analysis.lint_share": analysis_ms / lint_ms if lint_ms else 0.0,
        "pool.retries": engine.get("retries", 0),
        "pool.crashes": engine.get("crashes", 0),
        "pool.timeouts": engine.get("timeouts", 0),
        "serve.post_ms_p50": median0(outcome.post),
        "serve.queue_wait_ms_p90": queue_p90,
        "serve.exec_ms_p50": median0(outcome.exec),
        "serve.hol_ms_p90": hol_p90,
        "serve.fresh_ms_p50": median0(outcome.latency["fresh"]),
        "serve.fresh_ms_p90": fresh_p90,
        "serve.repeat_ms_p50": median0(outcome.latency["repeat"]),
        "serve.rejected": serve_metrics.get("queue", {}).get("rejected", 0),
        "serve.dedup_hits": serve_metrics.get("dedup", {}).get("hits", 0),
        "serve.gen_late_ms_max": max(outcome.late, default=0.0),
    }
    metrics = pipeline.layer_metrics(pairs, extra)
    report = {
        "workload": "serve-mixed",
        "provenance": benchlib.provenance(
            seed, rate_per_s=RATE, requests=outcome.counts(), passes=len(pairs)
        ),
        # the percentile each *_p90 really is: 0.9 unless too few samples
        "tail_q": {"fresh": fresh_q, "hol": hol_q, "queue_wait": queue_q},
    }
    return tally, metrics, report
