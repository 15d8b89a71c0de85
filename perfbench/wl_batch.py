"""batch-table1: the paper's Table 1 through ``python -m repro.cli batch``.

Each timed iteration is one fresh ``batch`` process over the 15 Table 1
``.g`` files, both properties, default ``--jobs`` and lint, and an empty
``--cache-dir``: interpreter start-up, parse, hash, cold-cache writes, lint
stage zero, the forked pool, unfold and search.  The seed only picks the
signal-rename prefix, so every seed does the same work.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

import benchlib
from benchlib import Layers, Tally
from catalogue import TABLE1_VERDICTS, table1_stgs

PROPS = ("usc", "csc")
#: Kill a batch process that takes longer than this (it then counts as 30
#: failed checks); a healthy one takes under two seconds.
CHILD_TIMEOUT_S = 60.0
#: Fresh interpreters timed for ``cli.startup_ms`` (the median is reported).
STARTUP_SAMPLES = 5


class Inputs:
    """The renamed Table 1 files and the verdict each (model, prop) needs."""

    def __init__(self, seed: int, work: Path):
        from repro.stg.parser import write_stg

        rng = random.Random(f"perfbench/batch-table1/{seed}")
        prefix = f"s{rng.getrandbits(24):06x}_"
        folder = Path(tempfile.mkdtemp(prefix="inputs-", dir=work))
        self.files: List[str] = []
        self.expected: Dict[Tuple[str, str], bool] = {}
        for name, stg in table1_stgs().items():
            path = folder / f"{name}.g"
            path.write_text(benchlib.rename_signals(write_stg(stg), prefix))
            self.files.append(str(path))
            for prop in PROPS:
                self.expected[(stg.name, prop)] = TABLE1_VERDICTS[name][prop]


def parse_batch_table(stdout: str) -> List[Tuple[str, str, str]]:
    """(job, property, verdict) rows of ``repro-stg batch``'s table."""
    rows: List[Tuple[str, str, str]] = []
    in_table = False
    for line in stdout.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[:3] == ["job", "property", "verdict"]:
            in_table = True
            continue
        if not in_table:
            continue
        if not line.strip():
            break
        if set(line.strip()) <= set("-+"):
            continue
        if len(cells) >= 3:
            rows.append((cells[0], cells[1], cells[2]))
    return rows


def score(rows, expected: Dict[Tuple[str, str], bool], tally: Tally) -> None:
    verdicts = {(job, prop): verdict for job, prop, verdict in rows}
    for key, answer in expected.items():
        verdict = verdicts.get(key)
        got = {"holds": True, "violated": False}.get(verdict or "")
        tally.verdict(f"batch {key[0]}:{key[1]} ({verdict})", answer, got)


def run_cli(files: List[str], work: Path) -> Tuple[float, str, int, int]:
    """One ``batch`` process on an empty cache: (wall s, stdout, exit, maxrss KB).

    The rusage comes from ``wait4`` on this child, so its peak RSS covers
    the batch process and the pool workers it reaped.
    """
    cache = tempfile.mkdtemp(prefix="cache-", dir=work)
    command = [
        sys.executable, "-m", "repro.cli", "batch", *files,
        "-p", "usc", "-p", "csc", "--cache-dir", cache,
    ]
    with tempfile.TemporaryFile("w+") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=err, env=benchlib.child_env(),
            cwd=benchlib.ROOT, text=True,
        )
        killer = benchlib.kill_later(proc.pid, CHILD_TIMEOUT_S)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - started
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            print(f"perfbench: batch exited {code}: {err.read()[-400:]}", file=sys.stderr)
    shutil.rmtree(cache, ignore_errors=True)
    return wall, out, code, usage.ru_maxrss


def setup(seed: int, work: Path, tally: Tally) -> Inputs:
    """Inputs and one untimed ``batch`` run, whose verdicts count in ``tally``."""
    inputs = Inputs(seed, work)
    _, out, _, _ = run_cli(inputs.files, work)
    score(parse_batch_table(out), inputs.expected, tally)
    return inputs


def timed_run(seed: int, seconds: float, work: Path):
    tally = Tally()  # warm-up verdicts count like timed ones
    setups: List[float] = []
    for _ in range(benchlib.SETUPS):
        started = time.perf_counter()
        inputs = setup(seed, work, tally)
        setups.append(time.perf_counter() - started)

    walls: List[float] = []
    peak_kb = 0
    began = time.perf_counter()
    while not walls or time.perf_counter() - began + benchlib.median(walls) <= seconds:
        wall, out, _, maxrss = run_cli(inputs.files, work)
        score(parse_batch_table(out), inputs.expected, tally)
        walls.append(wall)
        peak_kb = max(peak_kb, maxrss)

    wall_ms = benchlib.median(walls) * 1e3
    checks = len(inputs.expected)
    metrics = benchlib.end_to_end(
        setup_s=benchlib.median(setups),
        checks_per_s=checks / (wall_ms / 1e3),
        verdict_ms_geomean=wall_ms,  # one kind of request: the invocation
        peak_rss_mb=peak_kb / 1024,
        correct_ratio=tally.ratio,
    )
    report = {
        "workload": "batch-table1",
        "provenance": benchlib.provenance(seed, invocations=len(walls), checks_per_invocation=checks),
        "invocation_wall_s": [round(w, 4) for w in walls],
        "setup_s": [round(s, 4) for s in setups],
    }
    return tally, metrics, report


# -- the traced run -------------------------------------------------------------


def _untraced_pass(inputs: Inputs, work: Path, tally: Tally, max_workers):
    """What ``batch`` runs after start-up, in-process; returns (ms, report)."""
    from repro.analysis import clear_memo
    from repro.engine import build_jobs_reporting, run_batch

    cache = tempfile.mkdtemp(prefix="cache-", dir=work)
    clear_memo()  # a fresh process starts with no facts memoized
    started = time.perf_counter()
    jobs, errors = build_jobs_reporting(inputs.files, properties=PROPS)
    report = run_batch(jobs, max_workers=max_workers, cache_dir=cache)
    elapsed = (time.perf_counter() - started) * 1e3
    shutil.rmtree(cache, ignore_errors=True)
    for error in errors:
        tally.failure(error.job_id)
    score_results(report.results, inputs, tally)
    return elapsed, report


def score_results(results, inputs: Inputs, tally: Tally) -> None:
    for result in results:
        tally.verdict(
            f"batch {result.name}:{result.property}",
            inputs.expected[(result.name, result.property)],
            result.holds if result.sound else None,
        )


def _traced_pass(inputs: Inputs, work: Path, tally: Tally) -> Tuple[float, Layers]:
    """The same work decomposed into timed public calls (inline engines)."""
    from repro.analysis import clear_memo
    from repro.engine import ResultCache, VerificationJob

    import pipeline

    cache = ResultCache(tempfile.mkdtemp(prefix="cache-", dir=work))
    layers = Layers()
    clear_memo()
    started = time.perf_counter()
    jobs = []
    for path in inputs.files:
        stg, digest = pipeline.parse_and_hash(
            Path(path).read_text(encoding="utf-8"), layers, filename=path
        )
        jobs += [
            VerificationJob(stg=stg, property=prop, name=stg.name, stg_hash=digest)
            for prop in PROPS
        ]
    results = pipeline.run_jobs_traced(jobs, cache, layers)
    elapsed = (time.perf_counter() - started) * 1e3
    shutil.rmtree(cache.root, ignore_errors=True)
    score_results(results, inputs, tally)
    return elapsed, layers


def _startup_ms() -> float:
    code = "import repro.cli, repro.engine, repro.lint, repro.core, repro.unfolding"
    times = []
    for _ in range(STARTUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=benchlib.child_env(), check=True)
        times.append((time.perf_counter() - started) * 1e3)
    return benchlib.median(times)


def trace_run(seed: int, seconds: float, work: Path):
    import pipeline
    from repro.stg.parser import parse_stg

    tally = Tally()
    inputs = setup(seed, work, tally)
    stgs = [parse_stg(Path(p).read_text(encoding="utf-8")) for p in inputs.files]
    _untraced_pass(inputs, work, tally, 0)  # in-process warm-up
    startup = _startup_ms()
    pairs, overheads, analysis = [], [], []
    began = time.perf_counter()
    while len(pairs) < 3 or time.perf_counter() - began < seconds:
        untraced, _ = _untraced_pass(inputs, work, tally, 0)
        traced, layers = _traced_pass(inputs, work, tally)
        pooled, pool_report = _untraced_pass(inputs, work, tally, None)
        pairs.append((untraced, traced, layers))
        overheads.append(pooled - untraced)
        analysis.append(pipeline.analysis_probe(stgs))
    analysis_ms = benchlib.median([busy for busy, _ in analysis])
    fresh = [r for r in pool_report.results if r.source == "fresh"]
    extra = {
        "cli.startup_ms": startup,
        "analysis.busy_ms": analysis_ms,
        "analysis.facts": analysis[-1][1],
        "analysis.lint_share": analysis_ms / benchlib.median([l.ms["lint"] for _, _, l in pairs]),
        "pool.tasks": len(fresh),
        "pool.engine_ms": sum(r.elapsed for r in fresh) * 1e3,
        "pool.overhead_ms": benchlib.median(overheads),
        "pool.retries": pool_report.stats.retries,
        "pool.crashes": pool_report.stats.crashes,
        "pool.timeouts": pool_report.stats.timeouts,
    }
    metrics = pipeline.layer_metrics(pairs, extra)
    report = {
        "workload": "batch-table1",
        "provenance": benchlib.provenance(seed, passes=len(pairs)),
    }
    return tally, metrics, report
