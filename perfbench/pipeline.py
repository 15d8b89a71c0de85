"""The traced replay: the engine pipeline as timed public calls.

``run_jobs_traced`` follows :func:`repro.engine.portfolio.run_jobs` step by
step — cache read, lint once per STG, unfold and check for what lint left
open, cache write — but calls each layer's public entry point itself and
times it from here.  Nothing inside ``src/`` is instrumented.

Layers nested inside another layer's call are timed by separate probes and
reported next to, never inside, the sum: analysis runs inside lint (batch,
serve) and inside ``check_*`` with refinement (check-scalable), and refine
runs inside ``check_*``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import benchlib
from benchlib import Layers, metric

#: Per-layer metrics: (name, unit, better, what it should move, flat on).
#: The only record of the attribution; ``--trace 1`` reports carry it.
#: BENCHMARK.json lists the same names (``test_benchmark_json_matches_the_code``).
LAYER_METRICS: List[Tuple[str, str, str, str, str]] = [
    ("cli.startup_ms", "ms", "lower", "checks_per_s on batch-table1", "others: start-up is in their setup_s"),
    ("parser.busy_ms", "ms", "lower", "serve.repeat_ms_p50 and checks_per_s on serve-mixed: every request is parsed", "check-scalable"),
    ("parser.calls", "count", "lower", "", ""),
    ("hashing.busy_ms", "ms", "lower", "serve.repeat_ms_p50 and checks_per_s on serve-mixed", "check-scalable"),
    ("cache.get_ms", "ms", "lower", "serve.repeat_ms_p50 on serve-mixed", "check-scalable"),
    ("cache.put_ms", "ms", "lower", "verdict_ms_geomean on serve-mixed; checks_per_s on batch-table1", "check-scalable"),
    ("cache.hits", "count", "higher", "", ""),
    ("cache.misses", "count", "lower", "", ""),
    ("cache.hit_ratio", "ratio", "higher", "", ""),
    ("lint.busy_ms", "ms", "lower", "checks_per_s on batch-table1; verdict_ms_geomean on serve-mixed", "check-scalable"),
    ("lint.runs", "count", "lower", "", ""),
    ("lint.decided", "count", "higher", "", ""),
    ("lint.decided_ratio", "ratio", "higher", "", ""),
    ("analysis.busy_ms", "ms", "lower", "verdict_ms_geomean on check-scalable (refine rows)", "batch-table1, serve-mixed: there it runs inside lint"),
    ("analysis.facts", "count", "higher", "", ""),
    ("analysis.lint_share", "ratio", "lower", "", ""),
    ("pool.tasks", "count", "lower", "checks_per_s on batch-table1", "serve-mixed, check-scalable"),
    ("pool.engine_ms", "ms", "lower", "", ""),
    ("pool.overhead_ms", "ms", "lower", "", ""),
    ("pool.retries", "count", "lower", "", ""),
    ("pool.crashes", "count", "lower", "", ""),
    ("pool.timeouts", "count", "lower", "", ""),
    ("unfold.busy_ms", "ms", "lower", "verdict_ms_geomean on check-scalable", "serve-mixed"),
    ("unfold.events", "count", "lower", "", ""),
    ("unfold.cutoffs", "count", "lower", "", ""),
    ("core.busy_ms", "ms", "lower", "checks_per_s and verdict_ms_geomean on check-scalable; checks_per_s on batch-table1", "verdict_ms_geomean on serve-mixed"),
    ("core.search_nodes", "count", "lower", "", ""),
    ("core.usc_only_candidates", "count", "lower", "", ""),
    ("core.prescreen_decided", "count", "higher", "", ""),
    ("refine.busy_ms", "ms", "lower", "verdict_ms_geomean on check-scalable", "batch-table1, serve-mixed: off by default"),
    ("refine.lp_calls", "count", "lower", "", ""),
    ("refine.iterations", "count", "lower", "", ""),
    ("refine.refuted_ratio", "ratio", "higher", "", ""),
    ("serve.post_ms_p50", "ms", "lower", "verdict_ms_geomean on serve-mixed", "batch-table1, check-scalable"),
    ("serve.queue_wait_ms_p90", "ms", "lower", "verdict_ms_geomean on serve-mixed", ""),
    ("serve.exec_ms_p50", "ms", "lower", "verdict_ms_geomean on serve-mixed", ""),
    ("serve.hol_ms_p90", "ms", "lower", "verdict_ms_geomean on serve-mixed: dispatcher changes move it first", ""),
    ("serve.fresh_ms_p50", "ms", "lower", "", ""),
    ("serve.fresh_ms_p90", "ms", "lower", "", ""),
    ("serve.repeat_ms_p50", "ms", "lower", "", ""),
    ("serve.rejected", "count", "lower", "", ""),
    ("serve.dedup_hits", "count", "lower", "", ""),
    ("serve.gen_late_ms_max", "ms", "lower", "", ""),
    ("unattributed_ms", "ms", "lower", "", ""),
    ("trace.pass_ms", "ms", "lower", "", ""),
    ("trace.overhead_ratio", "ratio", "lower", "", ""),
]

#: Exclusive layers of one traced pass: their busy times plus
#: ``unattributed_ms`` make up the untraced pass.
SUMMED = {
    "parser": "parser.busy_ms",
    "hashing": "hashing.busy_ms",
    "cache.get": "cache.get_ms",
    "cache.put": "cache.put_ms",
    "lint": "lint.busy_ms",
    "unfold": "unfold.busy_ms",
    "core": "core.busy_ms",
}


def attribution() -> Dict[str, Dict[str, str]]:
    """Per-layer metric -> the end-to-end metric it should move, and where not."""
    return {
        name: {"moves": moves, "flat_on": flat}
        for name, _, _, moves, flat in LAYER_METRICS
        if moves
    }


def parse_counted(text: str, layers: Layers, filename: Optional[str] = None):
    from repro.stg.parser import parse_stg

    with layers.timed("parser"):
        stg = parse_stg(text, filename=filename)
    layers.count("parser.calls")
    return stg


def parse_and_hash(text: str, layers: Layers, filename: Optional[str] = None):
    stg = parse_counted(text, layers, filename)
    with layers.timed("hashing"):
        digest = stg.content_hash()
    return stg, digest


def check_prefix(prefix, prop: str, layers: Layers, use_refinement: bool = False):
    """``check_*`` on a built prefix, timed as ``core``; returns the verdict."""
    from repro.core import check_csc, check_normalcy, check_usc

    with layers.timed("core"):
        if prop == "normalcy":
            report = check_normalcy(prefix)
        else:
            check = check_usc if prop == "usc" else check_csc
            report = check(prefix, use_refinement=use_refinement)
    nodes = report.search_stats.nodes
    layers.count("core.search_nodes", nodes)
    layers.count("core.prescreen_decided", int(nodes == 0))
    if prop == "normalcy":
        return report.normal, report
    layers.count("core.usc_only_candidates", report.usc_only_candidates)
    return report.holds, report


def unfold_counted(stg, layers: Layers):
    from repro.unfolding import unfold

    with layers.timed("unfold"):
        prefix = unfold(stg)
    stats = prefix.stats()
    layers.count("unfold.events", stats["events"])
    layers.count("unfold.cutoffs", stats["cutoffs"])
    return prefix


def run_jobs_traced(jobs: Sequence, cache, layers: Layers):
    """Cache → lint → unfold + check → cache, as ``run_jobs`` does it inline."""
    from repro.lint import run_lint

    reports: Dict[str, object] = {}
    results = []
    for job in jobs:
        with layers.timed("cache.get"):
            hit = cache.get(job)
        if hit is not None:
            layers.count("cache.hits")
            results.append(hit)
            continue
        layers.count("cache.misses")
        if job.stg_hash not in reports:
            with layers.timed("lint"):
                reports[job.stg_hash] = run_lint(job.stg)
            layers.count("lint.runs")
        decision = reports[job.stg_hash].decisions().get(job.property)
        if decision is not None:
            layers.count("lint.decided")
            results.append(_result(job, decision.holds, "lint", "lint"))
            continue
        started = time.perf_counter()
        prefix = unfold_counted(job.stg, layers)
        holds, report = check_prefix(prefix, job.property, layers)
        result = _result(job, holds, "ilp", "fresh")
        result.elapsed = time.perf_counter() - started
        if getattr(report, "witness", None) is not None:
            result.witness = report.witness.describe()
        with layers.timed("cache.put"):
            cache.put(job, result)
        results.append(result)
    return results


def _result(job, holds: bool, engine: str, source: str):
    from repro.engine import JobResult

    return JobResult(
        job_id=job.job_id,
        name=job.name,
        property=job.property,
        verdict="holds" if holds else "violated",
        engine=engine,
        holds=holds,
        source=source,
    )


def analysis_probe(stgs: Sequence) -> Tuple[float, int]:
    """Busy ms and fact count of ``analyze`` on each STG, memo cleared."""
    from repro.analysis import analyze, clear_memo

    busy = 0.0
    facts = 0
    for stg in stgs:
        clear_memo()
        started = time.perf_counter()
        base = analyze(stg)
        busy += (time.perf_counter() - started) * 1e3
        facts += len(base.facts)
    clear_memo()
    return busy, facts


def layer_metrics(
    pairs: Sequence[Tuple[float, float, Layers]],
    extra: Dict[str, float],
) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric: medians over (untraced, traced) pass pairs.

    ``extra`` carries the probe and serve values; layers a workload does
    not run report 0.
    """
    values: Dict[str, float] = {name: 0 for name, *_ in LAYER_METRICS}
    last = pairs[-1][2]
    for layer, name in SUMMED.items():
        values[name] = benchlib.median([layers.ms.get(layer, 0.0) for _, _, layers in pairs])
    for name, count in last.counts.items():
        values[name] = count
    values["trace.pass_ms"] = benchlib.median([untraced for untraced, _, _ in pairs])
    values["unattributed_ms"] = values["trace.pass_ms"] - sum(values[n] for n in SUMMED.values())
    values["trace.overhead_ratio"] = benchlib.median(
        [(traced - untraced) / untraced for untraced, traced, _ in pairs]
    )
    values.update(extra)
    looked_up = values["cache.hits"] + values["cache.misses"]
    values["cache.hit_ratio"] = values["cache.hits"] / looked_up if looked_up else 0.0
    linted = values["cache.misses"]
    values["lint.decided_ratio"] = values["lint.decided"] / linted if linted else 0.0
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from LAYER_METRICS: {sorted(unknown)}")
    return {name: metric(values[name], units[name]) for name, *_ in LAYER_METRICS}
