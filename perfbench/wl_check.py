"""check-scalable: what ``repro-stg check`` runs after start-up, in-process.

Each row is ``parse_stg`` on ``.g`` text followed by ``check_usc`` /
``check_csc`` / ``check_normalcy``, with the analysis memo cleared first so
every check pays what a fresh process pays.  Core search, unfolding, refine
and analysis do nearly all the work; lint, cache, pool and serve do none.
The seed only picks the signal-rename prefix, so every seed does the same
work.
"""

from __future__ import annotations

import random
import resource
import time
from pathlib import Path
from typing import Dict, List

import benchlib
from benchlib import Layers, Tally
from catalogue import CHECK_ROWS, CheckRow, row_answers


class Inputs:
    """Renamed ``.g`` text per row and its state-graph answer."""

    def __init__(self, seed: int):
        from repro.stg.parser import write_stg

        rng = random.Random(f"perfbench/check-scalable/{seed}")
        prefix = f"s{rng.getrandbits(24):06x}_"
        self.rows: List[CheckRow] = list(CHECK_ROWS)
        self.texts: Dict[str, str] = {}
        self.expected: Dict[str, bool] = {}
        answers = row_answers(self.rows)
        for row in self.rows:
            text = write_stg(row.build())
            self.texts[row.row_id] = benchlib.rename_signals(text, prefix)
            self.expected[row.row_id] = answers[(row.family, row.size)][row.prop]


def check_text(row: CheckRow, text: str) -> bool:
    """One row as ``repro-stg check`` runs it; returns the verdict."""
    from repro.core import check_csc, check_normalcy, check_usc
    from repro.stg.parser import parse_stg

    stg = parse_stg(text)
    if row.prop == "normalcy":
        return check_normalcy(stg).normal
    check = check_usc if row.prop == "usc" else check_csc
    return check(stg, use_refinement=row.refine).holds


def run_pass(inputs: Inputs, tally: Tally, times: Dict[str, List[float]]) -> float:
    """One timed pass over every row; returns its wall time in ms."""
    from repro.analysis import clear_memo

    total = 0.0
    for row in inputs.rows:
        clear_memo()
        started = time.perf_counter()
        try:
            holds = check_text(row, inputs.texts[row.row_id])
        except Exception as exc:  # a crash is a failed check, not a stop
            tally.failure(f"{row.row_id}: {type(exc).__name__}: {exc}")
            continue
        elapsed = (time.perf_counter() - started) * 1e3
        total += elapsed
        times[row.row_id].append(elapsed)
        tally.verdict(row.row_id, inputs.expected[row.row_id], holds)
    return total


def setup(seed: int, tally: Tally) -> Inputs:
    """Inputs and one untimed pass, whose verdicts count in ``tally``."""
    inputs = Inputs(seed)
    run_pass(inputs, tally, {row.row_id: [] for row in inputs.rows})
    return inputs


def timed_run(seed: int, seconds: float, work: Path):
    tally = Tally()  # warm-up verdicts count like timed ones
    setups: List[float] = []
    for _ in range(benchlib.SETUPS):
        started = time.perf_counter()
        inputs = setup(seed, tally)
        setups.append(time.perf_counter() - started)

    times: Dict[str, List[float]] = {row.row_id: [] for row in inputs.rows}
    passes: List[float] = []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began + benchlib.median(passes) / 1e3 <= seconds:
        passes.append(run_pass(inputs, tally, times))

    row_ms = {row_id: benchlib.median(samples) for row_id, samples in times.items() if samples}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = benchlib.end_to_end(
        setup_s=benchlib.median(setups),
        checks_per_s=len(inputs.rows) / (benchlib.median(passes) / 1e3),
        verdict_ms_geomean=benchlib.geomean(list(row_ms.values())),
        peak_rss_mb=peak_kb / 1024,
        correct_ratio=tally.ratio,
    )
    report = {
        "workload": "check-scalable",
        "provenance": benchlib.provenance(seed, passes=len(passes), checks_per_pass=len(inputs.rows)),
        "row_median_ms": {k: round(v, 3) for k, v in row_ms.items()},
        "setup_s": [round(s, 4) for s in setups],
    }
    return tally, metrics, report


# -- the traced run -------------------------------------------------------------


def traced_pair(inputs: Inputs, tally: Tally):
    """Each row untraced, then as parse → unfold → check, each call timed.

    Interleaving by row keeps the two halves of a pair seconds apart at
    most.  Refine and analysis run inside ``check_*``: they are probed on
    their own afterwards and never added to the sum.
    """
    from repro.analysis import analyze, clear_memo
    from repro.core import SolverContext
    from repro.refine import refine_prescreen

    import pipeline

    layers = Layers()
    probes = {"refine.busy_ms": 0.0, "refine.lp_calls": 0, "refine.iterations": 0,
              "refuted": 0, "refine_rows": 0, "analysis.busy_ms": 0.0, "analysis.facts": 0}
    untraced = traced = 0.0
    for row in inputs.rows:
        text = inputs.texts[row.row_id]
        clear_memo()
        started = time.perf_counter()
        holds = check_text(row, text)
        untraced += (time.perf_counter() - started) * 1e3
        tally.verdict(row.row_id, inputs.expected[row.row_id], holds)

        clear_memo()
        started = time.perf_counter()
        stg = pipeline.parse_counted(text, layers)
        prefix = pipeline.unfold_counted(stg, layers)
        holds, _ = pipeline.check_prefix(prefix, row.prop, layers, row.refine)
        traced += (time.perf_counter() - started) * 1e3
        tally.verdict(row.row_id, inputs.expected[row.row_id], holds)
        if not row.refine:
            continue
        clear_memo()
        context = SolverContext(prefix)
        started = time.perf_counter()
        outcome = refine_prescreen(context)
        probes["refine.busy_ms"] += (time.perf_counter() - started) * 1e3
        probes["refine.lp_calls"] += outcome.lp_calls
        probes["refine.iterations"] += outcome.iterations
        probes["refuted"] += int(outcome.refuted)
        probes["refine_rows"] += 1
        clear_memo()
        started = time.perf_counter()
        facts = analyze(stg)
        probes["analysis.busy_ms"] += (time.perf_counter() - started) * 1e3
        probes["analysis.facts"] += len(facts.facts)
    return untraced, traced, layers, probes


def trace_run(seed: int, seconds: float, work: Path):
    import pipeline

    tally = Tally()
    inputs = setup(seed, tally)
    pairs, probe_runs = [], []
    began = time.perf_counter()
    while len(pairs) < 3 or time.perf_counter() - began < seconds:
        untraced, traced, layers, probes = traced_pair(inputs, tally)
        pairs.append((untraced, traced, layers))
        probe_runs.append(probes)
    last = probe_runs[-1]
    extra = {
        "refine.busy_ms": benchlib.median([p["refine.busy_ms"] for p in probe_runs]),
        "refine.lp_calls": last["refine.lp_calls"],
        "refine.iterations": last["refine.iterations"],
        "refine.refuted_ratio": last["refuted"] / max(1, last["refine_rows"]),
        "analysis.busy_ms": benchlib.median([p["analysis.busy_ms"] for p in probe_runs]),
        "analysis.facts": last["analysis.facts"],
    }
    metrics = pipeline.layer_metrics(pairs, extra)
    report = {
        "workload": "check-scalable",
        "provenance": benchlib.provenance(seed, passes=len(pairs)),
    }
    return tally, metrics, report
