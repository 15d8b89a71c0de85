"""Command-line interface: ``repro-stg`` (or ``python -m repro``).

Subcommands:

* ``check FILE.g``   — verify USC / CSC / normalcy / consistency / deadlock
  with a choice of engine (``ilp`` = the paper's unfolding+IP method,
  ``sg`` = explicit state graph, ``bdd`` = symbolic state graph, ``sat`` =
  the CDCL back-end) or an engine portfolio raced in parallel;
* ``batch``          — verify many STGs × properties through the worker
  pool, with portfolio racing and the on-disk result cache;
* ``lint FILE.g``    — static diagnostics (well-formedness, STG semantics,
  certifying conflict pre-filters) with compiler-style exit codes;
* ``profile FILE.g`` — run the verification under the :mod:`repro.obs`
  tracer and print the per-phase wall-time breakdown (parse / unfold /
  closure / solver / total) plus the counter catalogue, as text or
  ``--json``;
* ``serve``          — run the long-lived HTTP/JSON verification service
  (:mod:`repro.serve`): bounded admission queue, in-flight dedup, the
  shared result cache and live metrics (docs/serving.md);
* ``cache``          — inspect (``stats``) and bound (``prune``) the
  on-disk result store shared by batch, portfolios and serve;
* ``unfold FILE.g``  — build and describe the complete prefix;
* ``stats FILE.g``   — print STG / prefix / state-graph size statistics;
* ``bench``          — regenerate the paper's Table 1 (delegates to
  :mod:`repro.bench.table1`).

``check`` and ``batch`` additionally accept ``--trace-out FILE.jsonl`` to
record the whole run as a JSON-Lines trace (docs/observability.md).

A global ``-v/--verbose`` flag (before the subcommand) streams the
``repro.engine`` progress events and other library logging to stderr.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.exceptions import ReproError, SolverLimitError


def _load_stg(path: str):
    from repro.stg.parser import parse_stg

    with open(path) as handle:
        return parse_stg(handle.read(), filename=path)


def _configure_logging(verbosity: int) -> None:
    """Wire the package loggers to stderr: ``-v`` = INFO, ``-vv`` = DEBUG."""
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    logging.basicConfig(
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    logging.getLogger("repro").setLevel(level)


@contextmanager
def _traced():
    """Enable and reset the process-wide tracer for one command.

    If the tracer was off before, it is disabled *and* reset on exit, so a
    command's spans and counters never outlive it in the default tracer.
    """
    from repro import obs

    tracer = obs.get_tracer()
    was_enabled = tracer.enabled
    tracer.enable()
    tracer.reset()
    try:
        yield tracer
    finally:
        if not was_enabled:
            tracer.disable()
            tracer.reset()


def _with_trace_out(args: argparse.Namespace, fn):
    """Run ``fn`` under the tracer and dump a JSONL trace if requested."""
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return fn()
    from repro import obs

    with _traced() as tracer:
        try:
            return fn()
        finally:
            records = obs.write_jsonl(tracer, trace_out)
            print(
                f"trace: {records} records written to {trace_out}",
                file=sys.stderr,
            )


def _cmd_check(args: argparse.Namespace) -> int:
    return _with_trace_out(args, lambda: _run_check(args))


def _run_check(args: argparse.Namespace) -> int:
    stg = _load_stg(args.file)
    properties = args.properties or ["csc"]
    failures = 0
    errors = 0
    for prop in properties:
        prop = prop.lower()
        try:
            failures += 0 if _check_property(stg, prop, args) else 1
        except SolverLimitError as exc:
            print(f"{prop}: UNDECIDED (budget exhausted)")
            print(
                f"error: {prop} check on {args.file} gave up: {exc}",
                file=sys.stderr,
            )
            errors += 1
        except ReproError as exc:
            print(f"{prop}: ERROR")
            print(
                f"error: {prop} check on {args.file} failed: {exc}",
                file=sys.stderr,
            )
            errors += 1
    if errors:
        return 2
    return 1 if failures else 0


def _check_property(stg, prop: str, args: argparse.Namespace) -> bool:
    """Check one property, print its verdict line, return whether it holds."""
    if prop == "consistency":
        from repro.stg.consistency import is_consistent

        holds = is_consistent(stg)
        print(f"consistency: {'OK' if holds else 'VIOLATED'}")
        return holds
    if prop == "deadlock":
        from repro.core.reachability import check_deadlock

        trace = check_deadlock(stg)
        if trace is None:
            print("deadlock: none (live)")
            return True
        print(f"deadlock: reachable via [{', '.join(trace)}]")
        return False
    if prop == "autoconcurrency":
        from repro.stg.implementability import check_autoconcurrency

        witness = check_autoconcurrency(stg)
        if witness is None:
            print("autoconcurrency: none")
            return True
        print(
            f"autoconcurrency: signal {witness.signal} "
            f"after [{', '.join(witness.trace)}]"
        )
        return False
    if prop == "persistency":
        from repro.stg.implementability import check_output_persistency

        violations = check_output_persistency(stg)
        if not violations:
            print("persistency: OK")
            return True
        first = violations[0]
        print(
            f"persistency: VIOLATED ({first.disabled_edge} disabled "
            f"by {first.disabling_transition}; "
            f"{len(violations)} violation(s))"
        )
        return False
    if prop == "normalcy":
        if args.portfolio:
            holds = _check_portfolio(stg, prop, args)
        else:
            holds = _check_normalcy(stg, args.method, args.node_budget)
        print(f"normalcy: {'OK' if holds else 'VIOLATED'}")
        return holds
    if prop in ("usc", "csc"):
        if args.portfolio:
            holds = _check_portfolio(stg, prop, args)
        else:
            holds = _check_coding(
                stg, prop, args.method, args.verbose, args.node_budget,
                use_refinement=getattr(args, "refine", False),
            )
        print(f"{prop.upper()}: {'OK' if holds else 'CONFLICT'}")
        return holds
    raise ReproError(f"unknown property {prop!r}")


def _check_portfolio(stg, prop: str, args: argparse.Namespace) -> bool:
    """Race the engines named in ``--portfolio`` via :mod:`repro.engine`."""
    from repro.engine import VerificationJob, WorkerPool, run_jobs

    engines = tuple(name.strip() for name in args.portfolio.split(",") if name.strip())
    job = VerificationJob(
        stg=stg,
        property=prop,
        engines=engines,
        timeout=args.timeout,
        node_budget=args.node_budget,
        use_refinement=getattr(args, "refine", False),
    )
    with WorkerPool(max_workers=len(engines)) as pool:
        result = run_jobs([job], pool)[0]
    if not result.sound:
        message = result.error or result.verdict
        if result.verdict in ("timeout", "limit"):
            raise SolverLimitError(message)
        raise ReproError(message)
    if args.verbose:
        print(f"  portfolio: {result.engine} won in {result.elapsed:.3f}s")
        if result.witness:
            print(f"  witness: {result.witness}")
    return bool(result.holds)


def _check_coding(
    stg,
    prop: str,
    method: str,
    verbose: bool,
    node_budget: Optional[int] = None,
    use_refinement: bool = False,
) -> bool:
    if method == "ilp":
        from repro.core import check_csc, check_usc

        report = (check_usc if prop == "usc" else check_csc)(
            stg, node_budget=node_budget, use_refinement=use_refinement
        )
        if verbose and report.witness is not None:
            print(f"  witness: {report.witness.describe()}")
        if verbose:
            stats = report.prefix_stats
            print(
                f"  prefix: |B|={stats['conditions']} |E|={stats['events']} "
                f"|E_cut|={stats['cutoffs']}; search nodes: "
                f"{report.search_stats.nodes}; {report.elapsed:.3f}s"
            )
        return report.holds
    if method == "sg":
        from repro.stg.stategraph import build_state_graph

        graph = build_state_graph(stg)
        if verbose:
            print(f"  state graph: {graph.num_states} states")
        return graph.has_usc() if prop == "usc" else graph.has_csc()
    if method == "bdd":
        from repro.symbolic import symbolic_check

        report = symbolic_check(stg, prop)
        if verbose:
            print(
                f"  symbolic: {report.num_states} states, "
                f"{report.num_conflict_pairs} conflict pairs, "
                f"{report.bdd_nodes} BDD nodes; {report.elapsed:.3f}s"
            )
        return report.holds
    if method == "sat":
        from repro.sat import check_csc_sat, check_usc_sat

        report = (check_usc_sat if prop == "usc" else check_csc_sat)(stg)
        if verbose:
            print(
                f"  SAT: {report.num_vars} vars, {report.num_clauses} "
                f"clauses, {report.sat_conflicts} conflicts, "
                f"{report.candidates_blocked} candidates blocked; "
                f"{report.elapsed:.3f}s"
            )
        return report.holds
    raise ReproError(f"unknown method {method!r}")


def _check_normalcy(stg, method: str, node_budget: Optional[int] = None) -> bool:
    if method == "ilp":
        from repro.core import check_normalcy

        return check_normalcy(stg, node_budget=node_budget).normal
    if method == "sg":
        from repro.stg.normalcy import check_normalcy_state_graph

        return check_normalcy_state_graph(stg).normal
    # the same refusal the engine portfolio gives (engine.jobs._unsupported)
    raise ReproError(f"engine {method!r} does not support property 'normalcy'")


def _cmd_profile(args: argparse.Namespace) -> int:
    """Verify under the tracer and print the phase-time breakdown."""
    import json

    from repro import obs
    from repro.engine.batch import resolve_target
    from repro.utils.tables import format_table

    with _traced() as tracer:
        with tracer.span("parse.target"):
            name, stg = resolve_target(args.file)
        properties = args.properties or ["usc", "csc"]
        verdicts = {}
        for prop in properties:
            with tracer.span(f"profile.{prop}"):
                verdicts[prop] = _profile_property(stg, prop, args)
        phases = tracer.phase_times()
        snapshot = tracer.snapshot()
        if args.trace_out:
            records = obs.write_jsonl(tracer, args.trace_out)
            print(
                f"trace: {records} records written to {args.trace_out}",
                file=sys.stderr,
            )

    refine_detail = _refine_detail(snapshot)

    if args.json:
        document = {
            "schema": "repro-profile/1",
            "target": name,
            "method": args.method,
            "properties": {
                prop: ("holds" if holds else "violated")
                for prop, holds in verdicts.items()
            },
            "phases": phases,
            "refine_detail": refine_detail,
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "timers": snapshot["timers"],
        }
        print(json.dumps(document, indent=2))
        return 0

    total = phases.get("total") or 0.0
    body = []
    rows = ["parse", "unfold", "closure", "solver", "lint", "analysis"]
    # the refinement row appears only when the phase actually ran (the
    # --refine path); a disabled refinement degrades to no row, not a crash
    show_refine = phases.get("refine", 0.0) > 0.0 or getattr(
        args, "refine", False
    )
    if show_refine:
        rows.insert(rows.index("solver") + 1, "refine")
    # likewise the fuzz row: only present when fuzz.* spans were recorded
    # (e.g. profiling a campaign driven through this process's tracer)
    if phases.get("fuzz", 0.0) > 0.0:
        rows.append("fuzz")
    for phase in rows:
        seconds = phases.get(phase, 0.0)
        share = f"{100.0 * seconds / total:.1f}%" if total > 0 else "-"
        body.append([phase, f"{seconds * 1000:.3f}", share])
        if phase == "refine":
            # split the refinement phase into its LP-solve and exact
            # certification components (nested spans, so they are shadowed
            # in the phase totals and never double-count above)
            for sub in ("lp_solve", "certify"):
                sub_seconds = refine_detail.get(sub, 0.0)
                sub_share = (
                    f"{100.0 * sub_seconds / total:.1f}%" if total > 0 else "-"
                )
                body.append(
                    [f"  refine.{sub}", f"{sub_seconds * 1000:.3f}", sub_share]
                )
    body.append(["total", f"{total * 1000:.3f}", "100.0%" if total > 0 else "-"])
    print(
        format_table(
            ["phase", "ms", "share"],
            body,
            title=f"Phase breakdown: {name} ({', '.join(properties)}, "
            f"method={args.method})",
        )
    )
    for prop, holds in verdicts.items():
        print(f"{prop}: {'holds' if holds else 'violated'}")
    counters = snapshot["counters"]
    if counters:
        print("\ncounters:")
        for counter, value in sorted(counters.items()):  # type: ignore[union-attr]
            print(f"  {counter} = {value}")
    gauges = snapshot["gauges"]
    if gauges:
        print("gauges:")
        for gauge, value in sorted(gauges.items()):  # type: ignore[union-attr]
            print(f"  {gauge} = {value:g}")
    return 0


def _refine_detail(snapshot) -> dict:
    """Summed ``refine.lp_solve`` / ``refine.certify`` span durations.

    These spans are nested under ``refine.prescreen``, so the phase table's
    ``refine`` row already includes them; the detail rows show where inside
    the phase the time went.
    """
    detail = {"lp_solve": 0.0, "certify": 0.0}
    for span in snapshot.get("spans", ()):
        name = span.get("name", "")
        if name == "refine.lp_solve":
            detail["lp_solve"] += span.get("dur", 0.0)
        elif name == "refine.certify":
            detail["certify"] += span.get("dur", 0.0)
    return detail


def _profile_property(stg, prop: str, args: argparse.Namespace) -> bool:
    if prop == "normalcy":
        return _check_normalcy(stg, args.method, args.node_budget)
    return _check_coding(
        stg, prop, args.method, False, args.node_budget,
        use_refinement=getattr(args, "refine", False),
    )


def _cmd_unfold(args: argparse.Namespace) -> int:
    from repro.unfolding import unfold

    stg = _load_stg(args.file)
    prefix = unfold(stg)
    print(
        f"{stg.name}: |B|={prefix.num_conditions} |E|={prefix.num_events} "
        f"|E_cut|={prefix.num_cutoffs}"
    )
    if args.events:
        for event in prefix.events:
            marker = "  [cutoff]" if event.is_cutoff else ""
            print(f"  {prefix.event_name(event.index)}{marker}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.stg.stategraph import build_state_graph
    from repro.unfolding import unfold

    stg = _load_stg(args.file)
    stats = stg.stats()
    print(
        f"STG {stg.name}: |S|={stats['places']} |T|={stats['transitions']} "
        f"|Z|={stats['signals']}"
    )
    prefix = unfold(stg)
    print(
        f"prefix: |B|={prefix.num_conditions} |E|={prefix.num_events} "
        f"|E_cut|={prefix.num_cutoffs}"
    )
    graph = build_state_graph(stg)
    print(f"state graph: {graph.num_states} states, {graph.num_arcs} arcs")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.stg.stategraph import build_state_graph
    from repro.synthesis import resolve_csc, synthesise

    stg = _load_stg(args.file)
    resolution = resolve_csc(stg, max_signals=args.max_signals)
    if resolution.insertions:
        print(f"CSC resolved by inserting: {resolution.describe()}")
    stg = resolution.stg
    result = synthesise(stg)
    print("complex-gate equations:")
    for equation in result.equations():
        print(f"  {equation}")
    if args.gc:
        print("generalised C-element networks:")
        for impl in result.per_signal.values():
            print(f"  {impl.gc_equations(result.names)}")
    if not result.verify(build_state_graph(stg)):
        raise ReproError("internal error: covers do not match the state graph")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.export import prefix_to_dot, state_graph_to_dot, stg_to_dot
    from repro.stg.stategraph import build_state_graph
    from repro.unfolding import unfold

    stg = _load_stg(args.file)
    if args.what == "stg":
        print(stg_to_dot(stg))
    elif args.what == "prefix":
        print(prefix_to_dot(unfold(stg)))
    else:
        print(state_graph_to_dot(build_state_graph(stg)))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.table1 import run_table1

    print(run_table1(include_slow=args.full, jobs=args.jobs))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    return _with_trace_out(args, lambda: _run_batch_cmd(args))


def _run_batch_cmd(args: argparse.Namespace) -> int:
    from repro.engine import (
        EventLog,
        build_jobs_reporting,
        default_cache_dir,
        default_targets,
        format_batch_report,
        run_batch,
    )

    engines = tuple(
        name.strip() for name in args.portfolio.split(",") if name.strip()
    )
    if not engines:
        raise ReproError("empty --portfolio")
    targets = args.targets or default_targets()
    jobs, target_errors = build_jobs_reporting(
        targets,
        properties=args.properties or ["csc"],
        engines=engines,
        timeout=args.timeout,
        node_budget=args.node_budget,
    )
    cache_dir = None if args.no_cache else (args.cache_dir or str(default_cache_dir()))
    report = run_batch(
        jobs,
        max_workers=args.jobs,
        max_retries=args.retries,
        cache_dir=cache_dir,
        events=EventLog(),
    )
    # bad targets become structured error rows instead of aborting the batch
    report.results = target_errors + report.results
    print(format_batch_report(report))
    if not report.all_sound:
        failed = [r for r in report.results if not r.sound]
        print(
            f"error: {len(failed)} job(s) did not reach a verdict "
            f"(first: {failed[0].job_id}: {failed[0].error})",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import run_server

    return run_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        deadline=args.deadline,
        cache_dir=None if args.no_cache else (args.cache_dir or _cache_dir_default()),
        batch_limit=args.batch_limit,
        lint=not args.no_lint,
        drain_timeout=args.drain_timeout,
    )


def _cache_dir_default() -> str:
    from repro.engine import default_cache_dir

    return str(default_cache_dir())


def parse_age(text: str) -> float:
    """``30d`` / ``12h`` / ``45m`` / ``90s`` / plain seconds -> seconds."""
    text = text.strip().lower()
    if not text:
        raise ReproError("empty age")
    multiplier = 1.0
    if text[-1] in "smhdw":
        multiplier = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ReproError(
            f"cannot parse age {text!r}: use e.g. 30d, 12h, 45m or seconds"
        ) from None
    if value < 0:
        raise ReproError("age must be non-negative")
    return value * multiplier


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.engine import ResultCache

    cache = ResultCache(args.cache_dir or _cache_dir_default())
    if args.cache_command == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
            return 0
        print(f"cache: {stats['root']} (schema v{stats['schema_version']})")
        print(
            f"  {stats['entries']} entries, {stats['total_bytes']} bytes"
            + (f", {stats['unreadable']} unreadable" if stats["unreadable"] else "")
        )
        for title, key in (("domain", "by_domain"), ("property", "by_property"),
                           ("verdict", "by_verdict"), ("schema", "by_schema")):
            breakdown = stats[key]
            if breakdown:
                body = ", ".join(
                    f"{name}={count}" for name, count in sorted(breakdown.items())
                )
                print(f"  by {title}: {body}")
        if stats["oldest_mtime"] is not None:
            import time as _time

            age = _time.time() - stats["oldest_mtime"]
            print(f"  oldest entry: {age / 86400:.1f} day(s) old")
        return 0
    if args.cache_command == "prune":
        seconds = parse_age(args.older_than)
        removed = cache.prune(seconds)
        if args.json:
            print(json.dumps({"removed": removed, "older_than_s": seconds}))
        else:
            print(
                f"cache prune: removed {removed} entr"
                f"{'y' if removed == 1 else 'ies'} older than {args.older_than}"
            )
        return 0
    raise ReproError(f"unknown cache command {args.cache_command!r}")


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.engine.batch import resolve_target
    from repro.lint import render_text, report_to_dict, run_lint

    exit_code = 0
    payloads = []
    for target in args.targets:
        _, stg = resolve_target(target)
        report = run_lint(
            stg,
            rules=args.rules,
            prefilter=not args.no_prefilter,
            size_budget=args.size_budget,
        )
        if args.json:
            payloads.append(report_to_dict(report))
        else:
            print(
                render_text(
                    report,
                    verbose=args.verbose or args.verbosity > 0,
                    color=sys.stdout.isatty(),
                )
            )
        exit_code = max(exit_code, report.exit_code)
    if args.json:
        document = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(document, indent=2))
    return exit_code


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import AnalysisOptions, analyze
    from repro.engine.batch import resolve_target

    options = AnalysisOptions(
        trap_max_size=args.set_size,
        trap_max_count=args.set_count,
        siphon_max_size=args.set_size,
        siphon_max_count=args.set_count,
    )
    exit_code = 0
    payloads = []
    for target in args.targets:
        _, stg = resolve_target(target)
        facts = analyze(stg, options=options)
        bad = facts.verify_all(stg) if args.verify else []
        if bad:
            exit_code = 2
        if args.json:
            document = facts.to_dict()
            if args.verify:
                document["verified"] = not bad
                document["failed_facts"] = [f.to_dict() for f in bad]
            payloads.append(document)
            continue
        counts = facts.counts()
        summary = (
            ", ".join(f"{kind}={n}" for kind, n in sorted(counts.items()))
            or "no facts"
        )
        print(f"{stg.name}: {len(facts.facts)} facts ({summary})")
        if facts.proves_dynamic_conflict_freeness():
            print(
                "  dynamic conflict-freeness: proven (every structural "
                "conflict pair is never co-enabled)"
            )
        if args.verbose or args.verbosity > 0:
            for fact in facts.facts:
                print(f"  [{fact.kind}] {fact.claim}")
        if args.verify:
            if bad:
                print(f"  VERIFICATION FAILED for {len(bad)} fact(s):")
                for fact in bad:
                    print(f"    [{fact.kind}] {fact.claim}")
            else:
                print(f"  verified: all {len(facts.facts)} facts check out")
    if args.json:
        document = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(document, indent=2))
    return exit_code


def _fuzz_config(args: argparse.Namespace):
    from repro.fuzz import OracleConfig

    kwargs = {}
    if getattr(args, "engines", None):
        kwargs["engines"] = tuple(args.engines.split(","))
    if getattr(args, "max_states", None):
        kwargs["max_states"] = args.max_states
    return OracleConfig(**kwargs)


def _fuzz_corpus(args: argparse.Namespace):
    from repro.fuzz import CorpusStore

    return CorpusStore(getattr(args, "corpus_dir", None))


def _cmd_fuzz(args: argparse.Namespace) -> int:
    handlers = {
        "run": _cmd_fuzz_run,
        "repro": _cmd_fuzz_repro,
        "shrink": _cmd_fuzz_shrink,
        "corpus": _cmd_fuzz_corpus,
    }
    return handlers[args.fuzz_command](args)


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    import time

    from repro.fuzz import run_campaign

    corpus = None if args.no_corpus else _fuzz_corpus(args)
    started = time.perf_counter()
    result = run_campaign(args.seed, args.budget, _fuzz_config(args), corpus)
    elapsed = time.perf_counter() - started
    summary = result.summary
    if args.json:
        print(summary.to_json())
    else:
        print(f"campaign seed={summary.seed} budget={summary.budget}:")
        print(
            f"  {summary.cases} cases, {summary.checkable} checkable, "
            f"{sum(summary.skipped.values())} skipped "
            f"({', '.join(f'{k}={v}' for k, v in sorted(summary.skipped.items())) or 'none'})"
        )
        print(
            f"  {summary.oracle_runs} oracle runs, "
            f"{summary.divergences} divergence(s), "
            f"{summary.unique_signatures} unique signature(s)"
        )
        if corpus is not None:
            print(
                f"  corpus: {summary.corpus_new} new, "
                f"{summary.corpus_dup} duplicate ({corpus.root})"
            )
    # wall-clock goes to stderr so stdout stays identical across reruns
    print(f"elapsed: {elapsed:.1f}s", file=sys.stderr)
    for divergence in result.divergences:
        print(divergence.describe(), file=sys.stderr)
    return 1 if summary.divergences else 0


def _cmd_fuzz_repro(args: argparse.Namespace) -> int:
    import json

    from repro.fuzz import reproduce_case, run_oracles

    try:
        case = reproduce_case(args.case_id)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcome = run_oracles(case, _fuzz_config(args))
    if args.json:
        document = {
            "case_id": case.case_id,
            "base": case.base,
            "mutations": list(case.mutations),
            "preserving": case.preserving,
            "checkable": outcome.checkable,
            "skip_reason": outcome.skip_reason,
            "oracle_runs": outcome.oracle_runs,
            "divergences": [
                {
                    "oracle": d.oracle,
                    "subject": d.subject,
                    "signature": d.signature,
                    "detail": d.detail,
                }
                for d in outcome.divergences
            ],
        }
        print(json.dumps(document, indent=2))
    else:
        print(case.describe())
        if outcome.checkable:
            print(f"checkable; {outcome.oracle_runs} oracle run(s)")
        else:
            print(f"skipped by guards: {outcome.skip_reason}")
        for divergence in outcome.divergences:
            print(divergence.describe())
        if not outcome.divergences:
            print("no divergence")
    return 1 if outcome.divergences else 0


def _cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    from repro.fuzz import reproduce_case, shrink_case
    from repro.stg.parser import write_stg

    corpus = _fuzz_corpus(args)
    signature = args.signature
    entry = None
    if signature is None:
        matches = corpus.find(args.case_id)
        if not matches:
            print(
                f"error: no corpus entry matches {args.case_id!r} and no "
                "--signature given",
                file=sys.stderr,
            )
            return 2
        entry = matches[0]
        signature = entry["signature"]
    try:
        case = reproduce_case(args.case_id)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = shrink_case(
        case, signature, _fuzz_config(args), max_checks=args.max_checks
    )
    if result is None:
        print(
            f"{args.case_id}: signature {signature!r} did not reproduce",
            file=sys.stderr,
        )
        return 1
    text = write_stg(result.stg)
    print(f"# shrunk {args.case_id} [{signature}]: {result.stats()}")
    print(text, end="")
    if entry is not None:
        corpus.mark_minimized(entry["key"], text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"written to {args.out}", file=sys.stderr)
    return 0


def _cmd_fuzz_corpus(args: argparse.Namespace) -> int:
    import json

    corpus = _fuzz_corpus(args)
    if args.corpus_command == "clear":
        removed = corpus.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    if args.corpus_command == "show":
        matches = corpus.find(args.key)
        if not matches:
            print(f"error: no entry matches {args.key!r}", file=sys.stderr)
            return 2
        print(json.dumps(matches[0], indent=2, sort_keys=True))
        return 0
    entries = list(corpus.entries())
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"corpus at {corpus.root} is empty")
        return 0
    print(f"corpus at {corpus.root}: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}")
    for entry in entries:
        flag = "minimized" if entry.get("minimized") else "raw"
        print(
            f"  {entry['key'][:12]}  {entry['case_id']:<12} "
            f"hits={entry.get('hits', 1):<4} [{flag}] {entry['signature']}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stg",
        description="STG state-coding verification via unfoldings and "
        "integer programming (DATE 2002 reproduction)",
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="count",
        default=0,
        dest="verbosity",
        help="stream library logging to stderr (-v = INFO, -vv = DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify properties of an STG")
    check.add_argument("file", help="astg .g file")
    check.add_argument(
        "--property",
        "-p",
        dest="properties",
        action="append",
        choices=[
            "usc",
            "csc",
            "normalcy",
            "consistency",
            "deadlock",
            "autoconcurrency",
            "persistency",
        ],
        help="property to verify (repeatable; default: csc)",
    )
    check.add_argument(
        "--method",
        "-m",
        default="ilp",
        choices=["ilp", "sg", "bdd", "sat"],
        help="engine: unfolding+IP (default), explicit or symbolic state "
        "graph, or the SAT back-end",
    )
    check.add_argument(
        "--portfolio",
        metavar="ENGINES",
        help="race a comma-separated engine portfolio (e.g. ilp,sat) per "
        "property instead of --method; first sound verdict wins",
    )
    check.add_argument(
        "--node-budget",
        type=int,
        metavar="N",
        help="give up (exit 2) once the IP search exceeds N branch-and-bound "
        "nodes in total over the whole check",
    )
    check.add_argument(
        "--refine",
        action="store_true",
        help="run the certified LP refinement sweep (repro.refine) before "
        "the IP search: refuted conflict systems skip the search entirely "
        "with a replayable dual-bound certificate; verdicts and witnesses "
        "are byte-identical either way (docs/refinement.md)",
    )
    check.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="per-engine wall-clock deadline (portfolio mode only)",
    )
    check.add_argument(
        "--trace-out",
        metavar="FILE.jsonl",
        help="record the run as a JSON-Lines trace (enables tracing)",
    )
    check.add_argument("--verbose", "-v", action="store_true")
    check.set_defaults(func=_cmd_check)

    profile = sub.add_parser(
        "profile",
        help="phase-time breakdown of a verification run",
        description="Verify TARGET (a registered model name or a .g file) "
        "with the repro.obs tracer enabled and print where the time went: "
        "parse, unfold, closure, solver (and lint when it ran), plus the "
        "counter catalogue (events, cut-offs, search nodes, solver "
        "decisions).  See docs/observability.md for the span taxonomy.",
    )
    profile.add_argument("file", help="registered model name or astg .g file")
    profile.add_argument(
        "--property",
        "-p",
        dest="properties",
        action="append",
        choices=["usc", "csc", "normalcy"],
        help="property to profile (repeatable; default: usc and csc)",
    )
    profile.add_argument(
        "--method",
        "-m",
        default="ilp",
        choices=["ilp", "sg", "bdd", "sat"],
        help="engine to profile (default: ilp, the paper's method)",
    )
    profile.add_argument(
        "--node-budget",
        type=int,
        metavar="N",
        help="IP search node budget for the whole check",
    )
    profile.add_argument(
        "--refine",
        action="store_true",
        help="enable the refinement LP sweep (ilp method only); adds "
        "the refine row to the phase table",
    )
    profile.add_argument(
        "--json", action="store_true", help="emit the breakdown as JSON"
    )
    profile.add_argument(
        "--trace-out",
        metavar="FILE.jsonl",
        help="also write the full trace as JSON Lines",
    )
    profile.set_defaults(func=_cmd_profile)

    batch = sub.add_parser(
        "batch",
        help="verify many STGs through the parallel portfolio engine",
        description="Verify TARGET... (registered model names or .g files; "
        "default: every Table 1 benchmark) against the selected properties "
        "using the worker pool, portfolio racing and the on-disk result "
        "cache.  Exit status 0 means every job reached a sound verdict "
        "(conflicts included — batch reports, it does not gate); 2 means "
        "some job timed out or errored.",
    )
    batch.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help="model names or .g files (default: all Table 1 benchmarks)",
    )
    batch.add_argument(
        "--property",
        "-p",
        dest="properties",
        action="append",
        choices=["usc", "csc", "normalcy"],
        help="property to verify (repeatable; default: csc)",
    )
    batch.add_argument(
        "--portfolio",
        default="ilp",
        metavar="ENGINES",
        help="comma-separated engines to race per job (default: ilp)",
    )
    batch.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: CPU count; 0 = in-process)",
    )
    batch.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="per-engine deadline"
    )
    batch.add_argument(
        "--node-budget",
        type=int,
        metavar="N",
        help="IP search node budget per job, for the whole check",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="retries per task after a worker death (default: 1)",
    )
    batch.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-stg)",
    )
    batch.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the cache"
    )
    batch.add_argument(
        "--trace-out",
        metavar="FILE.jsonl",
        help="record the run as a JSON-Lines trace (enables tracing; traces "
        "in-process work — use --jobs 0 for full engine coverage)",
    )
    batch.set_defaults(func=_cmd_batch)

    lint = sub.add_parser(
        "lint",
        help="static STG diagnostics with certifying conflict pre-filters",
        description="Run the three-tier static analysis (well-formedness, "
        "STG semantics, conflict pre-filters) over TARGET... (registered "
        "model names or .g files) without building any state space.  Exit "
        "status follows the compiler convention: 0 clean, 1 warnings only, "
        "2 errors.",
    )
    lint.add_argument(
        "targets",
        nargs="+",
        metavar="TARGET",
        help="model names or .g files",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the structured report (diagnostics, decisions, "
        "certificates) as JSON",
    )
    lint.add_argument(
        "--rules",
        action="append",
        metavar="PATTERN",
        help="only run rules whose id or name matches the glob "
        "(repeatable, e.g. --rules 'W*' --rules usc-affine-certificate)",
    )
    lint.add_argument(
        "--no-prefilter",
        action="store_true",
        help="skip the certifying conflict pre-filter tier",
    )
    lint.add_argument(
        "--size-budget",
        type=int,
        default=160,
        metavar="N",
        help="max places+transitions for the polyhedral rules (default: 160)",
    )
    lint.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="also print fix-it hints and decided properties",
    )
    lint.set_defaults(func=_cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="compute and print the structural facts of an STG",
        description="Run the repro.analysis facts engine over TARGET... "
        "(registered model names or .g files): structural conflicts, "
        "invariant-backed never-co-enabled exclusions, minimal traps and "
        "siphons, dead transitions, signal trigger/lock structure.  Every "
        "fact carries a machine-checkable justification; --verify replays "
        "them all.  See docs/analysis.md.",
    )
    analyze.add_argument(
        "targets",
        nargs="+",
        metavar="TARGET",
        help="model names or .g files",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the serialized FactBase as JSON",
    )
    analyze.add_argument(
        "--verify",
        action="store_true",
        help="replay every fact's justification; exit 2 if any fails",
    )
    analyze.add_argument(
        "--set-size",
        type=int,
        default=16,
        metavar="N",
        help="max places per enumerated trap/siphon (default 16)",
    )
    analyze.add_argument(
        "--set-count",
        type=int,
        default=32,
        metavar="N",
        help="max minimal traps/siphons to enumerate (default 32)",
    )
    analyze.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="print every fact, not just the per-kind counts",
    )
    analyze.set_defaults(func=_cmd_analyze)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSON verification service",
        description="Serve POST /v1/check requests (astg source, canonical "
        "JSON STGs or registered model names) from a long-lived engine "
        "worker pool with a bounded admission queue (HTTP 429 + Retry-After "
        "under load), in-flight deduplication by content hash, the shared "
        "on-disk result cache, and live /v1/metrics.  SIGTERM drains "
        "gracefully: admission stops, accepted jobs finish.  See "
        "docs/serving.md for the API reference.",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8421,
        metavar="N",
        help="TCP port (default 8421; 0 = ephemeral, announced on stdout)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="engine worker processes (default: CPU count; 0 = in-process)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="max queued jobs before requests get 429 (default 64)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock deadline (requests may override)",
    )
    serve.add_argument(
        "--batch-limit",
        type=int,
        default=8,
        metavar="N",
        help="max jobs dispatched to the pool per cycle (default 8)",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-stg)",
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="serve without the result cache"
    )
    serve.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the static lint pre-filter stage",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="max time to wait for in-flight jobs on SIGTERM (default: wait)",
    )
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache",
        help="inspect and bound the on-disk result cache",
        description="Operate on the content-addressed result store shared "
        "by batch, check --portfolio and serve: 'stats' summarises entry "
        "counts, sizes and breakdowns; 'prune --older-than AGE' deletes "
        "entries (and orphaned temp files) last written before the cutoff.",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="summarise the store")
    cache_prune = cache_sub.add_parser("prune", help="delete old entries")
    cache_prune.add_argument(
        "--older-than",
        required=True,
        metavar="AGE",
        help="age cutoff: 30d, 12h, 45m or plain seconds",
    )
    for cache_cmd in (cache_stats, cache_prune):
        cache_cmd.add_argument(
            "--cache-dir",
            metavar="DIR",
            help="cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro-stg)",
        )
        cache_cmd.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
        cache_cmd.set_defaults(func=_cmd_cache)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the verification engines",
        description="Generate seeded STGs, run them through every engine "
        "and a battery of metamorphic oracles, and record divergences in a "
        "deduplicated corpus.  Campaigns are deterministic: the same seed "
        "and budget produce the same cases, oracle schedule and summary on "
        "any machine (docs/fuzzing.md).",
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser("run", help="run a fuzzing campaign")
    fuzz_run.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz_run.add_argument(
        "--budget", type=int, default=200, metavar="N", help="number of cases"
    )
    fuzz_run.add_argument(
        "--no-corpus",
        action="store_true",
        help="do not persist divergences to the corpus",
    )
    fuzz_repro = fuzz_sub.add_parser(
        "repro", help="regenerate one case and re-run its oracles"
    )
    fuzz_repro.add_argument("case_id", metavar="CASE_ID", help="s<seed>-c<index>")
    fuzz_shrink = fuzz_sub.add_parser(
        "shrink", help="minimize a failing case while its divergence persists"
    )
    fuzz_shrink.add_argument("case_id", metavar="CASE_ID")
    fuzz_shrink.add_argument(
        "--signature",
        help="divergence signature to preserve (default: from the corpus "
        "entry recorded for CASE_ID)",
    )
    fuzz_shrink.add_argument(
        "--max-checks",
        type=int,
        default=200,
        metavar="N",
        help="oracle-run budget for the shrink loop (default: 200)",
    )
    fuzz_shrink.add_argument(
        "--out", metavar="FILE", help="also write the minimized .g here"
    )
    fuzz_corpus = fuzz_sub.add_parser(
        "corpus", help="list, show or clear recorded divergences"
    )
    corpus_sub = fuzz_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_list = corpus_sub.add_parser("list", help="list entries")
    corpus_show = corpus_sub.add_parser("show", help="dump one entry as JSON")
    corpus_show.add_argument("key", help="entry key prefix or case id")
    corpus_clear = corpus_sub.add_parser("clear", help="delete every entry")
    for fuzz_cmd in (fuzz_run, fuzz_repro, fuzz_shrink):
        fuzz_cmd.add_argument(
            "--engines",
            metavar="A,B,...",
            help="engines to run differentially (default: ilp,sat,bdd)",
        )
        fuzz_cmd.add_argument(
            "--max-states",
            type=int,
            default=None,
            metavar="N",
            help="reachability guard: skip cases beyond N states",
        )
    for fuzz_cmd in (fuzz_run, fuzz_shrink, corpus_list, corpus_show, corpus_clear):
        fuzz_cmd.add_argument(
            "--corpus-dir",
            metavar="DIR",
            help="corpus directory (default: $REPRO_FUZZ_CORPUS or "
            "~/.cache/repro-stg-fuzz)",
        )
    for fuzz_cmd in (fuzz_run, fuzz_repro, corpus_list):
        fuzz_cmd.add_argument(
            "--json", action="store_true", help="emit machine-readable JSON"
        )
    for fuzz_cmd in (fuzz_run, fuzz_repro, fuzz_shrink, fuzz_corpus):
        fuzz_cmd.set_defaults(func=_cmd_fuzz)

    unfold_cmd = sub.add_parser("unfold", help="build the complete prefix")
    unfold_cmd.add_argument("file")
    unfold_cmd.add_argument("--events", action="store_true", help="list events")
    unfold_cmd.set_defaults(func=_cmd_unfold)

    stats = sub.add_parser("stats", help="size statistics")
    stats.add_argument("file")
    stats.set_defaults(func=_cmd_stats)

    synth = sub.add_parser(
        "synth", help="resolve CSC if needed and derive boolean equations"
    )
    synth.add_argument("file")
    synth.add_argument("--gc", action="store_true", help="also print set/reset covers")
    synth.add_argument("--max-signals", type=int, default=2)
    synth.set_defaults(func=_cmd_synth)

    export = sub.add_parser("export", help="emit Graphviz DOT")
    export.add_argument("file")
    export.add_argument(
        "what", choices=["stg", "prefix", "sg"], help="which view to export"
    )
    export.set_defaults(func=_cmd_export)

    bench = sub.add_parser("bench", help="regenerate the paper's Table 1")
    bench.add_argument(
        "--full", action="store_true", help="include the slowest baseline runs"
    )
    bench.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="measure rows in N worker processes (default: 1 = in-process)",
    )
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbosity)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
