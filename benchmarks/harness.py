#!/usr/bin/env python
"""The curated benchmark harness: stable timings for regression tracking.

The pytest-benchmark files under ``benchmarks/`` explore the paper's
experiments; this harness is the *performance contract* of the repo.  It
runs a small curated suite over the scalable model families (the families
of the paper's full-version scalable examples), measures each case with
warmup + repeated runs, and writes the median timings together with the
environment (python version, cpu count, git sha) to a schema-versioned
JSON report — ``BENCH_current.json`` at the repo root by default.

Usage::

    PYTHONPATH=src python benchmarks/harness.py              # full suite
    PYTHONPATH=src python benchmarks/harness.py --quick      # CI suite
    PYTHONPATH=src python benchmarks/harness.py compare OLD [NEW]

``compare`` flags every case whose median regressed by at least 20%
(``--threshold`` to change) against the old report and exits non-zero if
any did.  Timing goes through :meth:`repro.obs.Tracer.stopwatch`, which
always measures; each case additionally does one *traced* run (not timed)
to attach the phase breakdown and the counter catalogue to its record.

The report schema is documented in docs/benchmarking.md and validated by
:func:`validate_report` (also used by tests/test_obs and the CI bench job).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src").exists():  # pragma: no cover - repo layout invariant
    raise SystemExit("harness.py must live in <repo>/benchmarks/")
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.core import check_csc, check_usc  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402
from repro.unfolding import unfold  # noqa: E402

#: Bumped whenever the report layout changes incompatibly.
BENCH_SCHEMA = "repro-bench/1"

#: Default output location (the repo-root snapshot CI uploads as artifact).
DEFAULT_OUT = ROOT / "BENCH_current.json"

#: Median regression ratio that `compare` flags (new/old - 1 >= threshold).
DEFAULT_THRESHOLD = 0.20


# -- the curated suite ---------------------------------------------------------

class Case:
    """One benchmark case: verify ``prop`` on ``family(size)``.

    ``refine=True`` turns on the :mod:`repro.refine` LP sweep
    (``use_refinement=``, suffix ``/r=1``) — verdicts are identical by
    contract, so the axis isolates refinement's overhead/payoff.
    """

    def __init__(self, family: str, size: int, prop: str, refine: bool = False):
        self.family = family
        self.size = size
        self.prop = prop
        self.refine = refine
        suffix = "/r=1" if refine else ""
        self.case_id = f"{family}/n={size}/{prop}{suffix}"

    def with_refine(self, refine: bool) -> "Case":
        return Case(self.family, self.size, self.prop, refine)

    def build(self):
        from repro.models.ring import lazy_ring, token_ring
        from repro.models.scalable import muller_pipeline, parallel_forks

        ctor = {
            "muller-pipeline": muller_pipeline,
            "parallel-forks": parallel_forks,
            "token-ring": token_ring,
            "vme-chain": lazy_ring,
        }[self.family]
        return ctor(self.size)

    def run(self, stg, cert_cache=None) -> bool:
        """The timed region: unfold the STG and check the property.

        ``cert_cache`` (a :class:`repro.engine.cache.ResultCache`) is only
        used by the warm-probe measurement of ``/r=1`` cases; the timed
        samples always run cold so the medians stay comparable.
        """
        prefix = unfold(stg)
        check = check_usc if self.prop == "usc" else check_csc
        return check(
            prefix, use_refinement=self.refine, cert_cache=cert_cache
        ).holds


#: The full suite: one slow-ish and one fast size per family so both the
#: constant factors and the growth trend are covered.
SUITE: List[Case] = [
    Case("muller-pipeline", 4, "csc"),
    Case("muller-pipeline", 8, "csc"),
    Case("muller-pipeline", 12, "csc"),
    Case("parallel-forks", 2, "csc"),
    Case("parallel-forks", 3, "csc"),
    Case("token-ring", 4, "usc"),
    Case("token-ring", 6, "usc"),
    Case("vme-chain", 2, "csc"),
    Case("vme-chain", 3, "csc"),
]

#: The CI suite: the small size of each family only.
QUICK_SUITE: List[Case] = [
    Case("muller-pipeline", 4, "csc"),
    Case("parallel-forks", 2, "csc"),
    Case("token-ring", 4, "usc"),
    Case("vme-chain", 2, "csc"),
]


# -- measurement ---------------------------------------------------------------

def capture_env() -> Dict[str, object]:
    """Python/platform/git context a reader needs to judge comparability."""
    try:
        sha: Optional[str] = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def measure_case(case: Case, warmup: int, repeat: int) -> Dict[str, object]:
    """Warm up, measure ``repeat`` runs, and attach one traced run's data."""
    stg = case.build()  # construction is not part of the timed region

    def reset_facts() -> None:
        # the FactBase is memoized per content hash; drop it so every
        # sample pays (and the /r=1 axis therefore shows) the full
        # analysis cost, not a warm-cache read
        if case.refine:
            from repro.analysis import clear_memo

            clear_memo()

    tracer = obs.get_tracer()
    for _ in range(warmup):
        reset_facts()
        case.run(stg)
    samples: List[float] = []
    holds = False
    for _ in range(repeat):
        reset_facts()
        with tracer.stopwatch() as watch:
            holds = case.run(stg)
        samples.append(watch.seconds)

    # one extra traced (untimed) run for the phase/counter attribution
    probe = Tracer(enabled=True)
    previous = obs.get_tracer()
    obs.set_tracer(probe)
    try:
        reset_facts()
        case.run(stg)
    finally:
        obs.set_tracer(previous)
    phases = {
        name: seconds
        for name, seconds in probe.phase_times().items()
        if seconds > 0.0 or name == "total"
    }

    record = {
        "id": case.case_id,
        "family": case.family,
        "size": case.size,
        "property": case.prop,
        "refine": case.refine,
        "holds": holds,
        "repeats": repeat,
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "max_s": max(samples),
        "phases": phases,
        "counters": dict(probe.counters),
    }
    if case.refine:
        record["refine_counters"] = _refine_counter_probe(
            case, stg, probe, reset_facts
        )
    return record


def _refine_counter_probe(case, stg, cold_probe, reset_facts):
    """The ``/r=1`` counter record: cold LP traffic + warm cache replay.

    The cold numbers come straight from the traced probe run.  The warm
    numbers drive the same case twice against an ephemeral certificate
    store (a temp-dir :class:`~repro.engine.cache.ResultCache`): the first
    run populates the refine-cert domain, the second replays it, so
    ``warm_cert_cache_hits`` shows the steady-state behaviour of repeat
    verification (serve traffic, batch re-runs) and ``warm_lp_calls`` how
    much LP work the cache removes.
    """
    import tempfile

    from repro.engine.cache import ResultCache

    counters = {
        "lp_calls": int(cold_probe.counters.get("refine.lp_calls", 0)),
        "cert_cache_hits": int(
            cold_probe.counters.get("refine.cert_cache_hits", 0)
        ),
        "dominated": int(cold_probe.counters.get("refine.dominated", 0)),
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-certs-") as tmp:
        store = ResultCache(tmp)
        reset_facts()
        case.run(stg, cert_cache=store)  # populate the cert domain
        warm_probe = Tracer(enabled=True)
        previous = obs.get_tracer()
        obs.set_tracer(warm_probe)
        try:
            reset_facts()
            case.run(stg, cert_cache=store)
        finally:
            obs.set_tracer(previous)
    counters["warm_lp_calls"] = int(
        warm_probe.counters.get("refine.lp_calls", 0)
    )
    counters["warm_cert_cache_hits"] = int(
        warm_probe.counters.get("refine.cert_cache_hits", 0)
    )
    return counters


def measure_serve_case(
    case: Case, clients: int, requests_per_client: int = 3
) -> Dict[str, object]:
    """Drive the ``repro.serve`` HTTP service with concurrent clients.

    An in-process server on an ephemeral loopback port (inline pool, lint
    and cache off, so the measurement is serving overhead + engine work,
    comparable with the direct cases) is hammered by ``clients`` threads
    submitting the case's STG and polling to the verdict.  Each request
    carries a distinct ``node_budget`` so in-flight dedup cannot collapse
    the load.  Records end-to-end latency quantiles and requests/sec.
    """
    import threading

    from repro.serve.client import ServeClient
    from repro.serve.server import make_server
    from repro.stg.parser import write_stg

    source = write_stg(case.build())
    total_requests = clients * requests_per_client
    httpd = make_server(
        workers=0,
        lint=False,
        queue_limit=total_requests + 1,
        batch_limit=8,
    )
    server_thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    server_thread.start()
    latencies: List[float] = []
    errors: List[str] = []
    holds_seen: List[bool] = []
    lock = threading.Lock()

    def client_loop(index: int) -> None:
        client = ServeClient(httpd.url, timeout=300.0)
        for request_no in range(requests_per_client):
            # huge, distinct budgets: never binding, never dedup-equal
            budget = 10_000_000 + index * 1_000 + request_no
            begun = time.perf_counter()
            try:
                job = client.check(
                    source=source,
                    properties=[case.prop],
                    node_budget=budget,
                    wait=True,
                    wait_timeout=300.0,
                )
            except Exception as exc:  # noqa: BLE001 - recorded, fails the case
                with lock:
                    errors.append(f"client {index}: {exc!r}")
                return
            elapsed = time.perf_counter() - begun
            with lock:
                latencies.append(elapsed)
                holds_seen.append(bool(job["results"][0]["holds"]))

    threads = [
        threading.Thread(target=client_loop, args=(index,))
        for index in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    httpd.shutdown()
    httpd.server_close()
    httpd.service.close(timeout=10.0, cancel=True)
    if errors:
        raise RuntimeError(f"serve bench failed: {errors[0]}")
    latencies.sort()

    def quantile(q: float) -> float:
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "id": f"serve/{case.family}/n={case.size}/{case.prop}/c={clients}",
        "family": case.family,
        "size": case.size,
        "property": case.prop,
        "clients": clients,
        "holds": all(holds_seen),
        "repeats": total_requests,
        "median_s": statistics.median(latencies),
        "min_s": latencies[0],
        "max_s": latencies[-1],
        "p50_s": quantile(0.50),
        "p95_s": quantile(0.95),
        "rps": total_requests / wall if wall > 0 else 0.0,
        "phases": {},
        "counters": {},
    }


def run_suite(
    quick: bool = False,
    warmup: int = 1,
    repeat: int = 5,
    families: Optional[Sequence[str]] = None,
    serve_clients: Sequence[int] = (),
    refine: Sequence[int] = (0,),
) -> Dict[str, object]:
    """Run the suite and return the full schema-versioned report dict.

    ``serve_clients`` is the concurrency axis of the HTTP serving scenario:
    each quick-suite case is additionally pushed through a live
    ``repro.serve`` instance once per client count (e.g. ``(1, 4, 16)``).
    ``refine`` is the :mod:`repro.refine` axis: ``(0, 1)`` measures every
    case both without and with ``use_refinement``.
    """
    suite = QUICK_SUITE if quick else SUITE
    if families:
        suite = [case for case in suite if case.family in families]
    refine_axis = list(dict.fromkeys(refine)) or [0]
    timed = [case.with_refine(bool(r)) for case in suite for r in refine_axis]
    results = []
    for case in timed:
        started = time.perf_counter()
        record = measure_case(case, warmup=warmup, repeat=repeat)
        results.append(record)
        print(
            f"  {case.case_id:<28} median {record['median_s'] * 1e3:8.2f} ms"
            f"   ({time.perf_counter() - started:.2f}s incl. warmup/trace)",
            file=sys.stderr,
        )
    if serve_clients:
        serve_suite = QUICK_SUITE
        if families:
            serve_suite = [c for c in serve_suite if c.family in families]
        for case in serve_suite:
            for clients in dict.fromkeys(serve_clients):
                record = measure_serve_case(case, clients=clients)
                results.append(record)
                print(
                    f"  {record['id']:<28} p50 {record['p50_s'] * 1e3:8.2f} ms"
                    f"  p95 {record['p95_s'] * 1e3:8.2f} ms"
                    f"  {record['rps']:6.1f} req/s",
                    file=sys.stderr,
                )
    return {
        "schema": BENCH_SCHEMA,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": quick,
        "config": {"warmup": warmup, "repeat": repeat},
        "env": capture_env(),
        "results": results,
    }


# -- schema validation ---------------------------------------------------------

_RESULT_FIELDS = {
    "id": str,
    "family": str,
    "size": int,
    "property": str,
    "holds": bool,
    "repeats": int,
    "median_s": (int, float),
    "min_s": (int, float),
    "max_s": (int, float),
    "phases": dict,
    "counters": dict,
}


def validate_report(data: object) -> None:
    """Raise :class:`ValueError` unless ``data`` is a valid bench report."""
    if not isinstance(data, dict):
        raise ValueError("bench report must be a JSON object")
    if data.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unknown bench schema {data.get('schema')!r} "
            f"(expected {BENCH_SCHEMA!r})"
        )
    for key in ("generated", "config", "env", "results"):
        if key not in data:
            raise ValueError(f"bench report missing key {key!r}")
    env = data["env"]
    if not isinstance(env, dict) or "python" not in env or "cpu_count" not in env:
        raise ValueError("bench report env must carry python and cpu_count")
    results = data["results"]
    if not isinstance(results, list) or not results:
        raise ValueError("bench report must carry a non-empty results list")
    seen = set()
    for record in results:
        if not isinstance(record, dict):
            raise ValueError("bench result must be an object")
        for field, types in _RESULT_FIELDS.items():
            if field not in record:
                raise ValueError(f"bench result missing field {field!r}")
            if not isinstance(record[field], types) or isinstance(
                record[field], bool
            ) != (types is bool):
                raise ValueError(
                    f"bench result field {field!r} has wrong type "
                    f"{type(record[field]).__name__}"
                )
        # "refine" is optional (reports predating the axis omit it)
        if "refine" in record and not isinstance(record["refine"], bool):
            raise ValueError(
                f"bench result {record['id']!r} has invalid refine field"
            )
        # /r=1 records carry the refinement counter probe (optional too)
        if "refine_counters" in record and not isinstance(
            record["refine_counters"], dict
        ):
            raise ValueError(
                f"bench result {record['id']!r} has invalid "
                f"refine_counters field"
            )
        # serving-scenario records carry a concurrency axis and throughput
        if "clients" in record and (
            not isinstance(record["clients"], int)
            or isinstance(record["clients"], bool)
            or record["clients"] < 1
        ):
            raise ValueError(
                f"bench result {record['id']!r} has invalid clients field"
            )
        for optional in ("rps", "p50_s", "p95_s"):
            if optional in record and (
                not isinstance(record[optional], (int, float))
                or isinstance(record[optional], bool)
                or record[optional] < 0
            ):
                raise ValueError(
                    f"bench result {record['id']!r} has invalid "
                    f"{optional!r} field"
                )
        if record["median_s"] < 0 or record["min_s"] > record["max_s"]:
            raise ValueError(f"bench result {record['id']!r} timings inconsistent")
        if record["id"] in seen:
            raise ValueError(f"duplicate bench result id {record['id']!r}")
        seen.add(record["id"])


# -- compare -------------------------------------------------------------------

def compare_reports(
    old: Dict[str, object],
    new: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    phases: Sequence[str] = ("refine",),
    include_median: bool = True,
) -> List[Dict[str, object]]:
    """Cases whose median regressed by >= ``threshold`` (e.g. 0.20 = +20%).

    Besides the end-to-end median, the phase breakdowns of both reports are
    compared for every name in ``phases`` (default: the ``refine`` phase, so
    a refinement-engine slowdown is flagged even when the surrounding
    unfold/solve work hides it in the total).  Phase entries carry
    ``"metric": "phase:<name>"``; median entries ``"metric": "median_s"``.
    ``include_median=False`` restricts the check to the phase comparisons —
    the CI bench job uses it so a machine-speed difference in the total
    cannot mask or fake a refinement regression.
    """
    validate_report(old)
    validate_report(new)
    old_by_id = {r["id"]: r for r in old["results"]}  # type: ignore[index]
    regressions = []
    for record in new["results"]:  # type: ignore[index]
        before = old_by_id.get(record["id"])
        if before is None:
            continue
        base = float(before["median_s"])
        now = float(record["median_s"])
        if include_median and base > 0.0 and now / base - 1.0 >= threshold:
            regressions.append(
                {
                    "id": record["id"],
                    "metric": "median_s",
                    "old_median_s": base,
                    "new_median_s": now,
                    "ratio": now / base,
                }
            )
        for phase in phases:
            base_p = before.get("phases", {}).get(phase)
            new_p = record.get("phases", {}).get(phase)
            if not base_p or new_p is None or float(base_p) <= 0.0:
                continue
            ratio = float(new_p) / float(base_p)
            if ratio - 1.0 >= threshold:
                regressions.append(
                    {
                        "id": record["id"],
                        "metric": f"phase:{phase}",
                        "old_median_s": float(base_p),
                        "new_median_s": float(new_p),
                        "ratio": ratio,
                    }
                )
    return regressions


# -- CLI -----------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    print(
        f"bench: {'quick' if args.quick else 'full'} suite, "
        f"warmup={args.warmup} repeat={args.repeat}",
        file=sys.stderr,
    )
    report = run_suite(
        quick=args.quick,
        warmup=args.warmup,
        repeat=args.repeat,
        families=args.families,
        serve_clients=args.serve_clients or [],
        refine=args.refine or [0],
    )
    validate_report(report)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    print(f"bench: wrote {len(report['results'])} results to {out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    with open(args.old) as handle:
        old = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    regressions = compare_reports(
        old,
        new,
        threshold=args.threshold,
        include_median=not args.phase_only,
    )
    if not regressions:
        print(
            f"bench compare: no regression >= {args.threshold:.0%} "
            f"({len(new['results'])} cases checked"
            f"{', refine phase only' if args.phase_only else ''})"
        )
        return 0
    print(f"bench compare: {len(regressions)} regression(s):")
    for entry in regressions:
        metric = entry.get("metric", "median_s")
        label = entry["id"] + (
            f" [{metric}]" if metric != "median_s" else ""
        )
        print(
            f"  {label:<28} {entry['old_median_s'] * 1e3:8.2f} ms -> "
            f"{entry['new_median_s'] * 1e3:8.2f} ms  ({entry['ratio']:.2f}x)"
        )
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harness.py", description=__doc__.split("\n", 1)[0]
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run the suite (the default)")
    compare = sub.add_parser(
        "compare", help="diff two bench reports and flag regressions"
    )
    for p in (parser, run):
        p.add_argument(
            "--quick", action="store_true", help="small CI suite (one size/family)"
        )
        p.add_argument("--warmup", type=int, default=1, metavar="N")
        p.add_argument("--repeat", type=int, default=5, metavar="N")
        p.add_argument(
            "--families",
            nargs="*",
            metavar="FAMILY",
            help="restrict to these model families",
        )
        p.add_argument(
            "--serve-clients",
            nargs="*",
            type=int,
            metavar="N",
            help="also run the HTTP serving scenario over the quick-suite "
            "cases, once per concurrent-client count (e.g. "
            "--serve-clients 1 4 16; default: skipped)",
        )
        p.add_argument(
            "--refine",
            nargs="*",
            type=int,
            choices=(0, 1),
            metavar="0|1",
            help="refinement axis: measure each case once per value "
            "(--refine 0 1 records the with/without pair; default: 0)",
        )
        p.add_argument(
            "--out", default=str(DEFAULT_OUT), metavar="FILE.json",
            help=f"report path (default {DEFAULT_OUT.name} at the repo root)",
        )
        p.set_defaults(func=_cmd_run)

    compare.add_argument("old", help="baseline BENCH_*.json")
    compare.add_argument("new", help="candidate BENCH_*.json")
    compare.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        metavar="RATIO",
        help="regression ratio to flag (default 0.20 = +20%%)",
    )
    compare.add_argument(
        "--phase-only",
        action="store_true",
        help="check only the phase comparisons (the refine phase), not the "
        "end-to-end medians — for CI runs on machines unlike the baseline's",
    )
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
