"""``repro.obs`` — dependency-free tracing, metrics and profiling.

The observability layer every other subsystem reports into: nested
wall-clock **spans**, monotonic **counters**, **gauges**, and accumulating
**timers**, collected in a thread-safe in-memory registry and exportable as
JSON or JSONL (docs/observability.md documents the span taxonomy, the
counter catalogue and the trace schema).

The module-level functions operate on one process-wide default
:class:`Tracer`, which is **disabled** by default — every instrumented call
site in the unfolder, the solvers and the engine is a guarded no-op until
``repro-stg profile``, ``--trace-out``, the benchmark harness, or the
``REPRO_TRACE`` environment variable switches it on:

    from repro import obs

    with obs.trace("unfold.run"):
        ...
    obs.incr("unfold.events")
    obs.gauge_max("unfold.queue_peak", len(queue))

Overhead contract: with tracing disabled every helper here returns after a
single boolean test; hot loops guard on :func:`enabled` so the disabled
cost of the whole subsystem is one attribute check per instrumented
operation.  ``repro-stg check`` timings with the tracer off are required to
stay within noise of the pre-instrumentation build (see the acceptance
tests in tests/obs/).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.export import (
    TRACE_SCHEMA,
    iter_jsonl_records,
    read_jsonl,
    to_json,
    write_jsonl,
)
from repro.obs.tracer import (
    PHASE_PREFIXES,
    Span,
    Stopwatch,
    Tracer,
    phase_times_from,
)

__all__ = [
    "Tracer",
    "Span",
    "Stopwatch",
    "PHASE_PREFIXES",
    "TRACE_SCHEMA",
    "get_tracer",
    "set_tracer",
    "enabled",
    "enable_tracing",
    "disable_tracing",
    "reset",
    "trace",
    "event",
    "incr",
    "gauge",
    "gauge_max",
    "add_time",
    "timed",
    "stopwatch",
    "snapshot",
    "phase_times",
    "phase_times_from",
    "to_json",
    "write_jsonl",
    "read_jsonl",
    "iter_jsonl_records",
]

#: The process-wide default tracer (disabled unless REPRO_TRACE is set).
_default = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer instance."""
    return _default


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer (tests); returns the previous one."""
    global _default
    previous, _default = _default, tracer
    return previous


def enabled() -> bool:
    return _default.enabled


def enable_tracing() -> None:
    _default.enable()


def disable_tracing() -> None:
    _default.disable()


def reset() -> None:
    _default.reset()


def trace(name: str):
    """``with obs.trace("subsystem.operation"): ...``"""
    return _default.span(name)


def event(name: str) -> None:
    _default.event(name)


def incr(name: str, amount: int = 1) -> None:
    _default.incr(name, amount)


def gauge(name: str, value: float) -> None:
    _default.gauge(name, value)


def gauge_max(name: str, value: float) -> None:
    _default.gauge_max(name, value)


def add_time(name: str, seconds: float, calls: int = 1) -> None:
    _default.add_time(name, seconds, calls)


def timed(name: str):
    return _default.timed(name)


def stopwatch(name: Optional[str] = None) -> Stopwatch:
    return _default.stopwatch(name)


def snapshot() -> Dict[str, object]:
    return _default.snapshot()


def phase_times() -> Dict[str, float]:
    return _default.phase_times()
