"""Wire schemas of the ``repro-serve/1`` HTTP/JSON protocol.

Every message the service sends or accepts is a JSON object wrapped in a
versioned envelope — ``{"schema": "repro-serve/1", ...}`` — so clients can
reject payloads from an incompatible server (and vice versa) before
interpreting a single field.  This module is deliberately transport-free:
it knows nothing about sockets, only about dictionaries, so the in-process
tests, the stdlib client and the HTTP handler all share one source of truth
for field names and validation.

A check request names its STG in exactly one of three ways:

* ``source`` — the astg ``.g`` text (parsed with the repo's parser);
* ``stg``    — the canonical JSON STG form (:func:`stg_from_json`);
* ``model``  — a registered benchmark model name (``TABLE1_BENCHMARKS`` /
  ``CLASSIC_MODELS``), resolved server-side.

Request options mirror the ``repro-stg check`` flags: ``properties`` (a list
over usc/csc/normalcy), ``engines`` (the portfolio to race), ``node_budget``,
``deadline`` (per-job wall-clock seconds) and ``use_refinement`` (run the
:mod:`repro.refine` prescreen in the ilp engine; verdicts are
byte-identical either way).  Unknown keys are ignored.  Validation
failures raise :class:`ProtocolError`, which the HTTP layer maps to a 400
with a JSON error payload; nothing in this module raises anything else at
a client's fault.

The canonical JSON STG form (``repro-stg-json/1``) round-trips through
:func:`repro.stg.hashing.canonical_stg_hash`: serialising and re-parsing an
STG yields the same content hash, so JSON submissions share cache entries
and dedup slots with ``.g`` submissions of the same net.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.jobs import (
    PROPERTIES,
    SOUND_VERDICTS,
    JobResult,
    VerificationJob,
)
from repro.exceptions import ReproError
from repro.stg.stg import STG, SignalEdge

#: The protocol version tag carried by every envelope.
SCHEMA = "repro-serve/1"

#: The canonical JSON STG format tag (field ``format`` of a ``stg`` payload).
STG_JSON_FORMAT = "repro-stg-json/1"

#: Lifecycle states of a service job.
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

#: States a client can stop polling at.
TERMINAL_STATES = frozenset({STATE_DONE, STATE_FAILED, STATE_CANCELLED})


class ProtocolError(ReproError):
    """A malformed or unsatisfiable request payload (HTTP 400)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def envelope(**payload: Any) -> Dict[str, Any]:
    """Wrap ``payload`` fields in the versioned protocol envelope."""
    document: Dict[str, Any] = {"schema": SCHEMA}
    document.update(payload)
    return document


def error_payload(message: str, **extra: Any) -> Dict[str, Any]:
    """The JSON body of every non-2xx response."""
    return envelope(error=message, **extra)


# -- canonical JSON STG form ---------------------------------------------------


def stg_to_json(stg: STG) -> Dict[str, Any]:
    """Serialise ``stg`` into the canonical JSON form.

    The form mirrors what :func:`repro.stg.hashing.canonical_stg_form`
    hashes: signal declarations, places with their initial tokens,
    transitions with their labels (``None`` for dummies), arcs with weights,
    and the explicitly pinned components of the initial code.
    """
    net = stg.net
    marking = net.initial_marking
    return {
        "format": STG_JSON_FORMAT,
        "name": stg.name,
        "inputs": list(stg.inputs),
        "outputs": list(stg.outputs),
        "internal": list(stg.internal),
        "initial": dict(stg.declared_initial_code),
        "places": [
            [name, marking[index]] for index, name in enumerate(net.places)
        ],
        "transitions": [
            [name, None if stg.label(index) is None else str(stg.label(index))]
            for index, name in enumerate(net.transitions)
        ],
        "arcs": [[source, target, weight] for source, target, weight in net.arcs()],
    }


def _expect_names(payload: Mapping[str, Any], field: str) -> List[str]:
    value = payload.get(field, [])
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ProtocolError(f"stg field {field!r} must be a list of strings")
    return value


def stg_from_json(payload: Any) -> STG:
    """Parse the canonical JSON form back into an :class:`STG`.

    Raises :class:`ProtocolError` on any structural problem — including the
    net-level errors (duplicate nodes, undeclared signals) the STG builder
    itself reports.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError("stg payload must be a JSON object")
    if payload.get("format") != STG_JSON_FORMAT:
        raise ProtocolError(
            f"unknown stg format {payload.get('format')!r} "
            f"(expected {STG_JSON_FORMAT!r})"
        )
    name = payload.get("name", "stg")
    if not isinstance(name, str) or not name:
        raise ProtocolError("stg field 'name' must be a non-empty string")
    try:
        stg = STG(
            name,
            inputs=_expect_names(payload, "inputs"),
            outputs=_expect_names(payload, "outputs"),
            internal=_expect_names(payload, "internal"),
        )
        for entry in payload.get("places", []):
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], int)
                or entry[1] < 0
            ):
                raise ProtocolError(
                    "stg places must be [name, tokens] pairs with tokens >= 0"
                )
            stg.add_place(entry[0], tokens=entry[1])
        for entry in payload.get("transitions", []):
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not (entry[1] is None or isinstance(entry[1], str))
            ):
                raise ProtocolError(
                    "stg transitions must be [name, label-or-null] pairs"
                )
            label = None if entry[1] is None else SignalEdge.parse(entry[1])
            stg.add_transition(entry[0], label)
        for entry in payload.get("arcs", []):
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) not in (2, 3)
                or not isinstance(entry[0], str)
                or not isinstance(entry[1], str)
            ):
                raise ProtocolError(
                    "stg arcs must be [source, target] or [source, target, "
                    "weight] triples"
                )
            weight = entry[2] if len(entry) == 3 else 1
            if not isinstance(weight, int) or weight < 1:
                raise ProtocolError("stg arc weight must be a positive integer")
            stg.net.add_arc(entry[0], entry[1], weight)
        initial = payload.get("initial", {})
        if not isinstance(initial, Mapping):
            raise ProtocolError("stg field 'initial' must be an object")
        for signal, value in initial.items():
            if not isinstance(value, int) or value not in (0, 1):
                raise ProtocolError(
                    f"initial value of signal {signal!r} must be 0 or 1"
                )
            stg.set_initial_value(signal, value)
    except ProtocolError:
        raise
    except (ReproError, ValueError) as exc:
        raise ProtocolError(f"invalid stg payload: {exc}") from exc
    return stg


# -- check requests ------------------------------------------------------------


class CheckRequest:
    """A validated ``POST /v1/check`` payload, resolved to a live STG."""

    def __init__(
        self,
        stg: STG,
        name: str,
        properties: Tuple[str, ...],
        engines: Tuple[str, ...] = ("ilp",),
        node_budget: Optional[int] = None,
        deadline: Optional[float] = None,
        use_refinement: bool = False,
    ):
        self.stg = stg
        self.name = name
        self.properties = properties
        self.engines = engines
        self.node_budget = node_budget
        self.deadline = deadline
        self.use_refinement = use_refinement
        self.stg_hash = stg.content_hash()

    def jobs(
        self,
        default_deadline: Optional[float] = None,
        cert_cache_dir: Optional[str] = None,
    ) -> List[VerificationJob]:
        """One :class:`VerificationJob` per requested property.

        ``cert_cache_dir`` points refinement jobs at the service's result
        cache so their dual certificates persist across requests; it is a
        perf hint excluded from both the job cache identity and the request
        dedup key (certificates are always re-verified on replay).
        """
        deadline = self.deadline if self.deadline is not None else default_deadline
        try:
            return [
                VerificationJob(
                    stg=self.stg,
                    property=prop,
                    engines=self.engines,
                    timeout=deadline,
                    node_budget=self.node_budget,
                    use_refinement=self.use_refinement,
                    cert_cache_dir=(
                        cert_cache_dir if self.use_refinement else None
                    ),
                    name=self.name,
                    stg_hash=self.stg_hash,
                )
                for prop in self.properties
            ]
        except ReproError as exc:  # unknown engine names surface here
            raise ProtocolError(str(exc)) from exc

    def dedup_key(self) -> Tuple:
        """The in-flight deduplication identity of this request.

        Content hash plus everything that can change the *reported* result:
        the property set, the engine portfolio and the resource limits.  Two
        concurrent requests with equal keys would do byte-identical work, so
        the second piggybacks on the first instead of queueing.
        """
        return (
            self.stg_hash,
            self.properties,
            self.engines,
            self.node_budget,
            self.deadline,
            self.use_refinement,
        )


def parse_check_request(payload: Any) -> CheckRequest:
    """Validate a ``POST /v1/check`` body into a :class:`CheckRequest`."""
    if not isinstance(payload, Mapping):
        raise ProtocolError("request body must be a JSON object")
    schema = payload.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise ProtocolError(
            f"unsupported schema {schema!r} (this server speaks {SCHEMA!r})"
        )
    sources = [key for key in ("source", "stg", "model") if key in payload]
    if len(sources) != 1:
        raise ProtocolError(
            "request must carry exactly one of 'source' (astg text), 'stg' "
            "(canonical JSON) or 'model' (registered name); got "
            f"{sources or 'none'}"
        )
    kind = sources[0]
    if kind == "source":
        text = payload["source"]
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError("'source' must be non-empty astg text")
        from repro.stg.parser import parse_stg

        try:
            stg = parse_stg(text)
        except ReproError as exc:
            raise ProtocolError(f"cannot parse 'source': {exc}") from exc
        name = stg.name
    elif kind == "stg":
        stg = stg_from_json(payload["stg"])
        name = stg.name
    else:
        model = payload["model"]
        if not isinstance(model, str):
            raise ProtocolError("'model' must be a registered model name")
        from repro.engine.batch import resolve_target

        try:
            name, stg = resolve_target(model)
        except ReproError as exc:
            raise ProtocolError(str(exc)) from exc

    properties = payload.get("properties", ["csc"])
    if (
        not isinstance(properties, list)
        or not properties
        or not all(isinstance(prop, str) for prop in properties)
    ):
        raise ProtocolError("'properties' must be a non-empty list of strings")
    properties = [prop.lower() for prop in properties]
    for prop in properties:
        if prop not in PROPERTIES:
            raise ProtocolError(
                f"unknown property {prop!r}; expected one of "
                f"{', '.join(PROPERTIES)}"
            )

    engines = payload.get("engines", ["ilp"])
    if (
        not isinstance(engines, list)
        or not engines
        or not all(isinstance(engine, str) for engine in engines)
    ):
        raise ProtocolError("'engines' must be a non-empty list of strings")

    node_budget = payload.get("node_budget")
    if node_budget is not None and (
        not isinstance(node_budget, int) or node_budget < 1
    ):
        raise ProtocolError("'node_budget' must be a positive integer")

    deadline = payload.get("deadline")
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or deadline <= 0:
            raise ProtocolError("'deadline' must be a positive number of seconds")
        deadline = float(deadline)

    use_refinement = payload.get("use_refinement", False)
    if not isinstance(use_refinement, bool):
        raise ProtocolError("'use_refinement' must be a boolean")

    request = CheckRequest(
        stg=stg,
        name=str(payload.get("name", name)),
        properties=tuple(dict.fromkeys(properties)),
        engines=tuple(dict.fromkeys(engines)),
        node_budget=node_budget,
        deadline=deadline,
        use_refinement=use_refinement,
    )
    # Fail fast on unknown engine names: building the jobs validates them.
    request.jobs()
    return request


# -- results -------------------------------------------------------------------


def result_to_dict(result: JobResult) -> Dict[str, Any]:
    """One property's outcome as a wire dictionary."""
    return {
        "property": result.property,
        "verdict": result.verdict,
        "holds": result.holds,
        "engine": result.engine,
        "witness": result.witness,
        "elapsed": result.elapsed,
        "source": result.source,
        "error": result.error,
        "stats": result.stats,
    }


def exit_code_for(results: Sequence[Mapping[str, Any]]) -> int:
    """The ``repro-stg check`` exit semantics over wire result dicts.

    2 when any property failed to reach a sound verdict (timeout, budget,
    engine error), else 1 when any property is violated, else 0 — exactly
    the contract of ``repro.cli._run_check``.
    """
    if any(result["verdict"] not in SOUND_VERDICTS for result in results):
        return 2
    if any(result["holds"] is False for result in results):
        return 1
    return 0
