"""Content-addressed on-disk cache of verification results.

Results are keyed by what they *mean*, not by where they came from: the key
is the SHA-256 of the job's canonical STG content hash
(:func:`repro.stg.hashing.canonical_stg_hash`) plus the property name, under
a schema version.  Consequences:

* reordering places/transitions in a ``.g`` file, or rebuilding the same
  model programmatically, still hits the cache;
* a sound verdict cached from one engine is served to portfolios that do
  not even include that engine (verdicts are engine-independent);
* unsound results (timeout / limit / error) are **never** stored — a rerun
  with a bigger budget must actually rerun;
* bumping :data:`SCHEMA_VERSION` (or the hash scheme version) invalidates
  every entry without touching the files.

Entries are one JSON file each, written atomically (temp file + ``rename``)
and fanned out over 256 two-hex-digit subdirectories so that even millions
of entries keep directory listings fast; the mechanics live in the shared
:class:`repro.utils.filestore.FileStore` (also used by the fuzz corpus).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.engine.jobs import SOURCE_CACHE, JobResult, VerificationJob
from repro.utils.filestore import FileStore

#: Bump to invalidate every stored result (e.g. when JobResult grows fields).
#: v4: refinement certificate entries (``get_refine_cert``/``put_refine_cert``)
#:     share the store under their own key domain; their payloads carry
#:     ``REFINE_VERSION``, which invalidates them separately.
SCHEMA_VERSION = 4


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else the XDG-style ``~/.cache/repro-stg``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-stg"


class ResultCache:
    """A directory of cached :class:`JobResult` objects.

    ``hits`` and ``misses`` count verdict lookups (:meth:`get`) only — they
    feed the hit ratio users read; refinement counts its own certificate
    replays (``refine.cert_cache_hits``).
    """

    def __init__(self, root: Union[str, Path]):
        self._store = FileStore(root)
        self.hits = 0
        self.misses = 0

    @property
    def root(self) -> Path:
        return self._store.root

    # -- keys ----------------------------------------------------------------

    def key_for(self, job: VerificationJob) -> str:
        stg_hash, prop = job.cache_fields()
        material = f"repro-result-cache:v{SCHEMA_VERSION}\n{stg_hash}\n{prop}\n"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self._store.path_for(key)

    def _write_atomic(self, path: Path, payload: Dict[str, object]) -> bool:
        """Write one entry atomically via the shared :class:`FileStore`."""
        return self._store.write_atomic(path, payload)

    # -- store/load ----------------------------------------------------------

    def get(self, job: VerificationJob) -> Optional[JobResult]:
        """The cached result for ``job``, re-badged ``from_cache=True``."""
        path = self._path(self.key_for(job))
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if payload.get("schema") != SCHEMA_VERSION:
            self.misses += 1
            return None
        try:
            result = JobResult(
                job_id=payload["job_id"],
                name=payload["name"],
                property=payload["property"],
                verdict=payload["verdict"],
                engine=payload.get("engine"),
                holds=payload.get("holds"),
                elapsed=payload.get("elapsed", 0.0),
                from_cache=True,
                source=SOURCE_CACHE,
                attempts=payload.get("attempts", 1),
                witness=payload.get("witness"),
                stats=payload.get("stats", {}),
                error=payload.get("error"),
                certificate=payload.get("certificate"),
            )
        except KeyError:
            self.misses += 1
            return None
        if not result.sound:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, job: VerificationJob, result: JobResult) -> bool:
        """Store a *sound* result; returns whether anything was written."""
        if not result.sound:
            return False
        payload = {
            "schema": SCHEMA_VERSION,
            "job_id": result.job_id,
            "name": result.name,
            "property": result.property,
            "verdict": result.verdict,
            "engine": result.engine,
            "holds": result.holds,
            "elapsed": result.elapsed,
            "attempts": result.attempts,
            "witness": result.witness,
            "stats": result.stats,
            "error": result.error,
            # the *producing* source ("fresh"/"lint"); get() rebadges "cache"
            "source": result.source,
            "certificate": result.certificate,
            "domain": "result",
        }
        return self._write_atomic(self._path(self.key_for(job)), payload)

    # -- refinement certificates ---------------------------------------------

    @staticmethod
    def _refine_version() -> int:
        # imported lazily: repro.refine pulls in scipy-adjacent modules the
        # cache must not require
        from repro.refine.certificate import REFINE_VERSION

        return int(REFINE_VERSION)

    def refine_cert_key_for(self, stg_hash: str, place: str, sign: int) -> str:
        """Key of one verified dual bound: the objective's ``(place, sign)``
        of one STG.  Distinct key domain — a cert entry can never shadow a
        verdict."""
        material = (
            f"repro-refine-cert:v{SCHEMA_VERSION}\n{stg_hash}\n{place}\n{sign}\n"
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def get_refine_cert(
        self, stg_hash: str, place: str, sign: int
    ) -> Optional[Dict[str, Any]]:
        """The cached bound payload (``{"bound": ...}``), or ``None``.
        Callers re-verify the bound with exact arithmetic — the store is a
        shortcut, never an authority."""
        path = self._path(self.refine_cert_key_for(stg_hash, place, sign))
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            payload.get("schema") != SCHEMA_VERSION
            or payload.get("domain") != "refine-cert"
            or payload.get("refine_version") != self._refine_version()
        ):
            return None
        body = payload.get("body")
        return body if isinstance(body, dict) else None

    def put_refine_cert(
        self, stg_hash: str, place: str, sign: int, body: Dict[str, Any]
    ) -> bool:
        """Store one verified dual bound atomically."""
        payload = {
            "schema": SCHEMA_VERSION,
            "domain": "refine-cert",
            "property": "refine-cert",
            "verdict": "certificate",
            "refine_version": self._refine_version(),
            "stg_hash": stg_hash,
            "body": body,
        }
        return self._write_atomic(
            self._path(self.refine_cert_key_for(stg_hash, place, sign)), payload
        )

    # -- maintenance ---------------------------------------------------------

    def _entries(self):
        """Every finished entry file (in-flight ``.tmp-*`` files excluded —
        ``pathlib.glob`` matches dotfiles, unlike shell globs).  Delegates
        to the shared :meth:`FileStore.entries`."""
        yield from self._store.entries()

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def stats(self) -> Dict[str, object]:
        """Inspect the on-disk store: entry counts, bytes, breakdowns.

        Reads every entry's JSON (cheap: one small file each), so operators
        can see what the store actually holds — entries by property, by
        verdict, by schema version (stale-schema entries are dead weight
        that :meth:`prune` with ``older_than=0`` will not remove but a
        schema bump made unreachable), plus age bounds for sizing a prune.
        """
        entries = 0
        total_bytes = 0
        by_property: Dict[str, int] = {}
        by_verdict: Dict[str, int] = {}
        by_schema: Dict[str, int] = {}
        by_domain: Dict[str, int] = {}
        oldest: Optional[float] = None
        newest: Optional[float] = None
        unreadable = 0
        if self.root.exists():
            for path in self._entries():
                try:
                    stat = path.stat()
                    payload = json.loads(path.read_text())
                except (OSError, ValueError):
                    unreadable += 1
                    continue
                entries += 1
                total_bytes += stat.st_size
                oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
                newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
                prop = str(payload.get("property", "?"))
                by_property[prop] = by_property.get(prop, 0) + 1
                verdict = str(payload.get("verdict", "?"))
                by_verdict[verdict] = by_verdict.get(verdict, 0) + 1
                schema = str(payload.get("schema", "?"))
                by_schema[schema] = by_schema.get(schema, 0) + 1
                domain = str(payload.get("domain", "result"))
                by_domain[domain] = by_domain.get(domain, 0) + 1
        return {
            "root": str(self.root),
            "schema_version": SCHEMA_VERSION,
            "entries": entries,
            "total_bytes": total_bytes,
            "unreadable": unreadable,
            "by_property": by_property,
            "by_verdict": by_verdict,
            "by_schema": by_schema,
            "by_domain": by_domain,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def prune(
        self, older_than: float, now: Optional[float] = None
    ) -> int:
        """Delete entries last written more than ``older_than`` seconds ago.

        Also sweeps orphaned ``.tmp-*`` files of the same age (leftovers of
        writers killed between ``mkstemp`` and ``rename``).  Returns the
        number of cache entries removed; concurrent writers are safe — an
        entry rewritten after the cutoff check simply survives the next
        prune, and unlink races are tolerated.
        """
        if older_than < 0:
            raise ValueError("older_than must be >= 0 seconds")
        cutoff = (now if now is not None else time.time()) - older_than
        removed = 0
        if not self.root.exists():
            return removed
        candidates = [(path, True) for path in self._entries()]
        candidates += [(path, False) for path in self._store.tmp_files()]
        for path, is_entry in candidates:
            try:
                if path.stat().st_mtime >= cutoff:
                    continue
                path.unlink()
            except OSError:
                continue  # concurrent prune/rewrite; nothing to do
            if is_entry:
                removed += 1
        return removed

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self._entries():
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
