"""Byte-identity of the incremental sweep, reference path and cert cache.

The incremental engine (shared solver model, dominance tier, sign-convention
memory, certificate cache) is a pure performance layer: for every model the
emitted certificate must serialise to exactly the same bytes as the
from-scratch reference path (``incremental=False``), and a warm run replaying
cached certificates must reproduce the cold run verbatim.  Tampered cache
material must be re-solved, never trusted — with the final result still
byte-identical.
"""

import json

import pytest

from repro.core.context import SolverContext
from repro.engine.cache import ResultCache
from repro.models import TABLE1_BENCHMARKS
from repro.models.ring import lazy_ring, token_ring
from repro.models.scalable import muller_pipeline
from repro.refine import refine_prescreen
from repro.unfolding import unfold

pytest.importorskip("scipy")


def _context(stg):
    return SolverContext(unfold(stg))


def _fingerprint(outcome):
    """Everything observable: verdict, certificate bytes."""
    certificate = outcome.certificate
    return (
        outcome.refuted,
        None
        if certificate is None
        else json.dumps(certificate.to_dict(), sort_keys=True),
    )


class TestIncrementalMatchesReference:
    @pytest.mark.parametrize("name", sorted(TABLE1_BENCHMARKS))
    def test_table1_models(self, name):
        stg = TABLE1_BENCHMARKS[name]()
        incremental = refine_prescreen(_context(stg), incremental=True)
        reference = refine_prescreen(_context(stg), incremental=False)
        assert _fingerprint(incremental) == _fingerprint(reference)

    @pytest.mark.parametrize(
        "build", [lambda: muller_pipeline(4), lambda: token_ring(4),
                  lambda: lazy_ring(2)],
        ids=["muller-4", "token-ring-4", "vme-2"],
    )
    def test_scalable_families(self, build):
        incremental = refine_prescreen(_context(build()), incremental=True)
        reference = refine_prescreen(_context(build()), incremental=False)
        assert _fingerprint(incremental) == _fingerprint(reference)


class TestCertificateCache:
    @pytest.fixture()
    def store(self, tmp_path):
        return ResultCache(tmp_path / "cache")

    def _cold(self, store, name="CF-SYM-A-CSC"):
        stg = TABLE1_BENCHMARKS[name]()
        outcome = refine_prescreen(_context(stg), cert_store=store)
        assert outcome.refuted
        return stg, outcome

    def test_warm_run_replays_byte_identically(self, store):
        stg, cold = self._cold(store)
        warm = refine_prescreen(_context(stg), cert_store=store)
        assert _fingerprint(warm) == _fingerprint(cold)
        assert warm.cert_cache_hits > 0
        assert warm.lp_calls == 0  # every objective came from the store

    def test_warm_reference_path_matches_too(self, store):
        stg, cold = self._cold(store)
        warm = refine_prescreen(
            _context(stg), cert_store=store, incremental=False
        )
        assert _fingerprint(warm) == _fingerprint(cold)
        assert warm.cert_cache_hits > 0

    def _tamper_certs(self, store):
        """Corrupt the bound of every stored refine-cert entry."""
        tampered = 0
        for path in store._entries():
            payload = json.loads(path.read_text())
            if payload.get("domain") != "refine-cert":
                continue
            payload["body"]["bound"]["y_eq"] = {}
            payload["body"]["bound"]["y_ub"] = {}
            path.write_text(json.dumps(payload))
            tampered += 1
        return tampered

    def test_tampered_cert_is_resolved_not_trusted(self, store):
        stg, cold = self._cold(store)
        assert self._tamper_certs(store) > 0
        warm = refine_prescreen(_context(stg), cert_store=store)
        assert _fingerprint(warm) == _fingerprint(cold)
        assert warm.cert_cache_hits == 0  # nothing replayed
        assert warm.lp_calls == cold.lp_calls  # everything re-solved

    def test_distinct_objectives_get_distinct_entries(self, store):
        _, cold = self._cold(store)
        certs = sum(
            1
            for path in store._entries()
            if json.loads(path.read_text()).get("domain") == "refine-cert"
        )
        # one entry per certified (place, sign) objective — dominated
        # objectives reuse their twin's entry and store nothing
        assert certs == len(cold.certificate.bounds) - cold.dominated

