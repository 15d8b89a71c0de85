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
from repro.refine import cut_set_hash, refine_prescreen, verify_cut
from repro.refine.cuts import Cut
from repro.unfolding import unfold

pytest.importorskip("scipy")


def _context(stg):
    return SolverContext(unfold(stg))


def _fingerprint(outcome):
    """Everything observable: verdict, cuts, certificate bytes."""
    certificate = outcome.certificate
    return (
        outcome.refuted,
        tuple(cut.to_dict().items() for cut in outcome.cuts),
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

    def test_corrupted_cut_log_is_dropped_not_trusted(self, store):
        stg, cold = self._cold(store)
        stg_hash = stg.content_hash()
        bogus = Cut(kind="trap", places=("no-such-place",), marked=True)
        store.put_refine_cuts(stg_hash, [bogus.to_dict()])
        warm = refine_prescreen(_context(stg), cert_store=store)
        assert _fingerprint(warm) == _fingerprint(cold)
        assert not warm.cuts  # the forged log entry was never replayed

    def test_cached_bound_replays_log_cuts_first(self, store):
        """A cert certified under a deeper cut state re-applies the missing
        log cuts (exact-verified) before its bound is re-checked."""
        from repro.analysis import analyze
        from repro.analysis.facts import FACT_TRAP
        from repro.refine.cuts import CUT_TRAP

        stg, cold = self._cold(store)
        stg_hash = stg.content_hash()
        context = _context(stg)
        # a genuine marked trap of the unfolded net makes a verifiable cut
        from repro.refine.relaxation import build_relaxation

        net = build_relaxation(context).net
        trap_fact = next(
            fact
            for fact in analyze(stg).of_kind(FACT_TRAP)
            if fact.justification.get("marked")
            and all(
                place in net._place_index
                for place in fact.justification["places"]
            )
        )
        cut = Cut(
            kind=CUT_TRAP,
            places=tuple(sorted(trap_fact.justification["places"])),
            marked=True,
        )
        assert verify_cut(net, cut)
        store.put_refine_cuts(stg_hash, [cut.to_dict()])
        # rewrite one stored cert to claim it was certified after that cut
        rewritten = 0
        for path in store._entries():
            payload = json.loads(path.read_text())
            if payload.get("domain") != "refine-cert":
                continue
            payload["body"]["cuts_after"] = 1
            payload["body"]["cuts_referenced"] = True
            payload["cuts_referenced"] = True
            path.write_text(json.dumps(payload))
            rewritten += 1
            break
        assert rewritten == 1
        warm = refine_prescreen(_context(stg), cert_store=store)
        # the extension cut was replayed before the (still valid) bound
        assert warm.refuted
        assert cut in warm.cuts
        assert warm.cert_cache_hits > 0

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

    def test_cut_set_hash_is_order_sensitive(self):
        a = Cut(kind="trap", places=("p", "q"), marked=True)
        b = Cut(kind="siphon", places=("r",), marked=False)
        assert cut_set_hash([a, b]) != cut_set_hash([b, a])
        assert cut_set_hash([]) == cut_set_hash([])
