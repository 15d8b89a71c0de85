"""Tests for the content-addressed on-disk result cache."""

import json

from repro.engine.cache import SCHEMA_VERSION, ResultCache
from repro.engine.jobs import (
    VERDICT_TIMEOUT,
    VerificationJob,
    execute_engine,
    failure_result,
)
from repro.models import TABLE1_BENCHMARKS, vme_bus

from tests.stg.test_hashing import build as build_permutable


def _job(prop="csc", name="RING"):
    return VerificationJob(stg=TABLE1_BENCHMARKS[name](), property=prop)


class TestRoundTrip:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        assert cache.get(job) is None
        assert cache.misses == 1

        result = execute_engine(job, "ilp")
        assert cache.put(job, result)
        cached = cache.get(job)
        assert cached is not None
        assert cache.hits == 1
        assert cached.from_cache is True
        assert cached.verdict == result.verdict
        assert cached.holds == result.holds
        assert cached.engine == result.engine
        assert cached.witness == result.witness
        assert len(cache) == 1

    def test_key_separates_properties(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job("csc"), execute_engine(_job("csc"), "ilp"))
        assert cache.get(_job("usc")) is None

    def test_key_separates_models(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), execute_engine(_job(), "ilp"))
        assert cache.get(_job(name="LAZYRING")) is None

    def test_reordered_construction_hits_same_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        original = VerificationJob(stg=build_permutable(), property="csc")
        cache.put(original, execute_engine(original, "sg"))
        reordered = VerificationJob(
            stg=build_permutable(
                place_order=(2, 0, 3, 1), transition_order=(1, 3, 2, 0)
            ),
            property="csc",
        )
        assert cache.get(reordered) is not None

    def test_verdict_served_across_engine_choices(self, tmp_path):
        cache = ResultCache(tmp_path)
        single = VerificationJob(stg=vme_bus(), property="csc", engines=("sg",))
        cache.put(single, execute_engine(single, "sg"))
        portfolio = VerificationJob(
            stg=vme_bus(), property="csc", engines=("ilp", "sat")
        )
        hit = cache.get(portfolio)
        assert hit is not None and hit.engine == "sg"


class TestSoundness:
    def test_unsound_results_never_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        timeout = failure_result(job, VERDICT_TIMEOUT, error="too slow")
        assert cache.put(job, timeout) is False
        assert cache.get(job) is None
        assert len(cache) == 0

    def test_schema_version_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, execute_engine(job, "ilp"))
        (entry,) = list(tmp_path.glob("??/*.json"))
        payload = json.loads(entry.read_text())
        payload["schema"] = SCHEMA_VERSION + 1
        entry.write_text(json.dumps(payload))
        assert cache.get(job) is None

    def test_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, execute_engine(job, "ilp"))
        (entry,) = list(tmp_path.glob("??/*.json"))
        entry.write_text("{not json")
        assert cache.get(job) is None


class TestMaintenance:
    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for prop in ("usc", "csc"):
            cache.put(_job(prop), execute_engine(_job(prop), "ilp"))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_empty_cache_dir_never_created_eagerly(self, tmp_path):
        cache = ResultCache(tmp_path / "sub")
        assert len(cache) == 0
        assert cache.clear() == 0
        assert not (tmp_path / "sub").exists()


class TestStats:
    def test_empty_store(self, tmp_path):
        stats = ResultCache(tmp_path / "nope").stats()
        assert stats["entries"] == 0
        assert stats["total_bytes"] == 0
        assert stats["oldest_mtime"] is None

    def test_breakdowns(self, tmp_path):
        cache = ResultCache(tmp_path)
        for prop in ("usc", "csc"):
            cache.put(_job(prop), execute_engine(_job(prop), "ilp"))
        cache.put(
            _job("csc", "LAZYRING"),
            execute_engine(_job("csc", "LAZYRING"), "ilp"),
        )
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        assert stats["by_property"] == {"usc": 1, "csc": 2}
        # RING holds CSC but violates USC; LAZYRING violates CSC
        assert stats["by_verdict"] == {"holds": 1, "violated": 2}
        assert stats["by_schema"] == {str(SCHEMA_VERSION): 3}
        assert stats["oldest_mtime"] <= stats["newest_mtime"]
        assert stats["unreadable"] == 0

    def test_unreadable_entries_counted_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), execute_engine(_job(), "ilp"))
        (entry,) = list(tmp_path.glob("??/*.json"))
        entry.write_text("{broken")
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["unreadable"] == 1


class TestPrune:
    def test_prunes_only_old_entries(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        cache.put(_job("usc"), execute_engine(_job("usc"), "ilp"))
        cache.put(_job("csc"), execute_engine(_job("csc"), "ilp"))
        old = cache._path(cache.key_for(_job("usc")))
        week_ago = time.time() - 7 * 86400
        os.utime(old, (week_ago, week_ago))
        assert cache.prune(older_than=86400) == 1
        assert not old.exists()
        assert cache.get(_job("csc")) is not None
        # nothing left over the cutoff: pruning again removes nothing
        assert cache.prune(older_than=86400) == 0

    def test_prune_zero_removes_everything_old_keeps_now(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put(_job(), execute_engine(_job(), "ilp"))
        (entry,) = list(tmp_path.glob("??/*.json"))
        os.utime(entry, (1.0, 1.0))
        assert cache.prune(older_than=0) == 1

    def test_prune_sweeps_orphaned_tmp_files(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put(_job(), execute_engine(_job(), "ilp"))
        orphan = tmp_path / "ab" / ".tmp-dead.json"
        orphan.parent.mkdir(exist_ok=True)
        orphan.write_text("{}")
        os.utime(orphan, (1.0, 1.0))
        # tmp files do not count as removed entries, but they are gone
        assert cache.prune(older_than=3600) == 0
        assert not orphan.exists()

    def test_negative_age_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune(older_than=-1)

    def test_missing_root_is_a_noop(self, tmp_path):
        assert ResultCache(tmp_path / "nope").prune(older_than=0) == 0


class TestConcurrentWriters:
    """The atomic temp-file + rename contract under real thread races."""

    def test_same_key_concurrent_puts_never_tear(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        job = _job()
        result = execute_engine(job, "ilp")
        writers = 8
        rounds = 25
        barrier = threading.Barrier(writers + 1)
        failures = []

        def writer():
            barrier.wait()
            for _ in range(rounds):
                if not cache.put(job, result):
                    failures.append("put returned False")

        def reader():
            barrier.wait()
            read_cache = ResultCache(tmp_path)  # separate counters
            seen = 0
            while seen < rounds:
                got = read_cache.get(job)
                if got is None:
                    continue  # not yet written at all: fine, retry
                seen += 1
                # a torn write would produce invalid JSON -> a miss, or a
                # mangled payload; both would break these invariants
                if got.verdict != result.verdict or got.holds != result.holds:
                    failures.append(f"torn read: {got}")

        threads = [threading.Thread(target=writer) for _ in range(writers)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert failures == []
        assert len(cache) == 1  # all writers converged on one entry
        final = cache.get(job)
        assert final is not None and final.verdict == result.verdict
        # no temp-file litter survived the rename dance
        assert list(tmp_path.glob("??/.tmp-*")) == []

    def test_interleaved_distinct_keys(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        jobs = {prop: _job(prop) for prop in ("usc", "csc")}
        results = {
            prop: execute_engine(job, "ilp") for prop, job in jobs.items()
        }
        barrier = threading.Barrier(2)

        def hammer(prop):
            barrier.wait()
            for _ in range(50):
                cache.put(jobs[prop], results[prop])
                got = cache.get(jobs[prop])
                assert got is not None
                assert got.property == prop
                assert got.holds == results[prop].holds

        threads = [
            threading.Thread(target=hammer, args=(prop,)) for prop in jobs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(cache) == 2


class TestRefineDomains:
    """The refine-cert key domain."""

    _HASH = "a" * 64

    def _cert_body(self):
        return {"bound": {"place": "p", "sign": 1, "y_eq": {}, "y_ub": {}}}

    def test_cert_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_refine_cert(self._HASH, "p", 1) is None
        assert cache.put_refine_cert(self._HASH, "p", 1, self._cert_body())
        assert cache.get_refine_cert(self._HASH, "p", 1) == self._cert_body()

    def test_cert_lookups_leave_the_verdict_counters_alone(self, tmp_path):
        """``hits``/``misses`` feed the verdict hit ratio; refinement
        counts its own replays (``refine.cert_cache_hits``)."""
        cache = ResultCache(tmp_path)
        assert cache.get_refine_cert(self._HASH, "p", 1) is None
        cache.put_refine_cert(self._HASH, "p", 1, self._cert_body())
        assert cache.get_refine_cert(self._HASH, "p", 1) is not None
        assert (cache.hits, cache.misses) == (0, 0)

    def test_cert_key_separates_stg_place_and_sign(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_refine_cert(self._HASH, "p", 1, self._cert_body())
        assert cache.get_refine_cert(self._HASH, "q", 1) is None
        assert cache.get_refine_cert(self._HASH, "p", -1) is None
        assert cache.get_refine_cert("b" * 64, "p", 1) is None

    def test_domains_never_collide_with_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, execute_engine(job, "sg"))
        cache.put_refine_cert(job.stg_hash, "p", 1, self._cert_body())
        assert len(cache) == 2
        assert cache.get(job) is not None

    def test_stats_by_domain(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, execute_engine(job, "sg"))
        cache.put_refine_cert(self._HASH, "p", 1, self._cert_body())
        by_domain = cache.stats()["by_domain"]
        assert by_domain == {"result": 1, "refine-cert": 1}

    def test_corrupt_cert_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_refine_cert(self._HASH, "p", 1, self._cert_body())
        path = cache._path(cache.refine_cert_key_for(self._HASH, "p", 1))
        path.write_text("{not json")
        assert cache.get_refine_cert(self._HASH, "p", 1) is None


class TestVerdictCounters:
    """What ``batch`` and serve's ``cache.hit_ratio`` report."""

    def _run(self, cache):
        from repro.engine.pool import WorkerPool
        from repro.engine.portfolio import run_jobs

        stg = TABLE1_BENCHMARKS["CF-SYM-A-CSC"]()
        jobs = [
            VerificationJob(stg=stg, property=prop, use_refinement=True)
            for prop in ("usc", "csc")
        ]
        with WorkerPool(max_workers=0) as pool:
            return run_jobs(jobs, pool, cache=cache)

    def test_run_jobs_counts_one_lookup_per_job(self, tmp_path):
        cold = ResultCache(tmp_path)
        results = self._run(cold)
        assert all(result.holds for result in results)
        assert (cold.hits, cold.misses) == (0, 2)
        warm = ResultCache(tmp_path)
        self._run(warm)
        assert (warm.hits, warm.misses) == (2, 0)
