"""The lint stage-zero of the portfolio pipeline, end to end.

This file carries the acceptance test of the lint subsystem: a statically
USC-safe model must settle through the certifying pre-filter with the pool
spawning *zero* checker tasks.
"""

import json

from repro.engine import events as ev
from repro.engine.batch import build_jobs, run_batch
from repro.engine.cache import SCHEMA_VERSION, ResultCache
from repro.engine.jobs import (
    SOURCE_CACHE,
    SOURCE_FRESH,
    SOURCE_LINT,
    VerificationJob,
)
from repro.engine.pool import WorkerPool
from repro.engine.portfolio import run_jobs
from repro.lint import verify_certificate
from repro.models import TABLE1_BENCHMARKS, toggle_bank, token_ring
from tests.conftest import TABLE1_VERDICTS


def run_inline(jobs, cache=None, lint=True):
    log = ev.EventLog()
    with WorkerPool(max_workers=0, events=log) as pool:
        results = run_jobs(jobs, pool, cache=cache, events=log, lint=lint)
    return results, log


def bank_jobs(properties=("usc",)):
    stg = toggle_bank(3)
    return [
        VerificationJob(stg=stg, property=prop, engines=("ilp",), name="bank")
        for prop in properties
    ]


class TestLintShortCircuit:
    def test_statically_safe_model_never_reaches_the_pool(self):
        """Acceptance: the pool spawns zero checker tasks for a statically
        USC-safe model — lint settles the job before submission."""
        results, log = run_inline(bank_jobs(("usc", "csc")))
        assert log.of_kind(ev.TASK_STARTED) == []
        for result in results:
            assert result.holds is True
            assert result.engine == "lint"
            assert result.source == SOURCE_LINT
            assert result.sound
            assert result.stats == {"lint_rule": "C301"}
            assert verify_certificate(toggle_bank(3), result.certificate)

    def test_lint_report_shared_across_properties(self):
        _, log = run_inline(bank_jobs(("usc", "csc")))
        assert len(log.of_kind(ev.LINT_PASS)) == 1
        assert len(log.of_kind(ev.LINT_DECIDED)) == 2
        assert log.stats.lint_passes == 1
        assert log.stats.lint_decided == 2
        assert log.stats.wins_by_engine.get("lint") == 2

    def test_default_jobs_never_build_the_factbase(self, monkeypatch):
        """Stage zero runs no A4xx rule, so default-flag jobs (no facts, no
        refinement) never reach the structural facts engine."""
        import repro.analysis

        calls = []
        monkeypatch.setattr(
            repro.analysis, "analyze", lambda *a, **k: calls.append(a)
        )
        jobs = build_jobs(sorted(TABLE1_BENCHMARKS), properties=("usc", "csc"))
        results, log = run_inline(jobs)
        assert calls == []
        assert len(log.of_kind(ev.LINT_PASS)) == len(TABLE1_BENCHMARKS)
        for job, result in zip(jobs, results):
            expected = TABLE1_VERDICTS[job.name][job.property]
            assert result.holds is expected, (job.name, job.property)

    def test_undecided_model_still_runs_the_engines(self):
        stg = token_ring(3)
        jobs = [
            VerificationJob(stg=stg, property="usc", engines=("ilp",), name="ring")
        ]
        results, log = run_inline(jobs)
        assert len(log.of_kind(ev.LINT_PASS)) == 1
        assert log.of_kind(ev.LINT_DECIDED) == []
        assert log.of_kind(ev.TASK_STARTED)  # the pool did the work
        assert results[0].source == SOURCE_FRESH
        assert results[0].engine == "ilp"

    def test_lint_disabled(self):
        results, log = run_inline(bank_jobs(), lint=False)
        assert log.of_kind(ev.LINT_PASS) == []
        assert results[0].engine == "ilp"
        assert results[0].source == SOURCE_FRESH

    def test_lint_decided_results_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        results, _ = run_inline(bank_jobs(), cache=cache)
        assert results[0].source == SOURCE_LINT
        assert len(cache) == 0
        # a second run decides statically again rather than via the cache
        again, log = run_inline(bank_jobs(), cache=cache)
        assert again[0].source == SOURCE_LINT
        assert log.of_kind(ev.CACHE_HIT) == []


class TestResultSource:
    def test_cache_rebadges_source(self, tmp_path):
        cache = ResultCache(tmp_path)
        stg = token_ring(3)
        jobs = [
            VerificationJob(stg=stg, property="usc", engines=("ilp",), name="ring")
        ]
        fresh, _ = run_inline(jobs, cache=cache)
        assert fresh[0].source == SOURCE_FRESH
        assert len(cache) == 1
        warm, _ = run_inline(jobs, cache=cache)
        assert warm[0].source == SOURCE_CACHE
        assert warm[0].from_cache
        assert warm[0].verdict == fresh[0].verdict

    def test_old_schema_payloads_are_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        stg = token_ring(3)
        job = VerificationJob(
            stg=stg, property="usc", engines=("ilp",), name="ring"
        )
        fresh, _ = run_inline([job], cache=cache)
        path = cache._path(cache.key_for(job))
        payload = json.loads(path.read_text())
        payload["schema"] = SCHEMA_VERSION - 1
        path.write_text(json.dumps(payload))
        assert cache.get(job) is None

    def test_batch_report_lint_decided(self, tmp_path):
        from pathlib import Path

        example = Path(__file__).parents[2] / "examples" / "toggle_bank.g"
        jobs = build_jobs(["RING", str(example)], properties=("usc",))
        report = run_batch(jobs, max_workers=0, cache_dir=None)
        assert [r.name for r in report.lint_decided] == ["toggles3"]
        assert report.stats.lint_passes == 2
        assert report.stats.lint_decided == 1
