"""Golden equivalence: use_refinement must never change a verdict or witness.

The CEGAR prescreen either refutes the conflict system outright — returning
the same "holds" verdict the search would have produced, with zero search
nodes — or leaves the exact search to run unchanged.  Either way verdicts,
witnesses and USC-only candidate counts are byte-identical.
"""

import pytest

from repro.core.search import SearchStats
from repro.core.verifier import check_csc, check_usc
from repro.models import TABLE1_BENCHMARKS

pytest.importorskip("scipy")

FAST_MODELS = [
    name
    for name in TABLE1_BENCHMARKS
    if name not in ("CF-SYM-D-CSC", "CF-ASYM-B-CSC")
]


def _fingerprint(result):
    witness = result.witness
    return (
        result.holds,
        result.usc_only_candidates,
        None
        if witness is None
        else (
            witness.kind,
            witness.code_a,
            witness.code_b,
            tuple(witness.trace_a),
            tuple(witness.trace_b),
        ),
    )


@pytest.mark.parametrize("name", FAST_MODELS)
def test_usc_verdicts_identical(name):
    stg = TABLE1_BENCHMARKS[name]()
    plain = check_usc(stg)
    refined = check_usc(stg, use_refinement=True)
    assert _fingerprint(refined) == _fingerprint(plain)


@pytest.mark.parametrize("name", FAST_MODELS)
def test_csc_verdicts_identical(name):
    stg = TABLE1_BENCHMARKS[name]()
    plain = check_csc(stg)
    refined = check_csc(stg, use_refinement=True)
    assert _fingerprint(refined) == _fingerprint(plain)


@pytest.mark.parametrize("name", ["CF-SYM-A-CSC", "CF-SYM-B-CSC"])
def test_refutation_skips_the_search_entirely(name):
    stg = TABLE1_BENCHMARKS[name]()
    report = check_csc(stg, use_refinement=True)
    assert report.holds
    assert report.witness is None
    assert report.search_stats == SearchStats()


def test_conflicting_model_still_finds_its_witness():
    stg = TABLE1_BENCHMARKS["RING"]()
    report = check_usc(stg, use_refinement=True)
    assert not report.holds
    assert report.witness is not None


class TestOnLinprog:
    """The same parity with the sweep on the ``linprog`` backend."""

    backend = "linprog"

    @pytest.mark.parametrize("name", FAST_MODELS)
    def test_usc_verdicts_identical(self, name, sweep_backend):
        test_usc_verdicts_identical(name)

    @pytest.mark.parametrize("name", FAST_MODELS)
    def test_csc_verdicts_identical(self, name, sweep_backend):
        test_csc_verdicts_identical(name)

    @pytest.mark.parametrize("name", ["CF-SYM-A-CSC", "CF-SYM-B-CSC"])
    def test_refutation_skips_the_search_entirely(self, name, sweep_backend):
        test_refutation_skips_the_search_entirely(name)

    def test_conflicting_model_still_finds_its_witness(self, sweep_backend):
        test_conflicting_model_still_finds_its_witness()
