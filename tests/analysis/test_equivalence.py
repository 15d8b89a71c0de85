"""Every fact of the structural facts engine replays through its verifier."""

import pytest

from repro.analysis import analyze, clear_memo
from repro.models import TABLE1_BENCHMARKS


def setup_function(_):
    clear_memo()


@pytest.mark.parametrize("name", ["RING", "LAZYRING", "DUP-MOD-A"])
def test_all_facts_verify(name):
    stg = TABLE1_BENCHMARKS[name]()
    assert analyze(stg).verify_all(stg) == []
