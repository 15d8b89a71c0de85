"""Tests of the benchmark itself: inputs, statistics, parsing, the gate.

Run with ``python -m pytest perfbench/tests`` from the checkout root.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import benchlib
import catalogue
import pipeline
import wl_batch
import wl_check
import wl_serve


def _sources():
    from repro.stg.parser import write_stg

    return [write_stg(stg) for _, stg in catalogue.serve_bases()]


# -- seeded traffic ---------------------------------------------------------------


def test_schedule_is_a_function_of_the_seed():
    sources = _sources()
    first = wl_serve.make_schedule(3, 25, sources)
    again = wl_serve.make_schedule(3, 25, sources)
    other = wl_serve.make_schedule(4, 25, sources)
    stream = lambda schedule: [(r.due, r.kind, r.body) for r in schedule]  # noqa: E731
    assert stream(first) == stream(again)
    assert stream(first) != stream(other)


def test_schedule_shape():
    sources = _sources()
    schedule = wl_serve.make_schedule(5, 25, sources)
    kinds = Counter(r.kind for r in schedule)
    deck = len(sources) * len(wl_serve.PROPS)
    assert kinds["burst"] == deck < 64  # one whole deck, below the admission queue
    assert kinds["fresh"] % deck == 0  # whole decks: the same mix for every seed
    share = kinds["repeat"] / (kinds["repeat"] + kinds["fresh"])
    assert 0.35 < share < 0.45
    by_index = {r.index: r for r in schedule}
    for request in schedule:
        if request.kind == "repeat":
            original = by_index[request.of]
            assert original.kind == "fresh" and original.body == request.body
            assert original.due <= request.due - wl_serve.REPEAT_AGE_S
    fresh = [r for r in schedule if r.kind != "repeat"]
    assert len({r.body for r in fresh}) == len(fresh)  # every fresh hash is new
    mixes = [
        Counter((r.base, r.prop, r.kind) for r in wl_serve.make_schedule(seed, 25, sources) if r.kind != "repeat")
        for seed in (5, 6)
    ]
    assert mixes[0] == mixes[1]
    bursts = [
        [(r.base, r.prop) for r in wl_serve.make_schedule(seed, 25, sources) if r.kind == "burst"]
        for seed in (5, 6)
    ]
    assert bursts[0] == bursts[1]  # the gated burst is the same for every seed


def test_renamed_copies_keep_verdicts_and_get_new_hashes():
    from repro.stg.parser import parse_stg, write_stg

    for name, stg in catalogue.serve_bases()[:12]:
        text = benchlib.rename_signals(write_stg(stg), "q0000abcd_")
        copy = parse_stg(text)
        assert copy.content_hash() != stg.content_hash()
        assert len(copy.signals) == len(stg.signals)
        assert catalogue.state_graph_answers(copy, ("usc", "csc")) == (
            catalogue.state_graph_answers(stg, ("usc", "csc"))
        ), name


def test_table1_answers_match_the_pinned_ones():
    spec = importlib.util.spec_from_file_location(
        "repo_tests_conftest", benchlib.ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert catalogue.TABLE1_VERDICTS == module.TABLE1_VERDICTS


# -- parsing and statistics -----------------------------------------------------

BATCH_OUTPUT = """\
Batch verification
job       | property | verdict  | engine | time[s] | source
----------+----------+----------+--------+---------+-------
lazyring2 | usc      | violated | ilp    | 0.014   | fresh
ring3     | csc      | holds    | ilp    | 0.016   | fresh
cf-sym-5  | usc      | timeout  | -      | 1.000   | fresh

jobs: 3 queued, 2 completed, 1 failed
"""


def test_parse_batch_table():
    rows = wl_batch.parse_batch_table(BATCH_OUTPUT)
    assert rows == [
        ("lazyring2", "usc", "violated"),
        ("ring3", "csc", "holds"),
        ("cf-sym-5", "usc", "timeout"),
    ]
    tally = benchlib.Tally()
    expected = {("lazyring2", "usc"): False, ("ring3", "csc"): True,
                ("cf-sym-5", "usc"): True, ("cf-sym-5", "csc"): True}
    wl_batch.score(rows, expected, tally)
    assert (tally.attempted, tally.correct, tally.failed) == (4, 2, 2)


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    assert benchlib.tail_percentile(values, 0.9) == 90
    with pytest.raises(ValueError):
        benchlib.tail_percentile(values[:99], 0.9)
    with pytest.raises(ValueError):
        benchlib.tail_percentile(values, 0.5)
    assert wl_serve.tail_p90(values) == (90, 0.9)
    assert wl_serve.tail_p90(values[:50]) == (40, 0.8)
    assert wl_serve.tail_p90(values[:15]) == (8, 0.5)


def test_geomean():
    assert benchlib.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert benchlib.geomean([5.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        benchlib.geomean([1.0, 0.0])


# -- the contract -----------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == [
        "batch-table1", "check-scalable", "serve-mixed"
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == benchlib.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in pipeline.LAYER_METRICS
    ]


def _wrong_pinned_answer(monkeypatch):
    monkeypatch.setitem(catalogue.TABLE1_VERDICTS, "RING", dict(usc=False, csc=False))


def _wrong_in_warm_up(module, name, flip):
    """Patch ``module.name`` so only its first call, made in the first
    set-up's warm-up, answers a wrong verdict."""

    def patch(monkeypatch):
        real = getattr(module, name)
        calls = []

        def first_call_wrong(*args, **kwargs):
            calls.append(None)
            answer = real(*args, **kwargs)
            return flip(answer) if len(calls) == 1 else answer

        monkeypatch.setattr(module, name, first_call_wrong)

    return patch


def _flip(verdict):
    return "holds" if verdict == "violated" else "violated"


def _flip_first_row(rows):
    job, prop, verdict = rows[0]
    return [(job, prop, _flip(verdict))] + rows[1:]


def _flip_first_job(docs):
    result = next(iter(docs.values()))["results"][0]
    result["verdict"] = _flip(result["verdict"])
    return docs


@pytest.mark.parametrize(
    "workload, patch",
    [
        ("batch-table1", _wrong_pinned_answer),
        ("batch-table1", _wrong_in_warm_up(wl_batch, "parse_batch_table", _flip_first_row)),
        ("check-scalable", _wrong_in_warm_up(wl_check, "check_text", lambda holds: not holds)),
        ("serve-mixed", _wrong_in_warm_up(wl_serve, "_wait_done", _flip_first_job)),
    ],
    ids=["pinned-answer", "batch-warm-up", "check-warm-up", "serve-warm-up"],
)
def test_a_wrong_known_answer_fails_the_command(workload, patch, monkeypatch, capsys):
    import run

    patch(monkeypatch)
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["metrics"]["correct_ratio"]["value"] < 1.0


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(benchlib.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
