"""The docs drift checker: rule, phase, span and counter sync, link
resolution, reachability."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


def test_repo_docs_are_clean(capsys):
    assert checker.main() == 0
    assert "pages checked" in capsys.readouterr().out


class TestAnchors:
    def test_github_slugs(self):
        text = "# Hello World\n## `GET /v1/jobs/{id}`\n## Drain semantics\n"
        assert checker.heading_anchors(text) == {
            "hello-world",
            "get-v1jobsid",
            "drain-semantics",
        }

    def test_duplicate_headings_numbered(self):
        assert checker.heading_anchors("## Same\n## Same\n") == {
            "same",
            "same-1",
        }

    def test_fenced_code_ignored(self):
        text = "```\n# not a heading\n[x](nowhere.md)\n```\n# Real\n"
        assert checker.heading_anchors(text) == {"real"}


@pytest.fixture
def fake_docs(tmp_path, monkeypatch):
    docs = tmp_path / "docs"
    docs.mkdir()
    monkeypatch.setattr(checker, "ROOT", tmp_path)
    monkeypatch.setattr(checker, "DOCS", docs)
    monkeypatch.setattr(checker, "INDEX", docs / "index.md")
    return docs


class TestLinkProblems:
    def test_broken_link_flagged(self, fake_docs):
        page = fake_docs / "index.md"
        page.write_text("[gone](missing.md) and [ok](https://example.com)\n")
        (problem,) = checker.link_problems([page])
        assert "broken link 'missing.md'" in problem

    def test_bad_anchor_flagged(self, fake_docs):
        (fake_docs / "other.md").write_text("# Present\n")
        page = fake_docs / "index.md"
        page.write_text("[good](other.md#present) [bad](other.md#absent)\n")
        (problem,) = checker.link_problems([page])
        assert "'absent'" in problem

    def test_clean_tree_passes(self, fake_docs):
        (fake_docs / "other.md").write_text("# Present\n")
        page = fake_docs / "index.md"
        page.write_text("[good](other.md#present)\n")
        assert checker.link_problems([page]) == []


class TestReachability:
    def test_orphan_flagged(self, fake_docs):
        (fake_docs / "index.md").write_text("[a](linked.md)\n")
        (fake_docs / "linked.md").write_text("# Linked\n")
        (fake_docs / "orphan.md").write_text("# Orphan\n")
        (problem,) = checker.reachability_problems()
        assert "orphan.md" in problem

    def test_transitive_links_count(self, fake_docs):
        (fake_docs / "index.md").write_text("[a](mid.md)\n")
        (fake_docs / "mid.md").write_text("[b](leaf.md)\n")
        (fake_docs / "leaf.md").write_text("# Leaf\n")
        assert checker.reachability_problems() == []

    def test_missing_index_flagged(self, fake_docs):
        (problem,) = checker.reachability_problems()
        assert "index.md is missing" in problem


class TestPhaseSync:
    TABLE = (
        "## Phases\n\n"
        "| phase | prefixes |\n"
        "|---|---|\n"
        "{rows}"
        "| `total` | summed duration of *root* spans |\n"
    )

    def _write(self, fake_docs, rows):
        from repro.obs.tracer import PHASE_PREFIXES

        body = "".join(
            f"| `{phase}` | {', '.join(f'`{p}`' for p in prefixes)} |\n"
            for phase, prefixes in rows(dict(PHASE_PREFIXES)).items()
        )
        (fake_docs / "observability.md").write_text(
            self.TABLE.format(rows=body)
        )

    def test_repo_table_in_sync(self):
        assert checker.phase_sync_problems() == []

    def test_complete_table_passes(self, fake_docs):
        self._write(fake_docs, lambda phases: phases)
        assert checker.phase_sync_problems() == []

    def test_missing_phase_flagged(self, fake_docs):
        def drop_fuzz(phases):
            del phases["fuzz"]
            return phases

        self._write(fake_docs, drop_fuzz)
        (problem,) = checker.phase_sync_problems()
        assert "'fuzz'" in problem and "no row" in problem

    def test_stale_phase_flagged(self, fake_docs):
        self._write(fake_docs, lambda phases: {**phases, "gone": ("gone.",)})
        (problem,) = checker.phase_sync_problems()
        assert "'gone'" in problem and "no such phase" in problem

    def test_wrong_prefixes_flagged(self, fake_docs):
        self._write(fake_docs, lambda phases: {**phases, "solver": ("search.",)})
        (problem,) = checker.phase_sync_problems()
        assert "'solver'" in problem and "lp." in problem

    def test_other_tables_ignored(self, fake_docs):
        self._write(fake_docs, lambda phases: phases)
        page = fake_docs / "observability.md"
        page.write_text(
            "| span | where |\n|---|---|\n| `search.window` | core |\n\n"
            + page.read_text()
        )
        assert checker.phase_sync_problems() == []


class TestSpanSync:
    TABLE = "## Span taxonomy\n\n| span | where | meaning |\n|---|---|---|\n{rows}"

    def _tree(self, fake_docs, code, rows):
        package = fake_docs.parent / "src" / "repro"
        (package / "obs").mkdir(parents=True)
        (package / "mod.py").write_text(code)
        # the tracer API's own docstrings and calls are not emission sites
        (package / "obs" / "__init__.py").write_text(
            '"""with obs.trace("docstring.example"): ..."""\n'
            'def trace(name):\n    return _default.span(name)\n'
        )
        (fake_docs / "observability.md").write_text(
            self.TABLE.format(
                rows="".join(f"| `{row}` | `mod` | meaning |\n" for row in rows)
            )
        )

    CODE = (
        "from repro import obs\n\n"
        "def run(tracer, kind):\n"
        '    """obs.trace("in.docstring") is not a call."""\n'
        '    with obs.trace("a.run"):\n'
        '        with tracer.span(f"engine.{kind}"):\n'
        '            obs.event("a.done")\n'
    )

    def test_repo_table_in_sync(self):
        assert checker.span_sync_problems() == []

    def test_complete_table_passes(self, fake_docs):
        self._tree(fake_docs, self.CODE, ["a.run", "engine.<name>", "a.done"])
        assert checker.span_sync_problems() == []

    def test_missing_span_flagged(self, fake_docs):
        self._tree(fake_docs, self.CODE, ["engine.<name>", "a.done"])
        (problem,) = checker.span_sync_problems()
        assert "'a.run'" in problem and "no row" in problem

    def test_unmatched_pattern_flagged(self, fake_docs):
        self._tree(fake_docs, self.CODE, ["a.run", "a.done"])
        (problem,) = checker.span_sync_problems()
        assert "'engine.<>'" in problem and "no row" in problem

    def test_stale_row_flagged(self, fake_docs):
        self._tree(
            fake_docs, self.CODE, ["a.run", "engine.<name>", "a.done", "gone.span"]
        )
        (problem,) = checker.span_sync_problems()
        assert "'gone.span'" in problem and "no code" in problem

    def test_other_tables_ignored(self, fake_docs):
        self._tree(fake_docs, self.CODE, ["a.run", "engine.<name>", "a.done"])
        page = fake_docs / "observability.md"
        page.write_text(
            page.read_text()
            + "\n| name | kind | meaning |\n|---|---|---|\n| `x.y` | counter | c |\n"
        )
        assert checker.span_sync_problems() == []


class TestCounterSync:
    TABLE = "## Counters\n\n| name | kind | meaning |\n|---|---|---|\n{rows}"

    def _tree(self, fake_docs, rows):
        package = fake_docs.parent / "src" / "repro"
        (package / "obs").mkdir(parents=True)
        (package / "mod.py").write_text(self.CODE)
        # the tracer API's own calls are not emission sites
        (package / "obs" / "__init__.py").write_text(
            'def incr(name, amount=1):\n    _default.incr("obs.internal")\n'
        )
        (fake_docs / "observability.md").write_text(
            self.TABLE.format(
                rows="".join(f"| {row} | counter | meaning |\n" for row in rows)
            )
        )

    CODE = (
        "from repro import obs\n\n"
        "def run(tracer, stats, kind):\n"
        '    """obs.incr("in.docstring") is not a call."""\n'
        '    obs.incr("a.calls")\n'
        '    tracer.incr("b.nodes", 3)\n'
        '    tracer.gauge_max("b.peak", 7)\n'
        '    obs.incr(f"engine.{kind}")  # not a literal name\n'
        '    stats.incr("not.a.tracer")\n'
    )

    COMPLETE = ["`a.calls`", "`b.nodes` / `b.peak`"]

    def test_repo_table_in_sync(self):
        assert checker.counter_sync_problems() == []

    def test_complete_table_passes(self, fake_docs):
        self._tree(fake_docs, self.COMPLETE)
        assert checker.counter_sync_problems() == []

    def test_missing_counter_flagged(self, fake_docs):
        self._tree(fake_docs, ["`a.calls`", "`b.nodes`"])
        (problem,) = checker.counter_sync_problems()
        assert "'b.peak'" in problem and "no row" in problem

    def test_stale_row_flagged(self, fake_docs):
        self._tree(fake_docs, self.COMPLETE + ["`gone.counter`"])
        (problem,) = checker.counter_sync_problems()
        assert "'gone.counter'" in problem and "no code" in problem

    def test_stale_part_of_a_multi_name_row_flagged(self, fake_docs):
        self._tree(fake_docs, ["`a.calls`", "`b.nodes` / `b.peak` / `b.gone`"])
        (problem,) = checker.counter_sync_problems()
        assert "'b.gone'" in problem and "no code" in problem

    def test_other_tables_ignored(self, fake_docs):
        self._tree(fake_docs, self.COMPLETE)
        page = fake_docs / "observability.md"
        page.write_text(
            page.read_text()
            + "\n| span | where | meaning |\n|---|---|---|\n| `x.y` | `m` | s |\n"
        )
        assert checker.counter_sync_problems() == []
