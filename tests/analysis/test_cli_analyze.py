"""The ``repro-stg analyze`` subcommand."""

import json

import pytest

from repro.analysis import clear_memo
from repro.cli import main
from repro.models import vme_bus
from repro.stg.parser import write_stg


def setup_function(_):
    clear_memo()


@pytest.fixture
def vme_file(tmp_path):
    path = tmp_path / "vme.g"
    path.write_text(write_stg(vme_bus()))
    return str(path)


class TestAnalyze:
    def test_text_output(self, capsys):
        assert main(["analyze", "RING"]) == 0
        out = capsys.readouterr().out
        assert "facts" in out

    def test_verbose_lists_claims(self, capsys):
        assert main(["analyze", "RING", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "[" in out and "]" in out  # per-fact kind tags

    def test_verify_clean_model(self, capsys):
        assert main(["analyze", "RING", "--verify"]) == 0

    def test_json_output(self, vme_file, capsys):
        assert main(["analyze", vme_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        record = payload[0] if isinstance(payload, list) else payload
        assert "facts" in json.dumps(record)

    def test_multiple_targets(self, capsys):
        assert main(["analyze", "RING", "LAZYRING"]) == 0
        out = capsys.readouterr().out
        # one summary line per target (the STG names, not the CLI aliases)
        assert len([line for line in out.splitlines() if " facts (" in line]) == 2

    def test_budget_flags_accepted(self, capsys):
        assert main(["analyze", "RING", "--set-size", "4", "--set-count", "8"]) == 0
