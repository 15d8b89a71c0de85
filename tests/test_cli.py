"""Tests for the repro-stg command-line interface."""

import pytest

from repro.cli import main
from repro.models import vme_bus, vme_bus_csc_resolved
from repro.stg.parser import write_stg


@pytest.fixture
def vme_file(tmp_path):
    path = tmp_path / "vme.g"
    path.write_text(write_stg(vme_bus()))
    return str(path)


@pytest.fixture
def vme_csc_file(tmp_path):
    path = tmp_path / "vme_csc.g"
    path.write_text(write_stg(vme_bus_csc_resolved()))
    return str(path)


class TestCheck:
    def test_csc_conflict_exit_code(self, vme_file, capsys):
        assert main(["check", vme_file]) == 1
        assert "CSC: CONFLICT" in capsys.readouterr().out

    def test_csc_clean_exit_code(self, vme_csc_file, capsys):
        assert main(["check", vme_csc_file]) == 0
        assert "CSC: OK" in capsys.readouterr().out

    def test_multiple_properties(self, vme_file, capsys):
        code = main(
            [
                "check", vme_file,
                "-p", "consistency", "-p", "deadlock", "-p", "usc", "-p", "csc",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "consistency: OK" in out
        assert "deadlock: none" in out
        assert "USC: CONFLICT" in out

    def test_normalcy(self, vme_csc_file, capsys):
        assert main(["check", vme_csc_file, "-p", "normalcy"]) == 1
        assert "normalcy: VIOLATED" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["ilp", "sg", "bdd"])
    def test_methods_agree(self, vme_file, method, capsys):
        assert main(["check", vme_file, "-m", method]) == 1

    def test_verbose_prints_witness(self, vme_file, capsys):
        main(["check", vme_file, "-v"])
        out = capsys.readouterr().out
        assert "witness" in out
        assert "prefix" in out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.g"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text(".model x\n.bogus\n.end\n")
        assert main(["check", str(bad)]) == 2

    def test_solver_limit_reports_instead_of_traceback(self, vme_file, capsys):
        code = main(["check", vme_file, "--node-budget", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "csc: UNDECIDED (budget exhausted)" in captured.out
        assert "gave up" in captured.err
        assert "node budget" in captured.err

    def test_limit_on_one_property_still_checks_the_others(
        self, vme_file, capsys
    ):
        code = main(
            ["check", vme_file, "-p", "csc", "-p", "consistency",
             "--node-budget", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "consistency: OK" in captured.out
        assert "csc: UNDECIDED" in captured.out

    def test_generous_budget_still_decides(self, vme_file, capsys):
        assert main(["check", vme_file, "--node-budget", "100000"]) == 1
        assert "CSC: CONFLICT" in capsys.readouterr().out

    def test_portfolio_flag(self, vme_file, capsys):
        assert main(["check", vme_file, "--portfolio", "ilp,sat"]) == 1
        assert "CSC: CONFLICT" in capsys.readouterr().out

    def test_portfolio_unknown_engine(self, vme_file, capsys):
        assert main(["check", vme_file, "--portfolio", "cplex"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["bdd", "sat"])
    def test_normalcy_method_without_normalcy_support(
        self, vme_csc_file, method, capsys
    ):
        # answers like --portfolio with the same engine, never with the
        # explicit state graph in its place
        assert main(["check", vme_csc_file, "-p", "normalcy", "-m", method]) == 2
        captured = capsys.readouterr()
        assert "normalcy: ERROR" in captured.out
        message = f"engine {method!r} does not support property 'normalcy'"
        assert message in captured.err
        portfolio = ["check", vme_csc_file, "-p", "normalcy", "--portfolio", method]
        assert main(portfolio) == 2
        assert message in capsys.readouterr().err

    def test_normalcy_profile_refuses_bdd(self, vme_csc_file, capsys):
        assert main(["profile", vme_csc_file, "-p", "normalcy", "-m", "bdd"]) == 2
        assert "does not support property 'normalcy'" in capsys.readouterr().err

    def test_global_verbose_flag(self, vme_file, capsys):
        # -v before the subcommand configures logging; verdict unchanged
        assert main(["-v", "check", vme_file]) == 1
        assert "CSC: CONFLICT" in capsys.readouterr().out


class TestUnfold:
    def test_prints_sizes(self, vme_file, capsys):
        assert main(["unfold", vme_file]) == 0
        out = capsys.readouterr().out
        assert "|B|=15" in out
        assert "|E|=12" in out
        assert "|E_cut|=1" in out

    def test_events_listing(self, vme_file, capsys):
        main(["unfold", vme_file, "--events"])
        out = capsys.readouterr().out
        assert "[cutoff]" in out
        assert "lds+" in out


class TestStats:
    def test_prints_all_sections(self, vme_file, capsys):
        assert main(["stats", vme_file]) == 0
        out = capsys.readouterr().out
        assert "|S|=11" in out
        assert "prefix" in out
        assert "state graph: 14 states" in out


class TestLint:
    def test_registered_model_clean(self, capsys):
        assert main(["lint", "RING"]) == 0
        # the summary line uses the STG's own name, not the registry key
        assert "ring3: clean" in capsys.readouterr().out

    def test_warning_exit_code(self, capsys):
        assert main(["lint", "toggle"]) == 1
        out = capsys.readouterr().out
        assert "warning[S206]" in out
        assert "toggle: 1 warning" in out

    def test_error_exit_code_with_span_location(self, tmp_path, capsys):
        bad = tmp_path / "dead.g"
        bad.write_text(
            ".model dead\n.outputs z\n.graph\nz+ p1\np1 z-\nz- p0\n"
            "p0 z+\nq z+\n.marking { p0 }\n.end\n"
        )
        assert main(["lint", str(bad)]) == 2
        out = capsys.readouterr().out
        assert f"{bad}:8:1: error[W102]" in out

    def test_verbose_shows_decisions(self, vme_file, capsys):
        # a toggle bank example file is shipped in examples/
        from pathlib import Path

        example = Path(__file__).parents[1] / "examples" / "toggle_bank.g"
        assert main(["lint", str(example), "-v"]) == 0
        out = capsys.readouterr().out
        assert "info[C301]" in out
        assert "decides: csc=holds, usc=holds" in out

    def test_json_output(self, vme_file, capsys):
        import json

        assert main(["lint", vme_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stg"] == "vme-read"
        assert payload["exit_code"] == 0
        assert len(payload["rules_run"]) >= 10

    def test_json_array_for_many_targets(self, vme_file, capsys):
        import json

        assert main(["lint", vme_file, "RING", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 2

    def test_exit_code_is_worst_across_targets(self, vme_file, capsys):
        assert main(["lint", vme_file, "toggle"]) == 1

    def test_rule_selection(self, capsys):
        assert main(["lint", "toggle", "--rules", "W*"]) == 0
        assert "toggle: clean" in capsys.readouterr().out

    def test_no_prefilter(self, capsys):
        import json

        from pathlib import Path

        example = Path(__file__).parents[1] / "examples" / "toggle_bank.g"
        assert main(["lint", str(example), "--no-prefilter", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decisions"] == {}

    def test_unknown_target(self, capsys):
        assert main(["lint", "NO-SUCH-MODEL"]) == 2
        assert "unknown target" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.g"
        bad.write_text(".model x\n.inputs a\n.outputs a\n.graph\n.end\n")
        assert main(["lint", str(bad)]) == 2
        assert "declared twice" in capsys.readouterr().err


class TestParseAge:
    def test_suffixes(self):
        from repro.cli import parse_age

        assert parse_age("30") == 30.0
        assert parse_age("45s") == 45.0
        assert parse_age("10m") == 600.0
        assert parse_age("2h") == 7200.0
        assert parse_age("1d") == 86400.0
        assert parse_age("2w") == 1209600.0
        assert parse_age("1.5h") == 5400.0

    def test_rejects_garbage(self):
        from repro.cli import parse_age
        from repro.exceptions import ReproError

        for bad in ("", "h", "-1d", "3y", "so on", "soon"):
            with pytest.raises(ReproError):
                parse_age(bad)


class TestCacheCLI:
    def _warm(self, tmp_path):
        """Verify RING once so the cache dir holds exactly one entry."""
        assert (
            main(
                [
                    "batch",
                    "RING",
                    "--jobs",
                    "0",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )

    def test_stats_empty(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert str(tmp_path) in out

    def test_stats_json(self, tmp_path, capsys):
        import json

        self._warm(tmp_path)
        capsys.readouterr()
        assert (
            main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["by_property"] == {"csc": 1}
        assert payload["total_bytes"] > 0

    def test_prune_respects_age(self, tmp_path, capsys):
        import json
        import os
        import time

        self._warm(tmp_path)
        capsys.readouterr()
        # young entry survives a 1-day cutoff
        assert (
            main(
                [
                    "cache",
                    "prune",
                    "--older-than",
                    "1d",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "0 entr" in capsys.readouterr().out
        # age it past the cutoff and prune again
        (entry,) = list(tmp_path.glob("??/*.json"))
        week_ago = time.time() - 7 * 86400
        os.utime(entry, (week_ago, week_ago))
        assert (
            main(
                [
                    "cache",
                    "prune",
                    "--older-than",
                    "1d",
                    "--cache-dir",
                    str(tmp_path),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"] == 1
        assert not entry.exists()

    def test_prune_bad_age(self, tmp_path, capsys):
        assert (
            main(
                [
                    "cache",
                    "prune",
                    "--older-than",
                    "nonsense",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 2
        )
        assert "age" in capsys.readouterr().err.lower()


class TestServeCLIParsing:
    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--workers",
                "2",
                "--queue-limit",
                "7",
                "--deadline",
                "30",
                "--no-cache",
                "--drain-timeout",
                "5",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.workers == 2
        assert args.queue_limit == 7
        assert args.deadline == 30.0
        assert args.no_cache is True
        assert args.drain_timeout == 5.0
