"""Integration tests: the IP method vs the state-graph oracle.

This is the headline correctness claim of the reproduction: on every
benchmark STG the unfolding/integer-programming checkers must agree with the
explicit state graph on USC, CSC and normalcy.
"""

import pytest

from repro.core import check_csc, check_normalcy, check_usc
from repro.exceptions import SolverLimitError
from repro.models import TABLE1_BENCHMARKS, vme_bus, vme_bus_csc_resolved
from repro.stg.normalcy import check_normalcy_state_graph
from repro.stg.stategraph import build_state_graph
from tests.conftest import SMALL_TABLE1, TABLE1_VERDICTS


class TestAgainstOracle:
    def test_usc_and_csc_match_state_graph(self, table1_stg):
        graph = build_state_graph(table1_stg)
        assert check_usc(table1_stg).holds == graph.has_usc()
        assert check_csc(table1_stg).holds == graph.has_csc()

    @pytest.mark.parametrize("name", SMALL_TABLE1)
    def test_normalcy_matches_state_graph(self, name):
        stg = TABLE1_BENCHMARKS[name]()
        oracle = check_normalcy_state_graph(stg)
        report = check_normalcy(stg)
        assert report.normal == oracle.normal
        for signal, verdict in report.per_signal.items():
            assert verdict.normal == oracle.per_signal[signal].normal

    def test_vme_verdicts(self, vme, vme_csc):
        assert not check_usc(vme).holds
        assert not check_csc(vme).holds
        assert check_usc(vme_csc).holds
        assert check_csc(vme_csc).holds


class TestWitnesses:
    def test_csc_witness_replays_to_conflict(self, vme):
        report = check_csc(vme)
        witness = report.witness
        assert witness is not None
        net = vme.net
        m_a = net.initial_marking
        for name in witness.trace_a:
            m_a = net.fire_by_name(m_a, name)
        m_b = net.initial_marking
        for name in witness.trace_b:
            m_b = net.fire_by_name(m_b, name)
        assert m_a == witness.marking_a
        assert m_b == witness.marking_b
        assert m_a != m_b
        assert witness.out_a != witness.out_b

    def test_csc_witness_codes_equal(self, table1_stg):
        report = check_csc(table1_stg)
        if report.witness is None:
            return
        assert report.witness.code_a == report.witness.code_b

    def test_vme_witness_matches_figure1(self, vme):
        """The detected conflict must be the paper's: Out {d} vs {lds}."""
        report = check_csc(vme)
        outs = {report.witness.out_a, report.witness.out_b}
        assert outs == {frozenset({"d"}), frozenset({"lds"})}

    def test_usc_witness_on_ring(self):
        stg = TABLE1_BENCHMARKS["RING"]()
        report = check_usc(stg)
        assert not report.holds
        witness = report.witness
        assert witness.marking_a != witness.marking_b
        assert witness.code_a == witness.code_b


class TestCSCvsUSC:
    def test_ring_usc_fails_but_csc_holds(self):
        """RING exercises the USC-first strategy: its conflicts are all
        USC-but-not-CSC (quiescent states enable only inputs)."""
        stg = TABLE1_BENCHMARKS["RING"]()
        assert not check_usc(stg).holds
        report = check_csc(stg)
        assert report.holds
        assert report.usc_only_candidates > 0


class TestNormalcyIP:
    def test_figure3_normalcy_violation(self, vme_csc):
        report = check_normalcy(vme_csc)
        assert not report.normal
        assert report.violating_signals() == ["csc"]
        verdict = report.per_signal["csc"]
        assert verdict.p_witness is not None
        assert verdict.n_witness is not None

    def test_figure3_witness_traces_replay(self, vme_csc):
        report = check_normalcy(vme_csc)
        verdict = report.per_signal["csc"]
        net = vme_csc.net
        for witness in (verdict.p_witness, verdict.n_witness):
            m = net.initial_marking
            for name in witness.trace_a:
                m = net.fire_by_name(m, name)
            assert m == witness.marking_a

    def test_normalcy_signal_subset(self, vme_csc):
        report = check_normalcy(vme_csc, signals=["dtack"])
        assert list(report.per_signal) == ["dtack"]
        assert report.per_signal["dtack"].normal


class TestOptions:
    def test_node_budget_raises(self):
        stg = TABLE1_BENCHMARKS["CF-SYM-B-CSC"]()
        with pytest.raises(SolverLimitError):
            check_usc(stg, node_budget=10)

    def test_csc_node_budget_covers_the_whole_check(self):
        # RING csc: the window pre-pass finds only USC-only windows, so the
        # pair fallback runs too; together they visit 235 nodes
        from repro.unfolding import unfold

        prefix = unfold(TABLE1_BENCHMARKS["RING"]())
        for budget in range(185, 235):
            with pytest.raises(SolverLimitError):
                check_csc(prefix, node_budget=budget)
        report = check_csc(prefix, node_budget=235)
        assert report.holds
        assert report.search_stats.nodes == 235

    def test_window_search_ablation_agrees(self):
        for name in ("RING", "CF-SYM-A-CSC", "DUP-4PH-A"):
            stg = TABLE1_BENCHMARKS[name]()
            fast = check_csc(stg)
            slow = check_csc(stg, use_window_search=False)
            assert fast.holds == slow.holds

    def test_forced_pair_search_agrees(self):
        for name in ("CF-SYM-A-CSC", "RING"):
            stg = TABLE1_BENCHMARKS[name]()
            auto = check_usc(stg)
            forced = check_usc(stg, nested=False)
            assert auto.holds == forced.holds

    def test_prebuilt_prefix_accepted(self, vme):
        from repro.unfolding import unfold

        prefix = unfold(vme)
        report = check_csc(prefix)
        assert not report.holds

    def test_prefix_stats_reported(self, vme):
        report = check_csc(vme)
        assert report.prefix_stats == {
            "conditions": 15,
            "events": 12,
            "cutoffs": 1,
        }
