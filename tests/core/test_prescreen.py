"""Tests for the kernel prescreen."""

import pytest

from repro.core import check_usc
from repro.core.context import SolverContext
from repro.core.prescreen import kernel_prescreen
from repro.models import TABLE1_BENCHMARKS, vme_bus
from repro.models._build import seq
from repro.stg.stategraph import build_state_graph
from repro.stg.stg import STG, SignalEdge
from repro.unfolding import unfold


def toggle_stg():
    """a+ and a- act on the same two places in opposite directions — the
    kernel test's conclusive showcase."""
    stg = STG("toggle", outputs=["a"])
    stg.add_place("P0", tokens=1)
    stg.add_place("P1")
    stg.add_transition("a+", SignalEdge("a", 1))
    stg.add_transition("a-", SignalEdge("a", -1))
    stg.add_arc("P0", "a+")
    stg.add_arc("a+", "P1")
    stg.add_arc("P1", "a-")
    stg.add_arc("a-", "P0")
    return stg


def handshake_stg():
    stg = STG("hs", inputs=["a"], outputs=["b"])
    seq(stg, "a+", "b+", "a-", "b-")
    seq(stg, "b-", "a+", marked=True)
    return stg


class TestKernel:
    def test_conclusive_on_toggle(self):
        ctx = SolverContext(unfold(toggle_stg()))
        assert kernel_prescreen(ctx) is False

    def test_inconclusive_on_handshake(self):
        ctx = SolverContext(unfold(handshake_stg()))
        assert kernel_prescreen(ctx) is None

    @pytest.mark.parametrize("name", ["RING", "CF-SYM-A-CSC", "LAZYRING"])
    def test_inconclusive_on_benchmarks(self, name):
        """Real controllers defeat the pure relaxation — the observation
        that motivates the paper's structural search."""
        ctx = SolverContext(unfold(TABLE1_BENCHMARKS[name]()))
        assert kernel_prescreen(ctx) is None


class TestSoundness:
    @pytest.mark.parametrize(
        "builder",
        [toggle_stg, handshake_stg, vme_bus]
        + [TABLE1_BENCHMARKS[n] for n in ("RING", "CF-SYM-A-CSC")],
    )
    def test_false_implies_usc_holds(self, builder):
        """A conclusive prescreen must agree with the oracle."""
        stg = builder()
        ctx = SolverContext(unfold(stg))
        if kernel_prescreen(ctx) is False:
            assert build_state_graph(stg).has_usc()

    def test_check_usc_with_prescreens(self):
        stg = toggle_stg()
        for prescreen in ("kernel", None):
            report = check_usc(stg, prescreen=prescreen)
            assert report.holds
        # the conclusive prescreen answers without any search nodes
        assert check_usc(stg, prescreen="kernel").search_stats.nodes == 0
        assert check_usc(stg, prescreen=None).search_stats.nodes > 0
