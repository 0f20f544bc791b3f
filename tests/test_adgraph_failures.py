"""Tests for the link-failure plan generators."""

import pytest

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.faults.plan import (
    LinkFault,
    random_failure_plan,
    safe_failure_candidates,
    stub_partition_plan,
)
from tests.helpers import line_graph, mk_graph


class TestSafeCandidates:
    def test_line_has_no_safe_candidates(self):
        g = line_graph(4)
        assert safe_failure_candidates(g) == []

    def test_cycle_links_are_safe(self):
        g = mk_graph(
            [(0, "Rt"), (1, "Rt"), (2, "Rt")], [(0, 1), (1, 2), (0, 2)]
        )
        assert len(safe_failure_candidates(g)) == 3

    def test_bridge_excluded_from_cycle_graph(self):
        g = mk_graph(
            [(0, "Rt"), (1, "Rt"), (2, "Rt"), (3, "Cs")],
            [(0, 1), (1, 2), (0, 2), (2, 3)],
        )
        safe = safe_failure_candidates(g)
        assert (2, 3) not in safe
        assert len(safe) == 3


class TestRandomPlan:
    def test_failing_planned_links_keeps_connectivity(self):
        g = generate_internet(TopologyConfig(seed=1, lateral_prob=0.6))
        plan = random_failure_plan(g, count=3, seed=2)
        for ev in plan:
            g.set_link_status(ev.a, ev.b, ev.up)
            assert g.is_connected()

    def test_spacing_and_repair(self):
        g = generate_internet(TopologyConfig(seed=1, lateral_prob=0.6))
        plan = random_failure_plan(
            g, count=2, start_time=100, spacing=50, repair=True, seed=0
        )
        assert all(isinstance(e, LinkFault) for e in plan)
        times = [e.time for e in plan]
        assert times == [100, 125, 150, 175]
        assert [e.up for e in plan] == [False, True, False, True]

    def test_raises_when_not_enough_candidates(self):
        g = line_graph(4)
        with pytest.raises(ValueError):
            random_failure_plan(g, count=1)

    def test_deterministic(self):
        g = generate_internet(TopologyConfig(seed=1, lateral_prob=0.6))
        p1 = random_failure_plan(g, count=3, seed=9)
        p2 = random_failure_plan(g, count=3, seed=9)
        assert list(p1) == list(p2)


class TestAccumulatedFailures:
    def test_candidacy_recomputed_against_failed_topology(self):
        # A 4-cycle: every link is individually safe, but failing any one
        # turns the rest into a line of bridges.  Without repairs, a
        # second failure is therefore infeasible -- the old intact-graph
        # sampling would have disconnected the internet instead.
        g = mk_graph(
            [(0, "Rt"), (1, "Rt"), (2, "Rt"), (3, "Rt")],
            [(0, 1), (1, 2), (2, 3), (0, 3)],
        )
        assert len(safe_failure_candidates(g)) == 4
        with pytest.raises(ValueError, match="no safe candidate links left"):
            random_failure_plan(g, count=2, repair=False)
        # With repairs each failure is judged in isolation: fine.
        plan = random_failure_plan(g, count=2, repair=True, seed=0)
        assert len(plan) == 4

    def test_accumulated_failures_never_partition(self):
        for seed in range(5):
            g = generate_internet(
                TopologyConfig(seed=seed, lateral_prob=0.7, bypass_prob=0.3)
            )
            plan = random_failure_plan(g, count=4, repair=False, seed=seed)
            scratch = g.copy()
            for ev in plan:
                scratch.set_link_status(ev.a, ev.b, ev.up)
                assert scratch.is_connected()

    def test_input_graph_is_not_mutated(self):
        g = generate_internet(TopologyConfig(seed=1, lateral_prob=0.6))
        random_failure_plan(g, count=3, repair=False, seed=2)
        assert all(ln.up for ln in g.links())


class TestStubPartitionPlan:
    def test_fail_and_repair_per_stub(self):
        g = generate_internet(TopologyConfig(seed=1, lateral_prob=0.6))
        plan = stub_partition_plan(g, count=2)
        events = list(plan)
        assert all(isinstance(e, LinkFault) for e in events)
        assert len(events) == 4
        assert [e.up for e in events] == [False, True, False, True]

    def test_raises_when_stubs_run_out(self):
        # All-transit ring: no singly-homed stub ADs at all.
        g = mk_graph(
            [(0, "Rt"), (1, "Rt"), (2, "Rt")], [(0, 1), (1, 2), (0, 2)]
        )
        with pytest.raises(ValueError, match="singly-homed stub"):
            stub_partition_plan(g, count=1)
