"""Tests for the fault-plan DSL and its seeded generators."""

import pytest

from repro.adgraph.ad import LinkKind
from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.faults.plan import (
    FaultPlan,
    LinkFault,
    NodeFault,
    ad_crash_plan,
    crash_candidates,
    churn_storm_plan,
    merge_plans,
    random_failure_plan,
    safe_failure_candidates,
)
from tests.helpers import line_graph, mk_graph


@pytest.fixture(scope="module")
def internet():
    return generate_internet(TopologyConfig(seed=1, lateral_prob=0.6))


class TestFaultPlan:
    def test_events_must_be_time_ordered(self):
        with pytest.raises(ValueError):
            FaultPlan((LinkFault(10, 1, 2), NodeFault(5, 3)))

    def test_iteration_len_horizon(self):
        plan = FaultPlan((LinkFault(1, 1, 2), NodeFault(7, 3, up=True)))
        assert len(plan) == 2
        assert [e.time for e in plan] == [1, 7]
        assert plan.horizon == 7

    def test_empty_plan(self):
        plan = FaultPlan(())
        assert len(plan) == 0
        assert plan.horizon == 0.0

    def test_merge_orders_by_time(self):
        a = FaultPlan((LinkFault(5, 1, 2), LinkFault(20, 1, 2, up=True)))
        b = FaultPlan((NodeFault(10, 3),))
        merged = merge_plans(a, b)
        assert [e.time for e in merged] == [5, 10, 20]

    def test_merge_is_stable_for_equal_times(self):
        a = FaultPlan((LinkFault(5, 1, 2),))
        b = FaultPlan((NodeFault(5, 3),))
        merged = merge_plans(a, b)
        assert isinstance(merged.events[0], LinkFault)
        assert isinstance(merged.events[1], NodeFault)


class TestRepairedFailurePlan:
    """Link flaps: ``random_failure_plan`` with ``repair=True``."""

    def test_each_flap_is_down_then_up(self, internet):
        plan = random_failure_plan(
            internet, count=3, spacing=400.0, repair=True, seed=2
        )
        events = list(plan)
        assert len(events) == 6
        for down, up in zip(events[0::2], events[1::2]):
            assert (down.a, down.b) == (up.a, up.b)
            assert not down.up and up.up
            assert up.time == down.time + 200.0  # half the spacing

    def test_flapped_links_are_safe(self, internet):
        plan = random_failure_plan(internet, count=3, repair=True, seed=2)
        safe = set(safe_failure_candidates(internet))
        for ev in plan:
            assert (ev.a, ev.b) in safe

    def test_deterministic(self, internet):
        def plan():
            return list(random_failure_plan(internet, count=2, repair=True, seed=5))

        assert plan() == plan()

    def test_raises_when_candidates_run_out(self):
        with pytest.raises(ValueError, match="safe candidate links"):
            random_failure_plan(line_graph(4), count=1, repair=True)

    def test_distinct_links_fail_one_spacing_apart(self, internet):
        plan = random_failure_plan(
            internet, count=4, start_time=50.0, spacing=300.0,
            repair=True, seed=8,
        )
        downs = [ev for ev in plan if not ev.up]
        assert [ev.time for ev in downs] == [50, 350, 650, 950]
        assert len({(ev.a, ev.b) for ev in downs}) == 4


class TestCrashPlans:
    def test_articulation_points_excluded(self):
        # In a line 0-1-2-3 the interior nodes are articulation points.
        g = line_graph(4)
        assert crash_candidates(g) == [0, 3]

    def test_cycle_has_all_candidates(self):
        g = mk_graph([(0, "Rt"), (1, "Rt"), (2, "Rt")], [(0, 1), (1, 2), (0, 2)])
        assert crash_candidates(g) == [0, 1, 2]

    def test_crash_then_restart(self, internet):
        plan = ad_crash_plan(internet, crashes=2, retain_state=True, seed=1)
        events = list(plan)
        assert len(events) == 4
        for down, up in zip(events[0::2], events[1::2]):
            assert down.ad == up.ad
            assert not down.up and up.up
            assert down.retain_state and up.retain_state
        assert all(e.ad in crash_candidates(internet) for e in events)

    def test_each_ad_is_down_for_half_a_spacing(self, internet):
        plan = ad_crash_plan(
            internet, crashes=3, start_time=50.0, spacing=300.0, seed=4
        )
        events = list(plan)
        assert [e.time for e in events] == [50, 200, 350, 500, 650, 800]
        assert [e.up for e in events] == [False, True] * 3

    def test_state_loss_flag(self, internet):
        plan = ad_crash_plan(internet, crashes=1, retain_state=False, seed=0)
        assert all(not e.retain_state for e in plan)

    def test_raises_when_not_enough_safe_ads(self):
        g = line_graph(3)  # only the two endpoints are crash-safe
        with pytest.raises(ValueError, match="crash-safe ADs"):
            ad_crash_plan(g, crashes=3)


class TestChurnStormPlan:
    def test_phase_locked_down_up_cycles(self, internet):
        plan = churn_storm_plan(
            internet, hz=0.1, links=1, start_time=10.0, duration=30.0, seed=3
        )
        # Period 10: downs at 10/20/30, the up-leg half a period later.
        assert [e.time for e in plan] == [10, 15, 20, 25, 30, 35]
        assert [e.up for e in plan] == [False, True] * 3
        assert len({(e.a, e.b) for e in plan}) == 1

    def test_links_flap_concurrently(self, internet):
        plan = churn_storm_plan(internet, hz=0.05, links=3, seed=2)
        times = [e.time for e in plan]
        assert times == sorted(times)
        flapped = {(e.a, e.b) for e in plan}
        assert len(flapped) == 3
        # Unlike a repaired failure plan, every chosen link is down at
        # once at the start of each period.
        first = min(times)
        assert sum(1 for e in plan if e.time == first and not e.up) == 3

    def test_prefers_lateral_and_bypass_links(self, internet):
        plan = churn_storm_plan(internet, hz=0.05, links=3, seed=2)
        kinds = {
            internet.link(e.a, e.b).kind for e in plan
        }
        assert kinds <= {LinkKind.LATERAL, LinkKind.BYPASS}

    def test_never_flaps_a_bridge(self, internet):
        plan = churn_storm_plan(internet, hz=0.05, links=4, seed=1)
        safe = set(safe_failure_candidates(internet))
        assert {(e.a, e.b) for e in plan} <= safe

    def test_seeded_determinism(self, internet):
        a = churn_storm_plan(internet, hz=0.05, links=3, seed=9)
        b = churn_storm_plan(internet, hz=0.05, links=3, seed=9)
        assert list(a) == list(b)

    def test_parameter_validation(self, internet):
        with pytest.raises(ValueError, match="frequency"):
            churn_storm_plan(internet, hz=0.0)
        with pytest.raises(ValueError, match="duration"):
            churn_storm_plan(internet, duration=0.0)
        # A zero period or an endless window would never end the plan.
        for hz in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="frequency"):
                churn_storm_plan(internet, hz=hz)
        with pytest.raises(ValueError, match="duration"):
            churn_storm_plan(internet, duration=float("inf"))
        with pytest.raises(ValueError, match="candidate"):
            churn_storm_plan(line_graph(4), links=2)  # all links are bridges
