"""Tests for the discrete-event engine."""

import pytest

from repro.simul.engine import SimulationLimitError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(9.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        log = []
        for tag in "abc":
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]
        assert sim.now == 3.0

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(2.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 3.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("enter", ["post", "schedule", "schedule_at"])
    def test_nan_instant_rejected(self, enter):
        # NaN compares False with everything: a ``< 0`` guard lets it in,
        # and a NaN instant has no place in any order.
        sim = Simulator()
        with pytest.raises(ValueError):
            getattr(sim, enter)(float("nan"), lambda: None)
        assert sim.pending == 0


class TestPost:
    """``post`` is ``schedule`` minus the handle: one clock, one counter."""

    def test_post_returns_nothing_and_fires_with_its_arguments(self):
        sim = Simulator()
        log = []
        assert sim.post(2.0, log.append, "x") is None
        assert sim.pending == 1
        assert sim.run() == 1
        assert log == ["x"]
        assert sim.now == 2.0
        assert sim.events_processed == 1

    def test_interleaved_entry_points_fire_in_insertion_order_on_ties(self):
        sim = Simulator()
        log = []
        entry_points = (
            sim.post,
            sim.schedule,
            lambda delay, fn, *args: sim.schedule_at(sim.now + delay, fn, *args),
        )
        for i in range(12):
            entry_points[i % 3](1.0, log.append, i)
        # A tie created from inside an event sorts behind the queued ones.
        sim.post(0.0, lambda: sim.post(1.0, log.append, "nested"))
        sim.run()
        assert log == list(range(12)) + ["nested"]

    def test_negative_delay_rejected_by_both(self):
        sim = Simulator()
        for enter in (sim.post, sim.schedule):
            with pytest.raises(ValueError, match="negative delay"):
                enter(-1.0, lambda: None)
        assert sim.pending == 0

    @pytest.mark.parametrize("enter", ["post", "schedule"])
    def test_run_until_leaves_a_later_event_queued(self, enter):
        sim = Simulator()
        log = []
        getattr(sim, enter)(1.0, log.append, "a")
        getattr(sim, enter)(10.0, log.append, "b")
        assert sim.run(until=5.0) == 1
        assert (log, sim.now, sim.pending) == (["a"], 5.0, 1)
        sim.run()
        assert log == ["a", "b"]

    @pytest.mark.parametrize("enter", ["post", "schedule"])
    def test_over_budget_head_stops_the_run_without_raising(self, enter):
        sim = Simulator()
        log = []
        getattr(sim, enter)(1.0, log.append, "a")
        getattr(sim, enter)(2.0, log.append, "b")
        assert sim.run(max_events=1, raise_on_limit=False) == 1
        assert sim.hit_event_limit
        assert (log, sim.pending, sim.now) == (["a"], 1, 1.0)
        assert sim.run() == 1  # the over-budget event was kept, not lost
        assert log == ["a", "b"]
        assert not sim.hit_event_limit

    @pytest.mark.parametrize("enter", ["post", "schedule"])
    def test_over_budget_head_raises_by_default(self, enter):
        sim = Simulator()
        getattr(sim, enter)(1.0, lambda: None)
        getattr(sim, enter)(2.0, lambda: None)
        with pytest.raises(SimulationLimitError):
            sim.run(max_events=1)
        assert sim.hit_event_limit
        assert sim.pending == 1

    def test_posted_tail_after_cancelled_timers_trips_the_limit(self):
        # The cancelled timers ahead of it are free; the posted event is
        # live by definition, so it is what exhausts the budget.
        sim = Simulator()
        sim.post(1.0, lambda: None)
        for _ in range(5):
            sim.schedule(2.0, lambda: None).cancel()
        sim.post(3.0, lambda: None)
        assert sim.run(max_events=1, raise_on_limit=False) == 1
        assert sim.hit_event_limit
        assert sim.pending == 1


class TestRun:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(10.0, log.append, "b")
        sim.run(until=5.0)
        assert log == ["a"]
        assert sim.now == 5.0
        sim.run()
        assert log == ["a", "b"]

    def test_run_until_advances_clock_when_queue_drains_early(self):
        # The early-break branch (next event beyond the horizon) leaves
        # now == until; the drained-queue branch must agree.
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.run(until=5.0)
        assert log == ["a"]
        assert sim.now == 5.0
        # An already-empty queue also advances to the horizon.
        sim.run(until=9.0)
        assert sim.now == 9.0
        # A horizon in the past never moves the clock backward.
        sim.run(until=2.0)
        assert sim.now == 9.0
        # And scheduling relative to the advanced clock works as usual.
        sim.schedule(1.0, log.append, "b")
        sim.run()
        assert log == ["a", "b"]
        assert sim.now == 10.0

    def test_event_budget_enforced(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationLimitError):
            sim.run(max_events=100)

    def test_cancellation(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        handle.cancel()
        assert handle.cancelled
        processed = sim.run()
        assert log == []
        assert processed == 0

    def test_run_returns_processed_count(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 5
        assert sim.events_processed == 5


class TestCancellationSemantics:
    """Pin the budget/cancellation contract: cancelled events are popped
    and skipped without counting toward any budget or counter."""

    def test_cancelled_events_do_not_count_toward_budget(self):
        sim = Simulator()
        log = []
        for _ in range(10):
            sim.schedule(1.0, log.append, "dead").cancel()
        sim.schedule(2.0, log.append, "live")
        # Budget of one: the ten cancelled events ahead of the live one
        # must be skipped for free, not starve it.
        processed = sim.run(max_events=1)
        assert log == ["live"]
        assert processed == 1
        assert sim.events_processed == 1
        assert not sim.hit_event_limit

    def test_trailing_cancelled_events_do_not_trip_the_limit(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        for _ in range(5):
            sim.schedule(2.0, lambda: None).cancel()
        # The budget is exactly consumed by the live event; the cancelled
        # tail drains without raising or setting hit_event_limit.
        processed = sim.run(max_events=1)
        assert log == ["a"]
        assert processed == 1
        assert not sim.hit_event_limit
        assert sim.pending == 0

    def test_live_event_beyond_budget_sets_limit(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1, raise_on_limit=False)
        assert sim.hit_event_limit
        assert sim.pending == 1  # the over-budget event is still queued

    def test_pending_includes_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancelled_events_still_advance_the_clock(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None).cancel()
        sim.run()
        assert sim.now == 5.0
