"""Tests for metrics collection and snapshot deltas."""

from repro.simul.metrics import MetricsCollector


class TestCollector:
    def test_message_accounting(self):
        m = MetricsCollector()
        m.count_message("A", 100, time=5.0)
        m.count_message("A", 50, time=7.0)
        m.count_message("B", 10, time=6.0)
        assert m.messages["A"] == 2
        assert m.bytes["A"] == 150
        assert m.last_activity == 7.0

    def test_computations_by_ad(self):
        m = MetricsCollector()
        m.note_computation(1, "spf")
        m.note_computation(1, "spf", 2)
        m.note_computation(2, "spf")
        m.note_computation(1, "other")
        assert m.computations_by_ad("spf") == {1: 3, 2: 1}


class TestSnapshots:
    def test_snapshot_totals(self):
        m = MetricsCollector()
        m.count_message("A", 100, 1.0)
        m.count_drop()
        snap = m.snapshot(time=2.0)
        assert snap.total_messages == 1
        assert snap.total_bytes == 100
        assert snap.dropped == 1
        assert snap.time == 2.0

    def test_snapshot_is_immutable_copy(self):
        m = MetricsCollector()
        m.count_message("A", 1, 0.0)
        snap = m.snapshot(0.0)
        m.count_message("A", 1, 1.0)
        assert snap.messages["A"] == 1

    def test_delta(self):
        m = MetricsCollector()
        m.count_message("A", 100, 1.0)
        before = m.snapshot(1.0)
        m.count_message("A", 100, 2.0)
        m.count_message("B", 10, 3.0)
        m.note_computation(4, "x")
        after = m.snapshot(5.0)
        delta = after.delta(before)
        assert delta.messages == {"A": 1, "B": 1}
        assert delta.total_bytes == 110
        assert delta.time == 4.0
        assert delta.computations == {(4, "x"): 1}

    def test_delta_drops_zero_keys(self):
        m = MetricsCollector()
        m.count_message("A", 1, 0.0)
        before = m.snapshot(0.0)
        after = m.snapshot(1.0)
        assert after.delta(before).messages == {}

    def test_delta_of_identical_snapshots_is_empty(self):
        m = MetricsCollector()
        m.count_message("A", 5, 1.0)
        m.note_computation(0, "spf")
        m.count_drop()
        snap = m.snapshot(2.0)
        delta = snap.delta(snap)
        assert delta.total_messages == 0
        assert delta.total_bytes == 0
        assert delta.computations == {}
        assert delta.dropped == 0
        assert delta.time == 0.0

    def test_delta_keeps_keys_absent_in_earlier(self):
        m = MetricsCollector()
        before = m.snapshot(0.0)
        m.count_message("New", 7, 1.0)
        after = m.snapshot(1.0)
        delta = after.delta(before)
        assert delta.messages == {"New": 1}
        assert delta.bytes == {"New": 7}

    def test_delta_preserves_last_activity_of_later_snapshot(self):
        m = MetricsCollector()
        m.count_message("A", 1, 3.0)
        before = m.snapshot(5.0)
        m.count_message("A", 1, 9.0)
        after = m.snapshot(10.0)
        # Episode convergence time = last_activity - episode start.
        assert after.delta(before).last_activity == 9.0

    def test_delta_of_empty_collectors(self):
        a = MetricsCollector().snapshot(0.0)
        b = MetricsCollector().snapshot(4.0)
        delta = b.delta(a)
        assert delta.total_messages == 0
        assert delta.time == 4.0
        assert sum(delta.computations.values()) == 0
