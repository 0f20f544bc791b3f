"""Tests for the overload defenses: update pacing, hold-down, and flap
damping -- config parsing, registry plumbing, the damper's penalty
model, per-protocol behaviour, and the hypothesis-checked invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.pacing import (
    FEATURES,
    FULL,
    HALF_LIFE,
    HOLDDOWN_TIME,
    MIN_ADVERT_INTERVAL,
    REUSE_TICK_MIN,
    UNPACED,
    FlapDamper,
    OverloadDefenseMixin,
    PacingConfig,
    pacing_from,
)
from repro.protocols.registry import make_protocol
from tests.helpers import line_graph, open_db

_slow = settings(max_examples=25, deadline=None)


class TestPacingConfig:
    def test_unpaced_is_all_off(self):
        assert not UNPACED.any_enabled
        assert UNPACED.enabled == ()
        assert str(UNPACED) == "none"

    def test_full_is_all_on(self):
        assert FULL.enabled == FEATURES
        assert str(FULL) == "pace+holddown+damp"

    def test_enabled_order_is_canonical(self):
        cfg = PacingConfig(damp=True, pace=True)
        assert cfg.enabled == ("pace", "damp")


class TestPacingFrom:
    @pytest.mark.parametrize("value", [None, "none", "off", ""])
    def test_off_spellings(self, value):
        assert pacing_from(value) == UNPACED

    @pytest.mark.parametrize("value", ["all", "full"])
    def test_all_spellings(self, value):
        assert pacing_from(value) == FULL

    def test_single_feature(self):
        assert pacing_from("damp") == PacingConfig(damp=True)

    @pytest.mark.parametrize("value", ["pace+damp", "pace,damp"])
    def test_combinations(self, value):
        assert pacing_from(value) == PacingConfig(pace=True, damp=True)

    def test_iterable(self):
        assert pacing_from(["holddown"]) == PacingConfig(holddown=True)

    def test_config_passthrough(self):
        cfg = PacingConfig(pace=True)
        assert pacing_from(cfg) is cfg


class TestRegistryPlumbing:
    def test_default_is_unpaced(self):
        g = line_graph(3)
        proto = make_protocol("ls-hbh", g, open_db(g))
        assert proto.runtime.pacing == UNPACED

    def test_pacing_option_reaches_every_node(self):
        g = line_graph(3)
        proto = make_protocol("ls-hbh", g, open_db(g), pacing="all")
        assert proto.runtime.pacing == FULL
        network = proto.build()
        assert all(node.pacing == FULL for node in network.nodes.values())

    def test_egp_custom_build_distributes_too(self):
        g = line_graph(3)
        proto = make_protocol("egp", g, open_db(g), pacing="pace")
        network = proto.build()
        assert all(
            node.pacing == PacingConfig(pace=True)
            for node in network.nodes.values()
        )


class TestFlapDamper:
    def test_penalty_accumulates_to_suppression(self):
        damper = FlapDamper()
        assert not damper.record_flap("k", 0.0)
        assert not damper.record_flap("k", 0.0)
        assert damper.record_flap("k", 0.0)  # 3.0 crosses the threshold
        assert damper.flaps == 3
        assert damper.suppressions == 1
        assert damper.is_suppressed("k", 0.0)

    def test_penalty_halves_every_half_life(self):
        damper = FlapDamper()
        damper.record_flap("k", 0.0)
        assert damper.penalty_of("k", HALF_LIFE) == pytest.approx(0.5)
        assert damper.penalty_of("k", 2 * HALF_LIFE) == pytest.approx(0.25)

    def test_decay_lifts_suppression(self):
        damper = FlapDamper()
        for _ in range(3):
            damper.record_flap("k", 0.0)
        lift = damper.reuse_delay("k", 0.0)
        assert lift > 0
        assert damper.is_suppressed("k", lift - 1.0)
        assert not damper.is_suppressed("k", lift + 1e-6)

    def test_reuse_delay_zero_below_threshold(self):
        damper = FlapDamper()
        damper.record_flap("k", 0.0)  # 1.0 == reuse threshold
        assert damper.reuse_delay("k", 0.0) == 0.0
        assert damper.penalty_of("missing", 0.0) == 0.0
        assert not damper.is_suppressed("missing", 0.0)


def _tables(proto):
    return {i: dict(n.table) for i, n in proto.network.nodes.items()}


class TestDefensesEndToEnd:
    def test_pacing_preserves_the_converged_outcome(self):
        g = line_graph(4)
        plain = make_protocol("egp", g, open_db(g))
        plain.converge()
        paced = make_protocol("egp", line_graph(4), open_db(g), pacing="all")
        paced.converge()
        assert _tables(plain) == _tables(paced)

    def test_pace_defers_update_bursts(self):
        g = line_graph(4)
        proto = make_protocol("egp", g, open_db(g), pacing="pace")
        proto.converge()
        network = proto.network
        # A flap right after convergence triggers flushes well inside
        # the minimum advertisement interval of the initial ones.
        proto.apply_link_status(0, 1, False)
        proto.apply_link_status(0, 1, True)
        network.run()
        assert sum(n.paced_deferrals for n in network.nodes.values()) > 0

    def test_holddown_delays_bad_news(self):
        g = line_graph(3)
        proto = make_protocol("naive-dv", g, open_db(g), pacing="holddown")
        proto.converge()
        network = proto.network
        t0 = network.sim.now
        proto.apply_link_status(1, 2, False)
        network.run(until=t0 + HOLDDOWN_TIME / 2)
        # AD 1 is sitting on the bad news; AD 0 still routes via it.
        assert network.node(0).route_to(2) == 1
        network.run()
        assert network.node(0).route_to(2) is None

    def test_damping_suppresses_a_flapping_route_then_restores_it(self):
        g = line_graph(3)
        proto = make_protocol("naive-dv", g, open_db(g), pacing="damp")
        proto.converge()
        network = proto.network
        for _ in range(4):  # repeated losses cross the suppress threshold
            proto.apply_link_status(1, 2, False)
            network.run(until=network.sim.now + 5.0)
            proto.apply_link_status(1, 2, True)
            network.run(until=network.sim.now + 5.0)
        node1 = network.node(1)
        assert node1._damper is not None
        assert node1._damper.suppressions >= 1
        assert node1.suppressed_announcements > 0
        # While suppressed, AD 0 has no route even though the link is up.
        assert network.node(0).route_to(2) is None
        # Decay lifts the suppression and the route is re-advertised.
        network.run()
        assert network.node(0).route_to(2) == 1


class _Clocked(OverloadDefenseMixin):
    """Minimal host for the mixin: a clock and a scheduler stub."""

    def __init__(self, pacing):
        self.now = 0.0
        self.pacing = pacing
        self.scheduled = []

    def schedule(self, delay, fn, *args):
        self.scheduled.append((self.now + delay, fn, args))


class TestHolddownTimer:
    def test_armed_once_per_storm_then_rearmed(self):
        node = _Clocked(PacingConfig(holddown=True))
        node._enter_holddown()
        assert node._pacing_defers_flush() == HOLDDOWN_TIME
        # A second loss inside the window does not extend it.
        node.now = HOLDDOWN_TIME / 2
        node._enter_holddown()
        assert node._pacing_defers_flush() == HOLDDOWN_TIME / 2
        node.now = HOLDDOWN_TIME
        assert node._pacing_defers_flush() is None
        # Bad news after the window arms a fresh one.
        node._enter_holddown()
        assert node._pacing_defers_flush() == HOLDDOWN_TIME
        assert node.paced_deferrals == 3


class TestHypothesisInvariants:
    @_slow
    @given(
        flaps=st.integers(min_value=1, max_value=8),
        gaps=st.lists(
            st.floats(min_value=0.01, max_value=500.0),
            min_size=2,
            max_size=10,
        ),
    )
    def test_penalty_decay_is_monotone(self, flaps, gaps):
        # Once flapping stops, the figure-of-merit only ever decreases.
        damper = FlapDamper()
        now = 0.0
        for _ in range(flaps):
            damper.record_flap("k", now)
            now += 1.0
        values = []
        for gap in gaps:
            now += gap
            values.append(damper.penalty_of("k", now))
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    @_slow
    @given(
        flaps=st.integers(min_value=4, max_value=12),
        gap=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_suppression_is_eventually_lifted(self, flaps, gap):
        # Closely-spaced flaps always suppress, and the suppression is
        # always lifted once flapping stops: within reuse_delay the key
        # decays below the reuse threshold.
        damper = FlapDamper()
        now = 0.0
        for _ in range(flaps):
            damper.record_flap("k", now)
            now += gap
        assert damper.is_suppressed("k", now)
        lift = damper.reuse_delay("k", now)
        assert lift > 0
        assert not damper.is_suppressed("k", now + lift + 1e-6)

    @_slow
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=20,
        )
    )
    def test_pacing_never_reorders_same_neighbour_batches(self, times):
        # Deferral pushes a batch later, never earlier: accepted flush
        # times are strictly ordered and at least one advertisement
        # interval apart, so a neighbour can never observe update batch
        # N+1 before batch N.
        node = _Clocked(PacingConfig(pace=True))
        sent = []
        for t in sorted(times):
            node.now = max(node.now, t)
            wait = node._pacing_defers_flush()
            if wait is not None:
                assert wait > 0
                node.now += wait  # the rescheduled flush fires
                wait = node._pacing_defers_flush()
                assert wait is None
            sent.append(node.now)
        assert sent == sorted(sent)
        assert all(
            b - a >= MIN_ADVERT_INTERVAL - 1e-9
            for a, b in zip(sent, sent[1:])
        )

    @_slow
    @given(repenalties=st.integers(min_value=0, max_value=4))
    def test_reuse_checks_never_busy_loop(self, repenalties):
        # A key re-penalized while suppressed re-arms its check with at
        # least the tick floor, never a zero-delay self-spin.
        node = _Clocked(FULL)
        for _ in range(3):
            node._damp_loss("k")
        for _ in range(repenalties):
            node._damp_loss("k")
        assert all(t - node.now >= REUSE_TICK_MIN for t, _, _ in node.scheduled)
