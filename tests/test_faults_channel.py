"""Tests for the channel impairment models."""

import pytest

from repro.faults.channel import (
    PERFECT,
    ChannelModel,
    ImpairedChannel,
    Impairment,
    link_key,
)


class TestImpairment:
    def test_defaults_are_perfect(self):
        assert Impairment().perfect
        assert PERFECT.perfect

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_prob": 0.1},
            {"dup_prob": 0.1},
            {"jitter": 2.0},
        ],
    )
    def test_any_parameter_breaks_perfection(self, kwargs):
        assert not Impairment(**kwargs).perfect

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_prob": -0.1},
            {"drop_prob": 1.5},
            {"dup_prob": 2.0},
            {"jitter": -1.0},
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Impairment(**kwargs)


class TestLinkKey:
    def test_canonical_order(self):
        assert link_key(3, 7) == (3, 7)
        assert link_key(7, 3) == (3, 7)
        assert link_key(5, 5) == (5, 5)


class TestBaseChannel:
    def test_perfect_delivery(self):
        ch = ChannelModel()
        assert ch.transmit(1, 2) == (0.0,)
        assert ch.counters() == {}


class TestImpairedChannel:
    def test_perfect_default_never_alters(self):
        ch = ImpairedChannel()
        for _ in range(100):
            assert ch.transmit(1, 2) == (0.0,)
        assert ch.counters()["transmissions"] == 100
        assert ch.counters()["dropped"] == 0

    def test_deterministic_per_seed(self):
        spec = Impairment(drop_prob=0.3, dup_prob=0.2, jitter=5.0)
        a = ImpairedChannel(default=spec, seed=42)
        b = ImpairedChannel(default=spec, seed=42)
        fates_a = [a.transmit(1, 2) for _ in range(200)]
        fates_b = [b.transmit(1, 2) for _ in range(200)]
        assert fates_a == fates_b
        assert a.counters() == b.counters()

    def test_different_seeds_differ(self):
        spec = Impairment(drop_prob=0.5)
        a = ImpairedChannel(default=spec, seed=1)
        b = ImpairedChannel(default=spec, seed=2)
        assert [a.transmit(1, 2) for _ in range(100)] != [
            b.transmit(1, 2) for _ in range(100)
        ]

    def test_per_link_streams_are_independent(self):
        # Consuming one link's stream must not perturb another's.
        spec = Impairment(drop_prob=0.5)
        a = ImpairedChannel(default=spec, seed=7)
        b = ImpairedChannel(default=spec, seed=7)
        for _ in range(50):
            a.transmit(1, 2)  # burn link (1,2) on one channel only
        assert [a.transmit(3, 4) for _ in range(100)] == [
            b.transmit(3, 4) for _ in range(100)
        ]

    def test_perfect_links_consume_no_randomness(self):
        # A perfect-spec transmission never draws: no link RNG is created.
        ch = ImpairedChannel(default=PERFECT, seed=3)
        for _ in range(50):
            ch.transmit(1, 2)
        assert ch._rngs == {}

    def test_direction_shares_one_stream(self):
        # Both directions of a link share the canonical key (and RNG).
        spec = Impairment(drop_prob=0.5)
        a = ImpairedChannel(default=spec, seed=9)
        b = ImpairedChannel(default=spec, seed=9)
        assert [a.transmit(2, 5) for _ in range(50)] == [
            b.transmit(5, 2) for _ in range(50)
        ]

    def test_drop_rate_tracks_probability(self):
        ch = ImpairedChannel(default=Impairment(drop_prob=0.25), seed=0)
        n = 2000
        dropped = sum(1 for _ in range(n) if ch.transmit(1, 2) == ())
        assert dropped == ch.dropped
        assert 0.18 < dropped / n < 0.32

    def test_duplication_returns_two_copies(self):
        ch = ImpairedChannel(default=Impairment(dup_prob=1.0), seed=0)
        fate = ch.transmit(1, 2)
        assert len(fate) == 2
        assert ch.duplicated == 1

    def test_jitter_bounds(self):
        ch = ImpairedChannel(default=Impairment(jitter=3.0), seed=0)
        for _ in range(200):
            (delay,) = ch.transmit(1, 2)
            assert 0.0 <= delay <= 3.0

    def test_counters_shape(self):
        ch = ImpairedChannel(default=Impairment(drop_prob=0.5), seed=1)
        for _ in range(10):
            ch.transmit(1, 2)
        counters = ch.counters()
        assert set(counters) == {
            "transmissions",
            "dropped",
            "duplicated",
        }
        assert counters["transmissions"] == 10
