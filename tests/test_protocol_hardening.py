"""Tests for the hardening toggles: config parsing, registry plumbing,
wire-size compatibility, and the per-protocol mechanisms."""

import pytest

from repro.faults.channel import ChannelModel, ImpairedChannel, Impairment
from repro.policy.flows import FlowSpec
from repro.protocols.egp import NRAck, NRUpdate
from repro.protocols.flooding import ExchangeAck, LSDBExchange
from repro.protocols.hardening import (
    FEATURES,
    HARDENED,
    SOFT,
    HardeningConfig,
    hardening_from,
)
from repro.protocols.registry import make_protocol
from tests.helpers import line_graph, mk_graph, open_db


def ring4():
    return mk_graph(
        [(0, "Rt"), (1, "Rt"), (2, "Rt"), (3, "Rt")],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
    )


class ScriptedChannel(ChannelModel):
    """Deterministic per-transmission script: drop/duplicate by index."""

    def __init__(self, drop=(), dup=()):
        self.n = 0
        self.drop = set(drop)
        self.dup = set(dup)

    def transmit(self, src, dst):
        i = self.n
        self.n += 1
        if i in self.drop:
            return ()
        if i in self.dup:
            return (0.0, 0.0)
        return (0.0,)


class TestHardeningConfig:
    def test_soft_is_all_off(self):
        assert not SOFT.any_enabled
        assert SOFT.enabled == ()
        assert str(SOFT) == "none"

    def test_hardened_is_all_on(self):
        assert HARDENED.enabled == FEATURES
        assert str(HARDENED) == "dedup+retransmit+refresh"

    def test_enabled_order_is_canonical(self):
        cfg = HardeningConfig(refresh=True, dedup=True)
        assert cfg.enabled == ("dedup", "refresh")


class TestHardeningFrom:
    @pytest.mark.parametrize("value", [None, "none", ""])
    def test_off_spellings(self, value):
        assert hardening_from(value) == SOFT

    def test_all(self):
        assert hardening_from("all") == HARDENED

    def test_single_feature(self):
        assert hardening_from("dedup") == HardeningConfig(dedup=True)

    @pytest.mark.parametrize("value", ["dedup+refresh", "dedup,refresh"])
    def test_combinations(self, value):
        assert hardening_from(value) == HardeningConfig(dedup=True, refresh=True)

    def test_iterable(self):
        assert hardening_from(["retransmit"]) == HardeningConfig(retransmit=True)

    def test_config_passthrough(self):
        cfg = HardeningConfig(dedup=True, max_retries=7)
        assert hardening_from(cfg) is cfg


class TestRegistryPlumbing:
    def test_default_is_soft(self):
        g = ring4()
        proto = make_protocol("ls-hbh", g, open_db(g))
        assert proto.runtime.hardening == SOFT

    def test_hardening_option_reaches_every_node(self):
        g = ring4()
        proto = make_protocol("ls-hbh", g, open_db(g), hardening="all")
        assert proto.runtime.hardening == HARDENED
        network = proto.build()
        assert all(
            node.hardening == HARDENED for node in network.nodes.values()
        )

    def test_egp_custom_build_distributes_too(self):
        g = line_graph(3)
        proto = make_protocol("egp", g, open_db(g), hardening="dedup")
        network = proto.build()
        assert all(
            node.hardening == HardeningConfig(dedup=True)
            for node in network.nodes.values()
        )


class TestWireCompatibility:
    def test_unhardened_messages_keep_legacy_sizes(self):
        # The seq/token field costs four bytes only when carried, so
        # unhardened runs stay byte-identical to the pre-faults protocol.
        assert NRUpdate((1, 2)).size_bytes() + 4 == NRUpdate((1, 2), seq=9).size_bytes()
        plain = LSDBExchange(())
        assert plain.size_bytes() + 4 == LSDBExchange((), token=3).size_bytes()

    def test_ack_sizes(self):
        assert NRAck(1).size_bytes() > 0
        assert ExchangeAck(1).size_bytes() > 0


class TestEGPHardening:
    def _converged(self, hardening):
        g = line_graph(3)
        proto = make_protocol("egp", g, open_db(g), hardening=hardening)
        proto.converge()
        return proto

    def test_dedup_suppresses_replayed_updates(self):
        proto = self._converged("dedup")
        node = proto.network.node(1)
        table_before = dict(node.table)
        msg = NRUpdate((9,), seq=77)
        node.on_message(0, msg)
        node.on_message(0, msg)  # exact replay
        proto.network.run()
        assert node.duplicates_ignored == 1
        assert 9 in node.table
        assert proto.runtime_summary("hardening") >= 1
        del node.table[9]
        assert node.table == table_before

    def test_retransmit_recovers_a_lost_update(self):
        g = line_graph(2)
        proto = make_protocol("egp", g, open_db(g), hardening="retransmit")
        network = proto.build()
        # Drop the very first transmission (node 0's initial update).
        network.set_channel(ScriptedChannel(drop={0}))
        proto.converge()
        assert proto.network.node(1).table.get(0) == 0
        # The retransmission was acked, so nothing stays queued.
        for node in network.nodes.values():
            assert node._unacked == {}

    def test_retransmit_gives_up_under_total_loss(self):
        g = line_graph(2)
        proto = make_protocol("egp", g, open_db(g), hardening="retransmit")
        network = proto.build()
        network.set_channel(
            ImpairedChannel(default=Impairment(drop_prob=1.0), seed=0)
        )
        result = proto.converge()
        assert result.quiesced  # bounded retries: the run still drains
        for node in network.nodes.values():
            assert node._unacked == {}

    def test_unhardened_updates_carry_no_seq(self):
        proto = self._converged(None)
        assert proto.network.node(1).table.get(0) == 0
        assert all(n._update_seq == 0 for n in proto.network.nodes.values())


class TestLSHardening:
    def test_refresh_burst_reoriginates(self):
        g = ring4()
        proto = make_protocol("ls-hbh", g, open_db(g), hardening="refresh")
        proto.converge()
        # Initial origination plus the bounded refresh burst.
        expected = 1 + proto.runtime.hardening.refresh_count
        assert all(
            node._seq == expected for node in proto.network.nodes.values()
        )

    def test_no_refresh_without_hardening(self):
        g = ring4()
        proto = make_protocol("ls-hbh", g, open_db(g))
        proto.converge()
        assert all(node._seq == 1 for node in proto.network.nodes.values())

    def test_refresh_heals_a_lost_flood(self):
        g = ring4()
        proto = make_protocol("ls-hbh", g, open_db(g), hardening="refresh")
        network = proto.build()
        # Lose the first several floods; the refresh burst re-floods.
        network.set_channel(ScriptedChannel(drop=set(range(4))))
        proto.converge()
        for node in network.nodes.values():
            assert set(node.lsdb) == {0, 1, 2, 3}

    def test_exchange_retransmit_tracks_acks(self):
        g = ring4()
        proto = make_protocol("ls-hbh", g, open_db(g), hardening="retransmit")
        proto.converge()
        proto.apply_link_status(0, 1, False)
        proto.network.run()
        proto.apply_link_status(0, 1, True)
        proto.network.run()
        # The link-up DB exchanges were tokened, acked, and cleared.
        for node in proto.network.nodes.values():
            assert node._pending_exchanges == {}


class TestORWGHardening:
    def _proto(self, hardening, channel=None):
        g = ring4()
        proto = make_protocol("orwg", g, open_db(g), hardening=hardening)
        network = proto.build()
        if channel is not None:
            network.set_channel(channel)
        proto.converge()
        return proto

    def test_setup_retransmit_recovers_a_lost_packet(self):
        proto = self._proto("retransmit")
        # Drop the next transmission: the setup packet leaving the source.
        channel = ScriptedChannel(drop={0})
        proto.network.set_channel(channel)
        attempt = proto.open_route(FlowSpec(0, 2))
        proto.network.run()
        assert attempt.established

    def test_setup_times_out_under_total_loss(self):
        proto = self._proto("retransmit")
        proto.network.set_channel(
            ImpairedChannel(default=Impairment(drop_prob=1.0), seed=0)
        )
        attempt = proto.open_route(FlowSpec(0, 2))
        proto.network.run()
        assert attempt.state == "failed"
        assert "timed out" in attempt.reason

    def test_unhardened_setup_wedges_on_loss(self):
        proto = self._proto(None)
        proto.network.set_channel(ScriptedChannel(drop={0}))
        attempt = proto.open_route(FlowSpec(0, 2))
        proto.network.run()
        assert attempt.state == "pending"  # lost forever, nobody retries

    def test_dedup_skips_revalidating_duplicate_setups(self):
        proto = self._proto("dedup+retransmit")
        # Duplicate the setup packet leaving the source: the transit AD
        # sees it twice and must forward, not revalidate, the replay.
        proto.network.set_channel(ScriptedChannel(dup={0}))
        attempt = proto.open_route(FlowSpec(0, 2))
        proto.network.run()
        assert attempt.established
        assert proto.runtime_summary("hardening") >= 1
