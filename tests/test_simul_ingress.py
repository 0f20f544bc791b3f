"""Tests for the bounded ingress queue: config validation, service
discipline, overflow policies, crash/restore (NVRAM) semantics, and the
interaction with retransmission hardening."""

from dataclasses import dataclass
from typing import List, Tuple

import pytest

from repro.adgraph.ad import ADId
from repro.simul.ingress import OVERFLOW_POLICIES, IngressConfig
from repro.simul.messages import Message
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.protocols.registry import make_protocol
from tests.helpers import line_graph, open_db


@dataclass(frozen=True)
class Ping(Message):
    payload: int = 0

    def size_bytes(self) -> int:
        return super().size_bytes() + 4


class Recorder(ProtocolNode):
    def __init__(self, ad_id: ADId):
        super().__init__(ad_id)
        self.heard: List[Tuple[ADId, Message, float]] = []

    def on_message(self, sender, msg):
        self.heard.append((sender, msg, self.now))

    def on_link_change(self, link, up):
        pass


def recorder_net(n=3):
    graph = line_graph(n)
    net = SimNetwork(graph)
    for i in graph.ad_ids():
        net.add_node(Recorder(i))
    return net


class TestIngressConfig:
    def test_default_is_unbounded(self):
        cfg = IngressConfig()
        assert cfg.capacity is None
        assert not cfg.bounded

    def test_zero_capacity_is_legal(self):
        # Only the in-service slot: every arrival while busy overflows.
        assert IngressConfig(capacity=0).bounded

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            IngressConfig(capacity=-1)

    def test_negative_service_time_rejected(self):
        with pytest.raises(ValueError, match="service"):
            IngressConfig(capacity=4, service_time=-0.1)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            IngressConfig(capacity=4, policy="red")
        for policy in OVERFLOW_POLICIES:
            IngressConfig(capacity=4, policy=policy)

    def test_backpressure_knobs_validated(self):
        with pytest.raises(ValueError, match="retry"):
            IngressConfig(capacity=4, retry_delay=0.0)
        with pytest.raises(ValueError, match="redeliveries"):
            IngressConfig(capacity=4, max_redeliveries=-1)


class TestUnboundedPath:
    def test_unbounded_config_keeps_instant_delivery(self):
        # capacity=None attaches the model but leaves the legacy path:
        # delivery at exactly the link delay, no service stage.
        plain = recorder_net()
        plain.send(0, 1, Ping(7))
        plain.run()
        queued = recorder_net()
        queued.set_ingress(IngressConfig())
        queued.send(0, 1, Ping(7))
        queued.run()
        assert [(s, m.payload, t) for s, m, t in plain.node(1).heard] == [
            (s, m.payload, t) for s, m, t in queued.node(1).heard
        ]
        assert queued.metrics.queue_dropped == 0
        assert queued.ingress.served == 0

    def test_detach_restores_legacy_path(self):
        net = recorder_net()
        net.set_ingress(IngressConfig(capacity=4, service_time=0.5))
        net.set_ingress(None)
        net.send(0, 1, Ping())
        net.run()
        (_, _, t), = net.node(1).heard
        assert t == net.graph.link(0, 1).metric("delay")


class TestBoundedService:
    def test_service_time_delays_delivery(self):
        net = recorder_net()
        net.set_ingress(IngressConfig(capacity=4, service_time=0.5))
        net.send(0, 1, Ping())
        net.run()
        (_, _, t), = net.node(1).heard
        assert t == net.graph.link(0, 1).metric("delay") + 0.5

    def test_fifo_single_server_discipline(self):
        net = recorder_net()
        net.set_ingress(IngressConfig(capacity=4, service_time=0.5))
        for k in range(3):
            net.send(0, 1, Ping(k))
        net.run()
        heard = net.node(1).heard
        assert [m.payload for _, m, _ in heard] == [0, 1, 2]
        # One server: messages finish 0.5 apart even though they all
        # arrived together.
        times = [t for _, _, t in heard]
        assert times == [1.5, 2.0, 2.5]
        q = net.ingress.queue_of(1)
        assert q.served == 3
        assert q.peak_depth == 3  # one in service + two waiting

    def test_counters_rollup(self):
        net = recorder_net()
        net.set_ingress(IngressConfig(capacity=4, service_time=0.5))
        for k in range(3):
            net.send(0, 1, Ping(k))
        net.run()
        counters = net.ingress.counters(elapsed=net.sim.now, n_nodes=3)
        assert counters["capacity"] == 4
        assert counters["served"] == 3
        assert counters["dropped"] == 0
        assert counters["peak_depth"] == 3
        assert counters["duty_cycle"] > 0


class TestTailDrop:
    def test_overflow_drops_and_counts(self):
        net = recorder_net()
        net.set_ingress(IngressConfig(capacity=1, service_time=10.0))
        for k in range(4):
            net.send(0, 1, Ping(k))
        net.run()
        # One in service, one waiting; the other two overflowed.
        assert [m.payload for _, m, _ in net.node(1).heard] == [0, 1]
        assert net.ingress.dropped == 2
        assert net.metrics.queue_dropped == 2


class TestBackpressure:
    def test_deferred_arrival_is_redelivered(self):
        net = recorder_net()
        net.set_ingress(
            IngressConfig(
                capacity=0, service_time=0.5,
                policy="backpressure", retry_delay=2.0,
            )
        )
        net.send(0, 1, Ping(0))
        net.send(0, 1, Ping(1))
        net.run()
        # The second arrival found the queue full, waited 2.0, and got in.
        assert [m.payload for _, m, _ in net.node(1).heard] == [0, 1]
        assert net.ingress.deferred == 1
        assert net.ingress.counters()["deferred"] == 1
        assert net.ingress.dropped == 0

    def test_redeliveries_are_bounded(self):
        # A persistently full queue cannot recirculate a message forever:
        # after max_redeliveries attempts it drops.
        net = recorder_net()
        net.set_ingress(
            IngressConfig(
                capacity=0, service_time=1000.0,
                policy="backpressure", retry_delay=1.0, max_redeliveries=2,
            )
        )
        net.send(0, 1, Ping(0))
        net.send(0, 1, Ping(1))
        net.run()
        assert net.ingress.queue_of(1).deferred == 2
        assert net.ingress.queue_of(1).dropped == 1
        assert [m.payload for _, m, _ in net.node(1).heard] == [0]


class TestCrashSemantics:
    """NVRAM model: crash freezes the queue; what restore brings back
    depends on whether the process kept its state."""

    def _loaded(self):
        net = recorder_net()
        net.set_ingress(IngressConfig(capacity=8, service_time=5.0))
        for k in range(3):
            net.send(0, 1, Ping(k))
        net.run(until=1.5)  # deliveries enqueue; nothing served yet
        assert net.ingress.queue_of(1).depth == 3
        return net

    def test_crash_freezes_service_and_retained_restore_resumes(self):
        net = self._loaded()
        net.crash_node(1)
        net.run(until=100.0)
        assert net.node(1).heard == []  # frozen, not serving
        net.restore_node(1)
        net.run()
        # NVRAM: the queue survived the outage intact and in order.
        assert [m.payload for _, m, _ in net.node(1).heard] == [0, 1, 2]
        assert net.ingress.dropped == 0

    def test_state_losing_restart_flushes_the_queue(self):
        net = self._loaded()
        net.crash_node(1)
        lost = net.flush_ingress(1)
        assert lost == 3
        net.restore_node(1)
        net.run()
        assert net.node(1).heard == []
        assert net.metrics.queue_dropped == 3

    def test_delivery_to_crashed_node_is_dropped(self):
        net = recorder_net()
        net.set_ingress(IngressConfig(capacity=8, service_time=0.5))
        net.crash_node(1)
        net.send(0, 1, Ping())
        net.run()
        net.restore_node(1)
        net.run()
        assert net.node(1).heard == []
        assert net.metrics.dropped == 1


class TestProtocolCrashIntegration:
    def _built(self):
        g = line_graph(3)
        proto = make_protocol("egp", g, open_db(g))
        network = proto.build()
        network.set_ingress(IngressConfig(capacity=16, service_time=2.0))
        proto.converge()
        return proto, network

    def _park_update(self, network):
        """Leave one unserviced update in AD 1's ingress queue."""
        from repro.protocols.egp import NRUpdate

        t0 = network.sim.now
        network.send(0, 1, NRUpdate((0,)))
        network.run(until=t0 + 1.5)  # delivered (delay 1), service needs 2
        assert network.ingress.queue_of(1).depth == 1

    def test_state_losing_crash_flushes_pending_ingress(self):
        proto, network = self._built()
        self._park_update(network)
        proto.crash_node(1, retain_state=False)
        assert network.metrics.queue_dropped == 1
        proto.restore_node(1)
        network.run()
        assert network.ingress.queue_of(1).depth == 0

    def test_state_retaining_crash_preserves_pending_ingress(self):
        proto, network = self._built()
        self._park_update(network)
        served_before = network.ingress.queue_of(1).served
        proto.crash_node(1)  # retain_state=True: NVRAM
        assert network.ingress.queue_of(1).depth == 1
        proto.restore_node(1)
        network.run()
        assert network.metrics.queue_dropped == 0
        assert network.ingress.queue_of(1).served > served_before


class TestRetransmitInteraction:
    def test_queue_drop_consumes_a_bounded_retry(self):
        # The adversarial composition: retransmission hardening keeps
        # resending what a full 1-slot queue keeps dropping.  Retries are
        # bounded, so the storm terminates instead of ping-ponging -- a
        # dropped message costs a retry, it does not earn a free one.
        g = line_graph(2)
        proto = make_protocol("egp", g, open_db(g), hardening="retransmit")
        network = proto.build()
        network.set_ingress(IngressConfig(capacity=1, service_time=100.0))
        result = proto.converge()
        assert result.quiesced
        assert network.metrics.queue_dropped > 0
        # Every retransmission chain ended: acked or given up for lost.
        for node in network.nodes.values():
            assert node._unacked == {}
