"""Tests for the bounded ingress queue: capacity validation, service
discipline, tail-drop overflow, crash/restore (NVRAM) semantics, and the
interaction with retransmission hardening."""

from dataclasses import dataclass
from typing import List, Tuple

import pytest

from repro.adgraph.ad import ADId
from repro.simul.ingress import SERVICE_TIME, IngressModel
from repro.simul.messages import Message
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.protocols.registry import make_protocol
from tests.helpers import line_graph, mk_graph, open_db


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


class TestCapacity:
    def test_zero_capacity_is_legal(self):
        # Only the in-service slot: every arrival while busy overflows.
        net = recorder_net()
        net.set_ingress(IngressModel(0))
        for k in range(3):
            net.send(0, 1, Ping(k))
        net.run()
        assert [m.payload for _, m, _ in net.node(1).heard] == [0]
        assert net.ingress.dropped == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            IngressModel(-1)


class TestUnboundedPath:
    def test_detach_restores_legacy_path(self):
        net = recorder_net()
        net.set_ingress(IngressModel(4))
        net.set_ingress(None)
        net.send(0, 1, Ping())
        net.run()
        (_, _, t), = net.node(1).heard
        assert t == net.graph.link(0, 1).metric("delay")


class TestBoundedService:
    def test_service_time_delays_delivery(self):
        net = recorder_net()
        net.set_ingress(IngressModel(4))
        net.send(0, 1, Ping())
        net.run()
        (_, _, t), = net.node(1).heard
        assert SERVICE_TIME == 0.5
        assert t == net.graph.link(0, 1).metric("delay") + SERVICE_TIME

    def test_fifo_single_server_discipline(self):
        net = recorder_net()
        net.set_ingress(IngressModel(4))
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
        net.set_ingress(IngressModel(4))
        for k in range(3):
            net.send(0, 1, Ping(k))
        net.run()
        counters = net.ingress.counters(elapsed=net.sim.now, n_nodes=3)
        assert set(counters) == {
            "capacity", "service_time", "peak_depth", "dropped", "served",
            "duty_cycle",
        }
        assert counters["capacity"] == 4
        assert counters["service_time"] == SERVICE_TIME
        assert counters["served"] == 3
        assert counters["dropped"] == 0
        assert counters["peak_depth"] == 3
        assert counters["duty_cycle"] > 0


class TestTailDrop:
    def test_overflow_drops_and_counts(self):
        net = recorder_net()
        net.set_ingress(IngressModel(1))
        for k in range(4):
            net.send(0, 1, Ping(k))
        net.run()
        # One in service, one waiting; the other two overflowed.
        assert [m.payload for _, m, _ in net.node(1).heard] == [0, 1]
        assert net.ingress.dropped == 2
        assert net.metrics.queue_dropped == 2

    def test_a_served_slot_admits_the_next_arrival(self):
        # Tail-drop refuses only while the queue is full: an arrival after
        # the first message's service ends finds the slot free.
        net = recorder_net()
        net.set_ingress(IngressModel(0))
        net.send(0, 1, Ping(0))
        net.send(0, 1, Ping(1))  # same instant: overflows
        net.sim.schedule(2 * SERVICE_TIME, net.send, 0, 1, Ping(2))
        net.run()
        assert [m.payload for _, m, _ in net.node(1).heard] == [0, 2]
        assert net.ingress.dropped == 1


class TestCrashSemantics:
    """NVRAM model: crash freezes the queue; what restore brings back
    depends on whether the process kept its state."""

    def _loaded(self):
        net = recorder_net()
        net.set_ingress(IngressModel(8))
        for k in range(3):
            net.send(0, 1, Ping(k))
        net.run(until=1.25)  # deliveries enqueue; nothing served yet
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
        net.set_ingress(IngressModel(8))
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
        network.set_ingress(IngressModel(16))
        proto.converge()
        return proto, network

    def _park_update(self, network):
        """Leave one unserviced update in AD 1's ingress queue."""
        from repro.protocols.egp import NRUpdate

        t0 = network.sim.now
        network.send(0, 1, NRUpdate((0,)))
        network.run(until=t0 + 1.25)  # delivered (delay 1), service needs 0.5
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
        # resending what the hub's full 1-slot queue keeps dropping.
        # Retries are bounded, so the storm terminates instead of
        # ping-ponging -- a dropped message costs a retry, it does not
        # earn a free one.
        g = mk_graph(
            [(0, "Rt")] + [(i, "Cs") for i in range(1, 6)],
            [(0, i) for i in range(1, 6)],
        )
        proto = make_protocol("egp", g, open_db(g), hardening="retransmit")
        network = proto.build()
        network.set_ingress(IngressModel(1))
        result = proto.converge()
        assert result.quiesced
        assert network.metrics.queue_dropped > 0
        # Every retransmission chain ended: acked or given up for lost.
        for node in network.nodes.values():
            assert node._unacked == {}
