"""Tests for the simulated network and metrics plumbing."""

from dataclasses import dataclass
from typing import List, Tuple

import pytest

from repro.adgraph.ad import ADId, InterADLink
from repro.simul.messages import Message
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from tests.helpers import line_graph


@dataclass(frozen=True)
class Ping(Message):
    payload: int = 0

    def size_bytes(self) -> int:
        return super().size_bytes() + 4


class Recorder(ProtocolNode):
    """Collects everything it hears."""

    def __init__(self, ad_id: ADId):
        super().__init__(ad_id)
        self.heard: List[Tuple[ADId, Message, float]] = []
        self.link_events: List[Tuple[Tuple[int, int], bool]] = []

    def on_message(self, sender, msg):
        self.heard.append((sender, msg, self.now))

    def on_link_change(self, link: InterADLink, up: bool):
        self.link_events.append((link.key, up))


@pytest.fixture
def net():
    graph = line_graph(3)
    network = SimNetwork(graph)
    for i in graph.ad_ids():
        network.add_node(Recorder(i))
    return network


class TestDelivery:
    def test_message_delivered_after_link_delay(self, net):
        net.send(0, 1, Ping(7))
        net.run()
        (sender, msg, t), = net.node(1).heard
        assert sender == 0 and msg.payload == 7
        assert t == net.graph.link(0, 1).metric("delay")

    def test_non_neighbour_send_rejected(self, net):
        with pytest.raises(ValueError):
            net.send(0, 2, Ping())

    def test_send_over_down_link_dropped_and_counted(self, net):
        net.graph.set_link_status(0, 1, up=False)
        net.send(0, 1, Ping())
        net.run()
        assert net.node(1).heard == []
        assert net.metrics.dropped == 1

    def test_bytes_and_messages_accounted_by_type(self, net):
        net.send(0, 1, Ping())
        net.send(1, 2, Ping())
        net.run()
        assert net.metrics.messages["Ping"] == 2
        assert net.metrics.bytes["Ping"] == 2 * Ping().size_bytes()

    def test_in_flight_message_survives_link_failure(self, net):
        # The message was already on the wire; failure does not recall it.
        net.send(0, 1, Ping())
        net.graph.set_link_status(0, 1, up=False)
        net.run()
        assert len(net.node(1).heard) == 1


class TestNodeManagement:
    def test_duplicate_node_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_node(Recorder(0))

    def test_unknown_ad_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_node(Recorder(99))


class TestLinkChanges:
    def test_both_endpoints_notified(self, net):
        net.set_link_status(1, 2, up=False)
        assert net.node(1).link_events == [((1, 2), False)]
        assert net.node(2).link_events == [((1, 2), False)]
        assert net.node(0).link_events == []

    def test_failure_plan_scheduling(self):
        from repro.faults.plan import FaultPlan, LinkFault
        from repro.protocols.dv import DistanceVectorProtocol
        from tests.helpers import open_db

        graph = line_graph(3)
        proto = DistanceVectorProtocol(graph, open_db(graph))
        net = proto.build()
        plan = FaultPlan((LinkFault(10.0, 0, 1), LinkFault(20.0, 0, 1, up=True)))
        proto.schedule_fault_plan(plan)
        net.run(until=15.0)
        assert not net.graph.link(0, 1).up
        net.run()
        assert net.graph.link(0, 1).up


class TestNodeHelpers:
    def test_broadcast_excludes(self, net):
        net.node(1).broadcast(Ping(), exclude=0)
        net.run()
        assert net.node(0).heard == []
        assert len(net.node(2).heard) == 1

    def test_neighbors_live_only(self, net):
        assert net.node(1).neighbors() == [0, 2]
        net.graph.set_link_status(0, 1, up=False)
        assert net.node(1).neighbors() == [2]

    def test_note_computation(self, net):
        net.node(1).note_computation("spf", 3)
        assert net.metrics.computations[(1, "spf")] == 3

    def test_base_node_rejects_unknown_message(self, net):
        node = ProtocolNode(0)
        node.transport = net
        with pytest.raises(NotImplementedError):
            node.on_message(1, Ping())
