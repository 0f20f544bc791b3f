"""The per-message path: ``Transport.broadcast`` and its call budget.

``Transport.broadcast`` is *defined* as the loop it replaced -- one
``send`` per live neighbour, in ``neighbors()`` order -- and runs as a
single pass over the incident-link tuple that hands each neighbour to
the substrate's ``_post`` (the part of ``send`` past its checks; no
substrate overrides it), so the
first half of this file drives a network through ``broadcast`` and a
twin through that loop and requires the same deliveries, counters and
event count under every feature that sits on the path (down links, a
crashed destination, a tracer, an impaired channel, a bounded ingress);
on the live network, the same outbox frames in the same order and the
same counters past a down link, an excluded neighbour, a crashed
destination and a STOPPED peer.

The second half is the path-length tripwire: the number of Python-level
calls the engine makes per delivered LSA.  It is a count, not a timing,
so it repeats exactly on any host and fails the moment someone re-adds a
property hop or a per-message allocation.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because the simulator's delivery order must
come from the sorted incident-link tuple, never from set order
(``flood_links``, ``_crashed``), and the calls-per-message budget must
hold under both seeds.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.channel import ImpairedChannel, Impairment
from repro.live import LiveNetwork, settle
from repro.protocols.flooding import ExchangeAck
from repro.protocols.registry import make_protocol
from repro.simul.ingress import IngressModel
from repro.simul.messages import Message
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.simul.profiling import PhaseProfiler
from repro.simul.trace import Tracer
from repro.workloads.scenarios import scaled_scenario

from .helpers import mk_graph
from .oracles import reference_broadcast

pytestmark = pytest.mark.hashseed


@dataclass(frozen=True)
class Probe(Message):
    tag: int


def transport_broadcast(transport, src, msg, exclude=None):
    """The verb under test (whatever the substrate's class makes of it)."""
    transport.broadcast(src, msg, exclude)


class Flooder(ProtocolNode):
    """Logs every delivery; re-floods each probe once, minus the sender."""

    def __init__(self, ad_id, fan_out, log):
        super().__init__(ad_id)
        self.fan_out = fan_out
        self.log = log
        self.seen = set()

    def on_message(self, sender, msg):
        self.log.append((self.now, sender, self.ad_id, id(msg)))
        if msg.tag not in self.seen:
            self.seen.add(msg.tag)
            self.fan_out(self.transport, self.ad_id, msg, sender)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    delays = {e: float(draw(st.integers(1, 3))) for e in edges}
    return dict(
        n=n,
        edges=edges,
        delays=delays,
        down=draw(st.lists(st.sampled_from(edges), unique=True, max_size=3)),
        origins=draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)),
        exclude=draw(st.none() | st.integers(0, n - 1)),
        crashed=draw(st.none() | st.integers(0, n - 1)),
        traced=draw(st.booleans()),
        channel_seed=draw(st.none() | st.integers(0, 5)),
        queue_capacity=draw(st.none() | st.integers(0, 2)),
    )


def drive(case, fan_out, messages):
    graph = mk_graph(
        [(i, "Rt") for i in range(case["n"])],
        case["edges"],
        metrics={e: {"delay": d, "cost": 1.0} for e, d in case["delays"].items()},
    )
    network = SimNetwork(graph)
    log = []
    for i in range(case["n"]):
        network.add_node(Flooder(i, fan_out, log))
    for a, b in case["down"]:
        graph.link(a, b).up = False  # a bare write: nothing may cache ``up``
    if case["channel_seed"] is not None:
        network.set_channel(
            ImpairedChannel(
                Impairment(drop_prob=0.25, dup_prob=0.25, jitter=0.5),
                seed=case["channel_seed"],
            )
        )
    if case["queue_capacity"] is not None:
        network.set_ingress(IngressModel(case["queue_capacity"]))
    if case["crashed"] is not None:
        network.crash_node(case["crashed"])
    tracer = Tracer.attach(network) if case["traced"] else None
    for origin, msg in zip(case["origins"], messages):
        fan_out(network, origin, msg, case["exclude"])
    network.run()
    m = network.metrics
    channel = network.channel
    counters = (
        dict(m.messages), dict(m.bytes), m.dropped, m.channel_dropped,
        None if channel is None else channel.counters()["duplicated"],
        m.queue_dropped,
    )
    traced = (
        None
        if tracer is None
        else [(r.time, r.src, r.dst, r.detail) for r in tracer.records]
    )
    return log, counters, network.sim.events_processed, network.sim.now, traced


@settings(max_examples=150, deadline=None)
@given(cases())
def test_broadcast_is_the_loop_it_replaces(case):
    # One message object per origin, shared by both runs, so the delivery
    # logs can compare identities.
    messages = [Probe(tag) for tag in range(len(case["origins"]))]
    assert drive(case, transport_broadcast, messages) == drive(
        case, reference_broadcast, messages
    )


def _star():
    return mk_graph(
        [(0, "Rt")] + [(i, "Cs") for i in range(1, 5)],
        [(0, i) for i in range(1, 5)],
    )


def test_every_check_of_send_survives_beside_broadcast():
    graph = _star()
    network = SimNetwork(graph)
    log = []
    for i in range(5):
        network.add_node(Flooder(i, reference_broadcast, log))
    with pytest.raises(ValueError, match="not neighbours"):
        network.send(1, 2, Probe(0))
    graph.link(0, 3).up = False
    network.send(0, 3, Probe(1))  # a down link drops and counts in send ...
    assert network.metrics.dropped == 1
    network.broadcast(0, Probe(2), exclude=2)  # ... and is skipped by the scan
    assert network.metrics.dropped == 1
    assert network.sim.pending == 2
    graph.link(0, 3).up = True  # the very next scan sees the repair
    network.broadcast(0, Probe(3))
    assert network.sim.pending == 6
    network.run()
    assert [dst for _, _, dst, _ in log] == [1, 4, 1, 2, 3, 4]


def test_node_broadcast_and_unscoped_flood_take_the_transport_verb():
    class Spy(SimNetwork):
        calls = 0

        def broadcast(self, src, msg, exclude=None):
            Spy.calls += 1
            super().broadcast(src, msg, exclude)

    scenario = scaled_scenario(30, seed=1)
    network = Spy(scenario.graph)
    make_protocol("plain-ls", scenario.graph, scenario.policies).build(network)
    network.start()
    network.run()
    floods = Spy.calls
    assert floods >= len(network.nodes)  # every origination and re-flood
    ProtocolNode.broadcast(network.nodes[0], Probe(0))
    assert Spy.calls == floods + 1


class Sink(ProtocolNode):
    def __init__(self, ad_id, log):
        super().__init__(ad_id)
        self.log = log

    def on_message(self, sender, msg):
        self.log.append((sender, self.ad_id))


def counters(network):
    """Every counter of the network's collector (the wall-clock
    ``last_activity`` left out)."""
    return replace(network.metrics.snapshot(0.0), last_activity=0.0)


def _live_fan_out(fan_out, messages):
    """Fan ``messages`` out of AD 0 of a 7-AD star through ``fan_out``
    past a down link, an excluded neighbour, a crashed destination and a
    STOPPED peer; return the outbox as the flush would find it, the
    counters then, and the counters and deliveries once settled."""

    async def scenario():
        graph = mk_graph(
            [(0, "Rt")] + [(i, "Cs") for i in range(1, 7)],
            [(0, i) for i in range(1, 7)],
        )
        network = LiveNetwork(graph, time_scale=0.002)
        log = []
        for i in range(7):
            network.add_node(Sink(i, log))
        graph.link(0, 3).up = False
        await network.start()
        try:
            await network._runtimes[5].stop()
            network.crash_node(4)
            for msg, exclude in messages:
                fan_out(network, 0, msg, exclude)
            outbox = [
                (key, list(frames), list(known))
                for key, (frames, known) in network._outbox.items()
            ]
            sent = counters(network)
            assert await settle(network, timeout_s=60.0)
            return outbox, sent, counters(network), sorted(log)
        finally:
            await network.close()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


def test_live_network_broadcast_is_the_loop_it_replaces():
    # One message object per fan-out, shared by both runs, so the known
    # frames beside the outbox bytes compare as the same objects.
    messages = [(ExchangeAck(token=7), 2), (ExchangeAck(token=8), None)]
    outbox, sent, settled, log = _live_fan_out(transport_broadcast, messages)
    assert (outbox, sent, settled, log) == _live_fan_out(
        reference_broadcast, messages
    )
    # AD 1, 4 (crashed: sent, then dropped on arrival) and 6 get both;
    # AD 2 only the second; AD 3's link is down; AD 5 is STOPPED.
    assert [key for key, _, _ in outbox] == [(0, 1), (0, 4), (0, 6), (0, 2)]
    assert [len(frames) for _, frames, _ in outbox] == [2, 2, 2, 1]
    assert sent.live_send_drops == 2 and sent.dropped == 0
    assert settled.dropped == 2
    assert log == [(0, 1), (0, 1), (0, 2), (0, 6), (0, 6)]

    async def scenario():
        graph = _star()
        network = LiveNetwork(graph, time_scale=0.002)
        log = []
        for i in range(5):
            network.add_node(Sink(i, log))
        graph.link(0, 3).up = False
        await network.start()
        try:
            network.broadcast(0, ExchangeAck(token=7), exclude=2)
            assert await settle(network, timeout_s=60.0)
        finally:
            await network.close()
        return network, log

    network, log = asyncio.run(scenario())
    assert sorted(log) == [(0, 1), (0, 4)]
    assert network.metrics.messages == {"ExchangeAck": 2}
    assert network.metrics.dropped == 0


# ------------------------------------------------------------- call budget

#: Python-level calls per delivered message on the 100-AD plain-ls initial
#: convergence with a profiler attached.  28.14 before the handle-free
#: path, 12.94 with it, 13.94 with every broadcast through ``_post``
#: (one call per delivery), 10.85 without the per-message ``proto.flood``
#: stopwatch, the no-op ``on_lsdb_change`` hook, the ``_rejects`` call
#: with every check off and the ``transport`` property hop in ``_flood``,
#: 8.30 with a delivered LSA handled in place by ``LSNode.on_message`` (no
#: ``_on_flood_message`` / ``_install`` / ``_flood`` hop: a duplicate
#: costs no call past the handler, a new LSA none before ``broadcast``).
#: A fresh interpreter repeats the count exactly; the slack is for
#: first-use work elsewhere in a test session, a few calls in 157 000.
CALLS_PER_MESSAGE_BUDGET = 8.5


def test_python_calls_per_delivered_message_stay_within_budget():
    scenario = scaled_scenario(100, seed=0)
    network = make_protocol("plain-ls", scenario.graph, scenario.policies).build()
    network.profiler = PhaseProfiler()
    network.start()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        network.run()
    finally:
        sys.setprofile(previous)
    delivered = sum(network.metrics.messages.values())
    assert delivered > 10_000  # the run really flooded
    # An attached profiler times phases (engine.run, proto.spf), never a
    # delivered message.
    assert sum(network.profiler.entries.values()) < delivered / 100
    assert calls / delivered <= CALLS_PER_MESSAGE_BUDGET, (
        f"{calls} calls for {delivered} messages = {calls / delivered:.2f} "
        f"per message (budget {CALLS_PER_MESSAGE_BUDGET})"
    )
