"""The live asyncio/UDP substrate: lifecycle, timers, crash/restart.

The same protocol code that runs in the discrete-event engine runs here
over real loopback sockets; these tests pin the transport contract (the
clock, the timer semantics, the node lifecycle) and the headline
behaviours: a live run converges to the same routes as a sim run, and a
killed-and-restarted AD relearns the internet, honouring the
non-volatile state carried across a stateless restart.
"""

import asyncio
import re

import pytest

from repro.cli import main
from repro.faults.plan import FaultPlan, LinkFault, NodeFault
from repro.live import (
    LiveClock,
    LiveNetwork,
    NodeState,
    settle,
)
from repro.policy.flows import FlowSpec
from repro.policy.generators import open_policies
from repro.protocols.egp import NRAck
from repro.protocols.registry import make_protocol
from repro.simul.messages import Message
from repro.simul.runner import converge, run_episodes
from repro.simul.transport import TimerHandle
from repro.workloads.scenarios import small_scenario

from .helpers import mk_graph
from .test_live_supervisor import _FlakySendSocket

#: Fast-but-safe live timing for tests: 2 ms per protocol unit, settle
#: after 50 ms of silence, give up after a minute of wall clock.
TIME_SCALE = 0.002
SETTLE = dict(time_scale=TIME_SCALE, timeout_s=60.0)


def ring8():
    """Eight transit ADs in a ring: every link is flap/crash-safe."""
    return mk_graph(
        [(i, "Rt") for i in range(8)],
        [(i, (i + 1) % 8) for i in range(8)],
    )


def _live_protocol(graph):
    policies = open_policies(graph).policies
    return make_protocol("plain-ls", graph, policies, substrate="live")


def _sim_routes(graph):
    """Converged sim forwarding as ground truth for the live run."""
    proto = make_protocol("plain-ls", graph.copy(),
                          open_policies(graph).policies.copy())
    converge(proto.build())
    return proto


def _all_pairs(graph):
    ads = sorted(graph.ad_ids())
    return [FlowSpec(src=s, dst=d) for s in ads for d in ads if s != d]


# ------------------------------------------------------------------ clock


def test_live_timer_fires_and_cancel_after_fire_is_harmless():
    async def scenario():
        clock = LiveClock(asyncio.get_running_loop(), time_scale=0.001)
        fired = []
        handle = clock.call_later(5.0, fired.append, "a")
        assert isinstance(handle, TimerHandle)
        assert clock.pending_timers == 1
        await asyncio.sleep(0.05)
        assert fired == ["a"]
        assert clock.pending_timers == 0
        # The transport-wide contract: cancelling a fired timer is a
        # no-op, idempotent, and never corrupts the pending count.
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        assert clock.pending_timers == 0

    asyncio.run(scenario())


def test_live_timer_cancel_before_fire_prevents_firing():
    async def scenario():
        clock = LiveClock(asyncio.get_running_loop(), time_scale=0.001)
        fired = []
        handle = clock.call_later(5.0, fired.append, "a")
        handle.cancel()
        assert clock.pending_timers == 0
        await asyncio.sleep(0.02)
        assert fired == []

    asyncio.run(scenario())


def test_live_clock_runs_in_protocol_units():
    async def scenario():
        clock = LiveClock(asyncio.get_running_loop(), time_scale=0.001)
        await asyncio.sleep(0.02)
        assert clock.now >= 15.0  # ~20 units elapsed, generous margin

    asyncio.run(scenario())


@pytest.mark.parametrize("scale", [0.0, -0.001, float("nan"), float("inf")])
def test_live_clock_refuses_a_scale_that_is_not_finite_and_positive(scale):
    loop = asyncio.new_event_loop()
    try:
        with pytest.raises(ValueError, match="finite number > 0"):
            LiveClock(loop, time_scale=scale)
    finally:
        loop.close()


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_live_timer_refuses_a_delay_the_simulator_refuses(delay):
    loop = asyncio.new_event_loop()
    try:
        clock = LiveClock(loop, time_scale=0.001)
        with pytest.raises(ValueError, match="negative delay"):
            clock.call_later(delay, lambda: None)
        assert clock.pending_timers == 0
    finally:
        loop.close()


# ------------------------------------------------------------------ smoke


def test_smoke_8ads_converges_to_sim_routes():
    graph = ring8()
    proto = _live_protocol(graph.copy())
    [initial] = run_episodes(proto, **SETTLE)
    assert initial.quiesced
    assert initial.messages > 0

    reference = _sim_routes(graph)
    for flow in _all_pairs(graph):
        assert proto.find_route(flow) == reference.find_route(flow), flow


def test_smoke_8ads_link_flap_episodes():
    graph = ring8()
    proto = _live_protocol(graph.copy())
    plan = FaultPlan((LinkFault(10.0, 0, 1, up=False),
                      LinkFault(20.0, 0, 1, up=True)))
    initial, *episodes = run_episodes(proto, plan, **SETTLE)
    assert initial.quiesced and all(ep.quiesced for ep in episodes)
    assert len(episodes) == 2
    # Both episodes cost something: the flap was actually noticed.
    assert all(ep.messages > 0 for ep in episodes)
    reference = _sim_routes(graph)
    for flow in _all_pairs(graph):
        assert proto.find_route(flow) == reference.find_route(flow), flow


def test_lifecycle_states_after_close():
    graph = ring8()
    proto = _live_protocol(graph.copy())
    run_episodes(proto, **SETTLE)
    network = proto.network
    assert isinstance(network, LiveNetwork)
    states = network.lifecycle_states()
    assert set(states) == set(graph.ad_ids())
    assert all(state is NodeState.STOPPED for state in states.values())


def test_send_to_non_neighbor_rejected():
    async def scenario():
        graph = ring8()
        proto = _live_protocol(graph)
        network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
        proto.build(network=network)
        await network.start()
        try:
            await settle(network, timeout_s=60.0)
            from repro.protocols.egp import NRAck

            with pytest.raises(ValueError, match="not neighbour"):
                network.send(0, 4, NRAck(seq=1))
        finally:
            await network.close()

    asyncio.run(scenario())


# -------------------------------------------------------------- crash/restart


def test_stateless_restart_reconverges_and_inherits_nonvolatile():
    async def scenario():
        graph = ring8()
        proto = _live_protocol(graph)
        network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
        proto.build(network=network)
        await network.start()
        assert await settle(network, timeout_s=60.0)

        victim = 3
        old_node = network.nodes[victim]
        old_seq = old_node._seq
        assert old_seq > 0  # it originated at least one LSA

        proto.crash_node(victim, retain_state=False)
        assert network.is_crashed(victim)
        assert await settle(network, timeout_s=60.0)

        proto.restore_node(victim)
        assert not network.is_crashed(victim)
        assert await settle(network, timeout_s=60.0)

        new_node = network.nodes[victim]
        # The process was replaced wholesale...
        assert new_node is not old_node
        # ...but the NVRAM seq register survived (inherit_nonvolatile),
        # so its post-restart LSAs are not rejected as stale replays.
        assert new_node._seq > old_seq
        return graph, proto

    graph, proto = asyncio.run(scenario())
    reference = _sim_routes(graph)
    for flow in _all_pairs(graph):
        assert proto.find_route(flow) == reference.find_route(flow), flow


def test_node_fault_plan_drives_crash_restart():
    graph = ring8()
    proto = _live_protocol(graph.copy())
    plan = FaultPlan((NodeFault(10.0, 5, up=False, retain_state=False),
                      NodeFault(40.0, 5, up=True, retain_state=False)))
    results = run_episodes(proto, plan, **SETTLE)
    assert all(r.quiesced for r in results)
    assert not proto.is_crashed(5)
    reference = _sim_routes(graph)
    for flow in _all_pairs(graph):
        assert proto.find_route(flow) == reference.find_route(flow), flow


# ---------------------------------------------------------------- fidelity


def test_fidelity_small_scenario_routes_identical(capsys):
    argv = ["live", "fidelity", "small", "--flaps", "2", "--time-scale", str(TIME_SCALE)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "IDENTICAL" in out and "mismatch" not in out
    # One initial episode plus down+up per flap, and the same messages,
    # on both substrates.
    sim, live = re.findall(r"(?:sim |live) episodes: (\d+)  messages=(\d+)", out)
    assert sim == live and int(sim[0]) == 1 + 2 * 2


# ------------------------------------------------------------------ misuse


def test_run_episodes_rejects_prebuilt_live_protocol():
    proto = _live_protocol(ring8())
    run_episodes(proto, **SETTLE)
    # The live substrate builds the protocol itself, on a fresh network.
    with pytest.raises(RuntimeError, match="already built"):
        run_episodes(proto, **SETTLE)


def test_sim_only_machinery_raises_on_live():
    async def scenario():
        graph = ring8()
        network = LiveNetwork(graph, time_scale=TIME_SCALE)
        with pytest.raises(NotImplementedError):
            network.set_channel(None)
        with pytest.raises(NotImplementedError):
            network.set_ingress(None)

    asyncio.run(scenario())


def test_converge_refuses_live_substrate():
    graph = ring8()
    proto = _live_protocol(graph)

    async def scenario():
        network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
        proto.build(network=network)
        with pytest.raises(
            RuntimeError, match=r"repro\.simul\.runner\.run_episodes for the live"
        ):
            proto.converge()
        await network.close()

    asyncio.run(scenario())


# ---------------------------------------------------- timer-started protocols


def test_slow_socket_binding_cannot_fake_quiescence(monkeypatch, caplog):
    """idrp's start hook only arms a ``_flush`` timer: nothing is sent yet.

    The idle window must start when the start hooks have run, not when
    the network was constructed -- otherwise binding sockets for longer
    than the window makes the first settle() check report a quiescent
    network that has not sent a frame, and the pending timers then fire
    into sockets close() has already torn down.
    """
    from repro.live import network as live_network

    bind = live_network._NodeRuntime.start

    async def slow_bind(self):
        await asyncio.sleep(0.02)  # 8 ADs: 0.16 s, three idle windows
        await bind(self)

    monkeypatch.setattr(live_network._NodeRuntime, "start", slow_bind)
    graph = ring8()
    proto = make_protocol(
        "idrp", graph, open_policies(graph).policies, substrate="live"
    )
    flap = FaultPlan((LinkFault(0.0, 2, 3, up=False), LinkFault(0.0, 2, 3, up=True)))
    with caplog.at_level("ERROR", logger="asyncio"):
        initial, *episodes = run_episodes(proto, flap, **SETTLE)
    assert initial.quiesced and all(ep.quiesced for ep in episodes)
    assert initial.messages > 0 and initial.events > 0
    # The same holds per episode: a perturbation restarts the window, so
    # the triggered-update timer it arms fires inside its own episode.
    assert all(ep.messages > 0 for ep in episodes)
    assert not caplog.records, [r.getMessage() for r in caplog.records]
    assert all(
        proto.find_route(flow) is not None for flow in _all_pairs(graph)
    )


def test_send_after_stop_is_a_counted_drop_not_a_start_error():
    async def scenario():
        proto = _live_protocol(ring8())
        network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
        proto.build(network=network)
        with pytest.raises(RuntimeError, match="before the network started"):
            network.nodes[0].send(1, Message())
        await network.start()
        await settle(network, timeout_s=30.0)
        await network.close()
        # A timer that outlived close(): dropped and counted, no error.
        network.nodes[0].send(1, Message())
        assert network.metrics.live_send_drops == 1

    asyncio.run(scenario())


def test_send_to_a_stopped_peer_is_a_counted_drop_not_a_frame_in_flight():
    """A stopped AD's port is closed: a datagram sent there would count
    as sent, never as received, and the network would never read idle.
    The same holds for a send whose retry timer outlives its peer."""

    async def scenario():
        small = small_scenario(seed=0)
        proto = make_protocol(
            "plain-ls", small.graph.copy(), small.policies.copy(),
            substrate="live",
        )
        network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
        proto.build(network=network)
        await network.start()
        try:
            await settle(network, timeout_s=30.0)
            src = min(proto.graph.ad_ids())
            dst, retried = sorted(proto.graph.neighbors(src))[:2]
            await network._runtimes[dst].stop()
            sent = network.frames_sent
            network.nodes[src].send(dst, NRAck(0))
            assert network.frames_sent == sent == network.frames_received
            assert network.metrics.live_send_drops == 1
            assert network.idle()

            sender = network._runtimes[src]
            sender.sock = _FlakySendSocket(sender.sock, failures=1)
            network.nodes[src].send(retried, NRAck(1))
            # One yield runs the flush, whose first attempt fails; the
            # retry timer fires after the peer is STOPPED.
            await asyncio.sleep(0)
            await network._runtimes[retried].stop()
            await network.drained()
            assert network.frames_sent == sent == network.frames_received
            assert network.metrics.live_send_retries == 1
            assert network.metrics.live_send_drops == 2
        finally:
            await network.close()

    asyncio.run(scenario())
