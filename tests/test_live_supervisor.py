"""Supervised node lifecycle on the live substrate.

The supervisor is the live substrate's init system: dead serve tasks
are detected and restarted with exponential backoff, crash-looping
nodes exhaust a bounded budget and fail the run loudly, and rolling
restarts sweep the topology hitlessly.  Every await here is
deadline-guarded -- no live test may hang.
"""

import asyncio
import re

import pytest

from repro.live import LiveNetwork, NodeState, settle
from repro.live import supervisor as supervisor_mod
from repro.live.supervisor import Supervisor
from repro.policy.flows import FlowSpec
from repro.policy.generators import open_policies
from repro.protocols.registry import make_protocol

from .helpers import mk_graph

TIME_SCALE = 0.002
#: Hard wall-clock budget for any one scenario; generous next to the
#: few seconds a healthy run takes, tight next to a hang.
SCENARIO_BUDGET_S = 60.0


def ring8():
    return mk_graph(
        [(i, "Rt") for i in range(8)],
        [(i, (i + 1) % 8) for i in range(8)],
    )


def _run(coro):
    """Run one scenario under the hard wall-clock budget."""

    async def bounded():
        return await asyncio.wait_for(coro, timeout=SCENARIO_BUDGET_S)

    return asyncio.run(bounded())


async def _converged_network(graph):
    proto = make_protocol(
        "plain-ls", graph, open_policies(graph).policies, substrate="live"
    )
    network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
    proto.build(network=network)
    await network.start()
    assert await settle(network, timeout_s=30.0)
    return proto, network


def _all_routes(proto):
    ads = sorted(proto.graph.ad_ids())
    return {
        (s, d): proto.find_route(FlowSpec(src=s, dst=d))
        for s in ads
        for d in ads
        if s != d
    }


class _FlakySendSocket:
    """A socket stand-in whose next ``failures`` ``sendto`` calls raise
    ``BlockingIOError``, as a full kernel send buffer does; everything
    else is the wrapped socket's."""

    def __init__(self, sock, failures):
        self.sock, self.failures = sock, failures

    def sendto(self, data, addr):
        if self.failures > 0:
            self.failures -= 1
            raise BlockingIOError("kernel buffer full")
        return self.sock.sendto(data, addr)

    def __getattr__(self, name):
        return getattr(self.sock, name)


async def _wait_for(predicate, timeout_s, what):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        if loop.time() >= deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.01)


# -------------------------------------------------------------- recovery


def test_supervisor_restarts_dead_serve_task():
    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=1)
        await supervisor.start()
        try:
            routes_before = _all_routes(proto)
            victim = network._runtimes[3]
            victim.task.cancel()
            await _wait_for(
                lambda: victim.restarts >= 1, 10.0, "supervised restart"
            )
            assert victim.state is NodeState.SERVING
            assert not victim.task.done()
            assert supervisor.restart_counts[3] == 1
            assert supervisor.events[0]["reason"].startswith("dead task")
            assert await settle(network, timeout_s=30.0)
            # The node's state and socket survived: nothing reconverged.
            assert _all_routes(proto) == routes_before
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


def test_supervisor_recovers_crash_looping_node_within_budget(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "BACKOFF_INITIAL_S", 0.01)

    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=2)
        await supervisor.start()
        try:
            victim = network._runtimes[5]
            for wave in range(1, 4):  # 3 crashes: inside the budget of 5
                victim.task.cancel()
                await _wait_for(
                    lambda: victim.restarts >= wave,
                    10.0,
                    f"recovery {wave}",
                )
            assert supervisor.restart_counts[5] == 3
            assert 5 not in supervisor.given_up
            # Backoff grew monotonically across the crash loop.
            delays = [
                ev["delay"] for ev in supervisor.events if "delay" in ev
            ]
            assert delays == sorted(delays)
            assert await settle(network, timeout_s=30.0)
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


class _RecordingNetwork:
    """Just what ``Supervisor._recover`` touches: a restart hook."""

    def __init__(self):
        self.restarted = []

    async def restart_runtime(self, ad_id):
        self.restarted.append(ad_id)
        return 0


def _backoff_delays(seed, recoveries):
    """Delays a fresh supervisor schedules for ``recoveries`` (AD ids)."""
    network = _RecordingNetwork()
    supervisor = Supervisor(network, seed=seed)

    async def scenario():
        for ad_id in recoveries:
            await supervisor._recover(ad_id, "test")

    _run(scenario())
    assert network.restarted == list(recoveries)
    return [ev["delay"] for ev in supervisor.events]


def test_backoff_doubles_per_ad_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "BACKOFF_INITIAL_S", 0.001)
    monkeypatch.setattr(supervisor_mod, "BACKOFF_MAX_S", 0.004)
    delays = _backoff_delays(seed=1, recoveries=[5, 5, 5, 5, 2])
    # AD 5: 1, 2, 4, then capped at 4 ms; AD 2 starts its own count.
    for delay, base in zip(delays, [0.001, 0.002, 0.004, 0.004, 0.001]):
        assert base <= delay <= base * (1.0 + supervisor_mod.JITTER)


def test_backoff_jitter_replays_per_seed(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "BACKOFF_INITIAL_S", 0.001)
    recoveries = [1, 1, 1]
    again = _backoff_delays(seed=7, recoveries=recoveries)
    assert _backoff_delays(seed=7, recoveries=recoveries) == again
    assert _backoff_delays(seed=8, recoveries=recoveries) != again


def test_budget_exhaustion_fails_the_run_loudly(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "BACKOFF_INITIAL_S", 0.01)
    monkeypatch.setattr(supervisor_mod, "MAX_RESTARTS", 1)

    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=3)
        await supervisor.start()
        try:
            victim = network._runtimes[2]
            victim.task.cancel()
            await _wait_for(
                lambda: victim.restarts >= 1, 10.0, "first recovery"
            )
            victim.task.cancel()
            await _wait_for(
                lambda: 2 in supervisor.given_up, 10.0, "budget exhaustion"
            )
            assert supervisor.events[-1]["gave_up"] is True
            assert "gave up on AD 2" in str(network.errors[0])
            with pytest.raises(RuntimeError, match="serve-task failure"):
                await settle(network, timeout_s=5.0)
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


def test_hung_task_detected_by_heartbeat(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "HEARTBEAT_S", 0.2)
    monkeypatch.setattr(supervisor_mod, "BACKOFF_INITIAL_S", 0.01)

    async def scenario():
        proto, network = await _converged_network(ring8())
        loop = asyncio.get_running_loop()
        victim = network._runtimes[4]
        # Wedge the node before supervision starts: its serve task is
        # replaced by one that never drains the queue, then a real
        # frame arrives and sits there.
        victim.task.cancel()
        try:
            await victim.task
        except asyncio.CancelledError:
            pass
        victim.task = loop.create_task(asyncio.sleep(3600))
        victim.last_progress = loop.time() - 10.0
        from repro.protocols.egp import NRAck

        network.send(3, 4, NRAck(seq=1))
        await _wait_for(lambda: victim.unprocessed > 0, 10.0, "frame queued")
        supervisor = Supervisor(network, seed=4)
        await supervisor.start()
        try:
            await _wait_for(
                lambda: victim.restarts >= 1, 10.0, "hung-task recovery"
            )
            assert any(
                str(ev["reason"]).startswith("hung")
                for ev in supervisor.events
            )
            # The stuck frame was flushed and accounted, not stranded.
            assert network.metrics.queue_dropped >= 1
            assert await settle(network, timeout_s=30.0)
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


def test_operator_bounce_is_not_charged_as_a_dead_task(monkeypatch):
    """``restart_task`` owns the runtime from cancel to respawn.

    The watch polls every loop turn here, so it runs in the turn where
    the old serve task has finished but has not yet been replaced; that
    task must not read as dead (E16's upgrade bounces charged a restart
    this way under load).
    """
    monkeypatch.setattr(supervisor_mod, "POLL_S", 0.0)

    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=1)
        await supervisor.start()
        try:
            for bounce in range(16):
                await network.restart_runtime(bounce % 8)
                await network.drained()
            # Long enough for a recovery that had started to finish.
            await asyncio.sleep(4 * supervisor_mod.BACKOFF_INITIAL_S)
            assert supervisor.events == []
            assert supervisor.summary()["restarts"] == 0
            assert all(rt.restarts == 2 for rt in network._runtimes.values())
            assert await settle(network, timeout_s=30.0)
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


def test_frame_after_an_idle_spell_is_not_a_hang(monkeypatch):
    """The heartbeat measures progress since work arrived, not since the
    last dispatch: a node idle for longer than ``HEARTBEAT_S`` that is
    handed a frame is not hung in the turns before it dispatches it."""
    monkeypatch.setattr(supervisor_mod, "POLL_S", 0.0)
    monkeypatch.setattr(supervisor_mod, "HEARTBEAT_S", 0.05)

    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=1)
        await supervisor.start()
        try:
            for round_ in range(4):
                await asyncio.sleep(2 * supervisor_mod.HEARTBEAT_S)
                proto.apply_link_status(0, 1, up=round_ % 2 == 1)
                assert await settle(network, timeout_s=30.0)
            assert supervisor.events == []
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


# --------------------------------------------------------------- rolling


def test_rolling_restart_is_hitless():
    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=5)
        await supervisor.start()
        try:
            routes_before = _all_routes(proto)
            restarted = await supervisor.rolling_restart()
            assert restarted == 8
            # Orchestrated restarts are not charged to the crash budget.
            assert supervisor.restart_counts == {}
            assert all(
                rt.restarts == 1 for rt in network._runtimes.values()
            )
            assert await settle(network, timeout_s=30.0)
            assert _all_routes(proto) == routes_before
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


def test_rolling_restart_never_charges_the_crash_budget(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "BACKOFF_INITIAL_S", 0.01)
    monkeypatch.setattr(supervisor_mod, "MAX_RESTARTS", 2)

    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=6)
        await supervisor.start()
        try:
            # Spend the victim's entire crash budget on real crashes.
            victim = network._runtimes[3]
            for wave in range(1, 3):
                victim.task.cancel()
                await _wait_for(
                    lambda: victim.restarts >= wave, 10.0, f"recovery {wave}"
                )
            assert supervisor.restart_counts[3] == 2
            assert 3 not in supervisor.given_up

            # A full sweep right at the budget boundary: if orchestrated
            # restarts were charged like crashes, AD 3 would blow its
            # budget here and the run would be declared lost.
            restarted = await supervisor.rolling_restart()
            assert restarted == 8
            assert supervisor.restart_counts == {3: 2}
            assert supervisor.given_up == set()
            sweeps = [
                ev
                for ev in supervisor.events
                if ev["reason"] == "rolling restart"
            ]
            assert len(sweeps) == 8
            assert all(ev["gave_up"] is False for ev in sweeps)
            assert await settle(network, timeout_s=30.0)
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


# ---------------------------------------------------------- settle contract


def test_settle_timeout_carries_per_ad_diagnostics(monkeypatch):
    # A heartbeat far past the settle timeout: the wedged node must
    # still be wedged when settle gives up.
    monkeypatch.setattr(supervisor_mod, "HEARTBEAT_S", 60.0)

    async def scenario():
        from repro.live.runner import SettleTimeout, try_settle
        from repro.protocols.egp import NRAck

        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=7)
        await supervisor.start()
        try:
            loop = asyncio.get_running_loop()
            victim = network._runtimes[4]
            victim.task.cancel()
            try:
                await victim.task
            except asyncio.CancelledError:
                pass
            # Alive but never draining: the queued frame keeps the
            # network non-idle for as long as settle cares to wait.
            victim.task = loop.create_task(asyncio.sleep(3600))
            victim.last_progress = loop.time()
            network.send(3, 4, NRAck(seq=1))
            await _wait_for(
                lambda: victim.unprocessed > 0, 10.0, "frame queued"
            )

            with pytest.raises(SettleTimeout) as exc:
                await settle(network, timeout_s=0.5)
            message = str(exc.value)
            assert "failed to settle within 0.5s" in message
            # The one non-zero term of the predicate, and nothing else.
            assert "queued frames: 1" in message
            for absent in ("in flight", "send retries", "armed timers", "recovery"):
                assert absent not in message
            assert "AD 4:" in message
            assert "unprocessed=1" in message
            assert "restart_budget_remaining=5" in message
            # Healthy ADs are elided, not listed one line each.
            assert "AD 0:" not in message
            # Measurement paths see the same condition as data.
            assert not await try_settle(
                network, timeout_s=0.5
            )
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


def test_settle_timeout_names_each_outstanding_term(monkeypatch):
    """One line per cause: what exactly kept the network non-quiescent."""
    monkeypatch.setattr(supervisor_mod, "BACKOFF_INITIAL_S", 30.0)

    async def scenario():
        from repro.live.runner import SettleTimeout
        from repro.protocols.egp import NRAck

        async def timeout_message(network, timeout_s=0.0):
            with pytest.raises(SettleTimeout) as exc:
                await settle(network, timeout_s=timeout_s)
            return str(exc.value)

        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=8)
        try:
            # An armed protocol timer, and how far off it is.
            handle = network.clock.call_later(5000.0, lambda: None)
            message = await timeout_message(network, 0.05)
            armed = re.search(
                r"armed timers: 1 \(earliest fires in ([\d.]+) protocol units\)",
                message,
            )
            assert armed and 0.0 < float(armed.group(1)) < 5000.0
            assert "in flight" not in message and "queued" not in message
            handle.cancel()
            assert await settle(network, timeout_s=5.0)

            # A frame in the outbox, waiting for the loop turn's flush.
            network.crash_node(1)  # dropped at dispatch: no reply traffic
            network.send(0, 1, NRAck(seq=1))
            message = await timeout_message(network)
            assert "frames not yet sent: 1 (outbox=1 retrying=0)" in message
            assert "in flight" not in message

            # The same frame handed to the kernel and not yet read back:
            # one yield runs the flush, not yet the receiver's read.
            await asyncio.sleep(0)
            sent = network.frames_sent
            message = await timeout_message(network)
            assert (
                f"frames in flight: 1 (sent={sent} received={sent - 1})"
                in message
            )
            assert "not yet sent" not in message
            assert await settle(network, timeout_s=5.0)

            # A send waiting on its transient-error retry timer.
            rt = network._runtimes[0]
            rt.sock = _FlakySendSocket(rt.sock, failures=1)
            network.send(0, 1, NRAck(seq=2))
            await asyncio.sleep(0)  # the flush's first attempt fails
            message = await timeout_message(network)
            assert "frames not yet sent: 1 (outbox=0 retrying=1)" in message
            assert "in flight" not in message
            assert await settle(network, timeout_s=5.0)
            assert network.metrics.live_send_retries == 1

            # A dead serve task sitting out its supervised backoff.
            await supervisor.start()
            victim = network._runtimes[3]
            victim.task.cancel()
            await _wait_for(lambda: supervisor.events, 10.0, "recovery to begin")
            message = await timeout_message(network, 0.05)
            assert "under supervisor recovery: AD 3" in message
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


def test_settle_raises_on_dead_task_without_supervisor():
    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            task = network._runtimes[6].task
            task.cancel()
            try:
                await task  # the cancellation must land before settle looks
            except asyncio.CancelledError:
                pass
            with pytest.raises(RuntimeError, match="without a supervisor"):
                await settle(network, timeout_s=5.0)
        finally:
            await network.close()

    _run(scenario())


def test_serve_task_death_wakes_a_waiting_settle():
    """Nothing polls for a dead task: its done-callback is the wake."""

    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            network.clock.call_later(1e6, lambda: None)  # keeps settle waiting
            waiting = asyncio.get_running_loop().create_task(
                settle(network, timeout_s=60.0)
            )
            await asyncio.sleep(0)  # settle is asleep on the waiter now
            network._runtimes[6].task.cancel()
            # Loop turns, not seconds: cancel lands, callback wakes, settle runs.
            for _ in range(5):
                await asyncio.sleep(0)
            assert waiting.done()
            with pytest.raises(RuntimeError, match="without a supervisor"):
                waiting.result()
        finally:
            await network.close()

    _run(scenario())


def test_rolling_restart_stops_at_a_recorded_failure():
    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, seed=9)
        await supervisor.start()
        try:
            network.fail(ValueError("boom"))
            with pytest.raises(RuntimeError, match="serve-task failure"):
                await supervisor.rolling_restart()
            assert all(rt.restarts == 0 for rt in network._runtimes.values())
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


def test_supervisor_start_twice_rejected_and_stop_detaches():
    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network)
        await supervisor.start()
        try:
            assert network.supervisor is supervisor
            with pytest.raises(RuntimeError, match="already started"):
                await supervisor.start()
        finally:
            await supervisor.stop()
            assert network.supervisor is None
            await network.close()

    _run(scenario())


# ------------------------------------------------------- lifecycle edges


def test_draining_runtime_drops_new_frames_then_stops():
    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            rt = network._runtimes[0]
            assert rt.state is NodeState.SERVING
            await rt.drain()
            assert rt.state is NodeState.DRAINING
            dropped_before = network.metrics.dropped
            rt.enqueue(b"late frame")
            assert network.metrics.dropped == dropped_before + 1
            assert rt.unprocessed == 0  # never admitted
            await rt.stop()
            assert rt.state is NodeState.STOPPED
            await rt.stop()  # idempotent
            assert rt.state is NodeState.STOPPED
        finally:
            await network.close()

    _run(scenario())


def test_timer_fired_during_drain_is_harmless():
    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            fired = []
            handle = network.clock.call_later(1.0, fired.append, "tick")
            rt = network._runtimes[1]
            await rt.drain()
            await asyncio.sleep(5 * TIME_SCALE)
            assert fired == ["tick"]
            # Cancel-after-fire stays a no-op even across a drain.
            handle.cancel()
            assert network.clock.pending_timers == 0
        finally:
            await network.close()

    _run(scenario())


def test_restart_task_preserves_socket_and_counts():
    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            port_before = network.port_of(7)
            lost = await network.restart_runtime(7)
            assert lost == 0  # queue was idle
            stats = network.runtime_stats(7)
            assert stats["restarts"] == 1
            assert stats["state"] is NodeState.SERVING
            assert network.port_of(7) == port_before
            assert await settle(network, timeout_s=30.0)
        finally:
            await network.close()

    _run(scenario())


def test_dead_task_counter_tracks_the_scan():
    """``quiescent()`` reads a counter; ``dead_serve_tasks()`` is the scan
    it must agree with, through kill / restart / kill / stop."""

    async def scenario():
        proto, network = await _converged_network(ring8())

        def agree(expected):
            assert network._dead_tasks == len(network.dead_serve_tasks()) == expected
            assert network.quiescent() is (expected == 0)

        async def kill(ad_id):
            task = network._runtimes[ad_id].task
            task.cancel()
            await asyncio.wait({task})

        try:
            agree(0)
            await kill(2)
            agree(1)
            await kill(5)
            agree(2)
            await network.restart_runtime(2)
            agree(1)
            await network.restart_runtime(6)  # a live task: cancelled, respawned
            agree(1)
            await network._runtimes[5].stop()  # stopped while dead
            agree(0)
            await network._runtimes[6].stop()  # stopped while alive
            agree(0)
        finally:
            await network.close()
        agree(0)

    _run(scenario())


# ----------------------------------------------------------- send machinery


def test_send_retry_then_success_counts_retries():
    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            # Crash the receiver so the delivered frame is dropped at
            # dispatch instead of reaching a node that never asked for
            # an NRAck; what's under test is the sender's retry path.
            network.crash_node(1)
            rt = network._runtimes[0]
            rt.sock = _FlakySendSocket(rt.sock, failures=2)  # then deliver
            from repro.protocols.egp import NRAck

            sent_before = network.frames_sent
            network.send(0, 1, NRAck(seq=7))
            await _wait_for(
                lambda: network.frames_sent == sent_before + 1,
                10.0,
                "retried hand-off",
            )
            assert network.metrics.live_send_retries == 2
            assert network.metrics.live_send_drops == 0
            assert network._pending_sends == 0
        finally:
            await network.close()

    _run(scenario())


def test_send_retry_budget_exhaustion_drops_and_stays_idle():
    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            from repro.live.network import SEND_RETRY_DELAYS
            from repro.protocols.egp import NRAck

            rt = network._runtimes[0]
            # Every attempt fails: the first and one per retry delay.
            attempts = len(SEND_RETRY_DELAYS) + 1
            rt.sock = _FlakySendSocket(rt.sock, failures=attempts)

            network.send(0, 1, NRAck(seq=8))
            await _wait_for(
                lambda: network.metrics.live_send_drops == 1,
                10.0,
                "send-drop accounting",
            )
            assert network.metrics.live_send_retries == len(SEND_RETRY_DELAYS)
            assert rt.sock.failures == 0
            # The dropped send left no phantom in-flight frame behind:
            # the network still reaches quiescence.
            assert network._pending_sends == 0
            assert await settle(network, timeout_s=10.0)
        finally:
            await network.close()

    _run(scenario())


def test_recv_loss_is_seeded_and_validated():
    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            with pytest.raises(ValueError, match="outside"):
                network.set_recv_loss(1.5)
            network.set_recv_loss(1.0, seed=9)
            from repro.protocols.egp import NRAck

            dropped_before = network.metrics.channel_dropped
            network.send(0, 1, NRAck(seq=9))
            await _wait_for(
                lambda: network.metrics.channel_dropped
                == dropped_before + 1,
                10.0,
                "recv-loss drop",
            )
            network.set_recv_loss(0.0)
            assert await settle(network, timeout_s=10.0)
        finally:
            await network.close()

    _run(scenario())
