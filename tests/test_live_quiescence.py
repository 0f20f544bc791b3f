"""The live substrate settles by termination detection, not by waiting.

An episode boundary is the instant nothing is outstanding -- every frame
sent has been processed, no send is waiting to retry, no protocol timer
is armed -- which makes a live episode's message count *equal* the
simulator's, timers included.  A silence window cannot do that: any
timer longer than the window leaks its traffic into the next episode or
loses it at ``close()``.  Also pinned here: the books that predicate
reads must balance, ``settle(until=)`` honours its bound as the
simulator's does, and no code path of the substrate sleeps for a fixed
duration.
"""

import asyncio
import sys

import pytest

from repro.faults.plan import link_flap_plan
from repro.harness.chaos import execute_chaos_cell
from repro.harness.spec import (
    Cell,
    FailureSpec,
    FaultSpec,
    MisbehaviorSpec,
    ProtocolSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.live import LiveSubstrate, run_live, settle
from repro.live.supervisor import Supervisor, SupervisorConfig
from repro.policy.generators import open_policies
from repro.protocols.egp import NRAck
from repro.protocols.registry import make_protocol
from repro.simul.runner import SimSubstrate
from repro.workloads.scenarios import small_scenario

from .test_live_supervisor import TIME_SCALE, _converged_network, _run, ring8


# ------------------------------------------------- live episodes == sim episodes


@pytest.mark.parametrize(
    "runtime",
    [{}, {"hardening": "all"}, {"pacing": "all"}],
    ids=["plain", "hardened", "paced"],
)
def test_live_episode_messages_equal_the_simulators(runtime):
    """Refresh bursts (40 units) and hold-downs (20 units) outlive any
    silence window; exact quiescence charges them to the episode that
    armed them, as the simulator's drained queue does."""
    scenario = small_scenario(seed=0)
    plan = list(link_flap_plan(scenario.graph, flaps=2, seed=0))

    sim_proto = make_protocol(
        "plain-ls", scenario.graph.copy(), scenario.policies.copy(), **runtime
    )
    sim = SimSubstrate(sim_proto.build(), sim_proto)
    sim.start()
    sim_messages = [sim.settle().messages]
    for ev in plan:
        sim.apply(ev)
        sim_messages.append(sim.settle().messages)

    async def live_episodes():
        proto = make_protocol(
            "plain-ls",
            scenario.graph.copy(),
            scenario.policies.copy(),
            substrate="live",
            **runtime,
        )
        substrate = LiveSubstrate(proto, time_scale=TIME_SCALE, timeout_s=30.0)
        results, armed = [], []
        try:
            await substrate.start()
            results.append(await substrate.settle())
            armed.append(substrate.network.clock.pending_timers)
            for ev in plan:
                await substrate.apply(ev)
                results.append(await substrate.settle())
                armed.append(substrate.network.clock.pending_timers)
        finally:
            await substrate.close()
        return results, armed

    results, armed = _run(live_episodes())
    assert all(r.quiesced for r in results)
    assert armed == [0] * len(results)
    assert [r.messages for r in results] == sim_messages


# --------------------------------------------------------------- settle(until)


def test_settle_until_returns_at_the_bound_with_the_timer_still_armed():
    async def scenario():
        proto = make_protocol(
            "plain-ls", ring8(), open_policies(ring8()).policies, substrate="live"
        )
        substrate = LiveSubstrate(proto, time_scale=TIME_SCALE, timeout_s=30.0)
        try:
            await substrate.start()
            await substrate.settle()
            clock = substrate.network.clock
            fired = []
            handle = clock.call_later(5000.0, fired.append, "late")
            bound = substrate.now + 20.0
            result = await substrate.settle(bound)
            # Back at the bound (not at the timer, not at the timeout)...
            assert bound <= substrate.now < bound + 2000.0
            # ...reported the way the simulator reports a bounded run...
            assert result.quiesced and result.messages == 0
            # ...with the timer left for the next plan step to cancel.
            assert clock.pending_timers == 1 and not fired
            assert not substrate.network.quiescent()
            handle.cancel()
            assert substrate.network.quiescent()
        finally:
            await substrate.close()

    _run(scenario())


def _graceful_ring_cell(substrate):
    return Cell(
        experiment="quiescence-test",
        index=0,
        scenario=ScenarioSpec(kind="ring", seed=0, num_flows=12),
        protocol=ProtocolSpec(
            "plain-ls", label="plain-ls+gr", options=(("graceful", "all"),)
        ),
        failure=FailureSpec(),
        # Crash at 50, restart at 100: well inside the 300-unit hold.
        fault=FaultSpec(restarts=1, seed=3, start_time=50.0, spacing=100.0),
        misbehavior=MisbehaviorSpec(),
        traffic=TrafficSpec(flows=500, pairs=32, seed=3),
        substrate=substrate,
    )


def test_graceful_restart_inside_the_hold_window_matches_the_sim_twin():
    """The crash episode must end at the restart's instant on live too:
    settling *through* the armed hold timer would expire the holds the
    restart was scheduled to cancel."""
    sim = execute_chaos_cell(_graceful_ring_cell("sim"))
    live = execute_chaos_cell(_graceful_ring_cell("live"), time_scale=TIME_SCALE)
    sim_gr, live_gr = (r.chaos["graceful_summary"] for r in (sim, live))
    assert sim_gr["holds"] > 0 and sim_gr["expirations"] == 0
    assert live_gr["holds"] == sim_gr["holds"]
    assert live_gr["resyncs"] == sim_gr["resyncs"]
    assert live_gr["expirations"] == 0
    assert live.quiesced
    assert live.chaos["routes_digest"] == sim.chaos["routes_digest"]


# ------------------------------------------------------- the books must balance


def test_frame_dropped_by_a_stopping_runtime_is_counted_received():
    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            rt = network._runtimes[1]
            await rt.drain()  # socket still open, no longer admitting
            dropped = network.metrics.dropped
            network.send(0, 1, NRAck(seq=1))
            assert not network.idle()  # in flight
            await network.drained()
            assert network.idle()
            assert network.metrics.dropped == dropped + 1
            assert network.frames_sent == network.frames_received
            assert rt.unprocessed == 0
        finally:
            await network.close()

    _run(scenario())


def test_drained_raises_when_the_books_cannot_balance(monkeypatch):
    """A datagram the kernel lost must stop the sweep, not be sat out."""
    import repro.live.network as live_network

    monkeypatch.setattr(live_network, "DRAIN_DEADLINE_S", 0.05)

    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, SupervisorConfig(seed=2))
        await supervisor.start()
        try:
            network._sent_frames += 1  # handed to the kernel, never delivered
            with pytest.raises(RuntimeError, match=r"failed to drain within 0.05s"):
                await supervisor.rolling_restart()
            assert all(rt.restarts == 0 for rt in network._runtimes.values())
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())


# ------------------------------------------------------- no fixed sleeps, ever


class _SleepLog:
    """``asyncio.sleep`` stand-in recording who asked for how long."""

    def __init__(self, real):
        self.real = real
        self.calls = []

    def __call__(self, delay, result=None):
        frame = sys._getframe(1)
        self.calls.append((delay, frame.f_code.co_filename, frame.f_code.co_name))
        return self.real(delay, result)

    def timed_sleepers(self):
        return {
            (filename.rsplit("/", 1)[-1], function)
            for delay, filename, function in self.calls
            if delay > 0
        }


@pytest.fixture
def sleep_log(monkeypatch):
    log = _SleepLog(asyncio.sleep)
    monkeypatch.setattr(asyncio, "sleep", log)
    return log


def test_episodic_run_requests_no_timed_sleep(sleep_log):
    graph = ring8()
    proto = make_protocol(
        "plain-ls", graph, open_policies(graph).policies, substrate="live"
    )
    plan = link_flap_plan(proto.graph, flaps=2, seed=0)
    run = run_live(proto, plan, time_scale=TIME_SCALE, timeout_s=30.0)
    assert run.quiesced and len(run.episodes) == 4
    assert all(ep.result.messages > 0 for ep in run.episodes)
    assert sleep_log.timed_sleepers() == set()


def test_rolling_restart_and_settle_request_no_timed_sleep(sleep_log):
    async def scenario():
        proto, network = await _converged_network(ring8())
        supervisor = Supervisor(network, SupervisorConfig(seed=1))
        await supervisor.start()
        try:
            assert await supervisor.rolling_restart() == 8
            assert await settle(network, timeout_s=30.0)
        finally:
            await supervisor.stop()
            await network.close()

    _run(scenario())
    # The supervisor's own watch loop is the one sanctioned sleeper here.
    assert sleep_log.timed_sleepers() <= {("supervisor.py", "_watch")}


def test_settle_on_a_quiescent_network_never_yields():
    async def scenario():
        proto, network = await _converged_network(ring8())
        try:
            assert network.quiescent()
            probe = settle(network, timeout_s=30.0)
            with pytest.raises(StopIteration) as done:
                probe.send(None)  # one step: returns without suspending
            assert done.value.value is True
        finally:
            await network.close()

    _run(scenario())
