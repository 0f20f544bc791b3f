"""Tests for AD crash/restart: network silencing, node lifecycle, and
protocol-level recovery with and without retained state."""

import pytest

from repro.faults.plan import FaultPlan, LinkFault, NodeFault
from repro.policy.flows import FlowSpec
from repro.protocols.flooding import LSNode
from repro.protocols.lshbh import LinkStateHopByHopProtocol
from tests.helpers import mk_graph, open_db


def ring4():
    """A 4-cycle of transit ADs: every node is crash-safe."""
    return mk_graph(
        [(0, "Rt"), (1, "Rt"), (2, "Rt"), (3, "Rt")],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
    )


def converged_proto():
    g = ring4()
    proto = LinkStateHopByHopProtocol(g, open_db(g))
    proto.converge()
    return proto


class TestNetworkCrash:
    def test_crashed_node_drops_deliveries(self):
        proto = converged_proto()
        network = proto.network
        dropped_before = network.metrics.dropped
        network.crash_node(1)
        network.send(0, 1, _probe_msg())
        network.run()
        assert network.metrics.dropped == dropped_before + 1

    def test_crash_requires_node(self):
        proto = converged_proto()
        with pytest.raises(ValueError):
            proto.network.crash_node(99)

    def test_double_crash_rejected(self):
        proto = converged_proto()
        proto.network.crash_node(1)
        with pytest.raises(ValueError):
            proto.network.crash_node(1)

    def test_restore_requires_crashed(self):
        proto = converged_proto()
        with pytest.raises(ValueError):
            proto.network.restore_node(1)

    def test_restore_rejects_wrong_replacement(self):
        proto = converged_proto()
        network = proto.network
        network.crash_node(1)
        wrong = network.nodes[2]
        with pytest.raises(ValueError):
            network.restore_node(1, wrong)

    def test_crashed_endpoint_not_notified(self):
        proto = converged_proto()
        network = proto.network
        network.crash_node(1)
        node = network.nodes[1]
        seq_before = node._seq
        # Link-status churn around the crashed node must not wake it.
        network.set_link_status(0, 1, False)
        network.set_link_status(0, 1, True)
        network.run()
        assert node._seq == seq_before


def _probe_msg():
    from repro.protocols.flooding import ExchangeAck

    return ExchangeAck(token=1)


class TestRetiredNodes:
    def test_retired_node_timers_are_inert(self):
        proto = converged_proto()
        node = proto.network.nodes[1]
        fired = []
        node.schedule(5.0, lambda: fired.append(True))
        node.retire()
        proto.network.run()
        assert fired == []

    def test_live_node_timers_fire(self):
        proto = converged_proto()
        node = proto.network.nodes[1]
        fired = []
        node.schedule(5.0, lambda: fired.append(True))
        proto.network.run()
        assert fired == [True]


class TestCrashCancelsTimers:
    def test_stateless_crash_cancels_pending_timers(self):
        # The process is gone: retransmit/refresh timers it armed must
        # die with it, not fire into the dead node during the outage.
        proto = converged_proto()
        fired = []
        proto.network.nodes[1].schedule(5.0, lambda: fired.append(True))
        proto.crash_node(1, retain_state=False)
        proto.network.run()
        assert fired == []

    def test_timer_stays_dead_across_restart(self):
        proto = converged_proto()
        fired = []
        proto.network.nodes[1].schedule(5.0, lambda: fired.append(True))
        proto.crash_node(1, retain_state=False)
        proto.restore_node(1)
        proto.network.run()
        assert fired == []

    def test_retained_crash_keeps_the_process_timers(self):
        # retain_state models an isolated-but-running process: its own
        # timers still fire (they just cannot reach the network).
        proto = converged_proto()
        fired = []
        proto.network.nodes[1].schedule(5.0, lambda: fired.append(True))
        proto.crash_node(1, retain_state=True)
        proto.network.run()
        assert fired == [True]


class TestProtocolCrashRecovery:
    def test_neighbours_route_around_a_crash(self):
        proto = converged_proto()
        proto.crash_node(1, retain_state=True)
        proto.network.run()
        assert proto.is_crashed(1)
        assert proto.find_route(FlowSpec(0, 2)) == (0, 3, 2)

    def test_retained_restart_recovers(self):
        proto = converged_proto()
        old = proto.network.nodes[1]
        proto.crash_node(1, retain_state=True)
        proto.network.run()
        proto.restore_node(1)
        proto.network.run()
        assert not proto.is_crashed(1)
        assert proto.network.nodes[1] is old  # same process came back
        assert proto.find_route(FlowSpec(0, 2)) == (0, 1, 2)

    def test_state_losing_restart_swaps_in_a_fresh_node(self):
        proto = converged_proto()
        old = proto.network.nodes[1]
        proto.crash_node(1, retain_state=False)
        proto.network.run()
        proto.restore_node(1)
        fresh = proto.network.nodes[1]
        assert fresh is not old
        proto.network.run()
        assert proto.find_route(FlowSpec(0, 2)) == (0, 1, 2)
        # The reborn node relearned every peer's LSA.
        view, _ = fresh.local_view()
        for link in proto.graph.links():
            assert view.link(link.a, link.b).up == link.up

    def test_fresh_node_inherits_sequence_numbers(self):
        # NVRAM model: without it the reborn LSA (seq 1) would lose to
        # the pre-crash LSA (seq >= 1) still cached internet-wide.
        proto = converged_proto()
        old = proto.network.nodes[1]
        assert isinstance(old, LSNode)
        old_seq = old._seq
        proto.crash_node(1, retain_state=False)
        proto.network.run()
        proto.restore_node(1)
        proto.network.run()
        fresh = proto.network.nodes[1]
        assert fresh._seq > old_seq
        # And its neighbours accepted the reborn LSA.
        assert proto.network.nodes[0].lsdb[1].seq == fresh._seq

    def test_double_crash_rejected_at_protocol_level(self):
        proto = converged_proto()
        proto.crash_node(1)
        with pytest.raises(ValueError):
            proto.crash_node(1)

    def test_restore_of_uncrashed_rejected(self):
        proto = converged_proto()
        with pytest.raises(ValueError):
            proto.restore_node(1)


class TestFaultPlanScheduling:
    def test_plan_times_are_relative_to_now(self):
        proto = converged_proto()
        t0 = proto.network.sim.now
        assert t0 > 0  # convergence consumed simulated time
        plan = FaultPlan(
            (
                NodeFault(10.0, 1, up=False, retain_state=True),
                NodeFault(20.0, 1, up=True, retain_state=True),
            )
        )
        proto.schedule_fault_plan(plan)
        proto.network.run(until=t0 + 15.0)
        assert proto.is_crashed(1)
        proto.network.run()
        assert not proto.is_crashed(1)

    def test_link_fault_events_apply(self):
        proto = converged_proto()
        proto.schedule_fault_plan(
            FaultPlan((LinkFault(5.0, 0, 1, up=False),))
        )
        proto.network.run()
        assert not proto.graph.link(0, 1).up
