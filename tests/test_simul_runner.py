"""Tests for convergence runners and failure injection."""

import pytest

from repro.faults.plan import FaultPlan, LinkFault, random_failure_plan
from repro.protocols import make_protocol
from repro.protocols.dv import DistanceVectorProtocol
from repro.simul.runner import converge, run_episodes
from repro.workloads import reference_scenario
from tests.helpers import mk_graph, open_db


def triangle():
    return mk_graph(
        [(0, "Rt"), (1, "Rt"), (2, "Rt")], [(0, 1), (1, 2), (0, 2)]
    )


class TestConverge:
    def test_initial_convergence_counts_messages(self):
        g = triangle()
        proto = DistanceVectorProtocol(g, open_db(g))
        result = converge(proto.build())
        assert result.messages > 0
        assert result.bytes > 0
        assert result.time > 0

    def test_converge_twice_second_is_free(self):
        g = triangle()
        proto = DistanceVectorProtocol(g, open_db(g))
        converge(proto.build())
        second = converge(proto.build())
        assert second.messages == 0
        assert second.time == 0.0

    def test_quiesced_flag_reports_event_budget_exhaustion(self):
        g = triangle()
        proto = DistanceVectorProtocol(g, open_db(g))
        result = converge(proto.build(), max_events=2)
        assert not result.quiesced
        assert result.events <= 2
        # Resuming with a real budget finishes the job and quiesces.
        rest = converge(proto.build())
        assert rest.quiesced
        assert rest.messages > 0


class TestRunEpisodes:
    def test_episodes_isolated(self):
        g = triangle()
        proto = DistanceVectorProtocol(g, open_db(g))
        plan = FaultPlan((LinkFault(0.0, 0, 1), LinkFault(0.0, 0, 1, up=True)))
        initial, *episodes = run_episodes(proto, plan)
        assert initial.messages > 0
        assert len(episodes) == 2
        # Failure then repair both trigger reconvergence traffic.
        assert episodes[0].messages > 0
        assert episodes[1].messages > 0
        # The graph ends with the link restored.
        assert proto.graph.link(0, 1).up

    def test_tables_correct_after_failure(self):
        g = triangle()
        proto = DistanceVectorProtocol(g, open_db(g))
        plan = FaultPlan((LinkFault(0.0, 0, 1),))
        run_episodes(proto, plan)
        from repro.policy.flows import FlowSpec

        # 0 must now reach 1 via 2.
        assert proto.find_route(FlowSpec(0, 1)) == (0, 2, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_egp_failures_go_through_the_protocol(self, seed):
        """EGP's control plane runs on a pruned tree, so a failure must
        reach it through ``apply_link_status``; a bare
        ``network.set_link_status`` left its tree stale (``KeyError``)
        and its graph with no failed link down."""
        scenario = reference_scenario(seed=17)
        proto = make_protocol("egp", scenario.graph.copy(), scenario.policies.copy())
        plan = random_failure_plan(scenario.graph, count=3, repair=False, seed=seed)
        results = run_episodes(proto, plan)
        assert len(results) == 4
        assert all(not proto.graph.link(ev.a, ev.b).up for ev in plan)
