"""Tests for the data plane: enforcement, loops, blackholes.

Each case is checked as verdict codes on the per-packet oracle
(:func:`tests.oracles.forward_verdict`) and, where the case applies, on
the compiled FIB.
"""


from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.protocols.dv import DistanceVectorProtocol
from repro.protocols.orwg import ORWGProtocol
from repro.traffic import (
    DEAD_LINK,
    DELIVERED,
    NO_ROUTE,
    POLICY_DROP,
    compile_fib,
)
from tests.helpers import diamond_graph, line_graph, open_db
from tests.oracles import forward_verdict


def fib_verdict(protocol, flow, enforce_policy=True):
    """The compiled FIB's verdict for one flow under current liveness."""
    return compile_fib(protocol, [flow], enforce_policy).class_verdicts()[0]


class TestForwardVerdict:
    def test_delivery_over_converged_dv(self):
        g = line_graph(4)
        proto = DistanceVectorProtocol(g, open_db(g))
        proto.converge()
        flow = FlowSpec(0, 3)
        assert forward_verdict(proto, flow) == (DELIVERED, (0, 1, 2, 3))
        fib = compile_fib(proto, [flow])
        assert fib.class_verdicts()[0] == DELIVERED
        assert fib.path_hops[0] == 3

    def test_trivial_flow(self):
        g = line_graph(2)
        proto = DistanceVectorProtocol(g, PolicyDatabase())
        proto.converge()
        assert forward_verdict(proto, FlowSpec(0, 0)) == (DELIVERED, (0,))
        assert fib_verdict(proto, FlowSpec(0, 0)) == DELIVERED

    def test_policy_enforcement_drops_at_transit(self):
        """A policy-blind protocol's packet dies at the first transit AD
        whose policy forbids it -- when enforcement is on."""
        g = line_graph(4)
        db = PolicyDatabase()
        db.add_term(PolicyTerm(owner=1))
        db.add_term(PolicyTerm(owner=2, sources=ADSet.of([99])))
        proto = DistanceVectorProtocol(g, db)
        proto.converge()
        flow = FlowSpec(0, 3)
        assert forward_verdict(proto, flow) == (POLICY_DROP, (0, 1, 2))
        assert fib_verdict(proto, flow) == POLICY_DROP
        permissive = forward_verdict(proto, flow, enforce_policy=False)
        assert permissive == (DELIVERED, (0, 1, 2, 3))
        assert fib_verdict(proto, flow, enforce_policy=False) == DELIVERED

    def test_blackhole_on_stale_tables(self):
        g = line_graph(3)
        proto = DistanceVectorProtocol(g, PolicyDatabase())
        proto.converge()
        flow = FlowSpec(0, 2)
        fib = compile_fib(proto, [flow])
        # Fail a link *without* letting the protocol reconverge.
        g.set_link_status(1, 2, up=False)
        assert forward_verdict(proto, flow) == (DEAD_LINK, (0, 1))
        assert fib.class_verdicts()[0] == DEAD_LINK
        # The control plane still believes in the route.
        assert proto.find_route(flow) == (0, 1, 2)

    def test_source_route_mode(self):
        g = diamond_graph()
        proto = ORWGProtocol(g, open_db(g))
        proto.converge()
        assert forward_verdict(proto, FlowSpec(0, 3)) == (DELIVERED, (0, 1, 3))
        assert fib_verdict(proto, FlowSpec(0, 3)) == DELIVERED

    def test_source_mode_no_route(self):
        g = line_graph(3)
        proto = ORWGProtocol(g, PolicyDatabase())
        proto.converge()
        assert forward_verdict(proto, FlowSpec(0, 2)) == (NO_ROUTE, (0,))
        assert fib_verdict(proto, FlowSpec(0, 2)) == NO_ROUTE

    def test_orwg_delivery_matches_availability(self, gen_graph, gen_restricted):
        """Source-routed traffic is delivered iff a legal route exists:
        data plane and control plane agree."""
        from repro.core.evaluation import legal_route_exists, sample_flows

        proto = ORWGProtocol(gen_graph, gen_restricted)
        proto.converge()
        flows = sample_flows(gen_graph, 20, seed=14)
        compiled = compile_fib(proto, flows).class_verdicts()
        for flow, verdict in zip(flows, compiled):
            exists = bool(legal_route_exists(gen_graph, gen_restricted, flow))
            assert (forward_verdict(proto, flow)[0] == DELIVERED) == exists
            assert (verdict == DELIVERED) == exists
