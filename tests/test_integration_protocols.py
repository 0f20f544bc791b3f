"""Cross-protocol integration tests: the invariants every architecture
must satisfy on a full generated internet, plus cross-cutting paper
claims that need several protocols side by side."""

import pytest

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.core.evaluation import evaluate_availability, sample_flows
from repro.faults.plan import random_failure_plan
from repro.policy.generators import restricted_policies
from repro.protocols.dv import DistanceVectorProtocol
from repro.protocols.ecma import ECMAProtocol
from repro.protocols.egp import EGPProtocol
from repro.protocols.idrp import BGP2Protocol, IDRPProtocol
from repro.protocols.lshbh import LinkStateHopByHopProtocol
from repro.protocols.orwg import ORWGProtocol
from repro.protocols.spf import PlainLinkStateProtocol
from repro.protocols.variants import (
    DVSourceTermsProtocol,
    DVSourceTopologyProtocol,
    LSHbHTopologyProtocol,
    LSSourceTopologyProtocol,
)

ALL_PROTOCOLS = [
    DistanceVectorProtocol,
    EGPProtocol,
    PlainLinkStateProtocol,
    ECMAProtocol,
    IDRPProtocol,
    BGP2Protocol,
    LinkStateHopByHopProtocol,
    ORWGProtocol,
    LSHbHTopologyProtocol,
    LSSourceTopologyProtocol,
    DVSourceTopologyProtocol,
    DVSourceTermsProtocol,
]


@pytest.fixture(scope="module")
def setting():
    graph = generate_internet(TopologyConfig(seed=21, lateral_prob=0.4))
    policies = restricted_policies(graph, 0.3, seed=21).policies
    flows = sample_flows(graph, 30, seed=22)
    return graph, policies, flows


@pytest.mark.parametrize("cls", ALL_PROTOCOLS, ids=lambda c: c.name)
class TestUniversalInvariants:
    def test_quiesces_and_serves_routes(self, cls, setting):
        graph, policies, flows = setting
        proto = cls(graph.copy(), policies.copy())
        result = proto.converge()
        assert result.messages > 0
        found = sum(proto.find_route(f) is not None for f in flows)
        assert found > 0, f"{proto.name} found no routes at all"

    def test_routes_are_loop_free_walks_over_live_links(self, cls, setting):
        graph, policies, flows = setting
        proto = cls(graph.copy(), policies.copy())
        proto.converge()
        for flow in flows:
            path = proto.find_route(flow)
            if path is None:
                continue
            assert path[0] == flow.src and path[-1] == flow.dst
            assert len(set(path)) == len(path), f"{proto.name} looped: {path}"
            for a, b in zip(path, path[1:]):
                assert proto.graph.has_link(a, b), (proto.name, path)

    def test_deterministic_across_runs(self, cls, setting):
        graph, policies, flows = setting

        def run():
            proto = cls(graph.copy(), policies.copy())
            res = proto.converge()
            routes = tuple(proto.find_route(f) for f in flows[:10])
            return res.messages, res.bytes, routes

        assert run() == run()

    def test_survives_failure_and_stays_loop_free(self, cls, setting):
        graph, policies, flows = setting
        proto = cls(graph.copy(), policies.copy())
        proto.converge()
        plan = random_failure_plan(proto.graph, count=2, seed=5)
        for ev in plan:
            proto.apply_link_status(ev.a, ev.b, ev.up)
            proto.network.run()
        for flow in flows[:15]:
            path = proto.find_route(flow)
            if path is not None:
                assert len(set(path)) == len(path)
                if cls is EGPProtocol:
                    # EGP has no unreachability propagation: stale routes
                    # over dead links are its documented failure mode
                    # (Section 3), so only loop freedom is required.
                    continue
                for a, b in zip(path, path[1:]):
                    link = proto.graph.link(a, b) if proto.graph.has_link(a, b) else None
                    assert link is not None and link.up, (
                        f"{proto.name} routed over dead link {a}-{b}"
                    )


class TestPaperClaims:
    def test_policy_term_ls_protocols_are_exactly_available(self, setting):
        """Sections 5.3/5.4: with flooded PTs, both LS designs discover a
        route iff a legal one exists."""
        graph, policies, flows = setting
        for cls in (LinkStateHopByHopProtocol, ORWGProtocol):
            proto = cls(graph.copy(), policies.copy())
            proto.converge()
            report = evaluate_availability(
                proto.graph, proto.policies, flows, proto.find_route
            )
            assert report.availability == 1.0, cls.name
            assert report.n_illegal == 0, cls.name

    def test_hop_by_hop_dv_weaker_than_ls_source(self, setting):
        """Section 5.2: path-vector advertisement loses legal routes."""
        graph, policies, flows = setting
        idrp = IDRPProtocol(graph.copy(), policies.copy())
        idrp.converge()
        idrp_rep = evaluate_availability(
            idrp.graph, idrp.policies, flows, idrp.find_route
        )
        assert idrp_rep.availability < 1.0

    def test_policy_blind_baselines_produce_illegal_routes(self, setting):
        """Section 3: traditional protocols cannot express policy, so
        their routes violate it."""
        graph, policies, flows = setting
        illegal = {}
        for cls in (DistanceVectorProtocol, PlainLinkStateProtocol):
            proto = cls(graph.copy(), policies.copy())
            proto.converge()
            rep = evaluate_availability(
                proto.graph, proto.policies, flows, proto.find_route
            )
            illegal[cls.name] = rep.n_illegal
        assert all(count > 0 for count in illegal.values()), illegal

    def test_ecma_converges_cheaper_than_naive_dv_after_failure(self, setting):
        """Section 5.1.1: the partial ordering yields rapid convergence;
        naive DV pays the count-to-infinity tax."""
        graph, policies, _ = setting

        def failure_messages(cls, **kw):
            proto = cls(graph.copy(), policies.copy(), **kw)
            proto.converge()
            plan = random_failure_plan(proto.graph, count=3, seed=9)
            total = 0
            for ev in plan:
                before = proto.network.metrics.snapshot(proto.network.sim.now)
                proto.network.set_link_status(ev.a, ev.b, ev.up)
                proto.network.run()
                after = proto.network.metrics.snapshot(proto.network.sim.now)
                total += after.delta(before).total_messages
            return total

        naive = failure_messages(DistanceVectorProtocol, infinity=32)
        ecma = failure_messages(ECMAProtocol)
        assert ecma < naive

    def test_source_routing_relieves_transit_ads(self, setting):
        """Section 5.4: ORWG transit ADs do no route computation; the
        LS-HbH design replicates it at every hop."""
        graph, policies, flows = setting
        hbh = LinkStateHopByHopProtocol(graph.copy(), policies.copy())
        orwg = ORWGProtocol(graph.copy(), policies.copy())
        for proto in (hbh, orwg):
            proto.converge()
            for flow in flows:
                proto.find_route(flow)

        def transit_computations(proto, kind):
            return sum(
                n
                for (ad, k), n in proto.network.metrics.computations.items()
                if k == kind and ad not in {f.src for f in flows}
            )

        hbh_burden = transit_computations(hbh, "policy_route")
        orwg_burden = transit_computations(orwg, "synthesis")
        assert orwg_burden == 0
        assert hbh_burden > 0
