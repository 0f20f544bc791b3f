"""Failure-injection battery: link-flap storms against every protocol.

Section 2.2 demands the protocols be "somewhat adaptive to changes in
inter-AD topology".  These tests subject each architecture to randomized
sequences of failures and repairs and then check the hard invariants:

* the control plane re-quiesces after every event;
* converged forwarding is loop-free;
* LS protocols: all LSDBs agree with physical reality afterwards;
* after all links are repaired, routing recovers to the initial answers.
"""

import random

import pytest

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.core.evaluation import sample_flows
from repro.faults.plan import safe_failure_candidates
from repro.policy.generators import hierarchical_policies
from repro.protocols.dv import DistanceVectorProtocol
from repro.protocols.ecma import ECMAProtocol
from repro.protocols.idrp import IDRPProtocol
from repro.protocols.lshbh import LinkStateHopByHopProtocol
from repro.protocols.orwg import ORWGProtocol
from repro.protocols.spf import PlainLinkStateProtocol

STORM_PROTOCOLS = [
    DistanceVectorProtocol,
    ECMAProtocol,
    IDRPProtocol,
    PlainLinkStateProtocol,
    LinkStateHopByHopProtocol,
    ORWGProtocol,
]


def _storm(proto, events, seed):
    """Apply a random flap storm; every event is followed by quiescence."""
    rng = random.Random(seed)
    down = []
    for _ in range(events):
        repair = down and rng.random() < 0.4
        if repair:
            a, b = down.pop(rng.randrange(len(down)))
            proto.apply_link_status(a, b, True)
        else:
            candidates = safe_failure_candidates(proto.graph)
            candidates = [k for k in candidates if k not in down]
            if not candidates:
                continue
            a, b = rng.choice(candidates)
            down.append((a, b))
            proto.apply_link_status(a, b, False)
        proto.network.run()
    # Repair everything.
    for a, b in down:
        proto.apply_link_status(a, b, True)
        proto.network.run()


@pytest.fixture(scope="module")
def storm_setting():
    graph = generate_internet(
        TopologyConfig(seed=55, lateral_prob=0.5, bypass_prob=0.2)
    )
    policies = hierarchical_policies(graph).policies
    flows = sample_flows(graph, 20, seed=56)
    return graph, policies, flows


@pytest.mark.parametrize("cls", STORM_PROTOCOLS, ids=lambda c: c.name)
class TestFlapStorm:
    def test_storm_then_recovery(self, cls, storm_setting):
        graph, policies, flows = storm_setting
        proto = cls(graph.copy(), policies.copy())
        proto.converge()
        baseline = {f: proto.find_route(f) for f in flows}

        _storm(proto, events=10, seed=99)

        # All links are back up: the protocol must answer as well as a
        # freshly converged instance.  DV-family protocols keep the
        # incumbent on metric ties, so recovered *paths* may differ from
        # a fresh run's -- but reachability and route quality must match.
        from repro.policy.legality import path_cost

        fresh = cls(graph.copy(), policies.copy())
        fresh.converge()
        for flow in flows:
            stormed = proto.find_route(flow)
            clean = fresh.find_route(flow)
            assert (stormed is None) == (clean is None), (
                f"{proto.name} lost reachability for {flow}"
            )
            if stormed is None:
                continue
            if cls is DistanceVectorProtocol:
                assert len(stormed) == len(clean)  # hop-count metric ties
            elif cls in (ECMAProtocol, IDRPProtocol):
                assert path_cost(graph, stormed, flow.qos.metric) == pytest.approx(
                    path_cost(graph, clean, flow.qos.metric)
                )
            else:
                # LS protocols recompute deterministically from the LSDB.
                assert stormed == clean
        # And the baseline reachability is restored.
        for flow, path in baseline.items():
            assert (proto.find_route(flow) is None) == (path is None)

    def test_no_loops_mid_storm(self, cls, storm_setting):
        graph, policies, flows = storm_setting
        proto = cls(graph.copy(), policies.copy())
        proto.converge()
        rng = random.Random(7)
        for step in range(6):
            candidates = safe_failure_candidates(proto.graph)
            if not candidates:
                break
            a, b = rng.choice(candidates)
            proto.apply_link_status(a, b, False)
            proto.network.run()
            for flow in flows[:10]:
                path = proto.find_route(flow)
                if path is not None:
                    assert len(set(path)) == len(path)
            proto.apply_link_status(a, b, True)
            proto.network.run()


class TestLSDBConsistencyAfterStorm:
    @pytest.mark.parametrize(
        "cls", [PlainLinkStateProtocol, LinkStateHopByHopProtocol, ORWGProtocol],
        ids=lambda c: c.name,
    )
    def test_lsdbs_match_reality(self, cls, storm_setting):
        graph, policies, _ = storm_setting
        proto = cls(graph.copy(), policies.copy())
        proto.converge()
        _storm(proto, events=8, seed=3)
        reference = None
        for ad_id in proto.graph.ad_ids():
            node = proto.network.node(ad_id)
            view, _ = node.local_view()
            if reference is None:
                reference = node.lsdb
            assert node.lsdb == reference
            for link in proto.graph.links():
                assert view.link(link.a, link.b).up == link.up
