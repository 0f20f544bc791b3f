"""Seed-robustness of the headline experiment shapes.

The benches run on committed seeds; these tests re-assert the *shape* of
each headline claim on different seeds and smaller settings, so the
reproduction's conclusions do not hinge on a lucky draw.  (Weaker
thresholds than the benches: shapes, not exact values.)
"""

import pytest

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.core.evaluation import evaluate_availability, sample_flows
from repro.faults.plan import random_failure_plan
from repro.policy.generators import restricted_policies, source_class_policies
from repro.protocols.dv import DistanceVectorProtocol
from repro.protocols.ecma import ECMAProtocol
from repro.protocols.idrp import IDRPProtocol
from repro.protocols.lshbh import LinkStateHopByHopProtocol
from repro.protocols.orwg import ORWGProtocol
from repro.simul.runner import run_episodes

SEEDS = [101, 202, 303]


def _setting(seed, restrictiveness=0.4):
    graph = generate_internet(
        TopologyConfig(
            num_backbones=2,
            regionals_per_backbone=3,
            campuses_per_parent=3,
            lateral_prob=0.4,
            bypass_prob=0.15,
            seed=seed,
        )
    )
    policies = restricted_policies(graph, restrictiveness, seed=seed).policies
    flows = sample_flows(graph, 25, seed=seed + 1)
    return graph, policies, flows


@pytest.mark.parametrize("seed", SEEDS)
class TestHeadlineShapes:
    def test_e3_shape_ls_pt_dominates(self, seed):
        """E3: the LS+PT designs are exactly available; path vector is
        not; nobody beats them."""
        graph, policies, flows = _setting(seed)
        results = {}
        for cls in (ORWGProtocol, LinkStateHopByHopProtocol, IDRPProtocol):
            proto = cls(graph.copy(), policies.copy())
            proto.converge()
            results[cls.name] = evaluate_availability(
                proto.graph, proto.policies, flows, proto.find_route
            )
        assert results["orwg"].availability == 1.0
        assert results["ls-hbh"].availability == 1.0
        assert results["idrp"].availability <= 1.0
        assert results["orwg"].n_illegal == 0
        assert results["ls-hbh"].n_illegal == 0

    def test_e4_shape_metric_cap_monotone(self, seed):
        """E4: raising the DV metric cap never makes a partition cheaper
        (strictly worse exactly when count-to-infinity fires -- whether
        it fires depends on delay races, which vary by seed)."""
        costs = {
            cap: _partition_cost(
                seed, lambda g, p, cap=cap: DistanceVectorProtocol(g, p, infinity=cap)
            )
            for cap in (16, 64)
        }
        assert costs[64] >= costs[16]

    def test_e5_shape_orwg_transit_work_is_zero(self, seed):
        """E5: ORWG transit ADs never compute routes regardless of
        granularity; ls-hbh transits always do."""
        graph, _, _ = _setting(seed)
        scen = source_class_policies(graph, 4, refusal_prob=0.25, seed=seed)
        flows = sample_flows(graph, 15, seed=seed + 2)
        sources = {f.src for f in flows}

        orwg = ORWGProtocol(graph.copy(), scen.policies.copy())
        hbh = LinkStateHopByHopProtocol(graph.copy(), scen.policies.copy())
        for proto in (orwg, hbh):
            proto.converge()
            for flow in flows:
                proto.find_route(flow)

        def transit_comps(proto, kind):
            return sum(
                n
                for (ad, k), n in proto.network.metrics.computations.items()
                if k == kind and ad not in sources
            )

        assert transit_comps(orwg, "synthesis") == 0
        assert transit_comps(hbh, "policy_route") > 0

    def test_e1_shape_no_protocol_loops(self, seed):
        """Every implemented design point forwards loop-free on every
        seed (Table 1's integrity column)."""
        from repro.core.scorecard import build_scorecard

        graph, policies, flows = _setting(seed)
        rows = build_scorecard(graph, policies, flows[:12])
        for row in rows:
            assert row.forwarding_loops == 0
        best = max(rows, key=lambda r: (r.availability, r.source_control))
        assert best.point.label in {"LS/Src/PT", "LS/HbH/PT"}


def _partition_cost(seed, factory):
    """Messages to reconverge after partitioning one stub AD."""
    graph, policies, _ = _setting(seed)
    stub = next(a for a in graph.stub_ads() if graph.degree(a.ad_id) == 1)
    link = graph.links_of(stub.ad_id)[0]
    proto = factory(graph.copy(), policies.copy())
    proto.converge()
    before = proto.network.metrics.snapshot(proto.network.sim.now)
    proto.network.set_link_status(link.a, link.b, up=False)
    proto.network.run()
    after = proto.network.metrics.snapshot(proto.network.sim.now)
    return after.delta(before).total_messages


def test_e4_count_to_infinity_fires_on_some_seed():
    """The bounce is a race: it need not fire on every topology, but it
    must exist -- and where it fires, the up/down rule must beat it."""
    from repro.policy.qos import QOS

    fired = False
    for seed in SEEDS:
        naive16 = _partition_cost(
            seed, lambda g, p: DistanceVectorProtocol(g, p, infinity=16)
        )
        naive64 = _partition_cost(
            seed, lambda g, p: DistanceVectorProtocol(g, p, infinity=64)
        )
        if naive64 > naive16:
            fired = True
            ecma = _partition_cost(
                seed,
                lambda g, p: ECMAProtocol(
                    g, p, qos_classes=frozenset({QOS.DEFAULT})
                ),
            )
            assert ecma < naive64
    assert fired, "no seed exhibited count-to-infinity"


@pytest.mark.parametrize("seed", SEEDS)
def test_reconvergence_under_plans_stays_loop_free(seed):
    """Failure plans never induce forwarding loops post-quiescence."""
    graph, policies, flows = _setting(seed, restrictiveness=0.2)
    proto = ECMAProtocol(graph, policies)
    plan = random_failure_plan(proto.graph, count=2, repair=True, seed=seed)
    run_episodes(proto, plan)
    for flow in flows[:10]:
        proto.find_route(flow)
    assert proto.forwarding_loops == 0
