"""Routes carried across link-down LSDB generations.

A generation whose view is its base's minus *lost* links (up there, down
or gone here) -- no AD added, no term changed, nothing came up or
changed metrics -- inherits the base's memoised routes: an answer that
is ``None`` or crosses none of the lost links is still the answer.
Every search behind :meth:`~repro.protocols.flooding.LSNode.generation_route`
picks each parent and its goal as the first state popped in a fixed
order of (distance or width, state), and link loss cannot improve a
state, so the answer's own states keep their values and every tie
resolves as before (DESIGN section 4).  This file pins:

* exactness: through a storm, every memoised route of every live
  generation equals a fresh search on that generation's own view;
* the rule: a link coming up, a metric or term change, a born AD, a
  level change, a cold build and a liar's LSA inherit nothing, and an
  answer from the branch-and-bound fallback is recomputed, never carried;
* the premise, on random small graphs full of ties and zero weights;
* the count: the dataplane-storm smoke cell synthesises 797 -> <= 450
  times and records byte for byte what it recorded before.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest

from repro.adgraph.ad import AD, ADKind, InterADLink, Level, LinkKind
from repro.adgraph.graph import InterADGraph
from repro.adgraph.partial_order import PartialOrder
from repro.core.synthesis import constrained_dijkstra, synthesize_route
from repro.harness import (
    ExperimentSpec,
    FaultSpec,
    ProtocolSpec,
    ScenarioSpec,
    TrafficSpec,
    run_spec,
)
from repro.harness.chaos import routes_digest
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.protocols import lshbh, registry
from repro.protocols.flooding import LinkStateAd, canonical_link_key
from repro.protocols.registry import make_protocol
from repro.protocols.variants import valley_free_shortest_path

from .helpers import mk_graph
from .test_lsdb_generations import count_calls, reference, storm


def fresh(generation, key, order=None):
    """The oracle: ``key``'s route searched afresh on ``generation``'s own view."""
    graph, policies = generation.view
    if order is None:  # ls-hbh: the key is the flow
        if key.src not in graph or key.dst not in graph:
            return None
        route = synthesize_route(graph, policies, key)
        return None if route is None else route.path
    src, dst, metric = key
    if src not in graph or dst not in graph:
        return None
    return valley_free_shortest_path(graph, order, src, dst, metric)


def carried(generation):
    """Routes of ``generation`` copied from its base: the very same path object."""
    if generation.inherited is None:
        return 0
    base = generation.inherited[0]
    return sum(
        1
        for key, path in generation.routes.items()
        if path is not None and base.get(key) is path
    )


# ------------------------------------------------------------- exactness


@pytest.mark.parametrize("name", ("ls-hbh", "ls-hbh-topo"))
def test_every_memoised_route_is_a_fresh_search_on_its_own_view_through_a_storm(name):
    scenario, protocol = reference(name, graceful="all")
    network = protocol.network
    order = getattr(protocol, "order", None)
    flows = scenario.flows[:8] + [
        replace(flow, qos=QOS.HIGH_BANDWIDTH) for flow in scenario.flows[8:12]
    ]
    start = network.clock.now
    horizon = storm(protocol)
    sample, inheriting, copied = start, 0, 0
    while True:
        for node in list(network.nodes.values()):
            for flow in flows:
                node.flow_route(flow)
        for generation in protocol.generations.live():
            for key, path in generation.routes.items():
                assert path == fresh(generation, key, order), (network.clock.now, key)
            inheriting += generation.inherited is not None
            copied += carried(generation)
        if sample > start + horizon:
            break
        sample += 12.0  # link delays are 8-20: mid-flood, not between floods
        network.run(until=sample)
    assert inheriting > 10 and copied > 50, (inheriting, copied)


# -------------------------------------------------------------- the rule


def asker():
    """A converged ls-hbh reference node that has asked for a few flows."""
    scenario, protocol = reference("ls-hbh")
    node = protocol.network.nodes[scenario.flows[0].src]
    flows = scenario.flows[:12]
    ask(node, flows)
    return protocol, node, flows


def ask(node, flows):
    for flow in flows:
        node.flow_route(flow)
    return node._generation


def reinstall(node, origin, **changes):
    """A successor of ``origin``'s LSA, changed as given, at ``node`` alone."""
    lsa = node.lsdb[origin]
    assert node._install(replace(lsa, seq=lsa.seq + 1, **changes))


def relink(node, origin, neighbor, **changes):
    """Reinstall ``origin``'s LSA with its record of ``neighbor`` changed."""
    links = tuple(
        replace(rec, **changes) if rec.neighbor == neighbor else rec
        for rec in node.lsdb[origin].links
    )
    reinstall(node, origin, links=links)


def used_link(node, flows):
    """The sorted key of the first link on the first path ``node`` holds."""
    path = next(p for p in map(node.flow_route, flows) if p is not None and len(p) > 1)
    return canonical_link_key(path[0], path[1])


def test_a_lost_link_carries_every_route_that_avoids_it():
    protocol, node, flows = asker()
    a, b = used_link(node, flows)
    base = node._generation
    relink(node, a, b, up=False)
    generation = ask(node, flows)
    assert generation.inherited == (base.routes, base.uncarried, frozenset({(a, b)}))
    for flow in flows:
        path, before = generation.routes[flow], base.routes[flow]
        assert path == fresh(generation, flow)
        avoids = before is None or (a, b) not in {
            canonical_link_key(u, v) for u, v in zip(before, before[1:])
        }
        # Carried (the base's own object) exactly when the old path avoids it.
        assert (path is before) == avoids
    assert carried(generation) > 0


def test_a_change_to_a_link_that_stays_down_still_carries():
    protocol, node, flows = asker()
    a, b = used_link(node, flows)
    relink(node, a, b, up=False)
    ask(node, flows)
    relink(node, a, b, delay=99.0)
    generation = ask(node, flows)
    assert generation.inherited is not None and generation.inherited[2] == frozenset()
    assert all(generation.routes[f] == fresh(generation, f) for f in flows)


def term_owner(node):
    return min(o for o, lsa in node.lsdb.items() if lsa.terms)


@pytest.mark.parametrize(
    "change",
    ["link-up", "metric", "term", "born-ad", "level", "cold", "log-overflow"],
)
def test_only_lost_links_carry(change):
    protocol, node, flows = asker()
    a, b = used_link(node, flows)
    rebuilds = node.view_rebuilds
    if change == "link-up":
        relink(node, a, b, up=False)
        assert ask(node, flows).inherited is not None
        relink(node, a, b, up=True)
    elif change == "metric":
        # The smaller endpoint's record is the one whose metrics are believed.
        relink(node, a, b, delay=99.0)
    elif change == "term":
        owner = term_owner(node)
        reinstall(node, owner, terms=node.lsdb[owner].terms[:-1])
    elif change == "born-ad":
        node._install(LinkStateAd(origin=10_000, seq=1, links=()))
    elif change == "level":
        reinstall(node, a, origin_level=Level.BACKBONE)
    elif change == "cold":
        assert rebuilds == 1  # the asker's first generation: nothing to inherit
    elif change == "log-overflow":
        node._lsa_log = None  # what a storm longer than MAX_LSA_LOG leaves
        relink(node, a, b, up=False)
    generation = ask(node, flows)
    assert generation.inherited is None
    cold = change in ("level", "log-overflow")
    assert node.view_rebuilds == rebuilds + cold  # derived, yet inherits nothing
    assert all(generation.routes[f] == fresh(generation, f) for f in flows)


def loopy_internet():
    """AD 1 lets 0's traffic through only toward 2, and 3's only toward 4.

    The cheapest legal *walk* 0-1-2-3-1-4 (5) revisits AD 1, so synthesis
    falls back to branch-and-bound: 0-5-4 (10).  Link 2-5 is on neither.
    """
    graph = mk_graph(
        [(0, "Cs"), (1, "Rt"), (2, "Rt"), (3, "Rt"), (4, "Cs"), (5, "Rt")],
        [(0, 1), (1, 2), (2, 3), (1, 3), (1, 4), (0, 5), (5, 4), (2, 5)],
        metrics={
            (0, 5): {"delay": 5.0, "cost": 1.0},
            (5, 4): {"delay": 5.0, "cost": 1.0},
            (2, 5): {"delay": 9.0, "cost": 1.0},
        },
    )
    policies = PolicyDatabase()
    policies.add_term(PolicyTerm(owner=1, prev_ads=ADSet.of([0]), next_ads=ADSet.of([2])))
    policies.add_term(PolicyTerm(owner=1, prev_ads=ADSet.of([3]), next_ads=ADSet.of([4])))
    for owner in (2, 3, 5):
        policies.add_term(PolicyTerm(owner=owner))
    return graph, policies


def test_a_fallback_answer_is_recomputed_never_carried(monkeypatch):
    graph, policies = loopy_internet()
    protocol = make_protocol("ls-hbh", graph, policies)
    protocol.converge()
    node = protocol.network.nodes[0]
    loopy, plain = FlowSpec(0, 4), FlowSpec(0, 2)
    assert constrained_dijkstra(*node.local_view(), loopy) == (0, 1, 2, 3, 1, 4)
    assert ask(node, [loopy, plain]).routes == {loopy: (0, 5, 4), plain: (0, 1, 2)}
    base = node._generation
    assert base.uncarried == {loopy}
    calls = count_calls(monkeypatch, lshbh, "synthesize_route")
    protocol.apply_link_status(2, 5, False)
    protocol.network.run()
    generation = ask(node, [loopy, plain])
    assert generation.inherited == (base.routes, base.uncarried, frozenset({(2, 5)}))
    # The plain route rode along; the fallback's was searched again.
    assert [args[2] for args, _ in calls] == [loopy]
    assert generation.routes[plain] is base.routes[plain]
    assert generation.routes == {loopy: (0, 5, 4), plain: (0, 1, 2)}
    assert generation.uncarried == {loopy}


@pytest.mark.parametrize("lie", ["metric-lie", "bogus-origin"])
def test_a_liars_lsa_inherits_nothing(lie):
    scenario, protocol = reference("ls-hbh")
    network, graph = protocol.network, protocol.graph
    liar = max(a.ad_id for a in graph.ads() if a.level is Level.REGIONAL)
    victim = min(a.ad_id for a in graph.ads() if a.level is Level.CAMPUS)
    flows = scenario.flows[:12]
    nodes = list(network.nodes.values())
    for node in nodes:
        ask(node, flows)
    assert protocol.start_misbehavior(liar, lie, victim)
    network.run(until=network.clock.now + 55.0)  # before the lie re-asserts
    lied = set()
    for node in nodes:
        generation = ask(node, flows)
        view = generation.view[0]
        if lie == "metric-lie":
            told = any(ln.metric("delay") == 0.0 for ln in view.links_of(liar))
        else:
            told = view.has_link(liar, victim)
        if told:
            lied.add(generation)
        assert all(generation.routes[f] == fresh(generation, f) for f in flows)
    assert lied and all(generation.inherited is None for generation in lied)


# ------------------------------------------------------------ the premise


def random_internet(rng, levels=(Level.CAMPUS,)):
    """A small random graph whose metrics tie often, zero included."""
    graph = InterADGraph()
    n = rng.randint(4, 9)
    for ad_id in range(n):
        graph.add_ad(AD(ad_id, f"ad{ad_id}", rng.choice(levels), ADKind.HYBRID))
    keys, m = set(), rng.randint(n, min(n * (n - 1) // 2, 3 * n))
    while len(keys) < m:
        keys.add(tuple(sorted(rng.sample(range(n), 2))))
    for a, b in sorted(keys):
        metrics = {"delay": rng.choice((0.0, 1.0, 2.0)), "bandwidth": rng.choice((1.0, 2.0))}
        graph.add_link(InterADLink(a, b, LinkKind.HIERARCHICAL, metrics))
    return graph


class RandomTransit:
    """Per-(AD, prev, next) legality and charge, drawn once per triple."""

    def __init__(self, rng):
        self.rng, self.table = rng, {}

    def transit_charge(self, ad_id, flow, prev, nxt):
        key = (ad_id, prev, nxt)
        if key not in self.table:
            refused = self.rng.random() < 0.25
            self.table[key] = None if refused else self.rng.choice((0.0, 1.0))
        return self.table[key]


def without_links_off(graph, path, rng):
    """``graph`` minus a random nonempty set of the links ``path`` avoids."""
    used = set() if path is None else {
        canonical_link_key(a, b) for a, b in zip(path, path[1:])
    }
    off = [ln.key for ln in graph.links() if ln.key not in used]
    if not off:
        return None
    fork = graph.fork()
    for a, b in rng.sample(off, rng.randint(1, len(off))):
        fork.remove_link(a, b)
    return fork


@pytest.mark.parametrize("qos", [QOS.DEFAULT, QOS.HIGH_BANDWIDTH])
def test_losing_links_off_the_answer_never_changes_a_constrained_search(qos):
    rng = random.Random(qos.value)
    for _ in range(400):
        graph, policies = random_internet(rng), RandomTransit(rng)
        flow = FlowSpec(*rng.sample(graph.ad_ids(), 2), qos=qos)
        path = constrained_dijkstra(graph, policies, flow)
        fork = without_links_off(graph, path, rng)
        if fork is not None:
            assert constrained_dijkstra(fork, policies, flow) == path


def test_losing_links_off_the_answer_never_changes_a_valley_free_search():
    rng = random.Random(7)
    for _ in range(400):
        graph = random_internet(rng, (Level.CAMPUS, Level.REGIONAL, Level.BACKBONE))
        order = PartialOrder.from_hierarchy(graph)
        src, dst = rng.sample(graph.ad_ids(), 2)
        path = valley_free_shortest_path(graph, order, src, dst)
        fork = without_links_off(graph, path, rng)
        if fork is not None:
            assert valley_free_shortest_path(fork, order, src, dst) == path


# --------------------------------------------------------------- the count


def storm_smoke_spec():
    """The dataplane-storm ledger workload's smoke cell (seed 47)."""
    return ExperimentSpec(
        name="carry-over-storm",
        scenarios=(ScenarioSpec(kind="reference", seed=5, num_flows=12),),
        protocols=(ProtocolSpec("ls-hbh"),),
        faults=(
            FaultSpec(
                flaps=1, crashes=1, retain_state=False, seed=3,
                probe_interval=100.0, probe_flows=8, label="storm",
            ),
        ),
        traffics=(TrafficSpec(flows=20_000, zipf_s=1.1, pairs=128, seed=14),),
    )


def digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True, default=str).encode()).hexdigest()[:16]


def test_the_storm_smoke_cell_synthesises_half_as_often_and_records_the_same(monkeypatch):
    calls = count_calls(monkeypatch, lshbh, "synthesize_route")
    built = []
    build = registry.make_protocol
    monkeypatch.setattr(
        registry, "make_protocol", lambda *a, **kw: built.append(build(*a, **kw)) or built[-1]
    )
    (record,) = run_spec(storm_smoke_spec())
    assert len(calls) <= 450  # parent: 797 (one per flow per LSDB content)
    # What is modelled did not move: per-AD computations, every simulated
    # statistic, and the route every ordered pair gets at the end.
    stats = record.comparable()
    assert stats["computations"] == {"policy_route": 2422}
    assert digest(stats["computations_by_ad"]) == "d0e6ef34910b7b57"
    labels = ("schema_version", "experiment", "cell", "trace", "substrate")
    assert digest({k: v for k, v in stats.items() if k not in labels}) == "129af090db9e98d1"
    assert routes_digest(built[0]) == "74340e1b5dfee1bb"
