"""LSDB generations: the replicated LS route computation, run once.

Section 5.3's burden -- every AD on a path derives the same
source-rooted route -- is *modelled* per AD (``note_computation``, each
node's own table) and must stay so.  The *host* runs the derivation once
per distinct LSDB content, through the generation pool under
:class:`~repro.protocols.flooding.LSNode`.  This file pins the three
things that makes safe:

* equivalence: at every instant, converged or not, every node's
  ``flow_route`` equals an unshared recomputation from its own view, and
  a whole run's record is byte-identical to the parent commit's;
* the key: generations are told apart by LSDB *content*, so a forged LSA
  reusing an honest ``(origin, seq)`` can never borrow honest routes;
* the bound: N distinct flows cost N computations network-wide, live
  generations track the distinct LSDB states among nodes, and a dead
  process holds none.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because which LSDB generation a node resolves
to, and the order generations are released in, must come from LSDB
content, never from dict or set hash order.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.adgraph.ad import Level
from repro.core.synthesis import synthesize_route
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.protocols import lshbh, variants
from repro.protocols.flooding import LinkRecord, LinkStateAd, LSDBGenerations
from repro.protocols.registry import make_protocol
from repro.simul.runner import run_episodes
from repro.workloads.scenarios import reference_scenario, ring_scenario
from tests.oracles import valley_free_shortest_path
from tests.parent_records import corpus

pytestmark = pytest.mark.hashseed

PROTOCOLS = ("ls-hbh", "ls-hbh-topo", "ls-src-topo")


def unshared_route(node, flow):
    """The oracle: what ``flow_route`` computed before anything was shared."""
    graph, policies = node.local_view()
    if flow.src not in graph or flow.dst not in graph:
        return None
    if isinstance(node, lshbh.LSHbHNode):
        route = synthesize_route(graph, policies, flow)
        return None if route is None else route.path
    metric = (QOS.DEFAULT if flow.qos.is_bottleneck else flow.qos).metric
    return valley_free_shortest_path(graph, node.order, flow.src, flow.dst, metric)


def distinct_lsdbs(nodes):
    """Distinct LSDB contents among ``nodes``, by plain pairwise equality."""
    seen = []
    for node in nodes:
        if not any(node.lsdb == lsdb for lsdb in seen):
            seen.append(node.lsdb)
    return len(seen)


def reference(name, **options):
    scenario = reference_scenario(seed=5, num_flows=24)
    protocol = make_protocol(name, scenario.graph, scenario.policies, **options)
    protocol.converge()
    return scenario, protocol


def holders(protocol):
    return sum(g.holders for g in protocol.generations.live())


def count_calls(monkeypatch, module, name):
    """Count (and record the arguments of) calls to ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def compute_function(monkeypatch, name):
    """Calls to the one replicated route function protocol ``name`` runs.

    For the topology variants that is a destination asked of a
    generation's :class:`~repro.protocols.variants.ValleyFreeSearch`: one
    ``path_to`` per per-pair memo miss, its ``self`` the search.
    """
    if name == "ls-hbh":
        return count_calls(monkeypatch, lshbh, "synthesize_route")
    return count_calls(monkeypatch, variants.ValleyFreeSearch, "path_to")


# ------------------------------------------------------------- equivalence


def storm(protocol):
    """Flap + state-losing crash + partition + graceful restart, overlapping.

    Scheduled relative to now; returns the horizon.  The disruptive crash
    passes ``graceful=False`` because the protocol runs with the graceful
    restart helper on (the last leg needs it).
    """
    graph = protocol.graph
    at = protocol.network.clock.call_later
    regionals = [a.ad_id for a in graph.ads() if a.level is Level.REGIONAL]
    flapped = next(iter(graph.links_of(regionals[0])))
    at(10.0, protocol.apply_link_status, flapped.a, flapped.b, False)
    at(60.0, protocol.apply_link_status, flapped.a, flapped.b, True)
    at(30.0, protocol.crash_node, regionals[1], False, False)
    at(120.0, protocol.restore_node, regionals[1])
    island = {regionals[2]} | {
        link.other(regionals[2])
        for link in graph.links_of(regionals[2])
        if graph.ad(link.other(regionals[2])).level is Level.CAMPUS
    }
    cut = [
        link.key
        for link in graph.links()
        if (link.a in island) != (link.b in island)
    ]
    for a, b in cut:
        at(150.0, protocol.apply_link_status, a, b, False)
        at(210.0, protocol.apply_link_status, a, b, True)
    at(240.0, protocol.crash_node, regionals[3], True, True)
    at(270.0, protocol.restore_node, regionals[3])
    return 330.0


@pytest.mark.parametrize("name", PROTOCOLS)
def test_every_node_agrees_with_an_unshared_recomputation_through_a_storm(name):
    scenario, protocol = reference(name, graceful="all")
    network = protocol.network
    flows = scenario.flows[:2] + [replace(scenario.flows[2], qos=QOS.HIGH_BANDWIDTH)]
    start = network.clock.now
    horizon = storm(protocol)
    most_generations = 0
    sample = start
    while True:
        # Every node in the table, the crashed ones too: a dead process's
        # tables are still walked by find_route during the outage.
        nodes = list(network.nodes.values())
        for node in nodes:
            for flow in flows:
                assert node.flow_route(flow) == unshared_route(node, flow), (
                    network.clock.now, node.ad_id, flow
                )
        # A retired process answering from its own table computes nothing
        # and so is at no generation; every live process is at one.
        holding = [node for node in nodes if node._generation is not None]
        assert all(node in holding for node in nodes if not node._defunct)
        live = protocol.generations.live()
        assert len(live) == distinct_lsdbs(holding)
        assert sum(g.holders for g in live) == len(holding)
        most_generations = max(most_generations, len(live))
        if sample > start + horizon:
            break
        sample += 12.0  # link delays are 8-20: mid-flood, not between floods
        network.run(until=sample)
    network.run()
    assert most_generations > 10  # the samples really did land mid-convergence
    for node in network.nodes.values():
        assert node.flow_route(flows[0]) == unshared_route(node, flows[0])
    assert len(protocol.generations.live()) == 1


def test_pinned_cells_record_what_the_parent_commit_recorded():
    # The cells are ``lsdb-generations-pinned/*`` of the parent-record
    # corpus (tests/parent_records.py): a small E14-shaped cell per
    # protocol -- flap + state-losing crash, probed, with a FIB recompile
    # per epoch -- whose records (computations, per-AD computations, RIB
    # sizes, messages, bytes, episodes, data plane) equal what the commit
    # before generations existed recorded; tests/test_parent_records.py
    # runs them.
    records = [corpus()[f"lsdb-generations-pinned/{i}"] for i in range(3)]
    assert [r["cell"]["protocol"] for r in records] == list(PROTOCOLS)
    assert [r["computations"] for r in records] == [
        {"policy_route": 814}, {"valley_free_spf": 856}, {"valley_free_spf": 208},
    ]


# ------------------------------------------------------------------ the key


def test_pool_tells_generations_apart_by_content_not_by_origin_and_seq():
    pool = LSDBGenerations()
    honest = LinkStateAd(origin=1, seq=7, links=(LinkRecord(2, 1.0, 1.0, True),))
    forged = LinkStateAd(origin=1, seq=7, links=(LinkRecord(3, 1.0, 1.0, True),))
    other = LinkStateAd(origin=2, seq=4, links=(LinkRecord(1, 1.0, 1.0, True),))
    a = pool.acquire({1: honest, 2: other})
    b = pool.acquire({1: forged, 2: other})
    assert a is not b and a.bucket == b.bucket
    # Equal content in distinct objects (a re-decoded frame) is one state.
    twin = LinkStateAd(origin=1, seq=7, links=(LinkRecord(2, 1.0, 1.0, True),))
    assert pool.acquire({2: other, 1: twin}) is a
    # A generation snapshots the LSDB: the holder's dict moving on does
    # not drag the generation (and the routes memoised under it) along.
    lsdb = {1: honest}
    c = pool.acquire(lsdb)
    lsdb[2] = other
    assert c.lsdb == {1: honest} and pool.acquire(lsdb) is a
    for generation, count in ((a, 3), (b, 1), (c, 1)):
        assert generation.holders == count
        for _ in range(count):
            pool.release(generation)
    assert pool.live() == []


def test_a_forged_lsa_reusing_an_honest_origin_and_seq_shares_nothing():
    scenario, protocol = reference("ls-hbh")
    graph, network = protocol.graph, protocol.network
    victim = min(a.ad_id for a in graph.ads() if a.level is Level.CAMPUS)
    liar = max(a.ad_id for a in graph.ads() if a.level is Level.REGIONAL)
    gateway = max(link.other(victim) for link in graph.links_of(victim))
    flapped = min(link.other(victim) for link in graph.links_of(victim))
    # The victim re-originates at the instant the liar forges the victim's
    # next LSA: two different LSAs under one (origin, seq) race through
    # the internet and each node keeps whichever arrived first.
    protocol.start_misbehavior(liar, "bogus-origin", victim)
    protocol.apply_link_status(victim, flapped, False)
    network.run(until=network.clock.now + 55.0)  # before the lie re-asserts
    honest, fooled = network.nodes[victim], network.nodes[liar]
    assert honest.lsdb[victim].seq == fooled.lsdb[victim].seq
    assert honest.lsdb[victim].links != fooled.lsdb[victim].links
    flow = FlowSpec(src=gateway, dst=victim)
    for node in network.nodes.values():
        assert node.flow_route(flow) == unshared_route(node, flow)
    assert honest.flow_route(flow) == (gateway, victim)
    assert fooled.flow_route(flow) != (gateway, victim)
    assert honest._generation is not fooled._generation
    by_claim = {}
    for node in network.nodes.values():
        by_claim.setdefault(node.lsdb[victim].links, set()).add(node._generation)
    assert len(by_claim) == 2
    assert not set.intersection(*by_claim.values())


@pytest.mark.parametrize(
    "lie, options",
    [("stale-replay", {}), ("term-forgery", {"validation": "all"})],
)
def test_a_liars_lsdb_never_shares_with_honest_nodes(lie, options):
    scenario, protocol = reference("ls-hbh", **options)
    network = protocol.network
    liar = max(a.ad_id for a in protocol.graph.ads() if a.level is Level.REGIONAL)
    assert protocol.start_misbehavior(liar, lie)
    network.run(until=network.clock.now + 55.0)
    flow = scenario.flows[0]
    for node in network.nodes.values():
        assert node.flow_route(flow) == unshared_route(node, flow)
    lying = network.nodes[liar]._generation
    assert lying.holders == 1
    assert len(protocol.generations.live()) == 2


# ---------------------------------------------------------------- the bound


@pytest.mark.parametrize("name", PROTOCOLS)
def test_n_distinct_flows_cost_n_computations_network_wide(name, monkeypatch):
    scenario, protocol = reference(name)
    calls = compute_function(monkeypatch, name)
    keys = {
        (f.src, f.dst, f.qos.metric) if name != "ls-hbh" else f
        for f in scenario.flows
    }
    routes = [protocol.find_route(flow) for flow in scenario.flows]
    walked = len(calls)
    assert walked <= len(keys)  # a walk that dies at hop 1 never asks hop 2
    for node in protocol.network.nodes.values():
        for flow in scenario.flows:
            node.flow_route(flow)
    assert len(calls) == len(keys)
    # ... while the modelled burden is still charged per AD, per flow.
    charged = sum(protocol.network.metrics.computations.values())
    assert charged == protocol.graph.num_ads * len(keys)
    if name != "ls-src-topo":
        hops = sum(len(r) - 1 for r in routes if r is not None)
        assert hops > 2 * walked  # each path crossed several ADs for one call
    assert len(protocol.generations.live()) == 1
    # What the shared computation reads besides (LSDB, key) is nothing
    # (ls-hbh: view and flow only, plus a counter it writes) or one
    # protocol-wide constant.
    for args, kwargs in calls:
        assert set(kwargs) <= {"stats"} and len(args) == (3 if name == "ls-hbh" else 2)
    if name != "ls-hbh":
        assert all(args[0].order is protocol.order for args, _ in calls)
        assert all(
            node.order is protocol.order
            for node in protocol.network.nodes.values()
        )


def test_a_crashed_process_holds_no_generation_and_its_successor_rejoins():
    scenario, protocol = reference("ls-hbh")
    network = protocol.network
    flow = scenario.flows[0]
    for node in network.nodes.values():
        node.flow_route(flow)
    ads = protocol.graph.num_ads
    assert holders(protocol) == ads and len(protocol.generations.live()) == 1
    crashed = flow.dst
    old = network.nodes[crashed]
    protocol.crash_node(crashed, retain_state=False)
    assert old._generation is None and holders(protocol) == ads - 1
    network.run()
    protocol.restore_node(crashed)
    network.run()
    fresh = network.nodes[crashed]
    assert fresh is not old and fresh._generations is protocol.generations
    for node in network.nodes.values():
        node.flow_route(flow)
    assert holders(protocol) == ads and len(protocol.generations.live()) == 1
    # The last holder leaving drops the generation itself, at once.
    survivors = [n for n in network.nodes.values() if n is not fresh]
    for node in survivors:
        node.retire()
    assert protocol.generations.live() == [fresh._generation]
    fresh.retire()
    assert protocol.generations.live() == []


@pytest.mark.parametrize("name", ("ls-hbh", "ls-hbh-topo"))
def test_live_nodes_share_the_protocols_pool(name, monkeypatch):
    scenario = ring_scenario(num_ads=6, seed=5, num_flows=6)
    protocol = make_protocol(
        name, scenario.graph, scenario.policies, substrate="live"
    )
    calls = compute_function(monkeypatch, name)
    run_episodes(protocol, time_scale=0.002, timeout_s=60.0)
    nodes = list(protocol.network.nodes.values())
    assert all(node._generations is protocol.generations for node in nodes)
    flow = scenario.flows[0]
    del calls[:]
    assert len({node.flow_route(flow) for node in nodes}) == 1
    # Every frame was decoded separately per receiver, yet equal content
    # is one generation and one computation.
    assert len(calls) == 1 and len(protocol.generations.live()) == 1
