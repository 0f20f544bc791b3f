"""Believed views: one value per LSDB state, shared and never written to.

Section 5.1.1 charges link state with every AD holding the whole map, and
each AD's ``lsdb`` is that modelled cost.  What the *host* builds from a
map -- the believed graph and policy database -- is a function of its
content, so :class:`~repro.protocols.flooding.LSDBGeneration` owns it:
built once per content (cold, or forked from the asking node's previous
view), handed to every node at that content, immutable once published.
This file pins what makes that safe:

* equivalence: at every instant, converged or not, every node's view
  equals a cold build from its *own* LSDB by the ten lines below;
* immutability: a published view reads the same however far the network
  moves on, though later views share its links and its policy database;
* the key: a liar's LSDB is its own generation, so its view is too;
* the bound: views alive never exceed generations alive, and the objects
  behind them are counted, not timed.
"""

from __future__ import annotations

import asyncio
import gc
from dataclasses import replace

import pytest

from repro.adgraph.ad import Level
from repro.adgraph.graph import InterADGraph
from repro.faults.plan import LinkFault, NodeFault
from repro.live import LiveSubstrate
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import ring_scenario, scaled_scenario

from .test_lsdb_generations import distinct_lsdbs, reference, storm

PROTOCOLS = ("plain-ls", "ls-hbh", "ls-hbh-topo", "orwg")


def cold_build(lsdb):
    """The oracle: (AD levels, links, terms) an LSDB implies, the slow way."""
    levels = {origin: lsa.origin_level for origin, lsa in lsdb.items()}
    links, terms = {}, {}
    for a in sorted(lsdb):
        for rec in lsdb[a].links:
            back = [r for r in lsdb[rec.neighbor].links if r.neighbor == a] if rec.neighbor in lsdb else []
            key = (min(a, rec.neighbor), max(a, rec.neighbor))
            if back and key not in links:
                links[key] = (rec.up and back[0].up, rec.delay, rec.cost, rec.bandwidth)
        for term in lsdb[a].terms:
            owned = terms.setdefault(term.owner, [])
            owned.append(replace(term, term_id=len(owned)))
    return levels, links, {owner: tuple(owned) for owner, owned in terms.items()}


def snapshot(view):
    """Everything a consumer can read off a view, as plain values."""
    graph, policies = view
    levels = {ad.ad_id: ad.level for ad in graph.ads()}
    links = {
        ln.key: (ln.up, ln.metrics["delay"], ln.metrics["cost"], ln.metrics["bandwidth"])
        for ln in graph.links()
    }
    # The adjacency structures of a fork must tell the same story as its links.
    for ad_id in graph.ad_ids():
        incident = graph.incident(ad_id)
        assert [ln.key for ln in incident] == sorted(k for k in links if ad_id in k)
        assert all(graph.link_if_exists(*ln.key) is ln for ln in incident)
        assert graph.neighbors(ad_id) == [ln.other(ad_id) for ln in incident if ln.up]
    terms = {owner: policies.terms_of(owner) for owner in policies.owners()}
    assert policies.num_terms == sum(map(len, terms.values()))
    return levels, links, terms


def assert_view_is_cold_build(node):
    assert snapshot(node.local_view()) == cold_build(node.lsdb), node.ad_id


def views_of(protocol):
    return [g.view for g in protocol.generations.live() if g.view is not None]


# ------------------------------------------------------------- equivalence


@pytest.mark.parametrize("name", PROTOCOLS)
def test_every_view_is_the_cold_build_of_its_own_lsdb_through_a_storm(name):
    scenario, protocol = reference(name, graceful="all")
    network = protocol.network
    start = network.clock.now
    horizon = storm(protocol)
    seen, most_generations, sample = {}, 0, start
    while True:
        # Retired processes too: find_route walks a dead process's tables.
        seen.update((id(node), node) for node in network.nodes.values())
        for node in seen.values():
            assert_view_is_cold_build(node)
            if node._defunct:
                node.retire()  # being asked made it a holder again
        holding = [node for node in seen.values() if node._generation is not None]
        live = protocol.generations.live()
        assert len(live) == distinct_lsdbs(holding)
        # One view per generation, the same two objects for every holder.
        assert all(node.local_view() is node._generation.view for node in holding)
        assert len({id(g.view) for g in live}) == len(live)
        most_generations = max(most_generations, len(live))
        if sample > start + horizon:
            break
        sample += 12.0  # link delays are 8-20: mid-flood, not between floods
        network.run(until=sample)
    network.run()
    assert most_generations > 10  # the samples really did land mid-convergence
    assert len(seen) == scenario.graph.num_ads + 1  # the state-losing crash
    for node in network.nodes.values():
        assert_view_is_cold_build(node)
    assert len(views_of(protocol)) == 1
    # Most of that was derived or picked up, not cold-built.
    nodes = list(seen.values())
    cold = sum(node.view_rebuilds for node in nodes)
    derived = sum(node.view_delta_refreshes for node in nodes)
    assert derived > 3 * cold, (cold, derived)


def test_every_view_is_the_cold_build_of_its_own_lsdb_on_a_live_ring():
    scenario = ring_scenario(num_ads=8, seed=5, num_flows=6)
    protocol = make_protocol(
        "ls-hbh", scenario.graph, scenario.policies, substrate="live"
    )
    plan = [
        LinkFault(0.0, 0, 1, up=False),
        NodeFault(0.0, 4, up=False),
        LinkFault(0.0, 0, 1, up=True),
        NodeFault(0.0, 4, up=True, retain_state=False),
    ]

    async def episodes():
        substrate = LiveSubstrate(protocol, time_scale=0.002, timeout_s=30.0)
        views = []
        try:
            await substrate.start()
            for ev in [None, *plan]:
                if ev is not None:
                    await substrate.apply(ev)
                assert (await substrate.settle()).quiesced
                for node in protocol.network.nodes.values():
                    assert_view_is_cold_build(node)
                views.append(views_of(protocol))
        finally:
            await substrate.close()
        return views

    views = asyncio.run(asyncio.wait_for(episodes(), timeout=60.0))
    # Frames are decoded per receiver, yet equal content is one view.  The
    # crashed AD sits out two episodes on its own (stale) LSDB, the first
    # with the ring cut in two by it and the downed link.
    assert [len(v) for v in views] == [1, 1, 3, 2, 1]
    nodes = list(protocol.network.nodes.values())
    assert sum(node.view_delta_refreshes for node in nodes) >= 3


# ------------------------------------------------------------ immutability


@pytest.mark.parametrize("name", ("plain-ls", "ls-hbh"))
def test_a_published_view_never_changes(name):
    scenario, protocol = reference(name)
    network = protocol.network
    asker = network.nodes[min(network.nodes)]
    held = asker.local_view()
    before = snapshot(held)
    links = [ln.key for ln in protocol.graph.links()][:3]
    generations = [asker._generation]
    for a, b in links:  # three generations on, each forked from the last
        protocol.apply_link_status(a, b, False)
        network.run()
        assert_view_is_cold_build(asker)
        generations.append(asker._generation)
    assert len({id(g) for g in generations}) == 4
    assert asker.view_delta_refreshes == 3 and asker.view_rebuilds == 1
    graph, policies = asker.local_view()
    assert graph is not held[0] and snapshot(held) == before
    assert all(held[0].link(a, b).up and not graph.link(a, b).up for a, b in links)
    # Untouched links are the same objects; only the changed ones were replaced.
    shared = sum(graph.link(*ln.key) is ln for ln in held[0].links())
    assert shared == held[0].num_links - 3


# ----------------------------------------------------------------- the key


@pytest.mark.parametrize(
    "lie, options, liar_alone",
    [
        ("bogus-origin", {"validation": "all"}, True),
        ("term-forgery", {"validation": "all"}, True),
        ("stale-replay", {}, True),
        ("term-forgery", {}, False),
    ],
)
def test_a_liar_shares_a_view_only_with_nodes_it_fooled(lie, options, liar_alone):
    scenario, protocol = reference("ls-hbh", **options)
    network = protocol.network
    nodes = list(network.nodes.values())
    for node in nodes:
        node.local_view()
    liar = max(a.ad_id for a in protocol.graph.ads() if a.level is Level.REGIONAL)
    victim = min(a.ad_id for a in protocol.graph.ads() if a.level is Level.CAMPUS)
    cold_before = sum(node.view_rebuilds for node in nodes)
    assert protocol.start_misbehavior(liar, lie, victim)
    network.run(until=network.clock.now + 55.0)  # before the lie re-asserts
    for node in nodes:
        assert_view_is_cold_build(node)
    # Same view object exactly when same LSDB content, liar included.
    for node in nodes:
        for other in nodes:
            same = node.local_view() is other.local_view()
            assert same == (node.lsdb == other.lsdb)
    lying = network.nodes[liar]._generation
    assert (lying.holders == 1) == liar_alone
    if lie == "term-forgery":
        # A term owned by someone else sits in the liar's LSA: whoever
        # installs it cold-builds, since per-owner replace is off the table.
        cold = sum(node.view_rebuilds for node in nodes) - cold_before
        assert cold == (1 if liar_alone else len(views_of(protocol)))
        forged = network.nodes[liar].local_view()[1].terms_of(victim)
        assert len(forged) == len(protocol.policies.terms_of(victim)) + 1


def test_a_forged_lsa_reusing_an_honest_origin_and_seq_gets_its_own_view():
    scenario, protocol = reference("ls-hbh")
    graph, network = protocol.graph, protocol.network
    victim = min(a.ad_id for a in graph.ads() if a.level is Level.CAMPUS)
    liar = max(a.ad_id for a in graph.ads() if a.level is Level.REGIONAL)
    flapped = min(link.other(victim) for link in graph.links_of(victim))
    # The victim re-originates at the instant the liar forges the victim's
    # next LSA: two LSDBs that agree on every (origin, seq) and differ.
    protocol.start_misbehavior(liar, "bogus-origin", victim)
    protocol.apply_link_status(victim, flapped, False)
    network.run(until=network.clock.now + 55.0)  # before the lie re-asserts
    honest, fooled = network.nodes[victim], network.nodes[liar]
    assert {o: lsa.seq for o, lsa in honest.lsdb.items()} == {
        o: lsa.seq for o, lsa in fooled.lsdb.items()
    }
    assert honest.lsdb != fooled.lsdb
    for node in network.nodes.values():
        assert_view_is_cold_build(node)
    assert honest.local_view()[0] is not fooled.local_view()[0]
    assert fooled.local_view()[0].has_link(liar, victim)
    assert not honest.local_view()[0].has_link(liar, victim)


def test_link_only_generations_keep_the_policy_database_object():
    scenario, protocol = reference("ls-hbh")
    network = protocol.network
    asker = network.nodes[min(network.nodes)]
    graph, policies = asker.local_view()
    flow = scenario.flows[0]
    protocol.find_route(flow)
    decided = policies.lookups
    assert decided > 0
    a, b = next(ln.key for ln in protocol.graph.links())
    protocol.apply_link_status(a, b, False)
    network.run()
    flapped_graph, flapped_policies = asker.local_view()
    # Same object: term indexes and the decision cache carry across.
    assert flapped_graph is not graph and flapped_policies is policies
    assert policies.version == policies._engine_version and policies._decisions
    # An own-owned term change (a route leak) forks the database.
    liar = max(ad.ad_id for ad in protocol.graph.ads() if ad.level is Level.REGIONAL)
    assert protocol.start_misbehavior(liar, "route-leak")
    network.run(until=network.clock.now + 55.0)
    rebuilds = asker.view_rebuilds
    _, leaked = asker.local_view()
    assert asker.view_rebuilds == rebuilds  # derived, not cold-built
    assert leaked is not policies and leaked.version > policies.version
    assert len(leaked.terms_of(liar)) == len(policies.terms_of(liar)) + 1
    assert_view_is_cold_build(asker)


# --------------------------------------------------------------- the bound


def believed_graphs(known):
    """The id of every ``InterADGraph`` alive that is not in ``known``."""
    gc.collect()  # scratch networks of state-losing restarts are cyclic
    return {
        id(obj) for obj in gc.get_objects() if type(obj) is InterADGraph
    } - known


@pytest.mark.parametrize("name", ("plain-ls", "ls-hbh"))
def test_views_alive_never_exceed_generations_alive(name):
    scenario, protocol = reference(name, graceful="all")
    network = protocol.network
    known = believed_graphs(set())  # ground truth etc.
    start = network.clock.now
    horizon = storm(protocol)
    sample, seen = start, {}
    while sample <= start + horizon:
        seen.update((id(node), node) for node in network.nodes.values())
        for node in network.nodes.values():
            if not node._defunct and node.ad_id % 3 != 2:  # some never ask
                protocol.next_hop(node.ad_id, scenario.flows[0], None)
        assert believed_graphs(known) == {id(view[0]) for view in views_of(protocol)}
        sample += 30.0
        network.run(until=sample)
    network.run()
    for node in network.nodes.values():
        node.local_view()
    assert len(believed_graphs(known)) == len(protocol.generations.live()) == 1
    for node in seen.values():
        node.retire()
    assert believed_graphs(known) == set() and protocol.generations.live() == []


def hundred_ad_plain_ls():
    scenario = scaled_scenario(100, seed=3, num_flows=4)
    return scenario, make_protocol("plain-ls", scenario.graph, scenario.policies)


def test_believed_links_are_counted_per_lsdb_state_not_per_ad():
    scenario, protocol = hundred_ad_plain_ls()
    protocol.converge()
    network = protocol.network
    a, b = next(ln.key for ln in protocol.graph.links())

    def believed_links():
        return {
            id(ln): ln
            for node in network.nodes.values()
            for ln in node.local_view()[0].links()
        }

    links = believed_links()  # every AD queried after quiescence
    assert len(links) == protocol.graph.num_links  # parent: 100 x
    protocol.apply_link_status(a, b, False)
    network.run()
    # A generation on, still held: one link object more, not a graph more.
    assert len({**links, **believed_links()}) == protocol.graph.num_links + 1
    assert len(links) <= 2 * protocol.graph.num_links


def test_one_tracked_tuple_per_pending_posted_event():
    scenario, protocol = hundred_ad_plain_ls()
    network = protocol.build()

    def tracked_tuples():
        return sum(type(obj) is tuple for obj in gc.get_objects())

    gc.collect()
    baseline = tracked_tuples()
    network.start()
    sim = network.sim
    peak = (0, 0)
    while sim.pending:
        sim.run(until=sim.now + 2.0)
        if sim.pending > peak[0]:
            peak = (sim.pending, tracked_tuples() - baseline)
    pending, gained = peak
    assert pending > 2000  # the convergence queue peak, not a lull
    # The entry is the call itself; an LSA's ``links`` tuple is the rest.
    assert gained / pending <= 1.05, (gained, pending)  # parent 2.0


def test_a_flap_repairs_every_tree_and_recomputes_none():
    scenario, protocol = hundred_ad_plain_ls()
    protocol.converge()
    network = protocol.network
    nodes = list(network.nodes.values())
    dst = max(network.nodes)

    def ask_everyone():
        for node in nodes:
            node.next_hop_to(dst, scenario.flows[0].qos)
        states = [state for node in nodes for _, state in node._spf_states.values()]
        return (
            sum(state.full_recomputes for state in states),
            sum(state.repairs for state in states),
        )

    full, repairs = ask_everyone()
    assert (full, repairs) == (len(nodes), 0)  # a tree exists everywhere
    link = next(ln for ln in protocol.graph.links() if dst not in ln.key)
    for up in (False, True):
        protocol.apply_link_status(link.a, link.b, up)
        network.run()
        assert ask_everyone()[0] == full
    # Trees that ride the link repaired twice; nobody rebuilt, although
    # every view object was replaced twice under them.
    assert ask_everyone()[1] > 0
    assert sum(n.view_rebuilds for n in nodes) == 1
    assert sum(n.view_delta_refreshes for n in nodes) == 2
