"""One route memo per believed content, kept across generations.

A link that heals, or an AD that restarts without its state, re-floods
under new sequence numbers: the LSDB returns to a content it held before,
but as a *new* generation.  The pool under
:class:`~repro.protocols.flooding.LSNode` keys route memos by the content
with ``seq`` left out -- each origin's ``(links, terms, origin_level)`` --
and keeps the last :data:`~repro.protocols.lsdb.ROUTE_MEMOS` of them,
so such a generation adopts the routes it heals back to.  This file pins:

* reuse: a flap that heals and a state-losing crash that restarts adopt
  the earlier memo, search nothing again, and agree with a fresh search;
* the key: every field a view is built from tells contents apart, and a
  liar's LSA adopts only when its whole body equals an honest one's;
* exactness on random small internets whose flaps revisit states: every
  route of every retained memo is a fresh search on a cold-built view of
  that content;
* the bound: at most ``ROUTE_MEMOS`` memos, the least recently shared
  dropped first, and none at all where no route is asked (plain-ls).

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because which route memo a generation adopts
(the memo key hashes LSA terms and links) must follow from seq-free LSDB
content and the order routes are asked in, never from hash order, and
the least recently shared memo is the one dropped.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.adgraph.ad import Level
from repro.core.synthesis import synthesize_route
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.terms import PolicyTerm
from repro.protocols import lsdb
from repro.protocols.flooding import LinkRecord, LinkStateAd
from repro.protocols.lsdb import ROUTE_MEMOS, LSDBGenerations
from repro.protocols.registry import make_protocol

from .test_lsdb_generations import compute_function, reference, storm, unshared_route
from .test_route_carry_over import (
    ask,
    asker,
    fresh,
    random_internet,
    reinstall,
    relink,
    used_link,
)

pytestmark = pytest.mark.hashseed


def content(generation):
    """``generation``'s LSDB with sequence numbers left out."""
    return {
        origin: (lsa.links, lsa.terms, lsa.origin_level)
        for origin, lsa in generation.lsdb.items()
    }


def running(protocol):
    return [node for node in protocol.network.nodes.values() if not node._defunct]


def ask_all(protocol, flows):
    """Every running node asks every flow; the generations they end up at."""
    return {ask(node, flows) for node in running(protocol)}


def adoptions(monkeypatch):
    """Record, per memo lookup, whether the generation adopted a memo."""
    adopted = []
    share = LSDBGenerations.share_memo

    def counted(pool, generation):
        held = [routes for routes, _ in pool._memos.values()]
        share(pool, generation)
        adopted.append(any(generation.routes is routes for routes in held))

    monkeypatch.setattr(LSDBGenerations, "share_memo", counted)
    return adopted


def check_every_route(protocol, flows, per_node=True):
    """Each node's route (``per_node``) and each live memo's is a fresh search."""
    order = getattr(protocol, "order", None)
    for node in running(protocol) if per_node else ():
        for flow in flows:
            assert node.flow_route(flow) == unshared_route(node, flow)
    for generation in protocol.generations.live():
        for key, path in generation.routes.items():
            assert path == fresh(generation, key, order), key


# ----------------------------------------------------------------- reuse


def flap(protocol):
    """A regional AD's first link goes down; returns how to bring it back."""
    graph = protocol.graph
    regional = min(a.ad_id for a in graph.ads() if a.level is Level.REGIONAL)
    link = next(iter(graph.links_of(regional)))
    protocol.apply_link_status(link.a, link.b, False)
    return lambda: protocol.apply_link_status(link.a, link.b, True)


def crash(protocol):
    """A regional AD dies with its state; returns how to restart it."""
    graph = protocol.graph
    regional = max(a.ad_id for a in graph.ads() if a.level is Level.REGIONAL)
    protocol.crash_node(regional, retain_state=False)
    return lambda: protocol.restore_node(regional)


@pytest.mark.parametrize("name", ("ls-hbh", "ls-hbh-topo"))
@pytest.mark.parametrize("disrupt", (flap, crash))
def test_a_healed_content_adopts_its_memo_and_searches_nothing_again(
    name, disrupt, monkeypatch
):
    scenario, protocol = reference(name)
    network, flows = protocol.network, scenario.flows[:12]
    (before,) = ask_all(protocol, flows)
    memo, seqs = before.routes, {o: lsa.seq for o, lsa in before.lsdb.items()}
    heal = disrupt(protocol)
    network.run()
    # (A crash also strands the campus ADs homed on the dead regional.)
    assert all(content(g) != content(before) for g in ask_all(protocol, flows))
    heal()
    network.run()
    calls = compute_function(monkeypatch, name)
    (healed,) = ask_all(protocol, flows)
    # A new generation (the flood moved sequence numbers on) at the old
    # content: it adopted the old memo and searched nothing.
    assert healed is not before and before.holders == 0
    assert {o: lsa.seq for o, lsa in healed.lsdb.items()} != seqs
    assert content(healed) == content(before)
    assert healed.routes is memo and len(calls) == 0
    check_every_route(protocol, flows)
    # Flows never asked before are searched once, into the shared memo.
    more = scenario.flows[12:16]
    new = {route_key(name, f) for f in more} - set(memo)
    del calls[:]  # the oracle above runs the same search
    ask_all(protocol, more)
    assert len(calls) == len(new) > 0
    check_every_route(protocol, more)


def route_key(name, flow):
    """The key ``name``'s nodes memoise ``flow``'s route under."""
    if name == "ls-hbh":
        return flow
    return (flow.src, flow.dst, (QOS.DEFAULT if flow.qos.is_bottleneck else flow.qos).metric)


def test_a_storm_asked_mid_flood_overflows_the_bound_and_stays_exact(monkeypatch):
    # Asked every 12 time units, the storm shows the pool over a hundred
    # contents: memos are evicted while generations at them still live.
    scenario, protocol = reference("ls-hbh", graceful="all")
    network, flows = protocol.network, scenario.flows[:8]
    adopted, seen = adoptions(monkeypatch), set()
    start = network.clock.now
    horizon = storm(protocol)
    while network.clock.now < start + horizon:
        network.run(until=network.clock.now + 12.0)
        ask_all(protocol, flows)
        check_every_route(protocol, flows, per_node=False)
        assert len(protocol.generations._memos) <= ROUTE_MEMOS
        check_every_memo(protocol.generations, seen)
    assert len(adopted) > 5 * ROUTE_MEMOS and any(adopted)


# --------------------------------------------------------------- the key


def unused_neighbor(node, origin):
    named = {rec.neighbor for rec in node.lsdb[origin].links}
    return min(o for o in node.lsdb if o != origin and o not in named)


CHANGES = {
    "neighbor": lambda node, a, b: reinstall(node, a, links=tuple(
        replace(rec, neighbor=unused_neighbor(node, a)) if rec.neighbor == b else rec
        for rec in node.lsdb[a].links
    )),
    "delay": lambda node, a, b: relink(node, a, b, delay=99.0),
    "cost": lambda node, a, b: relink(node, a, b, cost=99.0),
    "up": lambda node, a, b: relink(node, a, b, up=False),
    "bandwidth": lambda node, a, b: relink(node, a, b, bandwidth=0.5),
    "term": lambda node, a, b: reinstall(
        node, a, terms=node.lsdb[a].terms[:-1] + (replace(node.lsdb[a].terms[-1], charge=7.0),)
    ),
    "origin_level": lambda node, a, b: reinstall(node, a, origin_level=Level.BACKBONE),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_every_field_a_view_is_built_from_tells_contents_apart(change):
    _, node, flows = asker()
    a, b = used_link(node, flows)
    if change == "term":
        a = min(o for o, lsa in node.lsdb.items() if lsa.terms)
    base = node._generation
    original = node.lsdb[a]
    CHANGES[change](node, a, b)
    changed = ask(node, flows)
    assert changed.routes is not base.routes
    assert all(changed.routes[f] == fresh(changed, f) for f in flows)
    # Changing it back (under a newer seq still) is the old content again.
    reinstall(node, a, links=original.links, terms=original.terms,
              origin_level=original.origin_level)
    back = ask(node, flows)
    assert back is not base and back.routes is base.routes
    assert all(back.routes[f] == fresh(back, f) for f in flows)


def test_a_new_seq_alone_adopts():
    _, node, flows = asker()
    base = node._generation
    reinstall(node, min(node.lsdb))
    generation = ask(node, flows)
    assert generation is not base and generation.routes is base.routes
    assert generation.uncarried is base.uncarried


def test_only_full_body_equality_adopts_in_the_pool():
    pool = LSDBGenerations()
    honest = LinkStateAd(origin=1, seq=7, links=(LinkRecord(2, 1.0, 1.0, True),))
    other = LinkStateAd(origin=2, seq=4, links=(LinkRecord(1, 1.0, 1.0, True),))
    first = pool.acquire({1: honest, 2: other})
    pool.share_memo(first)
    # A replay of the same body under an inflated seq, as a new object.
    replay = replace(honest, seq=1_007, links=(LinkRecord(2, 1.0, 1.0, True),))
    # Same (origin, seq) as the honest LSA, a different body.
    forged = replace(honest, links=(LinkRecord(3, 1.0, 1.0, True),))
    stripped = replace(honest, seq=1_007, links=())
    for lsa, adopts in ((replay, True), (forged, False), (stripped, False)):
        generation = pool.acquire({1: lsa, 2: other})
        assert generation is not first
        pool.share_memo(generation)
        assert (generation.routes is first.routes) is adopts
        assert (generation.uncarried is first.uncarried) is adopts


@pytest.mark.parametrize("lie", ["stale-replay", "bogus-origin"])
def test_a_liars_content_adopts_only_an_equal_body(lie):
    scenario, protocol = reference("ls-hbh")
    network, graph = protocol.network, protocol.graph
    liar = max(a.ad_id for a in graph.ads() if a.level is Level.REGIONAL)
    victim = min(a.ad_id for a in graph.ads() if a.level is Level.CAMPUS)
    flows = scenario.flows[:12]
    (honest,) = ask_all(protocol, flows)
    assert protocol.start_misbehavior(liar, lie, victim)
    network.run(until=network.clock.now + 55.0)  # before the lie re-asserts
    generations = ask_all(protocol, flows)
    check_every_route(protocol, flows)
    # Generations share a memo exactly when their bodies are equal.
    for g in generations | {honest}:
        for h in generations:
            assert (g.routes is h.routes) == (content(g) == content(h)), lie
    assert any(content(g) != content(honest) for g in generations)


# ------------------------------------------------------- random internets


def cold_view(lsdb_content):
    """The view an LSDB of ``lsdb_content`` builds from scratch."""
    return lsdb.cold_view({
        origin: LinkStateAd(
            origin=origin, seq=1, links=links, terms=terms, origin_level=level
        )
        for origin, links, terms, level in lsdb_content
    })


def check_every_memo(pool, seen):
    """Every route the pool retains is a fresh search on a cold-built view.

    ``seen`` holds the ``(content, flow)`` pairs checked by earlier calls.
    """
    checked = 0
    for lsdb_content, (routes, _) in pool._memos.items():
        todo = [flow for flow in routes if (lsdb_content, flow) not in seen]
        if todo:
            view = cold_view(lsdb_content)
        for flow in todo:
            assert routes[flow] == unshared_search(view, flow), flow
            seen.add((lsdb_content, flow))
            checked += 1
    return checked


def unshared_search(view, flow):
    graph, policies = view
    if flow.src not in graph or flow.dst not in graph:
        return None
    route = synthesize_route(graph, policies, flow)
    return None if route is None else route.path


def test_every_retained_memo_is_a_fresh_search_on_random_internets(monkeypatch):
    rng = random.Random(32)
    adopted, seen = adoptions(monkeypatch), set()
    for _ in range(25):
        graph = random_internet(rng)
        policies = PolicyDatabase()
        for ad_id in graph.ad_ids():
            policies.add_term(PolicyTerm(owner=ad_id, charge=rng.choice((0.0, 1.0))))
        protocol = make_protocol("ls-hbh", graph, policies)
        protocol.converge()
        ads = graph.ad_ids()
        flows = [FlowSpec(*rng.sample(ads, 2)) for _ in range(6)]
        # Two links flap at random, so the internet keeps revisiting states.
        flappers = rng.sample([ln.key for ln in graph.links()], 2)
        state = dict.fromkeys(flappers, True)
        for _ in range(8):
            key = rng.choice(flappers)
            state[key] = not state[key]
            protocol.apply_link_status(*key, state[key])
            protocol.network.run()
            ask_all(protocol, flows)
            assert len(protocol.generations._memos) <= ROUTE_MEMOS
            check_every_memo(protocol.generations, seen)
    checked = len(seen)
    assert checked > 400 and sum(adopted) > 50, (checked, sum(adopted))


# -------------------------------------------------------------- the bound


def test_the_pool_keeps_at_most_route_memos_and_drops_the_least_recently_shared():
    pool = LSDBGenerations()

    def at(delay, seq):
        lsa = LinkStateAd(origin=1, seq=seq, links=(LinkRecord(2, delay, 1.0, True),))
        generation = pool.acquire({1: lsa})
        pool.share_memo(generation)
        assert len(pool._memos) <= ROUTE_MEMOS
        return generation

    def kept():
        return [routes for routes, _ in pool._memos.values()]

    first = [at(float(d), seq=1) for d in range(ROUTE_MEMOS + 4)]
    # Only the last ROUTE_MEMOS contents, in the order they were first seen.
    assert len(kept()) == ROUTE_MEMOS
    assert all(g.routes is r for g, r in zip(first[4:], kept()))
    # A retained content adopts, and moves to the back of the order ...
    again = at(10.0, seq=2)
    assert again.routes is first[10].routes and kept()[-1] is again.routes
    # ... an evicted one starts a memo of its own, evicting the front.
    evicted = at(0.0, seq=2)
    assert evicted.routes is not first[0].routes and kept()[-1] is evicted.routes
    assert not any(r is first[4].routes for r in kept()) and kept()[0] is first[5].routes
    # Seven more contents drop 5..9, 11 and 12, but not 10, shared since.
    for d in range(100, 107):
        at(float(d), seq=1)
    assert any(r is first[10].routes for r in kept())
    assert not any(r is first[11].routes for r in kept())


def test_a_plain_ls_storm_builds_no_key(monkeypatch):
    scenario, protocol = reference("plain-ls", graceful="all")
    network = protocol.network

    def refuse(pool, generation):
        raise AssertionError("plain-ls asked for a route memo")

    monkeypatch.setattr(LSDBGenerations, "share_memo", refuse)
    start = network.clock.now
    horizon = storm(protocol)
    while network.clock.now < start + horizon:
        network.run(until=network.clock.now + 12.0)
        for flow in scenario.flows:
            protocol.find_route(flow)
    network.run()
    assert protocol.generations._memos == {}
    assert protocol.generations.live()
    assert all(g.routes is None for g in protocol.generations.live())
