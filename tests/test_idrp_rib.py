"""IDRP's compact RIBs: one Adj-RIB-In per peer, one shared ad per scope.

``IDRPNode.rib_in`` maps each peer, in ascending id order, to its table
of the latest usable ad per key; an advertiser builds one ``RouteAd`` per
(key, scope) in a flush and every neighbour given that scope holds the
same object.  Records must not move (the parent-record corpus and the
tables pin that); this file pins the layout itself:

* the decision process against :func:`tests.oracles.idrp_selection` on
  drawn graphs, policies and link flaps, and its full tie pinned: the
  lowest peer id wins, whatever the arrival order;
* pending keys sort natively (``QOS`` orders by value) in the order the
  old ``(dest, qos.value, cls)`` sort key gave;
* a link-down reselects the lost keys in first-seen order, withdrawals
  included (``_damp_loss`` arms reuse timers in that order);
* on a 50-AD churn run, retained ads are as many objects as values, and
  neither ``RouteAd`` nor ``_LocEntry`` carries a ``__dict__``.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because IDRP's per-peer Adj-RIB-Ins must be
walked in sorted peer-id order and a link-down's lost keys reselected in
first-seen order, never in hash order: damping arms its reuse timers in
that order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.database import PolicyDatabase
from repro.policy.qos import QOS
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.protocols.idrp import (
    BGP2Protocol,
    IDRPNode,
    IDRPProtocol,
    IDRPUpdate,
    RouteAd,
    _LocEntry,
)
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import scaled_scenario
from tests.helpers import line_graph, mk_graph
from tests.oracles import idrp_selection

pytestmark = pytest.mark.hashseed


def assert_loc_is_the_oracle(protocol) -> None:
    for ad_id in protocol.graph.ad_ids():
        node = protocol.network.node(ad_id)
        assert list(node.rib_in) == sorted(node.rib_in)
        keys = set(node.loc).union(*node.rib_in.values())
        for key in keys:
            if key[0] != ad_id:
                assert node.loc.get(key) == idrp_selection(node, key), (ad_id, key)


@st.composite
def flapped_internets(draw):
    """3-8 ADs, a random link set with source-scoped terms, and flaps."""
    n = draw(st.integers(3, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=2))
    graph = mk_graph([(i, draw(st.sampled_from(["Rt", "Cs"]))) for i in range(n)], edges)
    db = PolicyDatabase()
    for ad in graph.transit_ads():
        for _ in range(draw(st.integers(1, 2))):
            sources = draw(st.one_of(
                st.just(ADSet.everyone()),
                st.sets(st.integers(0, n - 1)).map(ADSet.of),
                st.sets(st.integers(0, n - 1)).map(ADSet.excluding),
            ))
            db.add_term(PolicyTerm(owner=ad.ad_id, sources=sources))
    flaps = draw(st.lists(st.sampled_from(edges), max_size=6))
    kind = draw(st.sampled_from(["idrp", "bgp2", "idrp/2"]))
    return graph, db, flaps, kind


@settings(max_examples=120, deadline=None)
@given(flapped_internets())
def test_every_loc_entry_is_the_oracle_through_link_flaps(drawn):
    graph, db, flaps, kind = drawn
    if kind == "bgp2":
        protocol = BGP2Protocol(graph, db)
    else:
        protocol = IDRPProtocol(graph, db, route_classes=2 if kind == "idrp/2" else 1)
    protocol.converge()
    assert_loc_is_the_oracle(protocol)
    for a, b in flaps:
        link = graph.link(a, b)
        protocol.network.set_link_status(a, b, up=not link.up)
        protocol.network.run()
        assert_loc_is_the_oracle(protocol)


def test_a_full_tie_goes_to_the_lowest_peer_id():
    # The IDRP tie-break site: peers 2 and 0 of AD 1 offer the same path,
    # metric and scope for destination 9 (over equal links), 2 first.
    # Arrival order must not decide: the lower peer id wins, and keeps
    # winning against an equal ad that is a distinct object.
    graph = line_graph(3)
    protocol = IDRPProtocol(graph, PolicyDatabase())
    protocol.converge()
    node = protocol.network.node(1)
    key = (9, QOS.DEFAULT, 0)
    ad = RouteAd(9, QOS.DEFAULT, (5, 9), 2.0, ADSet.of({0, 1, 2}))
    node.on_message(2, IDRPUpdate((ad,)))
    assert node.loc[key].via == 2
    node.on_message(0, IDRPUpdate((ad,)))
    assert node.loc[key] == _LocEntry(0, (1, 5, 9), 3.0, ad.allowed)
    twin = RouteAd(9, QOS.DEFAULT, (5, 9), 2.0, ADSet.of({0, 1, 2}))
    node.on_message(2, IDRPUpdate((twin,)))
    assert node.loc[key].via == 0
    assert node.loc[key] == idrp_selection(node, key)
    node.on_message(0, IDRPUpdate((RouteAd(9, QOS.DEFAULT, (), 0.0, ADSet.none()),)))
    assert node.loc[key].via == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(list(QOS)), st.integers(0, 2))))
def test_routing_keys_sort_natively_in_the_flush_order(keys):
    # A flush announces its pending keys sorted: natively, with ``QOS``
    # ordered by value, as ``(dest, qos.value, cls)`` ordered them.
    assert sorted(keys) == sorted(keys, key=lambda k: (k[0], k[1].value, k[2]))
    ecma_keys = [k[:2] for k in keys]
    assert sorted(ecma_keys) == sorted(ecma_keys, key=lambda k: (k[0], k[1].value))


def test_link_down_reselects_lost_keys_in_first_seen_order(monkeypatch):
    # AD 1 hears from peers 0 and 2.  After convergence (keys 0 and 2)
    # keys are first seen in the order 7 (a withdrawal from peer 2), 5,
    # 6, 4; peer 0 then advertises 4, 6 and 7, so its link-down loses
    # {0, 4, 6, 7} -- reselected as 0, 7, 6, 4.
    graph = line_graph(3)
    protocol = IDRPProtocol(graph, PolicyDatabase())
    protocol.converge()
    node = protocol.network.node(1)

    def ad(dest, path):
        return RouteAd(dest, QOS.DEFAULT, path, 1.0, ADSet.everyone())

    node.on_message(2, IDRPUpdate((ad(7, ()),)))
    node.on_message(2, IDRPUpdate((ad(5, (2, 5)), ad(6, (2, 6)))))
    node.on_message(0, IDRPUpdate((ad(4, (0, 4)), ad(6, (0, 6)), ad(7, (0, 7)))))
    reselected = []
    reselect = IDRPNode._reselect

    def recording(self, key):
        if self is node:
            reselected.append(key[0])
        return reselect(self, key)

    monkeypatch.setattr(IDRPNode, "_reselect", recording)
    protocol.network.set_link_status(0, 1, up=False)
    assert reselected == [0, 7, 6, 4]
    assert list(node.rib_in) == [2]
    assert [key[0] for key in node.rib_in[2]] == [2, 5, 6]


def test_retained_ads_are_shared_and_slotted():
    # Convergence and six link flaps on a 50-AD internet, as in
    # test_idrp_control_path.py: every equal ad held anywhere is one object.
    scenario = scaled_scenario(50, seed=47)
    protocol = make_protocol("idrp", scenario.graph, scenario.policies)
    network = protocol.build()
    network.start()
    network.run()
    links = sorted(link.key for link in scenario.graph.links())
    for a, b in links[:: len(links) // 6][:6]:
        for up in (False, True):
            protocol.apply_link_status(a, b, up)
            network.run()
    entries, retained = 0, {}
    for ad_id in scenario.graph.ad_ids():
        node = network.node(ad_id)
        for table in node.rib_in.values():
            for key, ad in table.items():
                assert key is node._first_seen[key]  # one key tuple per node
                entries += 1
                retained[id(ad)] = ad
    assert len(retained) == len(set(retained.values()))
    assert entries > 3 * len(retained)  # the sharing is real
    entry = next(iter(network.node(0).loc.values()))
    assert isinstance(entry, _LocEntry)
    for value in (next(iter(retained.values())), entry):
        assert not hasattr(value, "__dict__")
