"""Derived view == cold build.

:class:`~repro.protocols.flooding.LSNode`\\ s sharing one generation pool
are fed identical LSA install sequences and asked for their view at
different times, so a view is sometimes forked from a stale predecessor,
sometimes picked up already published by a peer.  An oracle node fed the
same installs answers with the cold build of its LSDB
(:func:`~repro.protocols.lsdb.cold_view`) every time.
Whenever a node is asked, its believed graph and policy database must be
indistinguishable from the cold build -- same ADs, levels, links, metrics, statuses, and per-owner stamped
terms.  Targeted cases pin when a view must *not* be derived: cross-owner
terms (term forgery) anywhere in the LSDB or in a replaced LSA, and origin
level changes, cold-build rather than derive wrongly.  Derivation reads only
the two snapshots, so no install count forces a cold build
(``tests/test_lsdb.py`` pins a storm of them).

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because which view a generation is forked
from, and the order origins and links are reconciled in, must come from
sorted LSDB content, never from dict or set hash order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.ad import Level
from repro.policy.terms import PolicyTerm
from repro.protocols.flooding import (
    LinkRecord,
    LinkStateAd,
    LSDBGenerations,
    LSNode,
)
from repro.protocols.lsdb import cold_view
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import reference_scenario

pytestmark = pytest.mark.hashseed

NODE_ID = 0
ORIGINS = [0, 1, 2, 3, 4]
METRICS = [1.0, 2.0, 8.0]


def make_nodes(sharing=1):
    """``sharing`` nodes on one pool (just the node if 1), and the oracle.

    The oracle only ever cold-builds, so it never touches its own pool.
    """
    generations = LSDBGenerations()
    nodes = [LSNode(NODE_ID, generations=generations) for _ in range(sharing)]
    oracle = LSNode(NODE_ID, generations=LSDBGenerations())
    return (nodes[0] if sharing == 1 else nodes), oracle


def assert_views_equal(delta, oracle):
    dg, dp = delta.local_view()
    og, op = cold_view(oracle.lsdb)
    assert dg.ad_ids() == og.ad_ids()
    for ad_id in og.ad_ids():
        assert dg.ad(ad_id).level == og.ad(ad_id).level
    d_links = {ln.key: ln for ln in dg.links()}
    o_links = {ln.key: ln for ln in og.links()}
    assert d_links.keys() == o_links.keys()
    for key, o_ln in o_links.items():
        d_ln = d_links[key]
        assert d_ln.metrics == o_ln.metrics, key
        assert d_ln.up == o_ln.up, key
    assert dp.owners() == op.owners()
    for owner in op.owners():
        assert dp.terms_of(owner) == op.terms_of(owner)


@st.composite
def lsa_sequences(draw):
    """Batches of LSA installs over a small origin set.

    Sequence numbers strictly increase per origin so every install
    lands (staleness is the flooding layer's concern, not the view's).
    """
    n_batches = draw(st.integers(min_value=1, max_value=6))
    askers = st.lists(st.integers(min_value=0, max_value=2), max_size=3)
    seqs = dict.fromkeys(ORIGINS, 0)
    record = st.builds(
        LinkRecord,
        neighbor=st.sampled_from(ORIGINS),
        delay=st.sampled_from(METRICS),
        cost=st.sampled_from(METRICS),
        up=st.booleans(),
        bandwidth=st.sampled_from(METRICS),
    )
    batches = []
    for _ in range(n_batches):
        batch = []
        for origin in draw(
            st.lists(st.sampled_from(ORIGINS), min_size=1, max_size=4)
        ):
            seqs[origin] += 1
            links = tuple(
                rec
                for rec in draw(st.lists(record, max_size=4))
                if rec.neighbor != origin
            )
            terms = tuple(
                PolicyTerm(owner=origin, charge=float(c))
                for c in draw(
                    st.lists(st.integers(min_value=0, max_value=3), max_size=3)
                )
            )
            batch.append(
                LinkStateAd(
                    origin=origin, seq=seqs[origin], links=links, terms=terms
                )
            )
        batches.append((batch, draw(askers)))
    return batches


@settings(max_examples=150, deadline=None)
@given(lsa_sequences())
def test_derived_view_matches_cold_build(batches):
    nodes, oracle = make_nodes(sharing=3)
    for batch, askers in batches:
        for lsa in batch:
            for node in (*nodes, oracle):
                node._install(lsa)
        for i in askers:
            assert_views_equal(nodes[i], oracle)
    # Views are derived, not silently cold-built every time: own-owned
    # terms and a constant level leave first demand as the only cold path.
    assert all(node.view_rebuilds <= 1 for node in nodes)
    assert sum(n.view_rebuilds + n.view_delta_refreshes for n in nodes) <= len(batches)


def lsa(origin, seq, neighbors, terms=(), level=Level.CAMPUS):
    return LinkStateAd(
        origin=origin,
        seq=seq,
        links=tuple(LinkRecord(n, 1.0, 1.0, True) for n in neighbors),
        terms=terms,
        origin_level=level,
    )


def test_duplicate_records_first_one_wins():
    delta, oracle = make_nodes()
    weird = LinkStateAd(
        origin=1,
        seq=1,
        links=(LinkRecord(0, 5.0, 5.0, True), LinkRecord(0, 1.0, 1.0, False)),
    )
    for node in (delta, oracle):
        node._install(lsa(0, 1, [1]))
    assert_views_equal(delta, oracle)
    for node in (delta, oracle):
        node._install(weird)
    assert_views_equal(delta, oracle)
    graph, _ = delta.local_view()
    assert graph.link(0, 1).metrics["delay"] == 1.0  # smaller endpoint's rec


def test_cross_owner_term_forces_cold_build():
    delta, oracle = make_nodes()
    own2 = (PolicyTerm(owner=2, charge=1.0),)

    def install(*lsas):
        for node in (delta, oracle):
            for item in lsas:
                node._install(item)

    install(lsa(0, 1, [1]), lsa(1, 1, [0]), lsa(2, 1, [], terms=own2))
    assert_views_equal(delta, oracle)
    forged = (PolicyTerm(owner=2, term_id=9_999),)  # owner != origin
    install(lsa(1, 2, [0], terms=forged))
    assert_views_equal(delta, oracle)
    assert (delta.view_rebuilds, delta.view_delta_refreshes) == (2, 0)
    # A link-only change beside the forgery derives, same database object.
    _, policies = delta.local_view()
    install(lsa(0, 2, []))
    assert_views_equal(delta, oracle)
    assert (delta.view_rebuilds, delta.view_delta_refreshes) == (2, 1)
    assert delta.local_view()[1] is policies
    # The *victim* re-terms while the forgery sits in an unchanged LSA:
    # per-owner replace would drop the forged term from owner 2's list.
    install(lsa(2, 2, [], terms=own2 + own2))
    assert_views_equal(delta, oracle)
    assert len(delta.local_view()[1].terms_of(2)) == 3
    assert (delta.view_rebuilds, delta.view_delta_refreshes) == (3, 1)
    # The forger retracts: the *replaced* LSA carried it, cold again ...
    install(lsa(1, 3, [0]))
    assert_views_equal(delta, oracle)
    assert (delta.view_rebuilds, delta.view_delta_refreshes) == (4, 1)
    # ... and nothing is sticky: honest term changes derive from here on.
    install(lsa(2, 3, [], terms=own2))
    assert_views_equal(delta, oracle)
    assert (delta.view_rebuilds, delta.view_delta_refreshes) == (4, 2)


def test_origin_level_change_forces_cold_build():
    delta, oracle = make_nodes()
    for node in (delta, oracle):
        node._install(lsa(0, 1, [1]))
        node._install(lsa(1, 1, [0], level=Level.CAMPUS))
    assert_views_equal(delta, oracle)
    for node in (delta, oracle):
        node._install(lsa(1, 2, [0], level=Level.REGIONAL))
    rebuilds_before = delta.view_rebuilds
    assert_views_equal(delta, oracle)
    assert delta.view_rebuilds == rebuilds_before + 1
    graph, _ = delta.local_view()
    assert graph.ad(1).level == Level.REGIONAL


def test_a_bandwidth_only_change_reaches_the_derived_view():
    """A ground-truth bandwidth change, re-originated, is derived, not lost.

    ``InterADGraph`` has no metric setter, so only a re-originated LSA
    reaches the derivation's bandwidth comparison; without it the
    derived view keeps the old figure while a cold build reads the new.
    """
    scenario = reference_scenario(seed=5)
    protocol = make_protocol("plain-ls", scenario.graph, scenario.policies)
    protocol.converge()
    network = protocol.network
    link = protocol.graph.links(include_down=False)[0]
    node = network.nodes[next(a for a in protocol.graph.ad_ids() if a not in link.key)]
    before, _ = node.local_view()
    derived = node.view_delta_refreshes
    link.metrics["bandwidth"] *= 3.0
    for end in link.key:
        network.nodes[end].originate()
    network.run()
    graph, _ = node.local_view()
    assert graph is not before and node.view_delta_refreshes > derived
    cold, _ = cold_view(node.lsdb)
    assert {ln.key: ln.metrics for ln in graph.links()} == {
        ln.key: ln.metrics for ln in cold.links()
    }
    assert graph.link(*link.key).metrics == link.metrics
