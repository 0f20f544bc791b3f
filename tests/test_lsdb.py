"""Views and SPF trees brought up to date from two LSDB snapshots.

:mod:`repro.protocols.lsdb` turns LSDB content into a believed view.  A
generation's view is forked from the asking node's previous one by
diffing the two snapshots per origin, and an SPF tree is repaired from
the same diff against the snapshot it was built on: no node keeps a
history of its installs.  This file pins:

* the diff: for random LSDB pairs, :func:`~repro.protocols.lsdb.changed_links`
  names every link whose believed state differs between the two cold
  builds (the oracle), in sorted order, and equal LSAs that are
  different objects are no change;
* the storm: a node queried after more than 4 096 installs since its
  last query still derives its view and repairs its tree, and answers
  what Dijkstra answers;
* the layering: the derivation lives in ``lsdb.py`` only, and
  ``lsdb.py`` imports ``flooding.py`` for type checking only.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because the origins and links a view
derivation or an SPF repair reads off two LSDB snapshots
(``changed_origins``, ``changed_links``) must come from sorted LSDB
content, never from dict or set order: the keys of a snapshot diff are a
set of link tuples.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.ad import Level
from repro.policy.qos import QOS
from repro.protocols import lsdb
from repro.protocols.flooding import LinkRecord, LinkStateAd, LSNode
from repro.protocols.lsdb import changed_links, changed_origins, cold_view
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import scaled_scenario

from .oracles import spf_next_hops

pytestmark = pytest.mark.hashseed

ORIGINS = [0, 1, 2, 3, 4]
METRICS = [1.0, 2.0, 8.0]

records = st.builds(
    LinkRecord,
    neighbor=st.sampled_from(ORIGINS),
    delay=st.sampled_from(METRICS),
    cost=st.sampled_from(METRICS),
    up=st.booleans(),
    bandwidth=st.sampled_from(METRICS),
)


@st.composite
def lsas(draw, origin):
    return LinkStateAd(
        origin=origin,
        seq=draw(st.integers(min_value=1, max_value=3)),
        links=tuple(r for r in draw(st.lists(records, max_size=4)) if r.neighbor != origin),
        origin_level=draw(st.sampled_from([Level.CAMPUS, Level.REGIONAL])),
    )


@st.composite
def lsdb_pairs(draw):
    """``(old, new)``: each origin absent, kept (the same object), rebuilt
    equal (a different object) or redrawn in ``new``."""
    old = {o: draw(lsas(o)) for o in draw(st.sets(st.sampled_from(ORIGINS)))}
    new = {}
    for origin in ORIGINS:
        fate = draw(st.sampled_from(["absent", "kept", "equal", "redrawn"]))
        if origin in old and fate == "kept":
            new[origin] = old[origin]
        elif origin in old and fate == "equal":
            new[origin] = replace(old[origin])
        elif fate != "absent":
            new[origin] = draw(lsas(origin))
    return old, new


def believed_links(lsdb_):
    """Link key -> (up, metrics) of the cold build: what a search can read."""
    graph, _ = cold_view(lsdb_)
    return {ln.key: (ln.up, dict(ln.metrics)) for ln in graph.links()}


@settings(max_examples=300, deadline=None)
@given(lsdb_pairs())
def test_changed_links_covers_every_link_the_cold_builds_disagree_on(pair):
    old, new = pair
    before, after = believed_links(old), believed_links(new)
    differ = {key for key in before.keys() | after.keys() if before.get(key) != after.get(key)}
    keys = changed_links(old, new)
    assert differ <= set(keys)
    assert keys == sorted(set(keys))
    changed = changed_origins(old, new)
    assert list(changed) == sorted(changed)
    for origin in old.keys() | new.keys():
        if old.get(origin) == new.get(origin):
            assert origin not in changed  # an equal LSA decoded apart is no change
        else:
            assert changed[origin] is old.get(origin)


def test_a_storm_of_installs_derives_the_view_and_repairs_the_tree():
    scenario = scaled_scenario(40, seed=3, num_flows=4)
    protocol = make_protocol("plain-ls", scenario.graph, scenario.policies)
    protocol.converge()
    node = protocol.network.nodes[min(protocol.network.nodes)]
    qos = QOS.DEFAULT
    dests = [d for d in sorted(protocol.network.nodes) if d != node.ad_id]

    def first_hops():
        return {d: node.next_hop_to(d, qos) for d in dests}

    hops = first_hops()
    state = node._spf_states[qos.metric][1]
    counts = (node.view_rebuilds, node.view_delta_refreshes, state.full_recomputes, state.repairs)
    # Flap the neighbour's half of a tree link, ending down: only the
    # neighbour's LSA differs, yet more installs than the old log held.
    nbr = next(hop for hop in hops.values() if hop is not None)
    lsa = node.lsdb[nbr]
    version = node.db_version
    for i in range(4_101):
        links = tuple(
            replace(rec, up=i % 2 == 1) if rec.neighbor == node.ad_id else rec
            for rec in lsa.links
        )
        assert node._install(replace(lsa, seq=lsa.seq + 1 + i, links=links))
    assert node.db_version - version > 4_096
    graph, _ = cold_view(node.lsdb)
    assert not graph.link(node.ad_id, nbr).up
    oracle = spf_next_hops(graph, node.ad_id, qos.metric)
    assert first_hops() == {d: oracle.get(d) for d in dests}
    snapshot, synced = node._spf_states[qos.metric]
    assert synced is state and snapshot is node._generation.lsdb
    assert (node.view_rebuilds, node.view_delta_refreshes) == (counts[0], counts[1] + 1)
    assert state.full_recomputes == counts[2] and state.repairs > counts[3]


def test_only_lsdb_py_turns_content_into_a_view():
    classes, todo = [], [LSNode]
    while todo:
        classes.append(todo.pop())
        todo.extend(classes[-1].__subclasses__())
    assert len(classes) > 4  # plain-ls, ls-hbh, orwg and the variants
    for cls in classes:
        for name in ("_rebuild_view", "_derive_view", "_reconcile_edge", "_incident_keys",
                     "_believed_ad", "view_edge_changes"):
            assert not hasattr(cls, name), (cls.__name__, name)
    tree = ast.parse(inspect.getsource(lsdb))
    guarded = {
        id(node)
        for block in tree.body
        if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "repro.protocols.flooding"
    ]
    assert imports and all(id(node) in guarded for node in imports)
    assert not any(
        isinstance(node, ast.Import) and any("flooding" in a.name for a in node.names)
        for node in ast.walk(tree)
    )
