"""IDRP's export scope: compiled transit rows answer as the term scan does.

``IDRPNode._export_scope`` scans its own Policy Terms compiled once into
rows evaluated at the flow template (``compile_transit_terms``), cached
against the identity of the ``own_terms`` tuple.  It must equal
:func:`tests.oracles.idrp_export_scope`, the ``matches_except_source``
scan over ``own_terms``, under ``==``, so the spelling of a universal
answer counts too:

* on drawn terms restricted on every axis but the source (UCI, hour
  window, QOS, previous, next and destination AD), for idrp and bgp2
  (``source_scope=False``), with one universal class or two classes;
* around a ``route-leak`` told and withdrawn, on a bare node and mid-run
  on a converging internet: a lie reassigns ``own_terms``, and the rows
  must follow it both ways.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because ``_SetMode`` and ``QOS`` members hash
by identity, whatever the seed, and the term axes and IDRP's shared-ad
table are hashed on them: the answers here must not move with it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.qos import QOS
from repro.policy.sets import ADSet, TimeWindow
from repro.policy.terms import PolicyTerm
from repro.policy.uci import UCI
from repro.protocols.idrp import IDRPNode, _LocEntry
from repro.protocols.registry import make_protocol
from repro.workloads.scenarios import scaled_scenario
from tests.oracles import idrp_export_scope

pytestmark = pytest.mark.hashseed

ADS = 6
ad_ids = st.integers(0, ADS - 1)
ad_sets = st.one_of(
    st.just(ADSet.everyone()),
    st.sets(ad_ids, max_size=3).map(ADSet.of),
    st.sets(ad_ids, max_size=3).map(ADSet.excluding),
)
terms = st.builds(
    PolicyTerm,
    owner=st.just(0),
    sources=ad_sets,
    dests=ad_sets,
    prev_ads=ad_sets,
    next_ads=ad_sets,
    qos_classes=st.none() | st.frozensets(st.sampled_from(list(QOS)), max_size=3),
    ucis=st.none() | st.frozensets(st.sampled_from(list(UCI)), max_size=2),
    window=st.builds(TimeWindow, st.integers(0, 23), st.integers(0, 23)),
)
#: (via, downstream scope, dest, qos, to_nbr, class tag) of one export.
queries = st.lists(
    st.tuples(ad_ids, ad_sets, ad_ids, st.sampled_from(list(QOS)), ad_ids, st.integers(0, 1)),
    min_size=1,
    max_size=12,
)
TWO_CLASSES = (ADSet.of({0, 2, 4}), ADSet.of({1, 3, 5}))


def assert_scopes_are_the_oracle(node: IDRPNode, drawn) -> None:
    for via, allowed, dest, qos, to_nbr, cls in drawn:
        cls %= len(node.class_sets)
        entry = _LocEntry(via, (node.ad_id, via, dest), 1.0, allowed)
        assert node._export_scope(entry, dest, qos, to_nbr, cls) == idrp_export_scope(
            node, entry, dest, qos, to_nbr, cls
        ), (via, allowed, dest, qos, to_nbr, cls)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(terms, max_size=4).map(tuple),
    st.booleans(),
    st.sampled_from([(ADSet.everyone(),), TWO_CLASSES]),
    queries,
)
def test_compiled_rows_answer_as_the_term_scan(own_terms, source_scope, class_sets, drawn):
    node = IDRPNode(
        0, own_terms, tuple(QOS), source_scope=source_scope, class_sets=class_sets
    )
    assert_scopes_are_the_oracle(node, drawn)
    assert node._start_lie("route-leak")  # reassigns own_terms
    assert_scopes_are_the_oracle(node, drawn)
    node._stop_lying()
    assert_scopes_are_the_oracle(node, drawn)
    if any(dest != node.ad_id for _, _, dest, *_ in drawn):  # a scan ran
        assert node._compiled_terms is node.own_terms


#: A transit AD of the 30-AD internet whose leak widens its exports at
#: t = 8 (it exports nothing there while honest).
LIAR = 6


def exports(node: IDRPNode) -> dict:
    """Every scope ``node`` would export now, per (key, neighbour), each
    checked against the oracle."""
    out = {}
    for key, entry in node.loc.items():
        for nbr in node.neighbors():
            scope = node._export_scope(entry, key[0], key[1], nbr, key[2])
            assert scope == idrp_export_scope(node, entry, key[0], key[1], nbr, key[2])
            out[key, nbr] = scope
    return out


def widened(node: IDRPNode) -> int:
    return sum(not scope.is_empty for scope in exports(node).values())


@pytest.mark.parametrize("name", ["idrp", "bgp2"])
def test_rows_follow_a_route_leak_told_and_withdrawn_mid_run(name):
    scenario = scaled_scenario(30, seed=47)
    protocol = make_protocol(name, scenario.graph, scenario.policies)
    network = protocol.build()
    network.start()
    network.run(until=8.0)
    liar = network.node(LIAR)
    for node in network.nodes.values():
        exports(node)
    honest_rows, honest = liar._transit_rows, widened(liar)
    assert protocol.start_misbehavior(LIAR, "route-leak")
    assert widened(liar) > honest  # the forged term is in the rows
    assert len(liar._transit_rows) == len(honest_rows) + 1
    network.run(until=30.0)
    for node in network.nodes.values():
        exports(node)
    protocol.stop_misbehavior(LIAR)
    exports(liar)
    assert liar._transit_rows == honest_rows and liar._compiled_terms is liar.own_terms
    network.run()
    for node in network.nodes.values():
        exports(node)
