"""Running LS nodes answer what the retained reference implementations answer.

The LS family derives each node's believed view per LSA delta and repairs
each SPF tree per edge change; those are the only paths production runs.
The cold build (:func:`~repro.protocols.lsdb.cold_view`)
and full Dijkstra (``spf_next_hops`` in ``tests/oracles.py``) stay as
the references.  Here whole protocols converge, lose a link, restart a node
(with or without its state), regain the link and reconverge; after every
stage every live node's view must be its cold build and every plain-LS
next hop must be the one Dijkstra picks on that view.
"""

from __future__ import annotations

import pytest

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.policy.generators import restricted_policies
from repro.policy.qos import QOS
from repro.protocols.flooding import LSNode
from repro.protocols.lsdb import cold_view
from repro.protocols.registry import make_protocol
from tests.oracles import spf_next_hops

LS_PROTOCOLS = ("plain-ls", "ls-hbh", "orwg", "ls-hbh-topo", "ls-src-topo")


@pytest.fixture(scope="module")
def setting():
    graph = generate_internet(TopologyConfig(seed=42))
    policies = restricted_policies(graph, 0.4, seed=42).policies
    return graph, policies


def stages(protocol, retain_state):
    """Drive ``protocol`` through churn, yielding after each reconvergence."""
    protocol.converge()
    yield "converged"
    link = next(ln for ln in protocol.graph.links() if ln.up)
    protocol.apply_link_status(link.a, link.b, False)
    protocol.converge()
    yield "link down"
    protocol.crash_node(link.a, retain_state=retain_state)
    protocol.converge()
    protocol.restore_node(link.a)
    protocol.converge()
    yield "restarted"
    protocol.apply_link_status(link.a, link.b, True)
    protocol.converge()
    yield "link up"


def live_ls_nodes(protocol):
    nodes = [
        node
        for ad_id, node in sorted(protocol.network.nodes.items())
        if not protocol.is_crashed(ad_id)
    ]
    assert nodes and all(isinstance(node, LSNode) for node in nodes)
    return nodes


def assert_view_is_cold_build(node, stage):
    graph, policies = node.local_view()
    cold_graph, cold_policies = cold_view(node.lsdb)
    where = (stage, node.ad_id)
    assert graph.ad_ids() == cold_graph.ad_ids(), where
    for ad_id in cold_graph.ad_ids():
        assert graph.ad(ad_id).level == cold_graph.ad(ad_id).level, where
    links = {ln.key: (ln.metrics, ln.up) for ln in graph.links()}
    cold = {ln.key: (ln.metrics, ln.up) for ln in cold_graph.links()}
    assert links == cold, where
    assert policies.owners() == cold_policies.owners(), where
    for owner in cold_policies.owners():
        assert policies.terms_of(owner) == cold_policies.terms_of(owner), where


@pytest.mark.parametrize("retain_state", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", LS_PROTOCOLS)
def test_every_node_view_is_its_cold_build(setting, name, retain_state):
    graph, policies = setting
    protocol = make_protocol(name, graph, policies.copy())
    protocol.build()
    for stage in stages(protocol, retain_state):
        for node in live_ls_nodes(protocol):
            assert_view_is_cold_build(node, stage)


@pytest.mark.parametrize("qos", list(QOS), ids=lambda q: q.value)
def test_spf_tables_are_the_dijkstra_reference(setting, qos):
    graph, policies = setting
    protocol = make_protocol("plain-ls", graph, policies.copy())
    protocol.build()
    # The LS baseline has no widest-path mode: bandwidth rides DEFAULT.
    metric = QOS.DEFAULT.metric if qos.is_bottleneck else qos.metric
    for stage in stages(protocol, retain_state=False):
        for node in live_ls_nodes(protocol):
            view, _ = node.local_view()
            reference = spf_next_hops(view, node.ad_id, metric)
            asked = {dest: node.next_hop_to(dest, qos) for dest in graph.ad_ids()}
            expected = {dest: reference.get(dest) for dest in graph.ad_ids()}
            assert asked == expected, (stage, node.ad_id)
            assert any(hop is not None for hop in asked.values()), stage
