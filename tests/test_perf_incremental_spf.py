"""Equivalence of incremental SPF repair with the full-Dijkstra oracle.

:class:`~repro.protocols.spf.IncrementalSPFState` must produce exactly
the first-hop table :func:`~repro.protocols.spf.spf_next_hops` computes,
including tie-breaks, after *any* sequence of edge deltas -- link
deletions and metric increases (the classically buggy cases) included.
The suite drives random graphs through random delta batches and checks
the repaired state against both the oracle function and a from-scratch
state (which also pins the canonical dist/parent labelling itself).

The state pins no graph: each batch is applied to a *fork* of the previous
graph in which changed links are replaced, never written to (how believed
views succeed each other), and ``apply(keys, graph)`` is handed the new
object together with keys that did not change at all.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.ad import AD, ADKind, InterADLink, Level, LinkKind
from repro.adgraph.graph import InterADGraph
from repro.protocols.spf import IncrementalSPFState, spf_next_hops

ROOT = 0

#: Weight pool chosen so different paths frequently collide exactly
#: (1.0 + 2.0 == 3.0 etc.), exercising every tie-break path.  0.0 is the
#: out-of-proof value that must trigger the full-recompute fallback.
WEIGHTS = [1.0, 2.0, 2.5, 3.0, 4.0]
WEIGHTS_WITH_ZERO = WEIGHTS + [0.0]


def build_graph(n, edges):
    graph = InterADGraph()
    for ad_id in range(n):
        graph.add_ad(AD(ad_id, f"ad{ad_id}", Level.CAMPUS, ADKind.HYBRID))
    for (a, b), w in edges.items():
        graph.add_link(
            InterADLink(a, b, LinkKind.HIERARCHICAL, {"delay": w})
        )
    return graph


def apply_op(graph, op):
    """Replace one link of a forked graph; returns the changed link key."""
    kind, a, b, w = op
    link = graph.link_if_exists(a, b)
    if link is not None:
        graph.remove_link(a, b)
    if kind == "set":  # add, revive, or re-weight
        graph.add_link(InterADLink(a, b, LinkKind.HIERARCHICAL, {"delay": w}))
    elif kind == "down" and link is not None:
        graph.add_link(
            InterADLink(a, b, LinkKind.HIERARCHICAL, dict(link.metrics), up=False)
        )
    return (a, b) if a < b else (b, a)


def apply_batch(state, graph, batch, extra_keys=()):
    """The successor graph of ``graph`` under ``batch``, ``state`` synced to it."""
    successor = graph.fork()
    keys = [apply_op(successor, op) for op in batch]
    state.apply(keys + list(extra_keys), successor)
    return successor


def assert_first_hops_match(state, graph):
    oracle_first = spf_next_hops(graph, ROOT, "delay")
    assert state.first_hops() == oracle_first
    # The on-demand walk answers like the table, root and unreachable included.
    for dest in graph.ad_ids():
        assert state.first_hop(dest) == oracle_first.get(dest)


def assert_state_matches(state, graph):
    assert_first_hops_match(state, graph)
    fresh = IncrementalSPFState(graph, ROOT, "delay")
    assert state.dist == fresh.dist
    assert state.parent == fresh.parent


@st.composite
def graph_and_batches(draw, weights=WEIGHTS):
    n = draw(st.integers(min_value=3, max_value=9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    weight = st.sampled_from(weights)
    edges = draw(
        st.dictionaries(st.sampled_from(pairs), weight, max_size=len(pairs))
    )
    op = st.tuples(
        st.sampled_from(["set", "set", "down", "remove"]),  # bias toward set
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
        weight,
    ).filter(lambda t: t[1] != t[2])
    # Each batch: the ops, and link keys reported with them that no op touched.
    batch = st.tuples(
        st.lists(op, max_size=4), st.lists(st.sampled_from(pairs), max_size=3)
    )
    batches = draw(st.lists(batch, max_size=6))
    return n, edges, batches


@settings(max_examples=200, deadline=None)
@given(graph_and_batches())
def test_incremental_matches_oracle_over_random_deltas(data):
    n, edges, batches = data
    graph = build_graph(n, edges)
    state = IncrementalSPFState(graph, ROOT, "delay")
    assert_state_matches(state, graph)
    for batch, over_reported in batches:
        graph = apply_batch(state, graph, batch, over_reported)
        assert_state_matches(state, graph)


@settings(max_examples=100, deadline=None)
@given(graph_and_batches(weights=WEIGHTS_WITH_ZERO))
def test_zero_weight_edges_fall_back_but_stay_exact(data):
    n, edges, batches = data
    graph = build_graph(n, edges)
    state = IncrementalSPFState(graph, ROOT, "delay")
    for batch, over_reported in batches:
        graph = apply_batch(state, graph, batch, over_reported)
        assert_first_hops_match(state, graph)


def line_graph(weights):
    graph = InterADGraph()
    for ad_id in range(len(weights) + 1):
        graph.add_ad(AD(ad_id, f"ad{ad_id}", Level.CAMPUS, ADKind.HYBRID))
    for i, w in enumerate(weights):
        graph.add_link(InterADLink(i, i + 1, LinkKind.HIERARCHICAL, {"delay": w}))
    return graph


def test_tree_edge_removal_disconnects_subtree():
    graph = line_graph([1.0, 1.0, 1.0])
    state = IncrementalSPFState(graph, ROOT, "delay")
    graph.remove_link(1, 2)
    state.apply([(1, 2)], graph)
    assert state.first_hops() == spf_next_hops(graph, ROOT, "delay") == {1: 1}


def test_reconnect_after_partition():
    graph = line_graph([1.0, 1.0, 1.0])
    link = graph.link(1, 2)
    link.up = False
    state = IncrementalSPFState(graph, ROOT, "delay")
    assert state.first_hops() == {1: 1}
    link.up = True
    state.apply([(1, 2)], graph)
    assert state.first_hops() == spf_next_hops(graph, ROOT, "delay")
    assert state.repairs == 1  # took the repair path, not the fallback


def test_metric_increase_on_tree_edge_reroutes():
    # Two routes 0->3: via 1 (cost 2) and via 2 (cost 3); worsening the
    # 0-1 edge must shift traffic to the 2 side.
    graph = build_graph(
        4,
        {(0, 1): 1.0, (1, 3): 1.0, (0, 2): 1.5, (2, 3): 1.5},
    )
    state = IncrementalSPFState(graph, ROOT, "delay")
    assert state.first_hops()[3] == 1
    graph.link(0, 1).metrics["delay"] = 4.0
    state.apply([(0, 1)], graph)
    assert state.first_hops() == spf_next_hops(graph, ROOT, "delay")
    assert state.first_hops()[3] == 2


def test_equal_cost_tie_breaks_track_the_oracle():
    # Both 0-1-3 and 0-2-3 cost 2.0; the oracle's deterministic
    # tie-break must survive adding and removing the tie.
    graph = build_graph(4, {(0, 1): 1.0, (1, 3): 1.0})
    state = IncrementalSPFState(graph, ROOT, "delay")
    for op in [
        ("set", 0, 2, 1.0),
        ("set", 2, 3, 1.0),
        ("remove", 1, 3, 1.0),
        ("set", 1, 3, 1.0),
    ]:
        graph = apply_batch(state, graph, [op])
        assert_state_matches(state, graph)


def test_large_batches_take_the_fallback_and_stay_exact():
    graph = build_graph(6, {(a, b): 1.0 for a in range(6) for b in range(a + 1, 6)})
    state = IncrementalSPFState(graph, ROOT, "delay")
    before = state.full_recomputes
    keys = []
    for a in range(6):
        for b in range(a + 1, 6):
            graph.link(a, b).metrics["delay"] = 2.0
            keys.append((a, b))
    state.apply(keys, graph)
    assert state.full_recomputes == before + 1  # heuristic chose Dijkstra
    assert_state_matches(state, graph)


def test_over_reported_keys_alone_are_a_no_op():
    graph = build_graph(4, {(0, 1): 1.0, (1, 3): 1.0, (0, 2): 1.5, (2, 3): 1.5})
    state = IncrementalSPFState(graph, ROOT, "delay")
    dist, parent = dict(state.dist), dict(state.parent)
    # Every key, one twice, one naming no link -- on a different graph object.
    state.apply([(0, 1), (1, 3), (0, 2), (2, 3), (0, 1), (1, 2)], graph.fork())
    assert (state.dist, state.parent) == (dist, parent)
    assert (state.repairs, state.full_recomputes) == (0, 1)
