"""One resumable valley-free search per source answers every destination.

:class:`~repro.protocols.variants.ValleyFreeSearch` keeps one Dijkstra
over ``(AD, gone_down)`` states and resumes it for each destination
asked; ``tests/oracles.py`` keeps the early-exit search per (source,
destination) it replaced.  Up/down legality depends on the source, the
state and the link direction, never on the destination, and a popped
state's parent is frozen, so this file pins:

* exactness: asked in any order, every destination's answer is the
  oracle's, on random small graphs with down links, tied and zero
  metrics, hierarchy and constraint-built orders, ``src == dst`` and
  unreachable destinations;
* the work: a search pops exactly what a fresh search to the farthest
  destination asked pops, and expands each state at most once;
* the lifetime: searches belong to one LSDB generation and die with it;
* the count: ``routes_digest`` on the converged reference searches once
  per source, not once per ordered pair.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because a resumed valley-free search must
answer from the sorted incident tuple and the heap order, never from
dict order.
"""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.ad import Level
from repro.adgraph.partial_order import PartialOrder, order_from_constraints
from repro.harness.chaos import routes_digest
from repro.policy.flows import FlowSpec
from repro.protocols.variants import ValleyFreeSearch

from tests import oracles

from .test_lsdb_generations import reference
from .test_route_carry_over import random_internet

pytestmark = pytest.mark.hashseed

LEVELS = (Level.CAMPUS, Level.REGIONAL, Level.BACKBONE)


class CountingHeapq:
    """Stands in for the oracle module's ``heapq``, counting its pops."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.pops = 0

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def fresh(graph, order, src, dst, metric):
    """The oracle's answer for ``dst`` and the heap pops it took."""
    counting, saved = CountingHeapq(), oracles.heapq
    oracles.heapq = counting
    try:
        path = oracles.valley_free_shortest_path(graph, order, src, dst, metric)
    finally:
        oracles.heapq = saved
    return path, counting.pops


class LinkReads:
    """A graph view that counts ``links_of`` calls: one per expanded state."""

    def __init__(self, graph):
        self.graph, self.reads = graph, 0

    def links_of(self, ad_id, include_down=False):
        self.reads += 1
        return self.graph.links_of(ad_id, include_down)


@st.composite
def cases(draw):
    """A random internet with down links, an order, a metric, a source."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = random_internet(rng, LEVELS)
    for link in graph.links():
        if draw(st.integers(0, 4)) == 0:
            graph.set_link_status(link.a, link.b, up=False)
    ad_ids = graph.ad_ids()
    if draw(st.booleans()):
        order = PartialOrder.from_hierarchy(graph)
    else:
        # Constraints along a hidden ranking are always satisfiable; the
        # ADs left unconstrained tie on rank and break by id.
        ranking = draw(st.permutations(ad_ids))
        pairs = [(a, b) for i, a in enumerate(ranking) for b in ranking[i + 1:]]
        order = order_from_constraints(
            ad_ids, draw(st.lists(st.sampled_from(pairs), max_size=len(ad_ids)))
        )
    metric = draw(st.sampled_from(("delay", "delay", "cost")))
    src = draw(st.sampled_from(ad_ids))
    # Every AD (the source too) and one absent id, in a random order.
    asked = draw(st.permutations(ad_ids + [len(ad_ids)]))
    return graph, order, metric, src, asked


@settings(max_examples=500, deadline=None)
@given(case=cases())
def test_one_search_answers_every_destination_as_a_fresh_search_does(case):
    graph, order, metric, src, asked = case
    view = LinkReads(graph)
    search = ValleyFreeSearch(view, order, src, metric)
    farthest = 0
    for dst in asked:
        expected, pops = fresh(graph, order, src, dst, metric)
        assert search.path_to(dst) == expected, dst
        farthest = max(farthest, pops)
        assert search.pops == farthest, dst
        assert view.reads <= 2 * graph.num_ads
    # The absent id exhausted the heap: every state reached was popped,
    # and each was expanded exactly once.
    assert not search.heap and search.graph is None
    assert view.reads == len(search.parent)
    # An exhausted search still answers, from its frozen parents alone.
    for dst in asked:
        assert search.path_to(dst) == fresh(graph, order, src, dst, metric)[0]


# -------------------------------------------------------------- lifetime


def ask_every_pair(protocol):
    """Each source's own route to every destination, with the oracle's."""
    ads = sorted(protocol.graph.ad_ids())
    for src in ads:
        node = protocol.network.node(src)
        graph, _ = node.local_view()
        for dst in ads:
            got = node.flow_route(FlowSpec(src=src, dst=dst))
            expected = oracles.valley_free_shortest_path(graph, node.order, src, dst)
            assert got == expected, (src, dst)


@pytest.mark.parametrize("name", ("ls-hbh-topo", "ls-src-topo"))
def test_searches_die_with_their_generation(name):
    scenario, protocol = reference(name)
    ask_every_pair(protocol)
    (before,) = protocol.generations.live()
    old = set(before.searches.values())
    # A link on a used route goes down: the next generation inherits the
    # routes that avoid it and searches the rest on its own view.
    src, dst = sorted(protocol.graph.ad_ids())[-2:]
    path = protocol.network.node(src).flow_route(FlowSpec(src=src, dst=dst))
    protocol.apply_link_status(path[-2], path[-1], False)
    protocol.network.run()
    ask_every_pair(protocol)
    assert before.holders == 0
    (after,) = protocol.generations.live()
    assert after is not before and after.searches
    graph, _ = after.view
    for search in after.searches.values():
        assert search not in old
        assert search.graph in (graph, None)


# --------------------------------------------------------------- the count


@pytest.mark.parametrize(
    "name, charged", (("ls-hbh-topo", 14_084), ("ls-src-topo", 3_906))
)
def test_routes_digest_searches_once_per_source(name, charged):
    # Parent: 3 906 searches, one per ordered pair, and 141 500 heap pops.
    scenario, protocol = reference(name)
    assert routes_digest(protocol) == "c8b95722d94ad2a2"
    searches = [
        search
        for generation in protocol.generations.live()
        for search in (generation.searches or {}).values()
    ]
    assert len(searches) <= protocol.graph.num_ads
    assert sum(search.pops for search in searches) <= 5_000
    # The modelled burden is still one SPF per AD per pair it serves.
    computations = protocol.network.metrics.computations
    assert sum(computations.values()) == charged
