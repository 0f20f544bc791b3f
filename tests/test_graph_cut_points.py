"""The in-tree cut-point DFS, component BFS and forest test against networkx.

``InterADGraph.cut_points`` / ``component_count`` / ``is_connected`` /
``is_forest`` replace ``nx.bridges`` / ``nx.articulation_points`` /
``nx.is_connected`` / ``nx.cycle_basis`` on the run path.  Fault plans are
drawn from the candidate lists built on them, so the lists must equal the
networkx forms (``tests/oracles.py``) element for element, in order, on
every graph: random small graphs with down links and isolated ADs, trees,
rings, and generated internets with some links down.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because the fault planners' candidate lists
(bridges, articulation ADs from the in-tree DFS) must come out in
``graph.links()`` / ``graph.ad_ids()`` order, never set order, since
every seeded plan draws from them; and no cell that reaches them, or
EGP's forest test, may import networkx.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.generator import TopologyConfig, generate_internet, scaled_config
from repro.adgraph.graph import InterADGraph
from repro.faults.plan import crash_candidates, safe_failure_candidates
from tests.helpers import mk_graph
from tests.oracles import (
    nx_crash_candidates,
    nx_graph,
    nx_is_connected,
    nx_is_forest,
    nx_safe_failure_candidates,
)

pytestmark = pytest.mark.hashseed


def assert_matches_networkx(graph: InterADGraph) -> None:
    bridges, cut = graph.cut_points()
    g = nx_graph(graph)
    assert bridges == {tuple(sorted(e)) for e in nx.bridges(g)}
    assert cut == set(nx.articulation_points(g))
    assert safe_failure_candidates(graph) == nx_safe_failure_candidates(graph)
    assert crash_candidates(graph) == nx_crash_candidates(graph)
    for live_only in (True, False):
        assert graph.is_connected(live_only) == nx_is_connected(graph, live_only)
    assert graph.component_count() == nx.number_connected_components(g)
    assert graph.is_forest() == nx_is_forest(graph)


@st.composite
def small_graphs(draw) -> InterADGraph:
    """0-16 ADs (sparse ids), any link set, each link up or down."""
    ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=16))
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = mk_graph([(ad_id, "Rt") for ad_id in ids], edges)
    ups = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    for ln, up in zip(graph.links(), ups):
        ln.up = up
    return graph


@settings(max_examples=600, deadline=None)
@given(small_graphs())
def test_random_graphs_match_networkx(graph):
    assert_matches_networkx(graph)


def _ring(n: int, chord: bool = False) -> InterADGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    if chord:
        edges.append((0, n // 2))
    return mk_graph([(i, "Rt") for i in range(n)], edges)


def _tree(branching: int, depth: int) -> InterADGraph:
    edges, frontier, next_id = [], [0], 1
    for _ in range(depth):
        children = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                children.append(next_id)
                next_id += 1
        frontier = children
    return mk_graph([(i, "Rt") for i in range(next_id)], edges)


def _two_rings_joined_at(ad: int) -> InterADGraph:
    # Two triangles sharing AD ``ad``: it is the only cut point, no bridge.
    edges = [(0, 1), (1, ad), (ad, 0), (ad, 3), (3, 4), (4, ad)]
    return mk_graph([(i, "Rt") for i in range(5)], edges)


SHAPES = {
    "empty": InterADGraph,
    "single": lambda: mk_graph([(7, "Rt")], []),
    "pair": lambda: mk_graph([(0, "Rt"), (1, "Rt")], [(0, 1)]),
    "line-6": lambda: mk_graph([(i, "Rt") for i in range(6)], [(i, i + 1) for i in range(5)]),
    "star-5": lambda: mk_graph([(i, "Rt") for i in range(6)], [(0, i) for i in range(1, 6)]),
    "tree-2x4": lambda: _tree(2, 4),
    "tree-3x3": lambda: _tree(3, 3),
    "ring-3": lambda: _ring(3),
    "ring-8": lambda: _ring(8),
    "ring-9-chord": lambda: _ring(9, chord=True),
    "bowtie": lambda: _two_rings_joined_at(2),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("down", [0, 1, 2])
def test_shapes_match_networkx(shape, down):
    graph = SHAPES[shape]()
    for ln in random.Random(down).sample(graph.links(), min(down, graph.num_links)):
        ln.up = False
    assert_matches_networkx(graph)


def test_known_cut_points():
    bridges, cut = _two_rings_joined_at(2).cut_points()
    assert (bridges, cut) == (set(), {2})
    line = mk_graph([(i, "Rt") for i in range(4)], [(0, 1), (1, 2), (2, 3)])
    assert line.cut_points() == ({(0, 1), (1, 2), (2, 3)}, {1, 2})
    assert _ring(5).cut_points() == (set(), set())
    assert _ring(5).is_forest() is False and line.is_forest() is True


def _internet(ads: int, seed: int) -> InterADGraph:
    if ads == 63:
        return generate_internet(TopologyConfig(
            num_backbones=3, regionals_per_backbone=4, campuses_per_parent=4, seed=seed
        ))
    return generate_internet(scaled_config(ads, seed=seed))


@pytest.mark.parametrize("ads", [20, 63, 200, 404])
@pytest.mark.parametrize("seed", [0, 5, 47])
@pytest.mark.parametrize("down", [0, 3, 12])
def test_generated_internets_match_networkx(ads, seed, down):
    graph = _internet(ads, seed)
    for ln in random.Random(seed + down).sample(graph.links(), down):
        ln.up = False
    assert_matches_networkx(graph)
