"""The synthesis kernel answers exactly what the plain searches answered.

All four constrained searches run over a per-search out-edge table and
ask the policy database only when the charge-free bound lets the answer
matter.  ``tests/oracles.py`` keeps the four searches as they were; on
every drawn case each search must return the oracle's path (or ``None``)
and identical :class:`~repro.core.synthesis.SynthesisStats`, ask a subset
of the oracle's ``(ad, prev, next)`` queries, and read each AD's links at
most once per search.  On two fixed scenarios the number of queries is
pinned exactly: a weakened bound keeps every answer but asks more.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because every synthesis answer must come from
the sorted incident tuple, never from the out-edge table's dict order.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.ad import AD, ADKind, InterADLink, Level, LinkKind
from repro.adgraph.generator import generate_internet, scaled_config
from repro.adgraph.graph import InterADGraph
from repro.core import synthesis
from repro.core.evaluation import sample_flows
from repro.core.synthesis import SynthesisStats
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.generators import restricted_policies
from repro.policy.qos import QOS
from repro.policy.selection import RouteSelectionPolicy
from repro.workloads.scenarios import reference_scenario, small_scenario

from tests import oracles
from tests.helpers import mk_graph

pytestmark = pytest.mark.hashseed

QOS_CLASSES = (QOS.DEFAULT, QOS.LOW_COST, QOS.HIGH_BANDWIDTH)
CHARGES = (0.0, 1.0, 2.5)


class StubTransit:
    """Per-(AD, prev, next) refusal or charge, like ``RandomTransit``.

    Each triple's answer is a pure function of the seed, so the kernel
    and the oracle see one policy whatever order they ask in.
    """

    def __init__(self, seed, refusal):
        self.seed, self.refusal = seed, refusal

    def transit_charge(self, ad_id, flow, prev, nxt):
        rng = random.Random(f"{self.seed}:{ad_id}:{prev}:{nxt}")
        return None if rng.random() < self.refusal else rng.choice(CHARGES)


class Recorder:
    """A policy source that logs every ``(ad, prev, next)`` it is asked."""

    def __init__(self, policies):
        self.policies, self.asked = policies, set()

    def transit_charge(self, ad_id, flow, prev, nxt):
        self.asked.add((ad_id, prev, nxt))
        return self.policies.transit_charge(ad_id, flow, prev, nxt)


class LinkReads:
    """A graph view that counts ``links_of`` calls per AD."""

    def __init__(self, graph):
        self.graph, self.reads = graph, Counter()

    def links_of(self, ad_id, include_down=False):
        self.reads[ad_id] += 1
        return self.graph.links_of(ad_id, include_down)

    def __getattr__(self, name):
        return getattr(self.graph, name)


@st.composite
def internets(draw):
    """A small random graph: tied and zero metrics, some links down.

    Dense ones too: a labelled state is improved only by a cheaper charge
    through the same link, so the bound is put to the test where many
    walks reach one AD at equal cost.
    """
    n = draw(st.integers(1, 10))
    graph = InterADGraph()
    for ad_id in range(n):
        graph.add_ad(AD(ad_id, f"ad{ad_id}", Level.CAMPUS, ADKind.HYBRID))
    density = draw(st.sampled_from((3, 6, 10)))
    for a, b in [(a, b) for a in range(n) for b in range(a + 1, n)]:
        if draw(st.integers(0, 9)) >= density:
            continue
        metrics = {
            "delay": draw(st.sampled_from((0.0, 1.0, 2.0, 2.5))),
            "bandwidth": draw(st.sampled_from((0.0, 1.0, 2.0, 3.0))),
        }
        if draw(st.booleans()):
            metrics["cost"] = draw(st.sampled_from((0.0, 1.0, 3.0)))
        link = InterADLink(a, b, LinkKind.HIERARCHICAL, metrics)
        link.up = draw(st.sampled_from((True, True, True, False)))
        graph.add_link(link)
    return graph


@st.composite
def selections(draw, ad_ids):
    avoid = draw(st.frozensets(st.sampled_from(ad_ids), max_size=2))
    rest = [a for a in ad_ids if a not in avoid]
    require = draw(st.frozensets(st.sampled_from(rest), max_size=1)) if rest else frozenset()
    return RouteSelectionPolicy(
        avoid_ads=avoid,
        require_ads=require,
        max_hops=draw(st.sampled_from((None, None, 2, 4))),
        charge_weight=draw(st.sampled_from((0.0, 0.5))),
    )


@st.composite
def excluded(draw, graph):
    keys = sorted(link.key for link in graph.links(include_down=True))
    if not keys or draw(st.booleans()):
        return frozenset()
    return frozenset(draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)))


def assert_same_answer(graph, policies, flow, selection, excluded_links, budget):
    """Both public searches (four with the bottleneck variants) agree."""
    for name, extra in (("constrained_dijkstra", ()), ("exhaustive_best_path", (budget,))):
        expected_stats, stats = SynthesisStats(), SynthesisStats()
        oracle = Recorder(policies)
        expected = getattr(oracles, name)(
            graph, oracle, flow, selection, excluded_links, *extra, stats=expected_stats
        )
        kernel, view = Recorder(policies), LinkReads(graph)
        got = getattr(synthesis, name)(
            view, kernel, flow, selection, excluded_links, *extra, stats=stats
        )
        assert got == expected, name
        assert stats == expected_stats, name
        assert kernel.asked <= oracle.asked, name
        assert max(view.reads.values(), default=0) <= 1, name


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_oracle_on_random_internets(data):
    graph = data.draw(internets())
    ad_ids = graph.ad_ids()
    policies = StubTransit(
        data.draw(st.integers(0, 2**32 - 1)), data.draw(st.sampled_from((0.0, 0.25, 0.6)))
    )
    flow = FlowSpec(
        data.draw(st.sampled_from(ad_ids)),
        data.draw(st.sampled_from(ad_ids)),
        qos=data.draw(st.sampled_from(QOS_CLASSES)),
    )
    assert_same_answer(
        graph,
        policies,
        flow,
        data.draw(selections(ad_ids)),
        data.draw(excluded(graph)),
        data.draw(st.sampled_from((3, synthesis.DEFAULT_FALLBACK_BUDGET))),
    )


def charged(policies, seed):
    """A copy of ``policies`` whose terms carry charges from ``CHARGES``."""
    rng = random.Random(seed)
    return PolicyDatabase(
        replace(term, charge=rng.choice(CHARGES)) for term in policies.all_terms()
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    charge_weight=st.sampled_from((0.0, 0.5)),
    qos=st.sampled_from(QOS_CLASSES),
)
def test_kernel_matches_the_oracle_on_the_policy_database(seed, charge_weight, qos):
    graph = generate_internet(scaled_config(24, seed=seed))
    policies = charged(restricted_policies(graph, 0.5, seed=seed).policies, seed)
    selection = RouteSelectionPolicy(charge_weight=charge_weight)
    keys = sorted(link.key for link in graph.links())
    for flow in sample_flows(graph, 6, seed=seed, qos_choices=(qos,)):
        assert_same_answer(graph, policies, flow, selection, frozenset(), 2_000)
        assert_same_answer(graph, policies, flow, selection, frozenset(keys[::7]), 2_000)


@pytest.mark.parametrize("qos", QOS_CLASSES)
def test_the_bound_skips_queries_that_cannot_matter(qos):
    # On a real internet the kernel asks strictly fewer questions: the
    # whole point of the bound.
    graph = generate_internet(scaled_config(40, seed=5))
    policies = restricted_policies(graph, 0.3, seed=5).policies
    asked = {"oracle": 0, "kernel": 0}
    for flow in sample_flows(graph, 20, seed=6, qos_choices=(qos,)):
        for side, module in (("oracle", oracles), ("kernel", synthesis)):
            recorder = Recorder(policies)
            module.constrained_dijkstra(graph, recorder, flow)
            asked[side] += len(recorder.asked)
    assert asked["kernel"] < asked["oracle"]


class QueryCount:
    """A policy source that counts the ``transit_charge`` queries it answers."""

    def __init__(self, policies):
        self.policies, self.queries = policies, 0

    def transit_charge(self, ad_id, flow, prev, nxt):
        self.queries += 1
        return self.policies.transit_charge(ad_id, flow, prev, nxt)


@pytest.mark.parametrize(
    "scenario, seed, queries",
    [(reference_scenario, 0, 20_355), (small_scenario, 3, 6_849)],
    ids=["reference-seed0", "small-seed3"],
)
def test_the_bound_asks_a_pinned_number_of_queries(scenario, seed, queries):
    # A count tripwire for the bound.  Relaxing its ``d + m >= label`` to
    # ``>`` keeps every route (the oracle comparisons cannot see it) but
    # lets ties through to the database: 20 389 and 6 870 queries here.
    built = scenario(seed=seed)
    counted = QueryCount(built.policies)
    for flow in sample_flows(built.graph, 200, seed=1):
        synthesis.synthesize_route(built.graph, counted, flow)
    assert counted.queries == queries


def test_a_cheaper_charge_at_equal_distance_still_wins():
    # 0-1-3 and 0-2-3 tie at distance 2; AD 3 charges 1 for traffic from
    # 1 and nothing for traffic from 2.  State (4, 3) is labelled 3.5 via
    # AD 1 first, and the bound (3 < 3.5) must let AD 2's query through.
    graph = mk_graph([(i, "Ch") for i in range(5)], [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    charges = {(1, 0, 3): 0.0, (2, 0, 3): 0.0, (3, 1, 4): 1.0, (3, 2, 4): 0.0}

    class Table:
        def transit_charge(self, ad_id, flow, prev, nxt):
            return charges.get((ad_id, prev, nxt))

    selection = RouteSelectionPolicy(charge_weight=0.5)
    flow = FlowSpec(0, 4)
    for search in (synthesis.constrained_dijkstra, synthesis.exhaustive_best_path):
        assert search(graph, Table(), flow, selection) == (0, 2, 3, 4)
        assert search(graph, Table(), flow) == (0, 1, 3, 4)  # charges ignored
