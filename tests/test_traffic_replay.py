"""Tests for batched replay: percentiles, summaries, epoch tails.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because the walk that ``find_route``, the FIB
and the routes digest share must come from ``next_hop`` decisions, never
from set or dict order: the fib-key memo's keys hold QOS members, which
hash by identity.
"""

from array import array
from types import SimpleNamespace

import pytest

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.harness.session import TrafficMeter
from repro.harness.spec import TrafficSpec
from repro.policy.generators import restricted_policies
from repro.protocols.registry import make_protocol
from repro.simul.profiling import PhaseProfiler
from repro.traffic import DELIVERED, VERDICT_NAMES, LinkIndex, compile_fib
from repro.traffic.replay import (
    TailSeries,
    TrafficReplay,
    shortest_hops,
    weighted_percentile,
)
from repro.traffic.workload import WorkloadSpec, zipf_workload
from tests.helpers import line_graph
from tests.oracles import forward_verdict

pytestmark = pytest.mark.hashseed


@pytest.fixture(scope="module")
def setting():
    graph = generate_internet(TopologyConfig(seed=42))
    policies = restricted_policies(graph, 0.4, seed=42).policies
    protocol = make_protocol("ls-hbh", graph, policies)
    protocol.converge()
    wl = zipf_workload(graph, WorkloadSpec(flows=20_000, pairs=128, seed=8))
    return graph, protocol, wl


def per_flow_recount(fib, wl):
    """(verdict_flows, delivered_bytes) from every flow's own verdict and
    size -- the per-flow oracle of a summary's class-weighted sums."""
    verdict_flows = [0] * len(VERDICT_NAMES)
    delivered_bytes = 0
    for verdict, size in zip(fib.lookup_batch(wl.class_of), wl.sizes):
        verdict_flows[verdict] += 1
        if verdict == DELIVERED:
            delivered_bytes += size
    return tuple(verdict_flows), delivered_bytes


class _Tripwire:
    """A per-flow column that fails the test when anything reads it."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __iter__(self):
        raise AssertionError("a per-flow column was iterated after generation")

    def __getitem__(self, i):
        raise AssertionError("a per-flow column was indexed after generation")


class TestWeightedPercentile:
    def test_empty(self):
        assert weighted_percentile([], 0.99) == 0.0

    def test_single(self):
        assert weighted_percentile([(3.0, 10)], 0.5) == 3.0

    def test_weights_shift_the_tail(self):
        # 99 flows at 1.0, 1 flow at 100.0: p50 sits in the head,
        # p995 reaches the heavy flow.
        samples = [(1.0, 99), (100.0, 1)]
        assert weighted_percentile(samples, 0.50) == 1.0
        assert weighted_percentile(samples, 0.995) == 100.0

    def test_order_independent(self):
        samples = [(5.0, 1), (1.0, 3), (2.0, 6)]
        assert weighted_percentile(samples, 0.9) == weighted_percentile(
            sorted(samples, reverse=True), 0.9
        )


class TestShortestHops:
    def test_line(self):
        g = line_graph(5)
        hops = shortest_hops(g, [(0, 4), (0, 0), (4, 1)])
        assert list(hops) == [4, 0, 3]

    def test_ignores_liveness(self):
        g = line_graph(3)
        g.set_link_status(1, 2, up=False)
        assert list(shortest_hops(g, [(0, 2)])) == [2]


class TestReplaySummary:
    def test_verdicts_partition_the_flows(self, setting):
        graph, protocol, wl = setting
        replay = TrafficReplay(wl, graph)
        fib = compile_fib(protocol, wl.classes)
        summary = replay.replay(fib)
        assert summary.flows == len(wl)
        assert sum(summary.verdict_flows) == summary.flows
        assert 0.0 <= summary.reach_gap < 1.0
        assert summary.delivered_bytes <= summary.total_bytes
        assert summary.latency_p99 >= summary.latency_p50 > 0
        assert summary.stretch_p50 >= 1.0
        d = summary.as_dict()
        assert d["flows"] == summary.flows
        assert sum(d["verdicts"].values()) == summary.flows

    def test_matches_oracle(self, setting):
        # Class verdicts gathered per flow equal the per-packet oracle's.
        graph, protocol, wl = setting
        fib = compile_fib(protocol, wl.classes)
        per_class = [forward_verdict(protocol, f)[0] for f in wl.classes]
        expected = array("b", map(per_class.__getitem__, wl.class_of))
        assert fib.lookup_batch(wl.class_of) == expected

    def test_per_flow_oracle_agrees(self, setting):
        # The batch lookup against forwarding every single flow.
        graph, protocol, wl = setting
        fib = compile_fib(protocol, wl.classes)
        per_flow = array(
            "b", (forward_verdict(protocol, wl.classes[i])[0] for i in wl.class_of)
        )
        assert fib.lookup_batch(wl.class_of) == per_flow


class TestTailSeries:
    def test_degrading_epochs_move_the_tail(self, setting):
        graph, protocol, wl = setting
        replay = TrafficReplay(wl, graph)
        fib = compile_fib(protocol, wl.classes)
        index = LinkIndex(graph)
        tail = TailSeries(wl)
        tail.record(0.0, "initial", fib, replay)
        assert tail.outage_percentile(0.99) == 0.0
        recounts = [per_flow_recount(fib, wl)]
        # Degrade: fail a batch of links, replay the same compiled FIB.
        for key in index.keys[::5]:
            graph.set_link_status(*key, up=False)
        broken = tail.record(100.0, "failure", fib, replay)
        recounts.append(per_flow_recount(fib, wl))
        for key in index.keys[::5]:
            graph.set_link_status(*key, up=True)
        tail.record(200.0, "final", fib, replay)
        recounts.append(per_flow_recount(fib, wl))
        # Converged, then stale and degraded, then healed: each epoch's
        # class-weighted sums equal a per-flow recount.
        assert recounts[1] != recounts[0]
        assert [
            (e.summary.verdict_flows, e.summary.delivered_bytes) for e in tail.epochs
        ] == recounts
        assert all(e.summary.total_bytes == sum(wl.sizes) for e in tail.epochs)
        assert broken.summary.reach_gap > tail.epochs[0].summary.reach_gap
        assert tail.worst_gap() == broken.summary.reach_gap
        assert 0.0 < tail.outage_percentile(0.99) <= 1.0
        d = tail.as_dict()
        assert len(d["epochs"]) == 3
        assert d["epochs"][1]["label"] == "failure"
        assert d["worst_gap"] == tail.worst_gap()

    def test_baseline_filter(self, setting):
        """Classes never deliverable at the converged start are a policy/
        availability fact, not a convergence outage: they must not
        saturate the tail percentiles."""
        graph, protocol, wl = setting
        replay = TrafficReplay(wl, graph)
        fib = compile_fib(protocol, wl.classes)
        verdicts = fib.class_verdicts()
        structurally_dark = [
            c for c, v in enumerate(verdicts) if v != DELIVERED
        ]
        tail = TailSeries(wl)
        tail.record(0.0, "initial", fib, replay)
        tail.record(50.0, "sample", fib, replay)
        fractions = dict(
            (c, frac)
            for (frac, _), c in zip(
                tail.outage_fractions(),
                [
                    c
                    for c in range(wl.num_classes)
                    if wl.class_counts[c] and tail._baseline_ok[c]
                ],
            )
        )
        # Steady state, no failures: every *routable* class has zero
        # outage; dark classes are excluded rather than pinned at 1.0.
        assert all(frac == 0.0 for frac in fractions.values())
        assert structurally_dark  # the scenario does have dark classes
        included = sum(1 for c in wl.class_counts if c) - len(
            [c for c in structurally_dark if wl.class_counts[c]]
        )
        assert len(tail.outage_fractions()) == included


class TestNoPerFlowPass:
    def test_epochs_and_record_block_never_read_a_per_flow_column(self, setting):
        """A count tripwire, not a timing: once generated, a workload is
        replayed from its class aggregates alone, at every epoch."""
        graph, protocol, _ = setting
        cell = SimpleNamespace(traffic=TrafficSpec(flows=20_000, pairs=128, seed=8))
        meter = TrafficMeter(cell, protocol, PhaseProfiler())
        wl = meter.workload
        total = sum(wl.sizes)
        wl.class_of, wl.sizes = _Tripwire(len(wl)), _Tripwire(len(wl))
        index = LinkIndex(graph)
        fib = meter.compile()
        meter.record(0.0, "initial", fib)
        for key in index.keys[::5]:
            graph.set_link_status(*key, up=False)
        meter.record(100.0, "failure", fib)
        for key in index.keys[::5]:
            graph.set_link_status(*key, up=True)
        meter.record(200.0, "final")
        block = meter.block()
        assert block["workload"]["flows"] == 20_000
        assert block["workload"]["total_bytes"] == total
        epochs = block["series"]["epochs"]
        assert [e["label"] for e in epochs] == ["initial", "failure", "final"]
        assert all(e["total_bytes"] == total for e in epochs)
        assert epochs[1]["delivered_bytes"] < epochs[0]["delivered_bytes"]
