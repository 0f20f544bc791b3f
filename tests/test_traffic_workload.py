"""Tests for zipf workload generation: determinism, skew, shape."""

import itertools
import random
from array import array

import pytest

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.traffic.workload import WorkloadSpec, zipf_workload
from tests.helpers import line_graph


@pytest.fixture(scope="module")
def graph():
    return generate_internet(TopologyConfig(seed=42))


class TestSpec:
    def test_inactive_default(self):
        spec = WorkloadSpec()
        assert not spec.active
        assert spec.display == "none"

    def test_display(self):
        spec = WorkloadSpec(flows=1_000_000, zipf_s=1.1)
        assert spec.active
        assert spec.display == "1000000f/s=1.1"

    def test_validation(self, graph):
        with pytest.raises(ValueError):
            zipf_workload(graph, WorkloadSpec(flows=-1))
        with pytest.raises(ValueError):
            zipf_workload(graph, WorkloadSpec(flows=10, zipf_s=-0.5))


class TestGeneration:
    def test_columnar_shape(self, graph):
        wl = zipf_workload(graph, WorkloadSpec(flows=5000, pairs=64, seed=3))
        assert len(wl) == 5000
        assert len(wl.sizes) == 5000
        assert wl.num_classes <= 64
        assert sum(wl.class_counts) == 5000
        assert all(0 <= idx < wl.num_classes for idx in wl.class_of)
        assert wl.total_bytes >= 64 * 5000  # sizes respect the floor

    def test_deterministic(self, graph):
        spec = WorkloadSpec(flows=20_000, pairs=128, seed=9)
        a = zipf_workload(graph, spec)
        b = zipf_workload(graph, spec)
        assert a.classes == b.classes
        assert a.class_of == b.class_of
        assert a.sizes == b.sizes

    def test_seed_changes_draws(self, graph):
        a = zipf_workload(graph, WorkloadSpec(flows=20_000, pairs=128, seed=1))
        b = zipf_workload(graph, WorkloadSpec(flows=20_000, pairs=128, seed=2))
        assert a.class_of != b.class_of

    def test_zipf_skew(self, graph):
        """Higher s concentrates traffic: the head carries more flows."""
        flat = zipf_workload(
            graph, WorkloadSpec(flows=50_000, pairs=256, zipf_s=0.0, seed=4)
        )
        skewed = zipf_workload(
            graph, WorkloadSpec(flows=50_000, pairs=256, zipf_s=1.5, seed=4)
        )
        assert skewed.head_share(10) > flat.head_share(10)
        assert skewed.head_share(10) > 0.3

    def test_rank_order(self, graph):
        """classes[0] really is the most popular class at real skew."""
        wl = zipf_workload(
            graph, WorkloadSpec(flows=100_000, pairs=64, zipf_s=1.2, seed=5)
        )
        assert wl.class_counts[0] == max(wl.class_counts)

    def test_pairs_clamped_to_universe(self):
        """Tiny graphs cap the class universe at every ordered pair."""
        g = line_graph(3)
        wl = zipf_workload(g, WorkloadSpec(flows=1000, pairs=4096, seed=6))
        assert wl.num_classes <= 3 * 2
        srcs_dsts = {(f.src, f.dst) for f in wl.classes}
        assert len(srcs_dsts) == wl.num_classes  # all distinct

    def test_empty_workload(self, graph):
        wl = zipf_workload(graph, WorkloadSpec(flows=0))
        assert len(wl) == 0
        assert wl.head_share() == 0.0
        assert wl.total_bytes == 0

    def test_draws_are_byte_identical_to_the_first_generator(self, graph, monkeypatch):
        def first_draws(rng, n, spec):
            """The oracle: stages 2-3 and the class counts as first written."""
            weights = [1.0 / (rank + 1) ** spec.zipf_s for rank in range(n)]
            drawn = rng.choices(range(n), weights=weights, k=spec.flows) if spec.flows else []
            class_of = array("i", drawn)
            sizes = array("l", (max(64, int(rng.lognormvariate(9.0, 1.2))) for _ in drawn))
            counts = array("l", [0] * n)
            for idx in class_of:
                counts[idx] += 1
            return class_of, sizes, counts

        class Recorder(random.Random):
            """Remembers the generator state stage 2 starts from."""

            def choices(self, *args, **kwargs):
                states.append(self.getstate())
                return super().choices(*args, **kwargs)

        monkeypatch.setattr(random, "Random", Recorder)
        for seed, zipf_s, pairs, flows in itertools.product(
            (0, 14, 47), (0.0, 1.1, 2.0), (1, 16, 4096), (0, 1, 3000)
        ):
            states = []
            spec = WorkloadSpec(flows=flows, zipf_s=zipf_s, pairs=pairs, seed=seed)
            wl = zipf_workload(graph, spec)
            rng = random.Random()
            if flows:
                rng.setstate(states.pop())
            expected = first_draws(rng, wl.num_classes, spec)
            got = (wl.class_of, wl.sizes, wl.class_counts)
            assert [a.typecode for a in got] == [a.typecode for a in expected]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    def test_iter_flows_matches_columns(self, graph):
        wl = zipf_workload(graph, WorkloadSpec(flows=500, pairs=32, seed=7))
        flows = list(wl.iter_flows())
        assert len(flows) == 500
        for (flow, size), idx, sz in zip(flows, wl.class_of, wl.sizes):
            assert flow is wl.classes[idx]
            assert size == sz
