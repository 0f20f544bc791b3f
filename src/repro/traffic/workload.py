"""Zipf-skewed synthetic flow workloads ("millions of users").

The paper's data-plane arguments (Sections 4-5) are about what happens
to *traffic*, but its workload model is implicit.  This module makes it
explicit at production scale: a :class:`FlowWorkload` is 10^6+ seeded
(src AD, dst AD, size) flows whose (src, dst) popularity follows a Zipf
law -- a small head of flow classes carries most packets, a long tail
carries the rest, which is both the empirically observed shape of
inter-domain traffic and the regime where compiled FIBs
(:mod:`repro.traffic.fib`) pay off.

Design notes:

* Flows are stored **columnar**: a per-flow ``class_of`` index into the
  deduplicated flow-class list plus a per-flow ``sizes`` array, never
  10^6 ``FlowSpec`` objects.  The per-class flow and byte sums are taken
  in the generation pass, so aggregate replay is O(classes) and never
  re-reads a per-flow column; per-packet replay materialises specs lazily.
* Generation is deterministic: the same :class:`WorkloadSpec` over the
  same graph always yields byte-identical arrays (``random.Random``
  seeded, sorted candidate pools), so E14 runs replay the exact same
  traffic on every design point and on every run.

The module also holds the small, object-level generators the setup-cache
(E6) and synthesis-strategy (E10) experiments and settlement
(:mod:`repro.mgmt.accounting`) use: :func:`uniform_traffic` /
:func:`gravity_traffic` build a weighted :class:`TrafficMatrix` over the
same leaf-AD pool, and :func:`request_sequence` draws a Zipf-popularity
stream of route requests from one.  Section 5.4.1's handles amortise
over reused flows (locality); Section 6 precomputes "commonly used
routes" (popularity).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from math import exp, log
from random import NV_MAGICCONST
from typing import List, Sequence, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.uci import UCI

#: Mean/sigma of the log-normal flow-size model (bytes).  The values are
#: not load-bearing -- sizes only weight byte-level aggregates -- but the
#: heavy tail keeps byte and packet percentiles visibly distinct.
_SIZE_MU = 9.0
_SIZE_SIGMA = 1.2
_SIZE_MIN = 64


@dataclass(frozen=True)
class WorkloadSpec:
    """Recipe for one deterministic traffic workload.

    Attributes:
        flows: Total flow count (the "users" axis; 10^6+ at full scale).
        zipf_s: Zipf skew of flow-class popularity: 0 is uniform, 1 is
            the classic web-trace shape, larger concentrates harder.
        pairs: Distinct (src, dst) flow classes to draw from (>= 1);
            clamped to the number of ordered edge-AD pairs the graph offers.
        seed: Generation seed (pools, ranking, draws, sizes).
        hour: Hour-of-day stamped on every flow (policies with time
            windows discriminate on it; one fixed hour keeps the class
            universe equal to the pair universe).
    """

    flows: int = 0
    zipf_s: float = 1.1
    pairs: int = 4096
    seed: int = 0
    hour: int = 12

    @property
    def active(self) -> bool:
        return self.flows > 0

    @property
    def display(self) -> str:
        if not self.active:
            return "none"
        return f"{self.flows}f/s={self.zipf_s:g}"


class FlowWorkload:
    """A generated workload: flow classes + columnar per-flow arrays.

    Attributes:
        spec: The generating recipe.
        classes: Deduplicated flow classes (``FlowSpec``), rank order --
            ``classes[0]`` is the most popular class.
        class_of: Per-flow class index (``array('i')``, len == spec.flows).
        sizes: Per-flow size in bytes (``array('l')``).
        class_counts: Per-class flow counts (``array('l')``, aligned with
            ``classes``); the weights every aggregate reduction uses.
        class_bytes: Per-class byte sums (``array('q')``, same alignment).
        total_bytes: Bytes over all flows.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        classes: List[FlowSpec],
        class_of: array,
        sizes: array,
        class_counts: array,
        class_bytes: array,
    ) -> None:
        self.spec = spec
        self.classes = classes
        self.class_of = class_of
        self.sizes = sizes
        self.class_counts = class_counts
        self.class_bytes = class_bytes
        self.total_bytes = sum(class_bytes)

    def __len__(self) -> int:
        return len(self.class_of)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def head_share(self, head: int = 10) -> float:
        """Fraction of flows carried by the ``head`` most popular classes
        (the skew observable the zipf tests pin)."""
        if not len(self):
            return 0.0
        return sum(self.class_counts[:head]) / len(self)


def _edge_pool(graph: InterADGraph) -> List[ADId]:
    """Where user traffic originates/terminates: the leaf-level ADs (every
    AD when the graph has fewer than two leaves)."""
    pool = [a.ad_id for a in graph.ads() if a.level.rank == 0]
    return pool if len(pool) >= 2 else graph.ad_ids()


def zipf_workload(graph: InterADGraph, spec: WorkloadSpec) -> FlowWorkload:
    """Generate the deterministic workload ``spec`` describes.

    Three seeded stages, all order-stable:

    1. sample ``spec.pairs`` distinct ordered (src, dst) edge-AD pairs
       and rank them (the rank *is* the popularity order);
    2. draw ``spec.flows`` class indices with probability proportional
       to ``1 / (rank + 1) ** zipf_s`` (``random.choices``, a Python-level
       list comprehension in CPython);
    3. draw per-flow log-normal sizes: ``rng.lognormvariate``'s
       Kinderman-Monahan loop spelled out, the same ``rng.random()``
       calls and float operations in the same order, without two method
       calls per flow, summing per-class flows and bytes as it goes.
    """
    if spec.flows < 0:
        raise ValueError("flow count must be non-negative")
    if spec.zipf_s < 0:
        raise ValueError("zipf_s must be non-negative")
    if spec.pairs < 1:
        raise ValueError(f"pairs must be at least 1, got {spec.pairs}")
    pool = _edge_pool(graph)
    if len(pool) < 2:
        raise ValueError(f"a (src, dst) workload needs 2+ ADs; graph has {len(pool)}")
    rng = random.Random(spec.seed)
    max_pairs = len(pool) * (len(pool) - 1)
    n_pairs = min(spec.pairs, max_pairs)
    pairs: List[Tuple[ADId, ADId]] = []
    seen = set()
    # Rejection-sample distinct ordered pairs; switch to exhaustive
    # enumeration when the request covers most of the pair universe.
    if n_pairs * 2 >= max_pairs:
        universe = [(s, d) for s in pool for d in pool if s != d]
        rng.shuffle(universe)
        pairs = universe[:n_pairs]
    else:
        while len(pairs) < n_pairs:
            src, dst = rng.sample(pool, 2)
            if (src, dst) not in seen:
                seen.add((src, dst))
                pairs.append((src, dst))
    classes = [
        FlowSpec(src, dst, qos=QOS.DEFAULT, uci=UCI.DEFAULT, hour=spec.hour)
        for src, dst in pairs
    ]
    weights = [1.0 / (rank + 1) ** spec.zipf_s for rank in range(len(classes))]
    class_of = array(
        "i",
        rng.choices(range(len(classes)), weights=weights, k=spec.flows)
        if spec.flows
        else [],
    )
    sizes = array("l")
    counts = [0] * len(classes)
    byte_sums = [0] * len(classes)
    append, uniform = sizes.append, rng.random
    for idx in class_of:
        while True:
            u1 = uniform()
            u2 = 1.0 - uniform()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        size = int(exp(_SIZE_MU + z * _SIZE_SIGMA))
        if size < _SIZE_MIN:
            size = _SIZE_MIN
        append(size)
        counts[idx] += 1
        byte_sums[idx] += size
    return FlowWorkload(
        spec, classes, class_of, sizes, array("l", counts), array("q", byte_sums)
    )


@dataclass(frozen=True)
class TrafficMatrix:
    """A weighted population of flows."""

    entries: Tuple[Tuple[FlowSpec, float], ...]

    def __post_init__(self) -> None:
        for _flow, weight in self.entries:
            if weight <= 0:
                raise ValueError(f"non-positive weight {weight}")

    @property
    def flows(self) -> List[FlowSpec]:
        return [f for f, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def uniform_traffic(
    graph: InterADGraph,
    n_flows: int,
    seed: int = 0,
    qos_choices: Sequence[QOS] = (QOS.DEFAULT,),
    uci_choices: Sequence[UCI] = (UCI.DEFAULT,),
    fixed_hour: int = None,
) -> TrafficMatrix:
    """Uniformly random edge-to-edge flows with unit weights.

    ``fixed_hour`` pins every flow to one hour of day; by default each
    flow gets a random hour (time-of-day policies then fragment the flow
    population, which is realistic but makes cross-strategy comparisons
    of identical flow universes harder).
    """
    rng = random.Random(seed)
    pool = _edge_pool(graph)
    entries = []
    for _ in range(n_flows):
        src, dst = rng.sample(pool, 2)
        flow = FlowSpec(
            src,
            dst,
            qos=rng.choice(list(qos_choices)),
            uci=rng.choice(list(uci_choices)),
            hour=rng.randrange(24) if fixed_hour is None else fixed_hour,
        )
        entries.append((flow, 1.0))
    return TrafficMatrix(tuple(entries))


def gravity_traffic(
    graph: InterADGraph,
    n_flows: int,
    seed: int = 0,
) -> TrafficMatrix:
    """Gravity-model flows: endpoint choice and weight scale with degree.

    Better-connected ADs attract proportionally more traffic, which
    concentrates load on popular routes (the amortisation-friendly case).
    """
    rng = random.Random(seed)
    pool = _edge_pool(graph)
    masses = [max(1, graph.degree(a)) for a in pool]
    entries = []
    for _ in range(n_flows):
        src = rng.choices(pool, weights=masses, k=1)[0]
        dst = src
        while dst == src:
            dst = rng.choices(pool, weights=masses, k=1)[0]
        weight = float(
            max(1, graph.degree(src)) * max(1, graph.degree(dst))
        )
        entries.append((FlowSpec(src, dst), weight))
    return TrafficMatrix(tuple(entries))


def request_sequence(
    matrix: TrafficMatrix,
    n_requests: int,
    zipf_s: float = 1.0,
    seed: int = 0,
) -> List[FlowSpec]:
    """A stream of route requests with Zipf-ranked flow popularity.

    Flows are ranked by their matrix weight (heaviest first) and then
    drawn with probability proportional to ``1 / rank**zipf_s``; ``s=0``
    is uniform, larger ``s`` concentrates requests on few flows (high
    locality, high cache hit rates).
    """
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    if zipf_s < 0:
        raise ValueError("zipf_s must be non-negative")
    ranked = [f for f, _ in sorted(matrix.entries, key=lambda e: -e[1])]
    if not ranked:
        return []
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=n_requests)
