"""FIB compiler equivalence suite: compiled verdicts == per-packet oracle.

The compiled data plane's whole claim is *verdict identity*: for any
control state (converged or stale) and any liveness snapshot, walking
the compiled program classifies every flow exactly as the per-packet
forwarder :func:`tests.oracles.forward_verdict` would.  And because the
FIB compiles the same walk ``find_route`` answers from, every class the
FIB delivers statically is routed over exactly ``find_route``'s path,
and every class it calls no-route, loop or hop-budget has no
``find_route`` answer.  These tests pin both claims across every
registered protocol, across policy-rich flow universes (where the
fib-key dedup must not leak policy decisions between classes), and --
via hypothesis -- across random topologies, restrictiveness levels, and
post-failure stale-FIB states.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because the walk that ``find_route``, the FIB
and the routes digest share must come from ``next_hop`` decisions, never
from set or dict order: the fib-key memo's keys hold QOS members, which
hash by identity.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.policy.flows import FlowSpec
from repro.policy.generators import restricted_policies
from repro.policy.qos import QOS
from repro.policy.uci import UCI
from repro.protocols.registry import (
    PROTOCOL_FOR_POINT,
    available_protocols,
    make_protocol,
)
from repro.traffic import (
    DELIVERED,
    HOP_BUDGET,
    LOOP,
    NO_ROUTE,
    VERDICT_NAMES,
    LinkIndex,
    compile_fib,
)
from repro.traffic.workload import WorkloadSpec, zipf_workload
from tests.helpers import program_path
from tests.oracles import forward_verdict

pytestmark = pytest.mark.hashseed

DESIGN_POINTS = [factory.name for factory in PROTOCOL_FOR_POINT.values()]
ALL_PROTOCOLS = available_protocols()


def scenario(seed=42, restrictiveness=0.4):
    graph = generate_internet(TopologyConfig(seed=seed))
    policies = restricted_policies(graph, restrictiveness, seed=seed).policies
    return graph, policies


def converged(name, graph, policies):
    protocol = make_protocol(name, graph, policies)
    protocol.converge()
    return protocol


def oracle_verdicts(protocol, classes, enforce_policy=True):
    return array(
        "b", (forward_verdict(protocol, f, enforce_policy)[0] for f in classes)
    )


def assert_equivalent(protocol, classes, enforce_policy=True):
    fib = compile_fib(protocol, classes, enforce_policy=enforce_policy)
    compiled = fib.class_verdicts()
    oracle = oracle_verdicts(protocol, classes, enforce_policy)
    mismatches = [
        (f, VERDICT_NAMES[c], VERDICT_NAMES[o])
        for f, c, o in zip(classes, compiled, oracle)
        if c != o
    ]
    assert not mismatches, (
        f"{protocol.name}: {len(mismatches)} verdict mismatches, "
        f"first: {mismatches[0]}"
    )
    # find_route and the FIB share one walk.
    for c, flow in enumerate(classes):
        static = fib.static_verdicts[c]
        if static == DELIVERED:
            assert protocol.find_route(flow) == program_path(fib, c), flow
        elif static in (NO_ROUTE, LOOP, HOP_BUDGET):
            assert protocol.find_route(flow) is None, flow
    return fib


class TestConvergedEquivalence:
    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_all_protocols(self, name):
        graph, policies = scenario()
        protocol = converged(name, graph, policies)
        wl = zipf_workload(graph, WorkloadSpec(flows=1, pairs=512, seed=8))
        assert_equivalent(protocol, wl.classes)

    @pytest.mark.parametrize("name", ["ls-hbh", "orwg"])
    def test_policy_blind(self, name):
        graph, policies = scenario()
        protocol = converged(name, graph, policies)
        wl = zipf_workload(graph, WorkloadSpec(flows=1, pairs=256, seed=8))
        assert_equivalent(protocol, wl.classes, enforce_policy=False)


class TestStaleFIB:
    """Compiled-at-convergence FIBs against a degraded liveness snapshot.

    The per-packet oracle reads the protocol's (now stale) tables against
    ground-truth link state; the compiled program must classify
    identically when walked against the matching liveness bytearray."""

    @pytest.mark.parametrize("name", DESIGN_POINTS)
    def test_links_fail_after_compile(self, name):
        graph, policies = scenario()
        protocol = converged(name, graph, policies)
        wl = zipf_workload(graph, WorkloadSpec(flows=1, pairs=256, seed=8))
        fib = assert_equivalent(protocol, wl.classes)
        index = LinkIndex(graph)
        baseline_dark = sum(
            1 for v in fib.class_verdicts() if v != DELIVERED
        )
        # Fail several links without letting the protocol react.
        for key in index.keys[:: max(1, len(index.keys) // 7)]:
            graph.set_link_status(*key, up=False)
        compiled = fib.class_verdicts(index.liveness())
        assert compiled == oracle_verdicts(protocol, wl.classes)
        assert sum(1 for v in compiled if v != DELIVERED) > baseline_dark
        # Compiled on the stale tables themselves, the same holds.
        assert_equivalent(protocol, wl.classes)


class TestDedupSafety:
    """fib_key_fields dedup must not leak policy bits between classes.

    Routing state may be dst-only, but ``transit_permits`` reads the
    whole flow -- two classes sharing a walk can still differ in
    verdict.  Build a flow universe that varies qos/uci/hour over the
    same (src, dst) pairs and require exact equivalence."""

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_rich_flow_universe(self, name):
        graph, policies = scenario(seed=11, restrictiveness=0.5)
        protocol = converged(name, graph, policies)
        base = zipf_workload(graph, WorkloadSpec(flows=1, pairs=48, seed=2))
        rich = [
            FlowSpec(f.src, f.dst, qos=qos, uci=uci, hour=hour)
            for f in base.classes
            for qos in (QOS.DEFAULT, QOS.LOW_DELAY)
            for uci in (UCI.DEFAULT, UCI.COMMERCIAL)
            for hour in (3, 14)
        ]
        fib = assert_equivalent(protocol, rich)
        # Dedup actually engaged: fewer distinct walks than classes
        # whenever the protocol's fib key drops some flow fields.
        if len(protocol.fib_key_fields) < 5:
            assert fib.stats.table_entries < len(rich)


class TestLookupBatch:
    def test_gather_matches_classes(self):
        graph, policies = scenario()
        protocol = converged("ls-hbh", graph, policies)
        wl = zipf_workload(graph, WorkloadSpec(flows=5000, pairs=128, seed=3))
        fib = compile_fib(protocol, wl.classes)
        per_class = fib.class_verdicts()
        per_flow = fib.lookup_batch(wl.class_of)
        assert len(per_flow) == 5000
        assert all(
            per_flow[i] == per_class[c] for i, c in enumerate(wl.class_of)
        )

    def test_stats_accounting(self):
        graph, policies = scenario()
        protocol = converged("orwg", graph, policies)
        wl = zipf_workload(graph, WorkloadSpec(flows=1, pairs=128, seed=3))
        fib = compile_fib(protocol, wl.classes)
        stats = fib.stats
        assert stats.classes == len(wl.classes)
        assert stats.bytes > 0
        assert stats.program_hops == len(fib.hop_links)
        d = stats.as_dict()
        assert d["classes"] == stats.classes


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    restrictiveness=st.floats(min_value=0.0, max_value=0.8),
    name=st.sampled_from(DESIGN_POINTS),
    fail_stride=st.integers(min_value=0, max_value=5),
)
def test_equivalence_random_topologies(seed, restrictiveness, name, fail_stride):
    """Property: verdict identity holds on arbitrary seeded internets,
    both converged and with post-compile failures (stale FIBs)."""
    graph = generate_internet(TopologyConfig(seed=seed))
    policies = restricted_policies(graph, restrictiveness, seed=seed).policies
    protocol = make_protocol(name, graph, policies)
    protocol.converge()
    wl = zipf_workload(graph, WorkloadSpec(flows=1, pairs=96, seed=seed))
    fib = assert_equivalent(protocol, wl.classes)
    index = LinkIndex(graph)
    if fail_stride:
        for key in index.keys[::7][:fail_stride]:
            graph.set_link_status(*key, up=False)
    compiled = fib.class_verdicts(index.liveness())
    assert compiled == oracle_verdicts(protocol, wl.classes)
    assert_equivalent(protocol, wl.classes)
