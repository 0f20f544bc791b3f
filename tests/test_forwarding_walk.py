"""``RoutingProtocol.walk``: the one forwarding walk.

``find_route``, the FIB compiler and the routes digest all read the
believed decision chain from ``walk``.  The walk judges nothing
physical; the FIB adds the physical rule (a hop over a link the graph
does not have is statically ``DEAD_LINK``) and the per-packet oracle
(:func:`tests.oracles.forward_verdict`) judges ground truth on its own.
These tests pin the two endings that only show in a running network: a
route over a forged link, and a transient forwarding loop.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because the walk that ``find_route``, the FIB
and the routes digest share must come from ``next_hop`` decisions, never
from set or dict order: the fib-key memo's keys hold QOS members, which
hash by identity.
"""

import pytest

from repro.faults.prober import RoutePulse
from repro.harness.spec import MisbehaviorSpec, ScenarioSpec
from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.protocols.dv import DistanceVectorProtocol
from repro.protocols.orwg import ORWGProtocol
from repro.protocols.registry import make_protocol
from repro.traffic import (
    DEAD_LINK,
    DELIVERED,
    LOOP,
    NO_ROUTE,
    compile_fib,
)
from repro.workloads.scenarios import small_scenario
from tests.helpers import line_graph, open_db, program_path
from tests.oracles import forward_verdict

pytestmark = pytest.mark.hashseed


def probe_once(protocol, flow, until):
    """Advance the engine to ``until`` and take one RoutePulse sample."""
    network = protocol.network
    pulse = RoutePulse(protocol, [flow], interval=until - network.sim.now)
    pulse.run(until)
    assert network.sim.now == until
    [sample] = pulse.samples
    return sample.status


def test_hop_by_hop_endings():
    g = line_graph(4)
    proto = DistanceVectorProtocol(g, open_db(g))
    proto.converge()
    assert proto.walk(FlowSpec(1, 1)) == (DELIVERED, (1,))
    assert proto.walk(FlowSpec(0, 3)) == (DELIVERED, (0, 1, 2, 3))
    assert proto.walk(FlowSpec(0, 99)) == (NO_ROUTE, (0,))
    assert proto.find_route(FlowSpec(0, 99)) is None


def test_source_mode_endings():
    g = line_graph(3)
    proto = ORWGProtocol(g, PolicyDatabase())
    proto.converge()
    # Nobody offers transit: the source has no route to 2.
    assert proto.walk(FlowSpec(0, 2)) == (NO_ROUTE, (0,))
    assert proto.walk(FlowSpec(0, 1)) == (DELIVERED, (0, 1))


@pytest.mark.parametrize("name", ["ls-hbh-topo", "ls-src-topo"])
def test_forged_link(name):
    """A backbone's bogus-origin LSA names a link that does not exist.

    The protocol believes the route over it -- ``walk`` delivers and
    ``find_route`` answers it, which is what E12 counts as poisoned --
    while the FIB, the per-packet oracle and the prober all see that no
    packet gets over the forged hop.
    """
    scenario = ScenarioSpec(kind="small", seed=3, restrictiveness=0.5).build()
    graph = scenario.graph
    protocol = make_protocol(name, graph, scenario.policies)
    protocol.converge()
    plan = MisbehaviorSpec(lie="bogus-origin", liar_role="backbone").build_plan(graph)
    protocol.schedule_fault_plan(plan)
    protocol.converge()
    assert protocol.liars == {0: "bogus-origin"}
    assert not graph.has_link(0, 19)

    for flow, believed in ((FlowSpec(0, 19), (0, 19)), (FlowSpec(1, 19), (1, 0, 19))):
        assert protocol.walk(flow) == (DELIVERED, believed)
        assert protocol.find_route(flow) == believed
        fib = compile_fib(protocol, [flow])
        assert fib.static_verdicts[0] == DEAD_LINK
        # The program is cut before the forged hop.
        assert program_path(fib, 0) == believed[:-1]
        assert fib.class_verdicts()[0] == DEAD_LINK
        assert forward_verdict(protocol, flow) == (DEAD_LINK, believed[:-1])
        now = protocol.network.sim.now
        assert probe_once(protocol, flow, now + 1.0) == "stale"


# (protocol, small_scenario seed, link failed at quiescence, flow, seconds
# after the failure): an instant inside a transient loop.  The naive-dv
# loop holds for 41.76 s < t < 45.69 s; the IDRP one for 9.43 s < t < 13.27 s.
LOOPS = [
    ("naive-dv", 0, (0, 2), FlowSpec(0, 2), 43.0, (0, 3, 0)),
    ("idrp", 1, (0, 1), FlowSpec(5, 0), 11.0, (5, 6, 5)),
]


@pytest.mark.parametrize("name,seed,link,flow,after,loop", LOOPS)
def test_transient_forwarding_loop(name, seed, link, flow, after, loop):
    scenario = small_scenario(seed=seed)
    protocol = make_protocol(name, scenario.graph, scenario.policies)
    protocol.converge()
    start = protocol.network.sim.now
    assert protocol.walk(flow)[0] == DELIVERED
    protocol.apply_link_status(*link, up=False)

    assert probe_once(protocol, flow, start + after) == "loop"
    assert protocol.walk(flow) == (LOOP, loop)
    loops = protocol.forwarding_loops
    # Compiling walks the loop too, but only find_route counts it.
    fib = compile_fib(protocol, [flow])
    assert fib.static_verdicts[0] == LOOP
    assert fib.class_verdicts()[0] == LOOP
    assert protocol.forwarding_loops == loops
    for extra in (1, 2):
        assert protocol.find_route(flow) is None
        assert protocol.forwarding_loops == loops + extra
    assert forward_verdict(protocol, flow, enforce_policy=False) == (LOOP, loop)
    assert forward_verdict(protocol, flow)[0] == LOOP

    # The loop is transient: the protocol converges out of it.
    protocol.converge()
    assert protocol.walk(flow)[0] != LOOP
