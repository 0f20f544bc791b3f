"""The node skeleton every protocol family shares.

Three decisions live once, on classes every node inherits, and each
family supplies only its currency:

* lies -- ``ProtocolNode.misbehave`` runs a family's ``_tell_lie`` and
  one bounded re-assertion burst of ``_reassert_lies``; ``behave`` stops
  it and a family's extras undo what its lie changed locally;
* validation -- ``ProtocolNode._rejects`` runs a family's ``_check_*``
  only when a check is on;
* triggered updates -- ``VectorNode._schedule_flush`` / ``_flush``
  coalesce, pace and hold down, and ``_flush_batch`` runs the damp pass
  and sends one update per neighbour; a vector protocol supplies only
  its per-key export and its update message.

The stop contract is checked on every protocol and every lie it can
tell: after ``stop_misbehavior`` and one forced re-advertisement,
nothing the liar sends carries the lie.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because a stopped liar must send nothing of
its lie under either seed, and the vector engine must flush its pending
keys, and run its damp pass, in sorted-key order, never set order (the
keys' QOS members hash by identity).
"""

from __future__ import annotations

import functools

import pytest

from repro.faults.misbehavior import LIES, liar_by_role, pick_victim_stub
from repro.protocols import dv, ecma, egp, flooding, idrp
from repro.protocols.dv import DVNode, DVUpdate
from repro.protocols.ecma import ECMANode, ECMAUpdate
from repro.protocols.egp import EGPNode, NRUpdate
from repro.protocols.flooding import LinkStateAd, LSDBExchange, LSNode
from repro.protocols.idrp import IDRPNode, IDRPUpdate
from repro.protocols.variants import _TopoVectorNode
from repro.protocols.vector import TRIGGER_DELAY, VectorNode
from repro.protocols.registry import available_protocols, make_protocol
from repro.simul.network import SimNetwork
from repro.simul.node import ProtocolNode
from repro.workloads.scenarios import small_scenario

pytestmark = pytest.mark.hashseed

#: The lies each protocol can tell, in its own currency.  A leak is told
#: by a stub (a customer offering transit), every other lie by the
#: busiest regional AD.
PATH_VECTOR = ("route-leak", "bogus-origin", "metric-lie")
LINK_STATE = ("bogus-origin", "stale-replay", "metric-lie")
TELLS = {
    "bgp2": PATH_VECTOR,
    "ecma": PATH_VECTOR,
    "egp": ("bogus-origin", "stale-replay"),
    "idrp": PATH_VECTOR,
    "ls-hbh": LIES,
    "ls-hbh-topo": LINK_STATE,
    "ls-src-topo": LINK_STATE,
    "naive-dv": ("bogus-origin", "metric-lie"),
    "orwg": LIES,
    "plain-ls": LINK_STATE,
    "pv-src": PATH_VECTOR,
    "topo-vector-src": PATH_VECTOR,
}
TOLD = [(protocol, lie) for protocol, lies in TELLS.items() for lie in lies]

#: One protocol and one lie it can tell, per node family.
FAMILIES = (
    ("naive-dv", "metric-lie"),
    ("ecma", "metric-lie"),
    ("egp", "stale-replay"),
    ("idrp", "metric-lie"),
    ("plain-ls", "metric-lie"),
)

#: Each family's receiver-side check.
CHECKS = (
    (DVNode, "_check_entry"),
    (ECMANode, "_check_entry"),
    (EGPNode, "_check_update"),
    (IDRPNode, "_check_ad"),
    (LSNode, "_check_lsa"),
)


def converged(name, lie="metric-lie", **options):
    """A converged ``small`` internet, the AD that tells ``lie`` and the
    victim it would claim."""
    scenario = small_scenario(seed=3, num_flows=16)
    protocol = make_protocol(name, scenario.graph, scenario.policies, **options)
    protocol.converge()
    graph = protocol.graph
    liar = liar_by_role(graph, "stub" if lie == "route-leak" else "regional")
    return protocol, liar, pick_victim_stub(graph, liar)


def capture(network, liar):
    """Record ``(receiver, message)`` for every message the liar sends
    from now on (replacing any earlier capture)."""
    sent = []
    deliver = functools.partial(SimNetwork._deliver, network)

    def recording(src, dst, msg):
        if src == liar:
            sent.append((dst, msg))
        deliver(src, dst, msg)

    network._deliver = recording
    return sent


def lsa_carries(lie, liar, victim, receiver, lsa):
    if lie == "stale-replay":
        return lsa.origin != liar and lsa.seq >= 1_000
    if lie == "bogus-origin":
        forged = lsa.origin == victim and [r.neighbor for r in lsa.links] == [liar]
        return forged or (
            lsa.origin == liar and victim in [r.neighbor for r in lsa.links]
        )
    if lsa.origin != liar:
        return False
    if lie == "metric-lie":
        return any(r.delay == 0.0 or r.cost == 0.0 for r in lsa.links)
    # route-leak and term-forgery: terms the registry never held.
    return receiver._check_lsa(lsa) is not None


def carries(lie, liar, victim, receiver, msg):
    """Whether ``msg``, sent by the liar to ``receiver``, carries ``lie``."""
    if isinstance(msg, (LinkStateAd, LSDBExchange)):
        lsas = msg.ads if isinstance(msg, LSDBExchange) else (msg,)
        return any(lsa_carries(lie, liar, victim, receiver, lsa) for lsa in lsas)
    if isinstance(msg, NRUpdate):
        if lie == "stale-replay":
            return msg.seq >= 1_000
        return lie == "bogus-origin" and msg.dests == (victim,)
    if isinstance(msg, DVUpdate):
        if lie == "metric-lie":
            return any(m == 0 and d != liar for d, m in msg.entries)
        return lie == "bogus-origin" and (victim, 0) in msg.entries
    if isinstance(msg, ECMAUpdate):
        offers = [e for e in msg.entries if e[2] != ecma.INFINITE_METRIC]
        if lie == "metric-lie":
            return any(e[2] == 0.0 and e[0] != liar for e in offers)
        if lie == "bogus-origin":
            return any(e[0] == victim and e[2] == 0.0 for e in offers)
        return any(receiver._check_entry(liar, e[0], e[2]) for e in offers)
    if isinstance(msg, IDRPUpdate):
        offers = [r for r in msg.routes if not r.is_withdrawal]
        if lie == "metric-lie":
            return any(r.metric == 0.0 and r.dest != liar for r in offers)
        if lie == "bogus-origin":
            return any(r.path == (liar, victim) for r in offers)
        return any(receiver._path_implausible(r) for r in offers)
    return False


def force_readvertisement(node):
    """One full re-advertisement in the node's own currency."""
    if isinstance(node, LSNode):
        node.originate()
        return
    for nbr in node.neighbors():
        node.on_link_change(node.topology.link(node.ad_id, nbr), True)


# -------------------------------------------------------------------- lies


@pytest.mark.parametrize("protocol", available_protocols())
def test_each_protocol_tells_exactly_the_lies_listed(protocol):
    told = []
    for lie in LIES:
        proto, liar, victim = converged(protocol, lie)
        if proto.start_misbehavior(liar, lie, victim):
            told.append(lie)
    assert set(told) == set(TELLS[protocol])


@pytest.mark.parametrize("protocol, lie", TOLD)
def test_a_stopped_liar_sends_nothing_that_carries_its_lie(protocol, lie):
    proto, liar, victim = converged(protocol, lie, validation="all")
    network = proto.network
    nodes = network.nodes
    registered = proto.policies.terms_of(liar)
    lying = capture(network, liar)
    assert proto.start_misbehavior(liar, lie, victim)
    # Stop mid-burst, between the second and third re-assertions.
    network.run(until=network.clock.now + 2.5 * nodes[liar].LIE_REASSERT_INTERVAL)
    # The predicate sees the lie while it is being told ...
    assert any(carries(lie, liar, victim, nodes[dst], msg) for dst, msg in lying)
    proto.stop_misbehavior(liar)
    honest = capture(network, liar)
    force_readvertisement(nodes[liar])
    network.run()
    # ... and nothing of it once the liar has stopped, through a forced
    # re-advertisement and the rest of the burst's window.
    assert honest
    assert not [
        (dst, msg) for dst, msg in honest
        if carries(lie, liar, victim, nodes[dst], msg)
    ]
    # The scenario's own registry is the liar's no longer.
    assert proto.policies.terms_of(liar) == registered


def reassertions(node):
    """Record the time of each of ``node``'s re-assertions."""
    calls = []
    reassert = node._reassert_lies

    def counted():
        calls.append(node.now)
        reassert()

    node._reassert_lies = counted
    return calls


@pytest.mark.parametrize("protocol, lie", FAMILIES)
def test_each_family_reasserts_exactly_the_burst_then_goes_silent(protocol, lie):
    proto, liar, victim = converged(protocol, lie)
    network = proto.network
    calls = reassertions(network.nodes[liar])
    start = network.clock.now
    assert proto.start_misbehavior(liar, lie, victim)
    network.run()
    interval = ProtocolNode.LIE_REASSERT_INTERVAL
    assert calls == [
        pytest.approx(start + interval * (i + 1))
        for i in range(ProtocolNode.LIE_REASSERT_COUNT)
    ]
    # Still lying, but silent: the network quiesced with the burst over
    # and no tick armed.
    node = network.nodes[liar]
    assert node._active_lies
    assert node._lie_ticks_left == 0 and not node._lie_tick_pending


@pytest.mark.parametrize("protocol", ("naive-dv", "egp", "idrp", "ls-hbh"))
def test_a_second_lie_mid_burst_restarts_the_count_not_a_second_timer(protocol):
    proto, liar, victim = converged(protocol)
    network = proto.network
    calls = reassertions(network.nodes[liar])
    interval = ProtocolNode.LIE_REASSERT_INTERVAL
    assert proto.start_misbehavior(liar, "bogus-origin", victim)
    network.run(until=network.clock.now + 2.5 * interval)
    assert len(calls) == 2
    second = "stale-replay" if protocol in ("egp", "ls-hbh") else "metric-lie"
    assert proto.start_misbehavior(liar, second)
    node = network.nodes[liar]
    assert node._lie_ticks_left == ProtocolNode.LIE_REASSERT_COUNT
    network.run()
    # The pending tick carries on at its own phase: a fresh full burst.
    assert len(calls) == 2 + ProtocolNode.LIE_REASSERT_COUNT
    gaps = {round(b - a, 6) for a, b in zip(calls, calls[1:])}
    assert gaps == {interval}


# -------------------------------------------------------------- validation


def test_with_validation_off_no_check_runs(monkeypatch):
    def refuse(self, *claim):
        raise AssertionError(f"{type(self).__name__} checked a claim")

    for cls, name in CHECKS:
        monkeypatch.setattr(cls, name, refuse)
    for protocol in available_protocols():
        # Sequenced EGP updates: the check that keeps state would run.
        proto, liar, victim = converged(protocol, hardening="all")
        for lie in LIES:
            proto.start_misbehavior(liar, lie, victim)
        proto.network.run()
        if protocol == "egp":
            assert all(not n._last_seq for n in proto.network.nodes.values())


@pytest.mark.parametrize("protocol", ("naive-dv", "ecma", "egp", "idrp", "orwg"))
def test_with_validation_on_every_family_checks(protocol, monkeypatch):
    checked = []
    for cls, name in CHECKS:
        original = getattr(cls, name)

        def counting(self, *claim, _original=original):
            checked.append(type(self))
            return _original(self, *claim)

        monkeypatch.setattr(cls, name, counting)
    converged(protocol, validation="all", hardening="all")
    assert checked


# -------------------------------------------------------- triggered updates


def test_one_trigger_delay_and_dvs_own_argument():
    for module in (dv, ecma, egp, idrp, flooding):
        assert "TRIGGER_DELAY" not in vars(module) or module.TRIGGER_DELAY is TRIGGER_DELAY
    for cls in (DVNode, ECMANode, EGPNode, IDRPNode):
        assert issubclass(cls, VectorNode)
        assert cls.trigger_delay == TRIGGER_DELAY
        assert "_flush" not in vars(cls) and "_schedule_flush" not in vars(cls)
    scenario = small_scenario(seed=3, num_flows=16)
    proto = make_protocol(
        "naive-dv", scenario.graph, scenario.policies, trigger_delay=5.0
    )
    network = proto.build()
    first = []
    deliver = network._deliver

    def recording(src, dst, msg):
        first.append(network.clock.now)
        deliver(src, dst, msg)

    network._deliver = recording
    network.start()
    network.run()
    slowest = max(link.metrics.get("delay", 1.0) for link in proto.graph.links())
    fastest = min(link.metrics.get("delay", 1.0) for link in proto.graph.links())
    assert 5.0 + fastest <= min(first) <= 5.0 + slowest


#: What the vector engine owns; no vector protocol may define its own.
ENGINE_OWNED = (
    "_flush_batch", "_tell_lie", "_reassert_lies", "_on_reuse", "on_link_change",
    "start", "_schedule_flush", "_flush", "_suppress_withdraw_once", "behave",
)


@pytest.mark.parametrize(
    "cls", (DVNode, ECMANode, EGPNode, IDRPNode, _TopoVectorNode),
    ids=lambda cls: cls.__name__,
)
def test_every_vector_protocol_is_one_engine_plus_its_currency(cls):
    assert issubclass(cls, VectorNode)
    for klass in cls.__mro__[: cls.__mro__.index(VectorNode)]:
        assert not set(ENGINE_OWNED) & set(vars(klass)), klass


def test_the_engine_never_asks_which_protocol_it_serves():
    import ast
    import inspect

    from repro.protocols import vector

    tree = ast.parse(inspect.getsource(vector))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "isinstance" not in names and "type" not in names
    strings = {
        n.value for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    protocols = set(available_protocols()) | {"dv", "egp", "ecma", "idrp", "bgp"}
    assert not strings & protocols
