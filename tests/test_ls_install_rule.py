"""One install rule on both link-state entry paths.

A lone :class:`~repro.protocols.flooding.LinkStateAd` is handled in place
by ``LSNode.on_message`` (guard, validation, duplicate test, install,
fan-out, with no helper call), while each LSA of an
:class:`~repro.protocols.flooding.LSDBExchange` goes through
``LSNode._install`` and ``_flood``.  The two must stay one rule: this
file delivers the same LSA both ways to twin converged networks -- at a
newer, an equal and an older sequence number, from a quarantined
sender, and failing validation -- and requires the receiver to end in
the same state (LSDB, ``db_version``, ``duplicates_ignored``, guard
ledger) having posted the same fan-out, to the same destinations in the
same order.  plain-ls and ls-hbh flood over every live link; ORWG with
``flooding="tree"`` takes the scoped ``flood_links`` branch.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because the fan-out's order must come from
the sorted incident links on both paths, never from the iteration order
of ``flood_links`` (a frozenset).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.protocols.flooding import LSDBExchange
from repro.protocols.registry import make_protocol
from repro.protocols.validation import MAX_SEQ_JUMP
from repro.workloads.scenarios import scaled_scenario

pytestmark = pytest.mark.hashseed

KINDS = {
    "plain-ls": {},
    "ls-hbh": {},
    "orwg-tree": {"flooding": "tree"},
}

#: (case, sequence-number offset from the stored LSA, validation on,
#: sender quarantined first)
CASES = [
    ("newer", 1, False, False),
    ("equal", 0, False, False),
    ("older", -1, False, False),
    ("newer-validated", 1, True, False),
    ("equal-validated", 0, True, False),
    ("older-validated", -1, True, False),
    ("suppressed", 1, True, True),
    ("rejected", MAX_SEQ_JUMP + 1, True, False),
]


def converged(kind, validation):
    scenario = scaled_scenario(16, seed=5)
    options = dict(KINDS[kind])
    if validation:
        options["validation"] = "all"
    name = "orwg" if kind == "orwg-tree" else kind
    network = make_protocol(name, scenario.graph, scenario.policies, **options).build()
    network.start()
    network.run()
    assert network.sim.pending == 0
    return network


def roles(network):
    """The receiver (the best-connected AD), a sender among its
    neighbours, and an origin that is neither."""
    receiver = max(network.nodes, key=lambda ad: (len(network.neighbors(ad)), -ad))
    sender = min(network.neighbors(receiver))
    origin = max(ad for ad in network.nodes if ad not in (receiver, sender))
    return receiver, sender, origin


def observe(network, receiver):
    node = network.nodes[receiver]
    guard = node.guard
    ledger = None
    if guard is not None:
        ledger = (
            dict(guard.violations), dict(guard.strikes), guard.suppressed,
            dict(guard._quarantined_until), len(guard.quarantine_events),
        )
    posted = [
        (instant, entry[1:])
        for instant in sorted(network.sim._buckets)
        for entry in network.sim._buckets[instant]
    ]
    return (
        list(node.lsdb.items()), node.db_version, node.duplicates_ignored,
        ledger, posted,
    )


def deliver(kind, validation, quarantine, wrap, lsa_for):
    """Deliver ``lsa_for(stored LSA)`` alone or wrapped; the receiver's
    state before and after, and the roles."""
    network = converged(kind, validation)
    receiver, sender, origin = roles(network)
    node = network.nodes[receiver]
    if quarantine:
        node.guard.quarantine_now(sender, "quarantined by the test")
    before = observe(network, receiver)
    lsa = lsa_for(node.lsdb[origin])
    node.receive(sender, LSDBExchange((lsa,)) if wrap else lsa)
    return before, observe(network, receiver), (network, receiver, sender)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("case, offset, validation, quarantine", CASES)
def test_a_lone_lsa_and_the_same_lsa_in_an_exchange_leave_the_same_state(
    kind, case, offset, validation, quarantine
):
    made = []

    def lsa_for(stored):
        # One object for both deliveries, so the fan-out compares it.
        if not made:
            made.append(replace(stored, seq=stored.seq + offset))
        return made[0]

    before, alone, (network, receiver, sender) = deliver(
        kind, validation, quarantine, False, lsa_for
    )
    _, wrapped, _ = deliver(kind, validation, quarantine, True, lsa_for)
    assert alone == wrapped

    # Each case reaches what it is there for.
    lsdb, version, duplicates, ledger, posted = alone
    installed = case.startswith("newer")
    assert version == before[1] + installed
    assert (lsdb == before[0]) == (not installed)
    assert duplicates == before[2] + (offset <= 0 and not quarantine)
    node = network.nodes[receiver]
    scope = [
        nbr for nbr in network.neighbors(receiver)
        if nbr != sender
        and (
            node.flood_links is None
            or (min(receiver, nbr), max(receiver, nbr)) in node.flood_links
        )
    ]
    assert scope  # a fan-out, had there been one, would have been seen
    # (``posted`` runs in delivery-time order, so compare as sets here.)
    assert sorted((src, dst) for _, (src, dst, _) in posted) == (
        [(receiver, nbr) for nbr in sorted(scope)] if installed else []
    )
    if ledger is not None:
        violations, _, suppressed, _, _ = ledger
        assert violations == ({sender: 1} if case == "rejected" else before[3][0])
        assert suppressed == before[3][2] + (case == "suppressed")
