"""Tests for receiver-side validation: config normalization, the
per-neighbor quarantine state machine, registry plumbing, and end-to-end
containment of a lying AD."""

import dataclasses

import pytest

from repro.policy.database import PolicyDatabase
from repro.policy.flows import FlowSpec
from repro.policy.sets import ADSet
from repro.policy.terms import PolicyTerm
from repro.protocols.idrp import IDRPProtocol
from repro.protocols.lshbh import LinkStateHopByHopProtocol
from repro.protocols.registry import make_protocol
from repro.protocols.validation import (
    FEATURES,
    FULL,
    MAX_SEQ_JUMP,
    OFF,
    PROBATION_PERIOD,
    QUARANTINE_PERIOD,
    THRESHOLD,
    NeighborGuard,
    ValidationConfig,
    validation_from,
)
from tests.helpers import mk_graph, open_db


class TestValidationFrom:
    def test_none_and_empty_mean_off(self):
        assert validation_from(None) == OFF
        assert validation_from("none") == OFF
        assert validation_from("") == OFF

    def test_all_means_full(self):
        assert validation_from("all") == FULL

    def test_config_passes_through(self):
        config = ValidationConfig(seq_guard=True)
        assert validation_from(config) is config

    def test_single_feature_name(self):
        config = validation_from("term_guard")
        assert config.term_guard
        assert config.enabled == ("term_guard",)

    def test_comma_and_plus_separated_lists(self):
        by_comma = validation_from("path_check,quarantine")
        by_plus = validation_from("path_check+quarantine")
        assert by_comma == by_plus
        assert by_comma.enabled == ("path_check", "quarantine")

    def test_iterable_of_names(self):
        config = validation_from(["seq_guard", "metric_guard"])
        assert config.enabled == ("seq_guard", "metric_guard")

    def test_whitespace_stripped(self):
        assert validation_from(" seq_guard , origin_check ").enabled == (
            "origin_check",
            "seq_guard",
        )


class TestValidationConfig:
    def test_off_is_inert(self):
        assert not OFF.any_enabled
        assert not OFF.checks_enabled
        assert OFF.enabled == ()
        assert str(OFF) == "none"

    def test_full_enables_everything(self):
        assert FULL.any_enabled
        assert FULL.checks_enabled
        assert FULL.enabled == FEATURES
        assert str(FULL) == "+".join(FEATURES)

    def test_quarantine_alone_is_not_a_check(self):
        # Quarantine without checks never fires: nothing charges strikes.
        config = ValidationConfig(quarantine=True)
        assert config.any_enabled
        assert not config.checks_enabled

    def test_enabled_is_in_canonical_order(self):
        config = ValidationConfig(term_guard=True, path_check=True)
        assert config.enabled == ("path_check", "term_guard")


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_guard(**overrides):
    defaults = dict(quarantine=True)
    defaults.update(overrides)
    clock = _Clock()
    return NeighborGuard(ValidationConfig(**defaults), clock), clock


class TestNeighborGuard:
    def test_quarantines_at_threshold(self):
        guard, _ = make_guard()
        assert not guard.violation(7, "bad lsa")
        assert not guard.violation(7, "bad lsa")
        assert guard.violation(7, "bad lsa")
        assert guard.total_violations == 3
        assert len(guard.quarantine_events) == 1
        assert guard.quarantine_events[0].neighbor == 7
        # Strikes reset on quarantine: the next cycle starts from zero.
        assert guard.strikes[7] == 0

    def test_strikes_are_per_neighbor(self):
        guard, _ = make_guard()
        guard.violation(1, "x")
        guard.violation(1, "x")
        assert not guard.violation(2, "x")
        assert guard.quarantine_events == []

    def test_suppresses_during_quarantine_only(self):
        guard, clock = make_guard()
        for _ in range(THRESHOLD):
            guard.violation(7, "x")
        assert guard.suppresses(7)
        assert guard.suppressed == 1
        clock.t = QUARANTINE_PERIOD + 1.0  # past the penalty timer
        assert not guard.suppresses(7)
        assert guard.suppressed == 1

    def test_probation_violation_requarantines_immediately(self):
        guard, clock = make_guard()
        for _ in range(THRESHOLD):
            guard.violation(7, "x")
        clock.t = QUARANTINE_PERIOD + 1.0
        assert not guard.suppresses(7)  # released, now on probation
        assert guard.violation(7, "relapse")
        assert len(guard.quarantine_events) == 2
        assert guard.suppresses(7)

    def test_probation_expires(self):
        guard, clock = make_guard()
        for _ in range(THRESHOLD):
            guard.violation(7, "x")
        clock.t = QUARANTINE_PERIOD + 1.0
        guard.suppresses(7)  # release into probation
        clock.t = QUARANTINE_PERIOD + 1.0 + PROBATION_PERIOD  # probation over
        assert not guard.violation(7, "late")  # needs a full cycle again

    def test_honest_neighbor_never_suppressed(self):
        guard, _ = make_guard()
        assert not guard.suppresses(5)

    def test_without_quarantine_only_counts(self):
        guard, _ = make_guard(quarantine=False)
        for _ in range(10):
            assert not guard.violation(7, "x")
        assert guard.total_violations == 10
        assert not guard.suppresses(7)
        assert guard.quarantine_events == []

    def test_summary_counters(self):
        guard, _ = make_guard()
        for _ in range(3):
            guard.violation(7, "x")
        guard.suppresses(7)
        # What the validation row's collector sums network-wide.
        assert guard.total_violations == 3
        assert [ev.neighbor for ev in guard.quarantine_events] == [7]
        assert guard.suppressed == 1


class TestRegistryValidationOption:
    def test_default_is_off(self):
        g = mk_graph([(0, "Rt"), (1, "Rt")], [(0, 1)])
        proto = make_protocol("ls-hbh", g, open_db(g))
        assert proto.runtime.validation == OFF

    def test_validation_pseudo_option(self):
        g = mk_graph([(0, "Rt"), (1, "Rt")], [(0, 1)])
        proto = make_protocol("ls-hbh", g, open_db(g), validation="all")
        assert proto.runtime.validation == FULL

    def test_distributed_to_every_node_at_build(self):
        g = mk_graph([(0, "Rt"), (1, "Rt")], [(0, 1)])
        proto = make_protocol("idrp", g, open_db(g), validation="all")
        proto.build()
        for node in proto.network.nodes.values():
            assert node.validation == FULL
            assert node.guard is not None
        # Validation-off nodes carry no guard at all.
        plain = make_protocol("idrp", g.copy(), open_db(g))
        plain.build()
        assert all(n.guard is None for n in plain.network.nodes.values())


def leak_setting():
    """One backbone between two stubs; the backbone's registered term
    refuses traffic sourced at AD 3, so flow 3->4 has no legal route
    until the backbone leaks (forges an ultra-permissive term)."""
    g = mk_graph([(0, "Bt"), (3, "Cs"), (4, "Cs")], [(0, 3), (0, 4)])
    db = PolicyDatabase([PolicyTerm(owner=0, sources=ADSet.excluding([3]))])
    return g, db


@pytest.mark.parametrize(
    "jump, accepted", [(MAX_SEQ_JUMP, True), (MAX_SEQ_JUMP + 1, False)]
)
def test_seq_guard_tolerates_jumps_up_to_max_seq_jump(jump, accepted):
    g, db = leak_setting()
    proto = LinkStateHopByHopProtocol(g, db)
    proto.runtime = proto.runtime.replace(
        validation=ValidationConfig(seq_guard=True)
    )
    proto.converge()
    receiver = proto.network.node(3)
    current = receiver.lsdb[0]
    jumped = dataclasses.replace(current, seq=current.seq + jump)
    verdict = receiver._check_lsa(jumped)
    if accepted:
        assert verdict is None
    else:
        assert "implausible sequence jump" in verdict


@pytest.mark.parametrize("cls", [LinkStateHopByHopProtocol, IDRPProtocol])
class TestContainment:
    def test_unvalidated_receivers_swallow_a_route_leak(self, cls):
        g, db = leak_setting()
        proto = cls(g, db)
        proto.converge()
        flow = FlowSpec(3, 4)
        assert proto.find_route(flow) is None
        assert proto.start_misbehavior(0, "route-leak")
        proto.network.run()
        # Receivers believed the forged term: the illegal route appears.
        assert proto.find_route(flow) == (3, 0, 4)

    def test_validating_receivers_contain_it(self, cls):
        g, db = leak_setting()
        proto = cls(g, db)
        proto.runtime = proto.runtime.replace(validation=FULL)
        proto.converge()
        flow = FlowSpec(3, 4)
        assert proto.start_misbehavior(0, "route-leak")
        proto.network.run()
        assert proto.find_route(flow) is None
        summary = proto.runtime_summary("validation")
        assert summary["violations"] > 0
        assert summary["quarantined_ads"] == [0]
        assert summary["false_quarantines"] == 0

    def test_honest_traffic_trips_nothing(self, cls):
        g, db = leak_setting()
        proto = cls(g, db)
        proto.runtime = proto.runtime.replace(validation=FULL)
        proto.converge()
        summary = proto.runtime_summary("validation")
        assert summary["violations"] == 0
        assert summary["quarantines"] == 0
