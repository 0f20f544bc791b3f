"""Tests for the design-point registry."""

import pytest

from repro.core.design_space import enumerate_design_space
from repro.policy.qos import QOS
from repro.protocols.base import ForwardingMode
from repro.protocols.registry import (
    PROTOCOL_FOR_POINT,
    available_protocols,
    design_point_of,
    make_protocol,
)
from tests.helpers import open_db, small_hierarchy


def test_every_design_point_has_an_implementation():
    assert set(PROTOCOL_FOR_POINT) == set(enumerate_design_space())


def test_implementations_claim_their_point():
    for point, factory in PROTOCOL_FOR_POINT.items():
        assert factory.design_point == point


def test_forwarding_mode_matches_axis():
    for point, factory in PROTOCOL_FOR_POINT.items():
        expected = (
            ForwardingMode.SOURCE
            if point.location.short == "Src"
            else ForwardingMode.HOP_BY_HOP
        )
        assert factory.mode is expected


def test_instantiation_and_convergence():
    g = small_hierarchy()
    db = open_db(g)
    for point in enumerate_design_space():
        proto = make_protocol(point, g.copy(), db.copy())
        result = proto.converge()
        assert result.messages > 0, f"{point.label} never exchanged messages"


class TestMakeProtocol:
    def test_by_point_and_by_name_agree(self):
        g = small_hierarchy()
        db = open_db(g)
        for point in enumerate_design_space():
            by_point = make_protocol(point, g.copy(), db.copy())
            by_name = make_protocol(by_point.name, g.copy(), db.copy())
            assert type(by_point) is type(by_name)
            assert design_point_of(by_point.name) == point

    def test_every_registered_name_constructs_and_converges(self):
        g = small_hierarchy()
        db = open_db(g)
        for name in available_protocols():
            proto = make_protocol(name, g.copy(), db.copy())
            assert proto.name == name
            assert proto.converge().messages > 0, f"{name} never exchanged"

    def test_covers_eight_points_plus_baselines(self):
        names = available_protocols()
        assert len(names) == 12
        for baseline in ("egp", "naive-dv", "plain-ls", "bgp2"):
            assert baseline in names
            assert design_point_of(baseline) is None

    def test_unknown_name_raises_with_listing(self):
        g = small_hierarchy()
        with pytest.raises(ValueError, match="unknown protocol 'ospf'.*orwg"):
            make_protocol("ospf", g, open_db(g))

    def test_options_forwarded_to_constructor(self):
        g = small_hierarchy()
        db = open_db(g)
        proto = make_protocol("naive-dv", g.copy(), db.copy(), infinity=9)
        assert proto.infinity == 9

    def test_qos_classes_option_normalized_from_strings(self):
        g = small_hierarchy()
        db = open_db(g)
        proto = make_protocol(
            "ecma", g.copy(), db.copy(), qos_classes=("default",)
        )
        assert proto.qos_classes == frozenset({QOS.DEFAULT})


class TestBuildGuard:
    def test_apply_link_status_before_build_raises(self):
        g = small_hierarchy()
        proto = make_protocol("idrp", g, open_db(g))
        with pytest.raises(RuntimeError, match="build\\(\\)"):
            proto.apply_link_status(0, 1, False)

    def test_egp_guard_too(self):
        g = small_hierarchy()
        proto = make_protocol("egp", g, open_db(g))
        with pytest.raises(RuntimeError, match="build\\(\\)"):
            proto.apply_link_status(0, 1, False)
