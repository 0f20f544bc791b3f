"""Tests for Policy Terms."""

import math

import pytest

from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.sets import ADSet, TimeWindow
from repro.policy.terms import PolicyTerm, TermRef
from repro.policy.uci import UCI
from tests.helpers import term_is_open


def flow(**kw):
    defaults = dict(src=1, dst=9, qos=QOS.DEFAULT, uci=UCI.DEFAULT, hour=12)
    defaults.update(kw)
    return FlowSpec(**defaults)


class TestPermits:
    def test_open_term_permits_everything(self):
        t = PolicyTerm(owner=5)
        assert term_is_open(t)
        assert t.permits(flow(), prev=2, nxt=3)

    def test_source_constraint(self):
        t = PolicyTerm(owner=5, sources=ADSet.of([1, 2]))
        assert t.permits(flow(src=1), 2, 3)
        assert not t.permits(flow(src=7), 2, 3)

    def test_dest_constraint(self):
        t = PolicyTerm(owner=5, dests=ADSet.excluding([9]))
        assert not t.permits(flow(dst=9), 2, 3)
        assert t.permits(flow(dst=8), 2, 3)

    def test_prev_next_constraints(self):
        t = PolicyTerm(owner=5, prev_ads=ADSet.of([2]), next_ads=ADSet.of([3]))
        assert t.permits(flow(), 2, 3)
        assert not t.permits(flow(), 4, 3)
        assert not t.permits(flow(), 2, 4)

    def test_qos_constraint(self):
        t = PolicyTerm(owner=5, qos_classes=frozenset({QOS.LOW_COST}))
        assert t.permits(flow(qos=QOS.LOW_COST), 2, 3)
        assert not t.permits(flow(qos=QOS.DEFAULT), 2, 3)

    def test_uci_constraint(self):
        t = PolicyTerm(owner=5, ucis=frozenset({UCI.RESEARCH}))
        assert t.permits(flow(uci=UCI.RESEARCH), 2, 3)
        assert not t.permits(flow(uci=UCI.COMMERCIAL), 2, 3)

    def test_time_window(self):
        t = PolicyTerm(owner=5, window=TimeWindow(22, 6))
        assert t.permits(flow(hour=23), 2, 3)
        assert not t.permits(flow(hour=12), 2, 3)

    def test_all_dimensions_conjunct(self):
        t = PolicyTerm(
            owner=5,
            sources=ADSet.of([1]),
            qos_classes=frozenset({QOS.DEFAULT}),
            window=TimeWindow(10, 14),
        )
        assert t.permits(flow(src=1, hour=12), 2, 3)
        assert not t.permits(flow(src=1, hour=15), 2, 3)
        assert not t.permits(flow(src=2, hour=12), 2, 3)


class TestMatchesExceptSource:
    def test_ignores_sources(self):
        t = PolicyTerm(owner=5, sources=ADSet.of([1]))
        assert t.matches_except_source(9, 2, 3, QOS.DEFAULT, UCI.DEFAULT, 12)

    def test_still_checks_other_dimensions(self):
        t = PolicyTerm(owner=5, dests=ADSet.of([8]))
        assert not t.matches_except_source(9, 2, 3, QOS.DEFAULT, UCI.DEFAULT, 12)
        t2 = PolicyTerm(owner=5, next_ads=ADSet.of([4]))
        assert not t2.matches_except_source(9, 2, 3, QOS.DEFAULT, UCI.DEFAULT, 12)
        assert t2.matches_except_source(9, 2, 4, QOS.DEFAULT, UCI.DEFAULT, 12)


class TestMisc:
    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            PolicyTerm(owner=1, charge=-1.0)

    @pytest.mark.parametrize("charge", [math.inf, math.nan])
    def test_non_finite_charge_rejected_by_name(self, charge):
        # ``nan < 0`` is false, and under the default charge_weight of 0
        # ``0.0 * inf`` is NaN: synthesis would drop every relaxation
        # through the term while legality still calls the path legal.
        with pytest.raises(ValueError, match=f"charge {charge!r} is not finite"):
            PolicyTerm(owner=1, charge=charge)

    def test_ref(self):
        t = PolicyTerm(owner=5, term_id=2)
        assert t.ref == TermRef(5, 2)
        assert t.ref.size_bytes() == 4

    def test_size_bytes_grows_with_constraints(self):
        open_term = PolicyTerm(owner=5)
        narrow = PolicyTerm(owner=5, sources=ADSet.of(range(10)))
        assert narrow.size_bytes() > open_term.size_bytes()

    def test_is_open_false_when_constrained(self):
        assert not term_is_open(PolicyTerm(owner=1, ucis=frozenset({UCI.DEFAULT})))
        assert not term_is_open(PolicyTerm(owner=1, window=TimeWindow(1, 2)))
