"""The canonical JSON wire codec: round-trips, framing, closed vocabulary.

Every message type that can cross the live substrate's sockets must
survive ``to_wire``/``from_wire`` exactly (hypothesis-generated values),
the text form must be canonical (equal messages encode to equal bytes),
and the decoder must reject anything outside its registered vocabulary.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.ad import Level
from repro.policy.flows import FlowSpec
from repro.policy.qos import QOS
from repro.policy.sets import ADSet, TimeWindow, _SetMode
from repro.policy.terms import PolicyTerm, TermRef
from repro.policy.uci import UCI
from repro.protocols.dv import DVUpdate
from repro.protocols.ecma import ECMAUpdate
from repro.protocols.egp import NRAck, NRUpdate
from repro.protocols.flooding import (
    ExchangeAck,
    LinkRecord,
    LinkStateAd,
    LSDBExchange,
)
from repro.protocols.idrp import IDRPUpdate, RouteAd
from repro.protocols.orwg.messages import (
    DataPacket,
    Handle,
    SetupAck,
    SetupNak,
    SetupPacket,
    TeardownPacket,
)
from repro.simul.wire import (
    WireError,
    decode_frame,
    dumps,
    encode_frame,
    from_wire,
    loads,
    to_wire,
)

# --------------------------------------------------------------- strategies

ad_ids = st.integers(min_value=0, max_value=999)
metrics = st.floats(allow_nan=False, allow_infinity=True, width=64)
hours = st.integers(min_value=0, max_value=23)
qos_values = st.sampled_from(list(QOS))
uci_values = st.sampled_from(list(UCI))
levels = st.sampled_from(list(Level))

ad_sets = st.builds(
    ADSet,
    mode=st.sampled_from(list(_SetMode)),
    members=st.frozensets(ad_ids, max_size=4),
)
windows = st.builds(TimeWindow, start_hour=hours, end_hour=hours)
flows = st.builds(
    FlowSpec, src=ad_ids, dst=ad_ids, qos=qos_values, uci=uci_values, hour=hours
)
handles = st.builds(Handle, src=ad_ids, local_id=st.integers(0, 1 << 30))
paths = st.lists(ad_ids, min_size=1, max_size=6).map(tuple)
term_refs = st.builds(TermRef, owner=ad_ids, term_id=st.integers(-1, 1 << 20))
policy_terms = st.builds(
    PolicyTerm,
    owner=ad_ids,
    sources=ad_sets,
    dests=ad_sets,
    prev_ads=ad_sets,
    next_ads=ad_sets,
    qos_classes=st.none() | st.frozensets(qos_values, max_size=3),
    ucis=st.none() | st.frozensets(uci_values, max_size=3),
    window=windows,
    charge=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    term_id=st.integers(-1, 1 << 20),
)
link_records = st.builds(
    LinkRecord,
    neighbor=ad_ids,
    delay=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    cost=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    up=st.booleans(),
    bandwidth=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
link_state_ads = st.builds(
    LinkStateAd,
    origin=ad_ids,
    seq=st.integers(0, 1 << 30),
    links=st.lists(link_records, max_size=4).map(tuple),
    terms=st.lists(policy_terms, max_size=2).map(tuple),
    origin_level=levels,
)
route_ads = st.builds(
    RouteAd,
    dest=ad_ids,
    qos=qos_values,
    path=paths,
    metric=metrics,
    allowed=ad_sets,
    cls=st.integers(0, 7),
)

messages = st.one_of(
    st.builds(
        DVUpdate,
        entries=st.lists(st.tuples(ad_ids, st.integers(0, 64)), max_size=5).map(tuple),
        poisons=st.lists(ad_ids, max_size=3).map(tuple),
    ),
    st.builds(
        ECMAUpdate,
        entries=st.lists(
            st.tuples(ad_ids, qos_values, metrics, st.integers(0, 64), st.booleans()),
            max_size=4,
        ).map(tuple),
        poisons=st.lists(st.tuples(ad_ids, qos_values), max_size=3).map(tuple),
    ),
    st.builds(NRUpdate, dests=st.lists(ad_ids, max_size=5).map(tuple),
              seq=st.integers(0, 1 << 30)),
    st.builds(NRAck, seq=st.integers(0, 1 << 30)),
    st.builds(LSDBExchange, ads=st.lists(link_state_ads, max_size=3).map(tuple),
              token=st.integers(0, 1 << 30)),
    st.builds(ExchangeAck, token=st.integers(0, 1 << 30)),
    link_state_ads,
    st.builds(IDRPUpdate, routes=st.lists(route_ads, max_size=3).map(tuple)),
    st.builds(SetupPacket, handle=handles, flow=flows, route=paths,
              term_refs=st.lists(term_refs, max_size=3).map(tuple),
              hop=st.integers(0, 16)),
    st.builds(SetupAck, handle=handles, route=paths, hop=st.integers(0, 16)),
    st.builds(SetupNak, handle=handles, route=paths, hop=st.integers(0, 16),
              rejected_by=ad_ids, reason=st.text(max_size=30)),
    st.builds(DataPacket, handle=handles, flow=flows,
              route=st.none() | paths, hop=st.integers(0, 16),
              payload_bytes=st.integers(0, 1 << 16)),
    st.builds(TeardownPacket, handle=handles, route=paths,
              hop=st.integers(0, 16)),
)


# -------------------------------------------------------------- round trips


def assert_same_types(a, b):
    """``a == b`` all the way down, and built from the very same types."""
    assert type(a) is type(b), (a, b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.init:
                assert_same_types(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_types(x, y)
    elif isinstance(a, frozenset):
        twins = {y: y for y in b}
        for x in a:
            assert_same_types(x, twins[x])


@settings(max_examples=100, deadline=None)
@given(messages)
def test_roundtrip_identity(msg):
    decoded = from_wire(to_wire(msg))
    assert decoded == msg
    # An IntEnum travels as a bare int; it must not come back as one.
    assert_same_types(decoded, msg)


@settings(max_examples=50, deadline=None)
@given(messages)
def test_text_roundtrip_and_canonical(msg):
    text = dumps(msg)
    assert loads(text) == msg
    # Canonical: re-encoding the decoded message gives identical text.
    assert dumps(loads(text)) == text
    # And the text is pure JSON (no Python-only syntax leaked through).
    json.loads(text)


@settings(max_examples=50, deadline=None)
@given(messages, ad_ids, ad_ids)
def test_frame_roundtrip(msg, src, dst):
    frame = encode_frame(src, dst, msg)
    got_src, got_dst, got_msg = decode_frame(frame)
    assert (got_src, got_dst, got_msg) == (src, dst, msg)


@settings(max_examples=25, deadline=None)
@given(messages)
def test_size_model_survives_roundtrip(msg):
    # The modelled byte size is derived from content, so the decoded
    # message must claim exactly the same size (sim/live cost parity).
    assert from_wire(to_wire(msg)).size_bytes() == msg.size_bytes()


# ------------------------------------------------------- closed vocabulary


def test_unregistered_message_type_rejected():
    with pytest.raises(WireError, match="unknown message type"):
        from_wire({"t": "os.system", "f": {}})


def test_unregistered_payload_type_rejected():
    with pytest.raises(WireError, match="unknown payload type"):
        from_wire({"t": "NRAck", "f": {"seq": {"__d": "Evil", "f": {}}}})


def test_unknown_field_rejected():
    with pytest.raises(WireError, match="no fields"):
        from_wire({"t": "NRAck", "f": {"seq": 1, "extra": 2}})


def test_untagged_object_rejected():
    with pytest.raises(WireError, match="untagged"):
        from_wire({"t": "NRAck", "f": {"seq": {"sneaky": 1}}})


def test_non_message_rejected():
    with pytest.raises(WireError):
        from_wire({"f": {}})
    with pytest.raises(WireError):
        from_wire("NRAck")


# ---------------------------------------------------------------- framing


def test_frame_length_prefix_validated():
    frame = encode_frame(1, 2, NRAck(seq=7))
    with pytest.raises(WireError, match="length"):
        decode_frame(frame + b"x")
    with pytest.raises(WireError, match="short frame"):
        decode_frame(b"\x00")


def test_frame_body_must_be_json():
    body = b"not json"
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(WireError, match="undecodable"):
        decode_frame(frame)


def test_frozenset_encoding_is_order_independent():
    a = ADSet(_SetMode.INCLUDE, frozenset([3, 1, 2]))
    b = ADSet(_SetMode.INCLUDE, frozenset([2, 3, 1]))
    ra = RouteAd(dest=9, qos=QOS.DEFAULT, path=(1,), metric=1.0, allowed=a)
    rb = RouteAd(dest=9, qos=QOS.DEFAULT, path=(1,), metric=1.0, allowed=b)
    assert dumps(IDRPUpdate(routes=(ra,))) == dumps(IDRPUpdate(routes=(rb,)))


def test_infinite_metric_survives():
    ad = RouteAd(dest=1, qos=QOS.DEFAULT, path=(2,), metric=float("inf"),
                 allowed=ADSet(_SetMode.ALL, frozenset()))
    msg = IDRPUpdate(routes=(ad,))
    assert loads(dumps(msg)) == msg
