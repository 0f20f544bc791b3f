"""The live frame path: plans, the encode memo, the decoder's checks.

``encode_frame`` serialises a message once and splices envelopes around
the text; an exchange's LSAs are spliced from the texts their floods
already made.  These shortcuts must be invisible: frames stay
byte-identical to the plain ``json.dumps`` encoder
(``tests/oracles.py::reference_frame``) and the memo is bounded.
``decode_frame_ex`` checks every frame's length prefix, envelope and
version, and nothing but ``WireError`` escapes it whatever a peer sends.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because canonical frozenset ordering and the
spliced envelope must not depend on set or dict hash order: the golden
frames and the reference-encoder comparison must hold under either seed.
"""

import asyncio
import dataclasses
import json
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live import LiveNetwork, settle
from repro.policy.generators import open_policies
from repro.protocols.dv import DVUpdate
from repro.protocols.egp import NRAck
from repro.protocols.flooding import LinkRecord, LinkStateAd, LSDBExchange
from repro.protocols.registry import make_protocol
from repro.protocols.versioning import Hello
from repro.simul import wire
from repro.simul.messages import Message
from repro.simul.wire import (
    WireError,
    WireVersionError,
    decode_frame_ex,
    encode_frame,
    to_wire,
)

from .helpers import codec_calls, mk_graph
from .oracles import framed, reference_frame
from .test_simul_wire import ad_ids, assert_same_types, link_state_ads, messages
from .test_wire_golden import SAMPLES, VERSIONS, _golden

pytestmark = pytest.mark.hashseed


@pytest.fixture(autouse=True)
def cold_tables():
    wire._ENCODED.clear()
    yield


# ------------------------------------------- byte identity, cold and warm


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_frames_match_reference_cold_and_warm(name):
    msg = SAMPLES[name]
    for version in VERSIONS:
        expected = reference_frame(1, 2, msg, version)
        assert encode_frame(1, 2, msg, version=version) == expected  # cold
        assert encode_frame(1, 2, msg, version=version) == expected  # warm
        # Same text, another envelope: only the splice may differ.
        assert encode_frame(7, 12345, msg, version=version) == reference_frame(
            7, 12345, msg, version
        )


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_versions_interleaved_on_one_object(name):
    msg = SAMPLES[name]
    order = [VERSIONS[0], VERSIONS[-1], VERSIONS[0]]
    for _ in range(2):
        for version in order:
            assert encode_frame(3, 4, msg, version=version) == reference_frame(
                3, 4, msg, version
            )


def test_destinations_interleaved_between_two_objects():
    a, b = SAMPLES["LinkStateAd"], SAMPLES["IDRPUpdate"]
    for dst in (2, 9, 2, 77, 9):
        for msg in (a, b):
            assert encode_frame(1, dst, msg) == reference_frame(
                1, dst, msg, wire.WIRE_VERSION
            )


@settings(max_examples=100, deadline=None)
@given(messages, ad_ids, ad_ids, st.sampled_from(VERSIONS))
def test_generated_frames_match_reference(msg, src, dst, version):
    expected = reference_frame(src, dst, msg, version)
    assert encode_frame(src, dst, msg, version=version) == expected
    assert encode_frame(src, dst, msg, version=version) == expected
    assert encode_frame(dst, src, msg, version=version) == reference_frame(
        dst, src, msg, version
    )


def test_non_integer_addresses_take_the_json_form():
    msg = SAMPLES["NRAck"]
    # 1, True and 1.0 are equal keys but three different addresses.
    for src, dst in ((1, 2), (True, 2), (1.0, 2), ("a", 2), (True, None), (1.5, -3)):
        assert encode_frame(src, dst, msg) == reference_frame(
            src, dst, msg, wire.WIRE_VERSION
        )


def test_equal_messages_share_text_but_not_identity():
    a = NRAck(seq=5)
    b = NRAck(seq=5)
    assert encode_frame(1, 2, a) == encode_frame(1, 2, b)
    # Keyed by identity: two entries, each holding its message alive.
    assert len(wire._ENCODED) == 2


def test_message_holding_a_list_is_never_served_stale_text():
    entries = [(7, 2)]
    msg = DVUpdate(entries=entries, poisons=())
    first = encode_frame(1, 2, msg)
    assert first == reference_frame(1, 2, msg, wire.WIRE_VERSION)
    entries.append((9, 5))
    second = encode_frame(1, 2, msg)
    assert second != first
    assert second == reference_frame(1, 2, msg, wire.WIRE_VERSION)
    # A list nested below a tuple is caught too.
    nested = DVUpdate(entries=((7, 2),), poisons=([11],))
    encode_frame(1, 2, nested)
    assert len(wire._ENCODED) == 0


def test_encode_memo_is_bounded_in_bytes():
    for seq in range(6000):
        encode_frame(1, 2, NRAck(seq=seq))
    assert 0 < wire._ENCODED.used <= wire._ENCODED.cap
    assert len(wire._ENCODED) < 6000


# ------------------------------------------ spliced exchanges, cold and warm


@settings(max_examples=100, deadline=None)
@given(st.lists(link_state_ads, min_size=1, max_size=4), st.data())
def test_spliced_exchanges_match_reference(pool, data):
    wire._ENCODED.clear()
    version = data.draw(st.sampled_from(VERSIONS))
    # Some LSAs were flooded before, at either version; some never were.
    for lsa in pool:
        flooded_at = data.draw(st.sampled_from([None, *VERSIONS]))
        if flooded_at is not None:
            assert encode_frame(1, 2, lsa, version=flooded_at) == reference_frame(
                1, 2, lsa, flooded_at
            )
    ads = tuple(data.draw(st.lists(st.sampled_from(pool), max_size=6)))
    exchange = LSDBExchange(ads=ads, token=data.draw(st.integers(0, 1 << 30)))
    expected = reference_frame(3, 4, exchange, version)
    assert encode_frame(3, 4, exchange, version=version) == expected  # cold
    assert encode_frame(3, 4, exchange, version=version) == expected  # warm
    # Texts first made for the exchange serve later floods unchanged.
    for lsa in pool:
        assert encode_frame(5, 6, lsa, version=version) == reference_frame(
            5, 6, lsa, version
        )


def test_exchange_holding_a_list_is_rendered_every_time():
    links = [LinkRecord(neighbor=2, delay=1.0, cost=3.0, up=True)]
    lsa = LinkStateAd(origin=1, seq=1, links=links)
    exchange = LSDBExchange(ads=(SAMPLES["LinkStateAd"], lsa))
    assert encode_frame(1, 2, exchange) == reference_frame(
        1, 2, exchange, wire.WIRE_VERSION
    )
    links.append(LinkRecord(neighbor=3, delay=1.0, cost=3.0, up=False))
    assert encode_frame(1, 2, exchange) == reference_frame(
        1, 2, exchange, wire.WIRE_VERSION
    )
    # Only the list-free member is kept.
    assert len(wire._ENCODED) == 1


# --------------------------------------------------- down-emitted bodies


def test_v1_hello_is_parsed_so_its_new_fields_default():
    hello = Hello(version=2, min_version=1, capabilities=("graceful",))
    decoded = decode_frame_ex(encode_frame(1, 2, hello, version=1))[2]
    assert decoded is not hello
    assert decoded == Hello(version=2, min_version=1)


# ------------------------------------------- every frame is checked


def _lsa_frame():
    frame = encode_frame(1, 2, SAMPLES["LinkStateAd"])
    return frame, decode_frame_ex(frame)[2]


@pytest.mark.parametrize("token", [b"NaN", b"Infinity"])
def test_a_non_finite_term_charge_is_refused(token):
    # json.loads accepts both tokens; the term's constructor must refuse
    # them (0.0 * inf is NaN: synthesis would silently drop the term).
    frame = encode_frame(1, 2, SAMPLES["LinkStateAd"])
    body = frame[4:].replace(b'"charge":2.5', b'"charge":' + token)
    assert body != frame[4:]
    with pytest.raises(WireError, match="charge"):
        decode_frame_ex(len(body).to_bytes(4, "big") + body)


def test_decode_checks_the_length_prefix():
    frame, _ = _lsa_frame()
    with pytest.raises(WireError, match="length"):
        decode_frame_ex(frame + b"x")
    with pytest.raises(WireError, match="length"):
        decode_frame_ex(frame[:-1])
    bad_prefix = (len(frame) + 3).to_bytes(4, "big") + frame[4:]
    with pytest.raises(WireError, match="length"):
        decode_frame_ex(bad_prefix)


@pytest.mark.parametrize("bad", [0, wire.WIRE_VERSION + 97, -1])
def test_decode_checks_the_version(bad):
    frame, _ = _lsa_frame()
    body = frame[4:].replace(b',"v":%d}' % wire.WIRE_VERSION, b',"v":%d}' % bad)
    doctored = len(body).to_bytes(4, "big") + body
    with pytest.raises(WireVersionError) as exc:
        decode_frame_ex(doctored)
    assert (exc.value.src, exc.value.version) == (1, bad)


@pytest.mark.parametrize("lenient_first", [True, False])
def test_strict_and_lenient_decode_the_same_body_independently(lenient_first):
    data = to_wire(SAMPLES["NRAck"])
    data["f"]["from_the_future"] = 1
    v2 = framed({"s": 1, "d": 2, "m": data, "v": 2})
    v1 = framed({"s": 1, "d": 2, "m": data})

    def lenient():
        assert decode_frame_ex(v2)[2] == SAMPLES["NRAck"]

    def strict():
        with pytest.raises(WireError, match="no fields"):
            decode_frame_ex(v1)

    for step in (lenient, strict) if lenient_first else (strict, lenient):
        step()
        step()


def test_non_canonical_envelopes_decode():
    frame, msg = _lsa_frame()
    envelope = json.loads(frame[4:])
    reordered = {k: envelope[k] for k in ("v", "s", "m", "d")}
    for variant in (
        framed(reordered, sort_keys=False),
        framed(envelope, separators=(", ", ": ")),
        framed(envelope, indent=1),
        framed({**envelope, "extra": {"x": 1}}),
    ):
        src, dst, decoded, version = decode_frame_ex(variant)
        assert (src, dst, version) == (1, 2, wire.WIRE_VERSION)
        assert decoded == msg


def test_envelope_keys_smuggled_into_the_body_span_are_not_trusted():
    # Canonical prefix and suffix, but what sits between "m": and ,"s":
    # is not one JSON value: the later "d" wins, as in any JSON parser.
    inner = json.dumps(to_wire(SAMPLES["NRAck"]), sort_keys=True, separators=(",", ":"))
    body = ('{"d":2,"m":%s,"d":9,"s":1}' % inner).encode()
    src, dst, msg, version = decode_frame_ex(len(body).to_bytes(4, "big") + body)
    assert (src, dst, version) == (1, 9, 1)
    assert msg == SAMPLES["NRAck"]


def ring8():
    return mk_graph(
        [(i, "Rt") for i in range(8)],
        [(i, (i + 1) % 8) for i in range(8)],
    )


def test_dispatch_counts_and_rejects_per_frame():
    async def scenario():
        graph = ring8()
        proto = make_protocol(
            "plain-ls", graph, open_policies(graph).policies, substrate="live"
        )
        network = LiveNetwork(proto.graph, time_scale=0.002)
        proto.build(network=network)
        await network.start()
        try:
            assert await settle(network, timeout_s=30.0)
            metrics = network.metrics
            runtime = network._runtimes[2]
            # AD 2 already holds AD 1's LSA: redelivery is a duplicate,
            # so dispatching it sends nothing.
            lsa = network.nodes[2].lsdb[1]
            frame = encode_frame(1, 2, lsa)

            delivered = metrics.messages["LinkStateAd"]
            runtime._dispatch(frame)
            assert metrics.messages["LinkStateAd"] == delivered + 1

            with pytest.raises(WireError, match="AD 2: frame length"):
                runtime._dispatch(frame + b"x")

            with pytest.raises(WireError, match="addressed to AD 3"):
                runtime._dispatch(encode_frame(1, 3, lsa))

            network.crash_node(2)
            dropped = metrics.dropped
            runtime._dispatch(frame)
            runtime._dispatch(frame)
            assert metrics.dropped == dropped + 2
            network.restore_node(2)

            network.set_recv_loss(1.0, seed=4)
            lost = metrics.channel_dropped
            runtime._dispatch(frame)
            runtime._dispatch(frame)
            assert metrics.channel_dropped == lost + 2
            network.set_recv_loss(0.0)
            assert metrics.messages["LinkStateAd"] == delivered + 1

            body = frame[4:].replace(b',"v":2}', b',"v":99}')
            rejected = metrics.version_rejected
            runtime._dispatch(len(body).to_bytes(4, "big") + body)
            assert metrics.version_rejected == rejected + 1
            assert 1 in network.nodes[2].version_blocked
            assert network.errors == []
        finally:
            await network.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


def test_ring8_flap_decodes_one_frame_per_kind_and_reencodes_no_flooded_lsa(
    monkeypatch,
):
    # Every frame is sent in this process and every datagram is in the
    # in-flight table when it arrives: nothing is split, each settle
    # leaves the table empty, and the only frames decoded (and parsed)
    # are the one per message kind the sender checks lossless.  The
    # LSDBExchange that re-syncs the repaired link is spliced from LSA
    # texts the floods already made.
    parses = []
    parse = wire.from_wire

    def counting_parse(data, **options):
        parses.append(data)
        return parse(data, **options)

    rendered = []
    encode_fields = wire._encode_fields

    def counting_fields(obj, names, lists):
        if type(obj) is LinkStateAd:
            rendered.append(obj)  # held, so no id is reused
        return encode_fields(obj, names, lists)

    monkeypatch.setattr(wire, "from_wire", counting_parse)
    monkeypatch.setattr(wire, "_encode_fields", counting_fields)

    async def scenario():
        graph = ring8()
        proto = make_protocol(
            "plain-ls", graph, open_policies(graph).policies, substrate="live"
        )
        network = LiveNetwork(proto.graph, time_scale=0.002)
        proto.build(network=network)
        await network.start()
        try:
            assert await settle(network, timeout_s=30.0)
            assert network._in_flight == {}
            network.set_link_status(0, 1, False)
            assert await settle(network, timeout_s=30.0)
            assert network._in_flight == {}
            network.set_link_status(0, 1, True)
            assert await settle(network, timeout_s=30.0)
            assert network._in_flight == {}
            assert network.errors == []
            return (
                dict(network.metrics.messages),
                network.datagrams_sent,
                set(network._checked_kinds),
            )
        finally:
            await network.close()

    with codec_calls() as calls:
        messages, datagrams, checked = asyncio.run(
            asyncio.wait_for(scenario(), timeout=60.0)
        )
    assert messages["LSDBExchange"] > 0 and messages["LinkStateAd"] > 0
    assert datagrams > 0
    assert {(cls.__name__, version) for cls, version in checked} == {
        (name, wire.WIRE_VERSION) for name in messages
    }
    assert calls == {"split": 0, "decode": len(checked)}
    assert len(parses) == len(checked)
    assert rendered and len({id(lsa) for lsa in rendered}) == len(rendered)


# --------------------------------------------------------- bounded cache


def test_byte_bounded_cache_forgets_oldest_first():
    link = LinkRecord(neighbor=2, delay=1.0, cost=3.0, up=True)
    big = LSDBExchange(
        ads=tuple(
            LinkStateAd(origin=i, seq=1, links=(link,) * 6) for i in range(100)
        )
    )
    frame = encode_frame(1, 2, big)
    assert 60_000 < len(frame) < 65_507
    assert decode_frame_ex(frame)[2] == big

    # An entry dearer than the whole cache is never kept.
    tiny = wire._ByteBoundedCache(1024)
    tiny.put("k", "v", 2048)
    assert len(tiny) == 0 and tiny.used == 0
    tiny.put("a", 1, 300)
    tiny.put("b", 2, 300)
    assert tiny.get("a") is None and tiny.get("b") == 2
    assert tiny.used == 300 + wire._ENTRY_BYTES


# -------------------------------------------------------------- registry


def test_every_registered_class_compiles_an_immutable_plan():
    registered = {**wire._message_types(), **wire._nested_types()}
    for cls in registered.values():
        plan = wire._plan(cls)
        assert cls.__dataclass_params__.frozen
        assert plan.known == frozenset(plan.names)
        assert set(plan.names) == {
            f.name for f in dataclasses.fields(cls) if f.init
        }
    assert dict(wire._plan(LinkStateAd).enums) == {
        "origin_level": type(SAMPLES["LinkStateAd"].origin_level)
    }


def test_registering_a_mutable_payload_type_fails_loudly():
    @dataclasses.dataclass
    class Thawed:
        seq: int = 0

    @dataclasses.dataclass(frozen=True)
    class HoldsList(Message):
        seqs: list = ()

    @dataclasses.dataclass(frozen=True)
    class HoldsStranger(Message):
        inner: Tuple[Thawed, ...] = ()

    for cls, complaint in (
        (Thawed, "not a frozen dataclass"),
        (HoldsList, "HoldsList.seqs"),
        (HoldsStranger, "HoldsStranger.inner"),
    ):
        with pytest.raises(TypeError, match=complaint):
            wire._plan(cls)


# ------------------------------------------- only WireError gets outside


@pytest.mark.parametrize(
    "message",
    [
        {"t": "LinkStateAd", "f": {"origin_level": {"__e": "Level"}}},
        {"t": "NRAck", "f": [1, 2]},
        {"t": ["x"], "f": {}},
        {"t": "NRAck", "f": {"seq": {"__e": ["Level"], "v": 1}}},
        {"t": "NRAck", "f": {"seq": {"__d": {"x": 1}, "f": {}}}},
        {"t": "NRAck", "f": {"seq": {"__d": "Handle", "f": "ab"}}},
        {"t": "NRAck", "f": {"seq": {"__fs": "ab"}}},
        {"t": "NRAck", "f": {"seq": {"__fs": [{"__fs": [[]]}, {"x": 1}]}}},
        {
            "t": "LinkStateAd",
            "f": {"origin": 1, "seq": 1, "links": [], "origin_level": 9},
        },
    ],
)
def test_malformed_messages_raise_wire_error(message):
    strict = {"s": 1, "d": 2, "m": message}
    for envelope in (strict, {**strict, "v": 2}):
        with pytest.raises(WireError):
            decode_frame_ex(framed(envelope))


def test_pathological_nesting_raises_wire_error():
    deep = "[" * 5000 + "]" * 5000
    for text in (
        '{"d":2,"m":{"f":{"seq":%s},"t":"NRAck"},"s":1}' % deep,
        '{"s":1, "d":2, "m":{"f":{"seq":%s},"t":"NRAck"}}' % deep,
        '{"d":2,"m":{"f":{"seq":%s},"t":"NRAck"},"s":1}' % ("9" * 5000),
    ):
        body = text.encode()
        with pytest.raises(WireError):
            decode_frame_ex(len(body).to_bytes(4, "big") + body)


json_names = st.text(max_size=4) | st.sampled_from(
    ["__e", "__d", "__fs", "Level", "QOS", "ADSet", "NRAck"]
)
json_junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False)
    | json_names,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["__e", "__d", "__fs", "v", "f", "t", "s", "d", "m", "x"]),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)


def _slots(node):
    """Every (container, key) slot in a JSON tree."""
    slots = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        slots.append((node, key))
        if isinstance(child, (dict, list)):
            slots.extend(_slots(child))
    return slots


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_golden_frames_decode_or_raise_wire_error(data):
    golden = _golden()
    name = data.draw(st.sampled_from(sorted(golden)))
    version = data.draw(st.sampled_from(sorted(golden[name])))
    envelope = json.loads(bytes.fromhex(golden[name][version])[4:])
    container, key = data.draw(st.sampled_from(_slots(envelope)))
    action = data.draw(st.sampled_from(["replace", "delete", "retag"]))
    if action == "replace":
        container[key] = data.draw(json_junk)
    elif action == "delete":
        del container[key]
    elif isinstance(container, dict):
        container[data.draw(json_names)] = container.pop(key)
    else:
        container[key] = {"__d": data.draw(json_junk), "f": container[key]}
    canonical = data.draw(st.booleans())
    frame = framed(envelope) if canonical else framed(envelope, indent=0)
    try:
        result = decode_frame_ex(frame)
    except WireError:
        return
    assert isinstance(result[2], Message)
