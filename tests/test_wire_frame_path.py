"""The live frame path: plans, the encode memo, the decode intern table.

``encode_frame`` serialises a message once and splices envelopes around
the text; ``decode_frame_ex`` rebuilds a body's object graph once and
hands later copies the same message.  Both shortcuts must be invisible:
frames stay byte-identical to the plain ``json.dumps`` encoder (kept
here as the reference oracle), every per-frame check still runs on an
intern hit, the tables are bounded, and nothing but ``WireError``
escapes the decoder whatever a peer sends.
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
from repro.simul import wire
from repro.simul.messages import Message
from repro.simul.wire import (
    WireError,
    WireVersionError,
    decode_frame_ex,
    encode_frame,
    to_wire,
)

from .helpers import mk_graph
from .test_simul_wire import ad_ids, messages
from .test_wire_golden import SAMPLES, VERSIONS, _golden


def reference_frame(src, dst, msg, version):
    """The pre-memo encoder: one ``json.dumps`` of the whole envelope."""
    envelope = {"s": src, "d": dst, "m": to_wire(msg, version=version)}
    if version > 1:
        envelope["v"] = version
    return framed(envelope)


def framed(envelope, **dumps_options):
    options = dict(sort_keys=True, separators=(",", ":"))
    options.update(dumps_options)
    body = json.dumps(envelope, **options).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def body_text(frame):
    """The exact ``"m"`` bytes of a canonical frame (the intern key)."""
    return wire._CANONICAL_BODY.fullmatch(frame, 4).group(2)


@pytest.fixture(autouse=True)
def cold_tables():
    wire._ENCODED.clear()
    wire._INTERN.clear()
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
    for src, dst in (("a", 2), (True, None), (1.5, -3)):
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


# ----------------------------------------- an intern hit skips nothing


def _interned_lsa_frame(version=wire.WIRE_VERSION):
    frame = encode_frame(1, 2, SAMPLES["LinkStateAd"], version=version)
    _, _, msg, _ = decode_frame_ex(frame)
    assert wire._INTERN.get((body_text(frame), version > 1)) is msg
    return frame, msg


def test_repeat_bodies_decode_to_the_same_object():
    frame, msg = _interned_lsa_frame()
    assert decode_frame_ex(frame)[2] is msg
    # Another envelope around the same body bytes: still the same object,
    # with this frame's own addressing.
    src, dst, again, version = decode_frame_ex(
        encode_frame(5, 6, SAMPLES["LinkStateAd"])
    )
    assert (src, dst, version) == (5, 6, wire.WIRE_VERSION)
    assert again is msg
    # The size memo rides along, as it does on the simulator.
    msg.size_bytes()
    assert again._size == msg.size_bytes() > 0


def test_intern_hit_still_checks_the_length_prefix():
    frame, _ = _interned_lsa_frame()
    with pytest.raises(WireError, match="length"):
        decode_frame_ex(frame + b"x")
    with pytest.raises(WireError, match="length"):
        decode_frame_ex(frame[:-1])
    bad_prefix = (len(frame) + 3).to_bytes(4, "big") + frame[4:]
    with pytest.raises(WireError, match="length"):
        decode_frame_ex(bad_prefix)


@pytest.mark.parametrize("bad", [0, wire.WIRE_VERSION + 97, -1])
def test_intern_hit_still_checks_the_version(bad):
    frame, _ = _interned_lsa_frame()
    body = frame[4:].replace(b',"v":%d}' % wire.WIRE_VERSION, b',"v":%d}' % bad)
    doctored = len(body).to_bytes(4, "big") + body
    assert body_text(doctored) == body_text(frame)
    with pytest.raises(WireVersionError) as exc:
        decode_frame_ex(doctored)
    assert (exc.value.src, exc.value.version) == (1, bad)


@pytest.mark.parametrize("lenient_first", [True, False])
def test_strict_and_lenient_share_no_entry(lenient_first):
    data = to_wire(SAMPLES["NRAck"])
    data["f"]["from_the_future"] = 1
    v2 = framed({"s": 1, "d": 2, "m": data, "v": 2})
    v1 = framed({"s": 1, "d": 2, "m": data})
    assert body_text(v1) == body_text(v2)

    def lenient():
        assert decode_frame_ex(v2)[2] == SAMPLES["NRAck"]

    def strict():
        with pytest.raises(WireError, match="no fields"):
            decode_frame_ex(v1)

    for step in (lenient, strict) if lenient_first else (strict, lenient):
        step()
        step()


def test_non_canonical_envelopes_decode_through_the_general_path():
    frame, msg = _interned_lsa_frame()
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
    frame = len(body).to_bytes(4, "big") + body
    for _ in range(2):
        src, dst, msg, version = decode_frame_ex(frame)
        assert (src, dst, version) == (1, 9, 1)
        assert msg == SAMPLES["NRAck"]
    assert len(wire._INTERN) == 0


def ring8():
    return mk_graph(
        [(i, "Rt") for i in range(8)],
        [(i, (i + 1) % 8) for i in range(8)],
    )


def test_dispatch_counts_and_rejects_per_frame_on_intern_hits():
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
            assert decode_frame_ex(frame)[2] is decode_frame_ex(frame)[2]

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


# --------------------------------------------------------- bounded table


def test_intern_table_is_bounded_in_bytes():
    table = wire._INTERN
    for seq in range(100_000):
        body = b'{"d":2,"m":{"f":{"seq":%d},"t":"NRAck"},"s":1}' % seq
        decode_frame_ex(len(body).to_bytes(4, "big") + body)
    assert 0 < table.used <= table.cap
    assert len(table) < 100_000

    link = LinkRecord(neighbor=2, delay=1.0, cost=3.0, up=True)
    big = LSDBExchange(
        ads=tuple(
            LinkStateAd(origin=i, seq=1, links=(link,) * 6) for i in range(100)
        )
    )
    frame = encode_frame(1, 2, big)
    assert 60_000 < len(frame) < 65_507
    assert decode_frame_ex(frame)[2] is decode_frame_ex(frame)[2]
    assert table.used <= table.cap

    # A body dearer than the whole table is decoded but never kept.
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
    for _ in range(2):  # cold, then against whatever the first pass interned
        try:
            result = decode_frame_ex(frame)
        except WireError:
            continue
        assert isinstance(result[2], Message)
