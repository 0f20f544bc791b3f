"""Golden-frame pinning: the wire encoding is a compatibility contract.

Version-skew tolerance only works if every build agrees, byte for byte,
on what each wire version looks like -- an accidental encoding change
would break live interop with every deployed node even though all
in-process tests still pass.  This module pins one representative frame
per registered message type, at every supported wire version, against
committed golden bytes (``tests/data/wire_golden.json``), and checks
decode/encode identity on each.

When an encoding change is *intentional* (a new wire version), regen
the goldens with::

    PYTHONPATH=src REGEN_WIRE_GOLDEN=1 python -m pytest tests/test_wire_golden.py

and review the diff like any other wire-compatibility decision.

Marked ``hashseed``: CI runs this module again under two fixed
``PYTHONHASHSEED`` values, because canonical frozenset ordering and the
spliced envelope must not depend on set or dict hash order: the golden
frames and the reference-encoder comparison must hold under either seed.
"""

import json
import os

import pytest

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
from repro.protocols.versioning import Hello
from repro.simul.wire import (
    MIN_WIRE_VERSION,
    WIRE_VERSION,
    _message_types,
    decode_frame,
    decode_frame_ex,
    encode_frame,
)

pytestmark = pytest.mark.hashseed

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "wire_golden.json")

_HANDLE = Handle(src=3, local_id=41)
_FLOW = FlowSpec(src=3, dst=9, qos=QOS.LOW_DELAY, uci=UCI.RESEARCH, hour=8)
_SET = ADSet(_SetMode.INCLUDE, frozenset([2, 5]))
_TERM = PolicyTerm(
    owner=4,
    sources=_SET,
    dests=ADSet(_SetMode.ALL, frozenset()),
    qos_classes=frozenset([QOS.DEFAULT, QOS.LOW_DELAY]),
    ucis=frozenset([UCI.COMMERCIAL]),
    window=TimeWindow(start_hour=8, end_hour=18),
    charge=2.5,
    term_id=7,
)
_LSA = LinkStateAd(
    origin=4,
    seq=12,
    links=(
        LinkRecord(neighbor=2, delay=1.0, cost=3.0, up=True, bandwidth=2.0),
        LinkRecord(neighbor=9, delay=2.5, cost=1.0, up=False),
    ),
    terms=(_TERM,),
    origin_level=Level.REGIONAL,
)

#: One deterministic representative per registered message type.  A new
#: message type MUST gain an entry here (and regenerated goldens) before
#: it can cross a socket -- the vocabulary test below enforces that.
SAMPLES = {
    "DVUpdate": DVUpdate(entries=((7, 2), (9, 5)), poisons=(11,)),
    "DataPacket": DataPacket(
        handle=_HANDLE, flow=_FLOW, route=(3, 5, 9), hop=1, payload_bytes=512
    ),
    "ECMAUpdate": ECMAUpdate(
        entries=((7, QOS.DEFAULT, 4.0, 2, True),),
        poisons=((9, QOS.LOW_DELAY),),
    ),
    "ExchangeAck": ExchangeAck(token=77),
    "Hello": Hello(
        version=2,
        min_version=1,
        reply=False,
        capabilities=("graceful-restart", "resync"),
    ),
    "IDRPUpdate": IDRPUpdate(
        routes=(
            RouteAd(
                dest=9,
                qos=QOS.DEFAULT,
                path=(3, 5, 9),
                metric=4.5,
                allowed=_SET,
                cls=1,
            ),
        )
    ),
    "LSDBExchange": LSDBExchange(ads=(_LSA,), token=5),
    "LinkStateAd": _LSA,
    "NRAck": NRAck(seq=13),
    "NRUpdate": NRUpdate(dests=(2, 5, 9), seq=13),
    "SetupAck": SetupAck(handle=_HANDLE, route=(3, 5, 9), hop=2),
    "SetupNak": SetupNak(
        handle=_HANDLE, route=(3, 5, 9), hop=1, rejected_by=5, reason="policy"
    ),
    "SetupPacket": SetupPacket(
        handle=_HANDLE,
        flow=_FLOW,
        route=(3, 5, 9),
        term_refs=(TermRef(owner=4, term_id=7),),
        hop=0,
    ),
    "TeardownPacket": TeardownPacket(handle=_HANDLE, route=(3, 5, 9), hop=2),
}

VERSIONS = tuple(range(MIN_WIRE_VERSION, WIRE_VERSION + 1))


def _current_frames():
    return {
        name: {
            f"v{version}": encode_frame(1, 2, msg, version=version).hex()
            for version in VERSIONS
        }
        for name, msg in sorted(SAMPLES.items())
    }


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_every_registered_type_has_a_sample():
    assert sorted(SAMPLES) == sorted(_message_types())


@pytest.mark.skipif(
    not os.environ.get("REGEN_WIRE_GOLDEN"), reason="regen is opt-in"
)
def test_regenerate_goldens():
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(_current_frames(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_goldens_cover_every_sample_and_version():
    golden = _golden()
    assert sorted(golden) == sorted(SAMPLES)
    for name in golden:
        assert sorted(golden[name]) == sorted(f"v{v}" for v in VERSIONS)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_encoding_matches_golden(name):
    golden = _golden()[name]
    for version in VERSIONS:
        frame = encode_frame(1, 2, SAMPLES[name], version=version)
        assert frame.hex() == golden[f"v{version}"], (
            f"{name} v{version} frame bytes changed -- this breaks live "
            "interop with deployed nodes; if intentional, bump the wire "
            "version and regen with REGEN_WIRE_GOLDEN=1"
        )


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_decode_encode_identity(name):
    msg = SAMPLES[name]
    for version in VERSIONS:
        frame = encode_frame(1, 2, msg, version=version)
        src, dst, decoded, got_version = decode_frame_ex(frame)
        assert (src, dst, got_version) == (1, 2, version)
        # Bytes are a fixed point: re-encoding what was decoded at the
        # same version reproduces the frame exactly.
        assert encode_frame(src, dst, decoded, version=version) == frame
        if version == WIRE_VERSION:
            # At the current version nothing is down-emitted away, so
            # the object itself survives unchanged too.
            assert decoded == msg


def test_v1_frames_have_no_version_envelope():
    frame = encode_frame(1, 2, SAMPLES["NRAck"], version=1)
    body = json.loads(frame[4:])
    assert set(body) == {"s", "d", "m"}
    assert set(body["m"]) == {"t", "f"}
    assert decode_frame(frame) == (1, 2, SAMPLES["NRAck"])


def test_v1_down_emit_drops_post_v1_fields():
    frame = encode_frame(1, 2, SAMPLES["Hello"], version=1)
    _, _, decoded, version = decode_frame_ex(frame)
    assert version == 1
    # ``capabilities`` was introduced at v2: the v1 frame omits it and
    # the decoder defaults it to empty.
    assert decoded.capabilities == ()
    assert (decoded.version, decoded.min_version) == (2, 1)
