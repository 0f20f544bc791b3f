"""Canonical JSON wire codec for protocol messages.

The discrete-event simulator passes message *objects* between nodes, so
sizes are modelled, not serialised.  The live asyncio/UDP substrate
(:mod:`repro.live`) actually puts messages on a socket, which needs a
real encoding; this module is it.  It also makes trace output
machine-readable: any :class:`~repro.simul.messages.Message` can be
rendered to a JSON-safe dict with :func:`to_wire` and reconstructed with
:func:`from_wire`.

The encoding is structural and canonical:

* a message is ``{"t": <type name>, "f": {<field>: <value>, ...}}``;
* registered nested dataclasses (policy terms, route ads, LSAs, ...)
  are ``{"__d": <type name>, "f": {...}}``;
* enums are ``{"__e": <enum name>, "v": <value>}``;
* frozensets are ``{"__fs": [<sorted members>]}`` (sorted by canonical
  JSON text, so two equal sets always encode identically);
* tuples become JSON arrays and come back as tuples (every sequence
  field in the fleet is a tuple).

Only registered message and payload types decode -- the codec is a
closed vocabulary, not a pickle: a peer can never make the decoder
instantiate an arbitrary class.

Framing for stream/datagram transports is a 4-byte big-endian length
prefix followed by the canonical JSON body (:func:`encode_frame` /
:func:`decode_frame`).

Versioning.  The codec speaks every wire version in
``[MIN_WIRE_VERSION, WIRE_VERSION]``:

* a version-1 frame is the original ``{"s", "d", "m"}`` envelope,
  byte-identical to what this module emitted before versioning existed;
* a version-2+ frame adds ``"v": <sender's tx version>`` to the
  envelope and an ``"r": <schema revision>`` stamp to the message dict;
* encoders down-emit older versions on demand (``version=`` keyword):
  fields newer than the target version (:data:`FIELD_REVISIONS`) are
  omitted so a v(N-1) peer never sees a field it cannot name;
* decoders shim the other direction: fields missing from an old frame
  take their dataclass defaults, and version-2+ frames are decoded
  *leniently* (unknown fields from a newer minor revision are dropped,
  not fatal).  Version-1 frames keep the original strict decode.

A frame whose envelope version falls outside the supported range raises
:class:`WireVersionError` (carrying the claimed sender and version) so
the live substrate can quarantine the peer instead of crashing the
serve task.  Anything else a peer can put in a frame raises
:class:`WireError` and nothing but :class:`WireError`.

The frame path.  Link-state flooding hands the *same* message to every
neighbour and every AD receives the *same* body once per adjacency, so
the per-frame cost is kept to what is per-frame:

* each registered class has a compiled :func:`_plan` (init fields,
  known-field set, enum-typed fields), and encoding dispatches on the
  exact value type (:data:`_ENCODERS`), so no frame pays for
  ``dataclasses.fields`` or an ``isinstance`` ladder;
* :func:`encode_frame` memoises the canonical text of the ``"m"`` value
  per (message object, wire version) and splices the envelope around
  it: a flood to *k* neighbours serialises once;
* :func:`decode_frame_ex` checks length prefix, envelope and version of
  every frame, then looks the exact ``"m"`` bytes up in a byte-bounded
  table of already-decoded messages.  A hit skips only work that is a
  pure function of those bytes (JSON parse, vocabulary checks, object
  construction).  Decoded messages are deeply immutable (enforced by
  :func:`_plan`), so receivers can share them exactly as the simulator
  shares message objects.  Both tables are module-level, hence
  per-process: a fleet with one process per AD would see them degrade
  to per-AD duplicate caches, never to wrong answers.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import re
import struct
import types
import typing
from functools import lru_cache
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Tuple,
    Type,
)

from repro.adgraph.ad import ADId
from repro.simul.messages import Message

#: Length prefix: 4-byte big-endian unsigned message length.
_LEN = struct.Struct(">I")

#: Hard ceiling on one frame's body (loopback UDP fits ~64 KiB anyway).
MAX_FRAME_BYTES = 1 << 26

#: The newest wire version this build can speak.
WIRE_VERSION = 2

#: The oldest wire version this build can still emit and decode.
MIN_WIRE_VERSION = 1

#: message type name -> wire version at which its current schema was
#: defined (the ``"r"`` stamp on version-2+ frames).  Types absent from
#: this map are revision 1 (the pre-versioning vocabulary).
SCHEMA_REVISIONS: Dict[str, int] = {"Hello": 2}

#: message type name -> {field name -> wire version that introduced it}.
#: Down-emitting at an older version omits these fields; decoders let
#: the dataclass defaults fill them back in.
FIELD_REVISIONS: Dict[str, Dict[str, int]] = {"Hello": {"capabilities": 2}}


class WireError(ValueError):
    """Raised when bytes or JSON do not decode to a known message."""


class WireVersionError(WireError):
    """A frame's envelope version is outside the supported range.

    Carries the envelope's claimed sender (``src``) and version so the
    receiving substrate can quarantine the peer loudly instead of
    treating the frame as undecodable garbage.
    """

    def __init__(self, message: str, *, src: Any = None, version: Any = None):
        super().__init__(message)
        self.src = src
        self.version = version


@lru_cache(maxsize=1)
def _nested_types() -> Dict[str, type]:
    """Registered non-message payload dataclasses, by type name.

    Imported lazily: protocol modules import :mod:`repro.simul`, so a
    module-level import here would be cyclic.
    """
    from repro.policy.flows import FlowSpec
    from repro.policy.sets import ADSet
    from repro.policy.terms import PolicyTerm, TermRef, TimeWindow
    from repro.protocols.flooding import LinkRecord, LinkStateAd
    from repro.protocols.idrp import RouteAd
    from repro.protocols.orwg.messages import Handle

    return {
        cls.__name__: cls
        for cls in (
            ADSet,
            FlowSpec,
            Handle,
            LinkRecord,
            LinkStateAd,
            PolicyTerm,
            RouteAd,
            TermRef,
            TimeWindow,
        )
    }


@lru_cache(maxsize=1)
def _message_types() -> Dict[str, Type[Message]]:
    """Registered wire-encodable message types, by type name."""
    from repro.protocols.dv import DVUpdate
    from repro.protocols.ecma import ECMAUpdate
    from repro.protocols.egp import NRAck, NRUpdate
    from repro.protocols.flooding import ExchangeAck, LSDBExchange, LinkStateAd
    from repro.protocols.idrp import IDRPUpdate
    from repro.protocols.orwg.messages import (
        DataPacket,
        SetupAck,
        SetupNak,
        SetupPacket,
        TeardownPacket,
    )
    from repro.protocols.versioning import Hello

    return {
        cls.__name__: cls
        for cls in (
            DVUpdate,
            DataPacket,
            ECMAUpdate,
            ExchangeAck,
            Hello,
            IDRPUpdate,
            LSDBExchange,
            LinkStateAd,
            NRAck,
            NRUpdate,
            SetupAck,
            SetupNak,
            SetupPacket,
            TeardownPacket,
        )
    }


@lru_cache(maxsize=1)
def _enum_types() -> Dict[str, Type[enum.Enum]]:
    """Registered enum payload types, by enum name."""
    from repro.adgraph.ad import Level
    from repro.policy.qos import QOS
    from repro.policy.sets import _SetMode
    from repro.policy.uci import UCI

    return {cls.__name__: cls for cls in (Level, QOS, UCI, _SetMode)}


#: The canonical text form: sorted keys, no whitespace, ASCII only.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: JSON scalars, which encode and decode as themselves.
_ATOMS = (type(None), bool, int, float, str)
_ATOM_TYPES = frozenset(_ATOMS)

#: Charged per cache entry on top of its text: key, slot, smallest message.
_ENTRY_BYTES = 256


class _ByteBoundedCache:
    """A map that forgets oldest-first once the bytes it was charged pass ``cap``.

    Bounded in bytes, not entries, because one entry ranges from a
    40-byte ack to a 60 KiB database exchange.  Insertion order is the
    eviction order: a flood's copies arrive together, so recency of
    insertion is the recency that matters.
    """

    __slots__ = ("cap", "used", "_entries")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.used = 0
        self._entries: Dict[Any, Tuple[Any, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Any:
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def put(self, key: Any, value: Any, nbytes: int) -> None:
        """Add an entry for a key that just missed (never a present one)."""
        cost = nbytes + _ENTRY_BYTES
        if cost > self.cap:
            return
        entries = self._entries
        entries[key] = (value, cost)
        self.used += cost
        while self.used > self.cap:
            self.used -= entries.pop(next(iter(entries)))[1]

    def clear(self) -> None:
        self._entries.clear()
        self.used = 0


#: (id(message), wire version) -> (message, canonical ``"m"`` text).  The
#: entry holds the message, which pins its id for as long as the key lives.
_ENCODED = _ByteBoundedCache(1 << 20)

#: (exact ``"m"`` bytes, lenient) -> the message they decode to.
_INTERN = _ByteBoundedCache(2 << 20)


# ------------------------------------------------------------------- plans


class _Plan(NamedTuple):
    """What the codec needs to know about one registered dataclass."""

    #: Init field names in declaration order (memoized caches are skipped).
    names: Tuple[str, ...]
    known: FrozenSet[str]
    #: Fields declared as an enum: decode coerces to the declared type,
    #: because an ``IntEnum`` travels as a bare int.
    enums: Tuple[Tuple[str, Type[enum.Enum]], ...]


def _require_immutable(tp: Any, where: str) -> None:
    """Refuse a declared field type whose decoded values could be mutated."""
    if tp in _ATOM_TYPES or (isinstance(tp, type) and issubclass(tp, enum.Enum)):
        return
    if dataclasses.is_dataclass(tp):
        if _nested_types().get(tp.__name__) is tp and tp.__dataclass_params__.frozen:
            return
    elif typing.get_origin(tp) in (tuple, frozenset, typing.Union, types.UnionType):
        for arg in typing.get_args(tp):
            if arg is not Ellipsis:
                _require_immutable(arg, where)
        return
    raise TypeError(
        f"{where}: {tp!r} is not a primitive, tuple, frozenset, enum or "
        "registered frozen dataclass; decoded messages are shared between ADs"
    )


@lru_cache(maxsize=None)
def _plan(cls: type) -> _Plan:
    """Compile (once) the field plan of a registered dataclass.

    Raises ``TypeError`` for a class that is not frozen or declares a
    mutable field type: registering such a payload type must fail
    loudly, not silently share state between receivers.
    """
    if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen):
        raise TypeError(
            f"{cls.__name__} is not a frozen dataclass; decoded messages are "
            "shared between ADs"
        )
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls) if f.init)
    for name in names:
        _require_immutable(hints[name], f"{cls.__name__}.{name}")
    enums = tuple(
        (name, hints[name])
        for name in names
        if isinstance(hints[name], type) and issubclass(hints[name], enum.Enum)
    )
    return _Plan(names, frozenset(names), enums)


# ---------------------------------------------------------------- encoding

#: An encoder takes ``(value, lists)``; ``lists`` collects every ``list``
#: met on the way down, the one mutable thing the encoder accepts.
_Encoder = Callable[[Any, List[Any]], Any]

#: exact value type -> its encoder (filled by :func:`_compile_encoder`).
_ENCODERS: Dict[type, _Encoder] = {}


def _encode_atom(value: Any, lists: List[Any]) -> Any:
    return value


def _encode_tuple(value: Any, lists: List[Any]) -> Any:
    return [_encode_value(v, lists) for v in value]


def _encode_list(value: Any, lists: List[Any]) -> Any:
    lists.append(value)
    return _encode_tuple(value, lists)


@lru_cache(maxsize=1)
def _tagged_enum_keys() -> Dict[enum.Enum, str]:
    """Frozenset sort key of every enum member that travels tagged."""
    return {
        member: json.dumps({"__e": name, "v": member.value}, sort_keys=True)
        for name, cls in _enum_types().items()
        if not issubclass(cls, _ATOMS)
        for member in cls
    }


def _encode_frozenset(value: Any, lists: List[Any]) -> Any:
    """Members sorted by their JSON text, so equal sets encode identically.

    The text of an int is its ``repr`` and that of a tagged enum member
    is precomputed; only other members cost a ``json.dumps`` each.
    """
    tagged = _tagged_enum_keys()
    keyed = []
    for member in value:
        encoded = _encode_value(member, lists)
        if type(member) is int:
            key = repr(member)
        else:
            key = tagged.get(member) or json.dumps(encoded, sort_keys=True)
        keyed.append((key, encoded))
    keyed.sort(key=itemgetter(0))
    return {"__fs": [encoded for _, encoded in keyed]}


def _compile_encoder(tp: type, value: Any) -> _Encoder:
    """The ``isinstance`` ladder, walked once per exact value type."""
    name = tp.__name__
    encoder: _Encoder
    if issubclass(tp, _ATOMS):
        # Before Enum: an IntEnum travels as a bare int.
        encoder = _encode_atom
    elif issubclass(tp, enum.Enum):
        if name not in _enum_types():
            raise WireError(f"unregistered enum type {name}")

        def encoder(value: Any, lists: List[Any]) -> Any:
            return {"__e": name, "v": value.value}

    elif issubclass(tp, tuple):
        encoder = _encode_tuple
    elif issubclass(tp, list):
        encoder = _encode_list
    elif issubclass(tp, frozenset):
        encoder = _encode_frozenset
    elif dataclasses.is_dataclass(tp):
        if name not in _nested_types():
            raise WireError(f"unregistered payload type {name}")
        names = _plan(tp).names

        def encoder(value: Any, lists: List[Any]) -> Any:
            return {"__d": name, "f": _encode_fields(value, names, lists)}

    else:
        raise WireError(f"cannot encode {name} value {value!r}")
    _ENCODERS[tp] = encoder
    return encoder


def _encode_value(value: Any, lists: List[Any]) -> Any:
    tp = type(value)
    if tp in _ATOM_TYPES:
        return value
    encoder = _ENCODERS.get(tp)
    if encoder is None:
        encoder = _compile_encoder(tp, value)
    return encoder(value, lists)


def _encode_fields(
    obj: Any, names: Tuple[str, ...], lists: List[Any]
) -> Dict[str, Any]:
    return {name: _encode_value(getattr(obj, name), lists) for name in names}


def _to_wire(msg: Message, version: int, lists: List[Any]) -> Dict[str, Any]:
    name = type(msg).__name__
    if name not in _message_types():
        raise WireError(f"unregistered message type {name}")
    if not MIN_WIRE_VERSION <= version <= WIRE_VERSION:
        raise WireVersionError(
            f"cannot encode wire version {version!r}", version=version
        )
    names = _plan(type(msg)).names
    introduced = FIELD_REVISIONS.get(name)
    if introduced:
        # Down-emit shim: omit fields newer than the target version so
        # an old peer never sees a field it cannot name.
        names = tuple(n for n in names if introduced.get(n, 1) <= version)
    fields = _encode_fields(msg, names, lists)
    if version == 1:
        return {"t": name, "f": fields}
    return {
        "t": name,
        "f": fields,
        "r": min(SCHEMA_REVISIONS.get(name, 1), version),
    }


def to_wire(msg: Message, *, version: int = WIRE_VERSION) -> Dict[str, Any]:
    """Render a message as a canonical JSON-safe dict.

    ``version`` selects the target wire version: version 1 reproduces
    the pre-versioning encoding byte for byte (no revision stamp, no
    post-v1 fields); version 2+ stamps the message's schema revision as
    ``"r"`` and carries the full field set allowed at that version.
    """
    return _to_wire(msg, version, [])


# ---------------------------------------------------------------- decoding


def _decode_value(value: Any, lenient: bool = False) -> Any:
    if type(value) in _ATOM_TYPES:
        return value
    if isinstance(value, list):
        return tuple([_decode_value(v, lenient) for v in value])
    if isinstance(value, dict):
        if "__e" in value:
            name = value["__e"]
            cls = _enum_types().get(name) if isinstance(name, str) else None
            if cls is None:
                raise WireError(f"unknown enum type {name!r}")
            if "v" not in value:
                raise WireError(f"enum {name} carries no value")
            return cls(value["v"])
        if "__fs" in value:
            members = value["__fs"]
            if not isinstance(members, list):
                raise WireError(f"frozenset members are not an array: {members!r}")
            return frozenset([_decode_value(v, lenient) for v in members])
        if "__d" in value:
            name = value["__d"]
            cls = _nested_types().get(name) if isinstance(name, str) else None
            if cls is None:
                raise WireError(f"unknown payload type {name!r}")
            return _decode_dataclass(cls, value.get("f", {}), lenient=lenient)
        raise WireError(f"untagged object {sorted(value)!r}")
    if isinstance(value, _ATOMS):
        return value
    raise WireError(f"cannot decode {type(value).__name__} value {value!r}")


def _decode_dataclass(cls: type, fields: Any, *, lenient: bool = False) -> Any:
    plan = _plan(cls)
    if not isinstance(fields, dict):
        raise WireError(f"{cls.__name__} fields are not an object: {fields!r}")
    if not plan.known.issuperset(fields):
        if not lenient:
            unknown = sorted(set(fields) - plan.known, key=repr)
            raise WireError(f"{cls.__name__} has no fields {unknown}")
        # Version-skew read shim: a newer minor revision may carry
        # fields this build cannot name yet; drop them, keep the rest.
        fields = {k: v for k, v in fields.items() if k in plan.known}
    try:
        kwargs = {k: _decode_value(v, lenient) for k, v in fields.items()}
        for name, enum_cls in plan.enums:
            if name in kwargs and type(kwargs[name]) is not enum_cls:
                kwargs[name] = enum_cls(kwargs[name])
        return cls(**kwargs)
    except (TypeError, ValueError, RecursionError) as exc:
        raise WireError(f"bad {cls.__name__} payload: {exc}") from exc


def from_wire(data: Dict[str, Any], *, lenient: bool = False) -> Message:
    """Reconstruct a message from its :func:`to_wire` dict.

    Missing fields take their dataclass defaults (old-frame shim); with
    ``lenient=True`` unknown fields are dropped instead of fatal
    (new-frame shim).  The revision stamp ``"r"``, when present, is
    informational and ignored.
    """
    if not isinstance(data, dict) or "t" not in data:
        raise WireError(f"not a wire message: {data!r}")
    name = data["t"]
    cls = _message_types().get(name) if isinstance(name, str) else None
    if cls is None:
        raise WireError(f"unknown message type {name!r}")
    return _decode_dataclass(cls, data.get("f", {}), lenient=lenient)


def dumps(msg: Message) -> str:
    """Canonical JSON text for a message (stable across processes)."""
    return _CANONICAL.encode(to_wire(msg))


def loads(text: str) -> Message:
    """Inverse of :func:`dumps`."""
    return from_wire(json.loads(text))


# ------------------------------------------------------------------ frames


def _address(ad_id: ADId) -> bytes:
    if type(ad_id) is int:
        return b"%d" % ad_id
    return _CANONICAL.encode(ad_id).encode("ascii")


def encode_frame(
    src: ADId, dst: ADId, msg: Message, *, version: int = WIRE_VERSION
) -> bytes:
    """One length-prefixed datagram: 4-byte length + canonical JSON body.

    A version-1 frame is the original ``{"s", "d", "m"}`` envelope --
    byte-identical to the pre-versioning encoder, which is what makes
    down-emitting to a v1 peer safe.  Version 2+ adds ``"v"`` so the
    receiver knows the sender's tx version.

    The ``"m"`` text is serialised once per (message object, version)
    and the envelope spliced around it, in sorted-key order.  A message
    that holds a ``list`` anywhere is re-encoded on every call instead:
    nothing stops its owner from mutating it between sends.
    """
    if not MIN_WIRE_VERSION <= version <= WIRE_VERSION:
        raise WireVersionError(
            f"cannot encode wire version {version!r}", src=src, version=version
        )
    key = (id(msg), version)
    entry = _ENCODED.get(key)
    if entry is None:
        lists: List[Any] = []
        text = _CANONICAL.encode(_to_wire(msg, version, lists)).encode("ascii")
        if not lists:
            _ENCODED.put(key, (msg, text), len(text))
    else:
        text = entry[1]
    if version == 1:
        body = b'{"d":%b,"m":%b,"s":%b}' % (_address(dst), text, _address(src))
    else:
        body = b'{"d":%b,"m":%b,"s":%b,"v":%d}' % (
            _address(dst), text, _address(src), version
        )
    if len(body) > MAX_FRAME_BYTES:  # pragma: no cover - defensive
        raise WireError(f"frame body of {len(body)} bytes exceeds the cap")
    return _LEN.pack(len(body)) + body


_INT = rb"(-?(?:0|[1-9][0-9]{0,17}))"

#: The body :func:`encode_frame` emits: integer addresses, keys in sorted
#: order, no whitespace.  Anything else takes the general path.
_CANONICAL_BODY = re.compile(
    rb'\{"d":%b,"m":(\{.*\}),"s":%b(?:,"v":%b)?\}' % (_INT, _INT, _INT),
    re.DOTALL,
)


def _check_version(version: Any, src: Any) -> None:
    if type(version) is not int or not MIN_WIRE_VERSION <= version <= WIRE_VERSION:
        raise WireVersionError(
            f"unsupported wire version {version!r} from {src!r}",
            src=src,
            version=version,
        )


def decode_frame_ex(frame: bytes) -> Tuple[ADId, ADId, Message, int]:
    """Decode a frame to ``(src, dst, msg, envelope version)``.

    A missing ``"v"`` key means version 1 (legacy envelope).  An
    envelope version outside ``[MIN_WIRE_VERSION, WIRE_VERSION]`` raises
    :class:`WireVersionError` carrying the claimed sender, so the
    receiver can quarantine the peer.  Version-2+ message payloads are
    decoded leniently (unknown fields dropped); version-1 payloads keep
    the original strict decode.

    Length prefix, envelope and version are checked on every frame.  On
    a canonical body the exact ``"m"`` bytes are then looked up among
    the messages already decoded (per strict/lenient), so the object
    graph of a flooded body is built once per process, not once per
    delivery.
    """
    if len(frame) < _LEN.size:
        raise WireError(f"short frame ({len(frame)} bytes)")
    (length,) = _LEN.unpack_from(frame)
    if length != len(frame) - _LEN.size:
        raise WireError(
            f"frame length {length} != body length {len(frame) - _LEN.size}"
        )
    split = _CANONICAL_BODY.fullmatch(frame, _LEN.size)
    if split is not None:
        dst, text, src, v = split.groups()
        src, dst, version = int(src), int(dst), 1 if v is None else int(v)
        key = (text, version > 1)
        msg = _INTERN.get(key)
        if msg is not None:
            _check_version(version, src)
            return src, dst, msg, version
        try:
            data = json.loads(text.decode("utf-8"))
        except (ValueError, RecursionError):
            # The bytes between "m": and ,"s": are not one JSON value,
            # so the split proves nothing: the general path decides.
            pass
        else:
            _check_version(version, src)
            msg = from_wire(data, lenient=version > 1)
            _INTERN.put(key, msg, len(text))
            return src, dst, msg, version
    try:
        data = json.loads(frame[_LEN.size:].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireError(f"undecodable frame body: {exc}") from exc
    if not isinstance(data, dict) or not data.keys() >= {"s", "d", "m"}:
        raise WireError("frame body is not a {s, d, m} envelope")
    version = data.get("v", 1)
    _check_version(version, data["s"])
    msg = from_wire(data["m"], lenient=version > 1)
    return data["s"], data["d"], msg, version


def decode_frame(frame: bytes) -> Tuple[ADId, ADId, Message]:
    """Inverse of :func:`encode_frame`; validates the length prefix."""
    src, dst, msg, _version = decode_frame_ex(frame)
    return src, dst, msg
