"""Wire-version negotiation: the HELLO handshake and its config.

The paper's inter-AD setting is defined by administrative heterogeneity:
no single operator can upgrade every AD at once, so the wire protocol
must stay correct while the node population runs mixed versions.  The
codec side of that story lives in :mod:`repro.simul.wire` (versioned
frames, read shims, down-emit); this module is the control-plane side:

* :class:`WireConfig` -- the ``wire`` row of the runtime-feature table
  (:mod:`repro.protocols.runtime`): which versions a node speaks and
  whether it runs the negotiation handshake (off by default;
  byte-identical when disabled, like every other runtime mechanism).
* :class:`Hello` -- the version/capability announcement each
  negotiating node sends its neighbors at start (and again after a live
  version flip).  A neighbor pair settles on the *highest mutually
  supported* version; a peer whose advertised range does not overlap
  ours is version-blocked and, when a :class:`~repro.protocols
  .validation.NeighborGuard` is stamped, loudly quarantined.
* :func:`wire_from` -- the row's spelling parser.  Wire keeps its own
  grammar (``"v1+negotiate"``) and has no ``"off"``: an AD always speaks
  *some* version.

Until a pair has negotiated, a negotiating node transmits at its
*minimum* version -- the only revision it can prove the peer decodes --
so a v1 peer never sees a v2 frame before the handshake completes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Tuple, Union

from repro.simul.messages import HEADER_BYTES, Message
from repro.simul.wire import MIN_WIRE_VERSION, WIRE_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import RoutingProtocol

#: Capabilities the current build advertises in its HELLOs.  Purely
#: informational for now (the negotiated outcome is the version); the
#: census is surfaced per neighbor so operators can see what a mixed
#: population actually supports.
WIRE_CAPABILITIES: Tuple[str, ...] = ("graceful-restart", "resync", "damping")


@dataclass(frozen=True, slots=True)
class Hello(Message):
    """Version/capability announcement (schema revision 2).

    ``reply=False`` announcements are answered with a ``reply=True``
    Hello so both sides learn each other's range even when only one was
    restarted; replies are never answered (no Hello storms).  The
    ``capabilities`` field was added at wire version 2 -- a v1 down-emit
    omits it and the receiver defaults it to empty.
    """

    version: int
    min_version: int
    reply: bool = False
    capabilities: Tuple[str, ...] = ()

    def size_bytes(self) -> int:
        return HEADER_BYTES + 4 + 2 * len(self.capabilities)


@dataclass(frozen=True)
class WireConfig:
    """Which wire versions a node speaks, and whether it negotiates.

    The default -- current version, no negotiation -- is byte-identical
    to the pre-versioning substrate on every committed output: no Hello
    is ever scheduled, no frame gains fields, the simulator's event
    count is untouched.
    """

    #: Highest version this node emits once a peer is known to speak it.
    version: int = WIRE_VERSION
    #: Oldest version this node still accepts and can down-emit.
    min_version: int = MIN_WIRE_VERSION
    #: Run the HELLO handshake (off by default).
    negotiate: bool = False
    #: Capability strings advertised in this node's HELLOs.
    capabilities: Tuple[str, ...] = WIRE_CAPABILITIES

    def __post_init__(self) -> None:
        if not MIN_WIRE_VERSION <= self.version <= WIRE_VERSION:
            raise ValueError(
                f"wire version {self.version} outside supported range "
                f"[{MIN_WIRE_VERSION}, {WIRE_VERSION}]"
            )
        if not MIN_WIRE_VERSION <= self.min_version <= self.version:
            raise ValueError(
                f"wire min_version {self.min_version} outside "
                f"[{MIN_WIRE_VERSION}, {self.version}]"
            )

    @property
    def any_enabled(self) -> bool:
        """True when this config changes anything versus the default."""
        return self.negotiate or self.version != WIRE_VERSION

    def at_version(self, version: int) -> "WireConfig":
        """This config pinned to ``version`` (the live upgrade knob)."""
        return replace(
            self, version=version, min_version=min(self.min_version, version)
        )

    def describe(self) -> str:
        parts = [f"v{self.version}"]
        if self.negotiate:
            parts.append("negotiate")
        return "+".join(parts)


#: Default config: current version, negotiation off.
DEFAULT_WIRE = WireConfig()

WireLike = Union[WireConfig, str, int, None]


def wire_from(value: WireLike = None) -> WireConfig:
    """Normalize a wire-config spelling.

    Accepts ``None`` (default), a :class:`WireConfig`, a bare version
    int, or a string of ``+``-joined parts: ``"v1"``, ``"v2"``,
    ``"negotiate"``, ``"v1+negotiate"``, ``"current"``.
    """
    if value is None:
        return DEFAULT_WIRE
    if isinstance(value, WireConfig):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return WireConfig(version=value, min_version=min(MIN_WIRE_VERSION, value))
    if isinstance(value, str):
        version = WIRE_VERSION
        negotiate = False
        for part in value.split("+"):
            part = part.strip().lower()
            if not part or part == "current":
                continue
            if part == "negotiate":
                negotiate = True
            elif part.startswith("v") and part[1:].isdigit():
                version = int(part[1:])
            else:
                raise ValueError(f"unknown wire spec part {part!r} in {value!r}")
        return WireConfig(
            version=version,
            min_version=min(MIN_WIRE_VERSION, version),
            negotiate=negotiate,
        )
    raise TypeError(f"cannot build WireConfig from {value!r}")


def negotiation_summary(protocol: "RoutingProtocol") -> Dict[str, Any]:
    """Network-wide version-negotiation state for the run record."""
    node_census: Dict[str, int] = {}
    pair_census: Dict[str, int] = {}
    blocked = 0
    drops = 0
    for node in protocol.network.nodes.values():
        key = f"v{node.wire.version}"
        node_census[key] = node_census.get(key, 0) + 1
        for version in node.negotiated.values():
            pkey = f"v{version}"
            pair_census[pkey] = pair_census.get(pkey, 0) + 1
        blocked += len(node.version_blocked)
        drops += node.version_drops
    return {
        "nodes": dict(sorted(node_census.items())),
        "pairs": dict(sorted(pair_census.items())),
        "blocked_pairs": blocked,
        "version_drops": drops,
    }
