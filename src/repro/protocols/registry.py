"""Protocol registry: the single construction path for every protocol.

Everything outside :mod:`repro.protocols` builds protocol instances
through :func:`make_protocol`, which accepts either a Table 1
:class:`~repro.core.design_space.DesignPoint` or a registered name.  The
registry covers the eight design-point implementations *and* the
baselines the paper measures them against (EGP, naive distance vector,
plain SPF link-state flooding, BGP-2), so the scorecard (E1), the
experiments, the CLI, and the harness all construct protocols the
same way -- and a new protocol becomes visible everywhere by registering
here once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type, Union

from repro.adgraph.graph import InterADGraph
from repro.core.design_space import (
    DV_HBH_TERMS,
    DV_HBH_TOPOLOGY,
    DV_SRC_TERMS,
    DV_SRC_TOPOLOGY,
    DesignPoint,
    LS_HBH_TERMS,
    LS_HBH_TOPOLOGY,
    LS_SRC_TERMS,
    LS_SRC_TOPOLOGY,
)
from repro.policy.database import PolicyDatabase
from repro.policy.qos import QOS
from repro.protocols.base import RoutingProtocol
from repro.protocols.dv import DistanceVectorProtocol
from repro.protocols.ecma import ECMAProtocol
from repro.protocols.egp import EGPProtocol
from repro.protocols.idrp import BGP2Protocol, IDRPProtocol
from repro.protocols.lshbh import LinkStateHopByHopProtocol
from repro.protocols.orwg import ORWGProtocol
from repro.protocols.runtime import RUNTIME_FEATURES, runtime_from
from repro.protocols.spf import PlainLinkStateProtocol
from repro.protocols.variants import (
    DVSourceTermsProtocol,
    DVSourceTopologyProtocol,
    LSHbHTopologyProtocol,
    LSSourceTopologyProtocol,
)

ProtocolFactory = Callable[[InterADGraph, PolicyDatabase], RoutingProtocol]

PROTOCOL_FOR_POINT: Dict[DesignPoint, ProtocolFactory] = {
    DV_HBH_TOPOLOGY: ECMAProtocol,
    DV_HBH_TERMS: IDRPProtocol,
    LS_HBH_TERMS: LinkStateHopByHopProtocol,
    LS_SRC_TERMS: ORWGProtocol,
    LS_HBH_TOPOLOGY: LSHbHTopologyProtocol,
    LS_SRC_TOPOLOGY: LSSourceTopologyProtocol,
    DV_SRC_TOPOLOGY: DVSourceTopologyProtocol,
    DV_SRC_TERMS: DVSourceTermsProtocol,
}

#: Baselines (Section 3) and proposal variants outside the eight cells.
BASELINE_PROTOCOLS: Dict[str, Type[RoutingProtocol]] = {
    EGPProtocol.name: EGPProtocol,
    DistanceVectorProtocol.name: DistanceVectorProtocol,
    PlainLinkStateProtocol.name: PlainLinkStateProtocol,
    BGP2Protocol.name: BGP2Protocol,
}

PROTOCOL_BY_NAME: Dict[str, Type[RoutingProtocol]] = {
    **{cls.name: cls for cls in PROTOCOL_FOR_POINT.values()},  # type: ignore[misc]
    **BASELINE_PROTOCOLS,
}


def _normalize_options(options: dict) -> dict:
    """Coerce JSON/CLI-friendly option values to constructor types.

    Declarative specs carry options as primitives (so they pickle and
    serialize); the one non-primitive constructor argument in the fleet
    is ECMA's ``qos_classes`` set of :class:`~repro.policy.qos.QOS`.
    """
    out = dict(options)
    qos = out.get("qos_classes")
    if qos is not None:
        out["qos_classes"] = frozenset(
            q if isinstance(q, QOS) else QOS(q) for q in qos
        )
    return out


def make_protocol(
    point_or_name: Union[DesignPoint, str],
    graph: InterADGraph,
    policies: PolicyDatabase,
    **options: object,
) -> RoutingProtocol:
    """Instantiate a protocol by Table 1 cell or by registered name.

    ``options`` are forwarded to the implementation's constructor (e.g.
    ``infinity=16`` for ``"naive-dv"``, ``qos_classes=("default",)`` for
    ``"ecma"``, ``flooding="tree"`` for ``"orwg"``); values may be given
    as serializable primitives and are normalized here.

    One pseudo-option per row of the runtime-feature table
    (:data:`~repro.protocols.runtime.RUNTIME_FEATURES`) is handled here
    for every protocol (they are protocol-independent): a spelling in
    the row's grammar (``"all"``, a feature name, a ``+``/``,``-joined
    list, ...) or the respective config object; they are folded into one
    :class:`~repro.protocols.runtime.NodeRuntimeConfig` on the driver
    and stamped onto nodes at build time.

    ``substrate`` selects the execution substrate: ``"sim"`` (default,
    the discrete-event engine) or ``"live"`` (asyncio/UDP nodes driven
    by :mod:`repro.live`).
    """
    if isinstance(point_or_name, DesignPoint):
        factory = PROTOCOL_FOR_POINT[point_or_name]
    else:
        try:
            factory = PROTOCOL_BY_NAME[point_or_name]
        except KeyError:
            raise ValueError(
                f"unknown protocol {point_or_name!r}; "
                f"available: {', '.join(available_protocols())}"
            ) from None
    opts = _normalize_options(dict(options))
    components = {
        row.name: opts.pop(row.name, None) for row in RUNTIME_FEATURES
    }
    substrate = opts.pop("substrate", "sim")
    if substrate not in ("sim", "live"):
        raise ValueError(f"unknown substrate {substrate!r}; use 'sim' or 'live'")
    protocol = factory(graph, policies, **opts)
    if any(v is not None for v in components.values()):
        protocol.runtime = runtime_from(**components)
    protocol.substrate = substrate
    return protocol


def available_protocols() -> List[str]:
    """All registered construction names, sorted."""
    return sorted(PROTOCOL_BY_NAME)


def design_point_of(name: str) -> Optional[DesignPoint]:
    """The Table 1 cell a name is the canonical implementation of.

    ``None`` for baselines -- including ones that *occupy* a cell
    another implementation canonically fills (BGP-2 subclasses IDRP and
    inherits its ``design_point``, but ``"idrp"`` is the DV/HbH/PT
    entry).
    """
    cls = PROTOCOL_BY_NAME[name]
    for point, factory in PROTOCOL_FOR_POINT.items():
        if factory is cls:
            return point
    return None
