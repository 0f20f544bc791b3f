"""Inter-AD routing protocol implementations.

One module per protocol the paper discusses (Sections 3 and 5), all built
on the :mod:`repro.simul` message-passing substrate and sharing the
:class:`~repro.protocols.base.RoutingProtocol` interface:

* baselines (Section 3): :mod:`~repro.protocols.dv` (naive Bellman-Ford),
  :mod:`~repro.protocols.spf` (plain link-state), :mod:`~repro.protocols.egp`
  (tree-restricted reachability);
* the four design points of Section 5: :mod:`~repro.protocols.ecma`,
  :mod:`~repro.protocols.idrp`, :mod:`~repro.protocols.lshbh`,
  :mod:`~repro.protocols.orwg`;
* the four dismissed points of Section 5.5: :mod:`~repro.protocols.variants`.

:mod:`~repro.protocols.registry` maps every
:class:`~repro.core.design_space.DesignPoint` *and* every registered
name to its implementation; :func:`~repro.protocols.registry.make_protocol`
is the single construction path the rest of the system uses.
"""

from repro.protocols.base import ForwardingMode, RoutingProtocol
from repro.protocols.dv import DistanceVectorProtocol
from repro.protocols.ecma import ECMAProtocol
from repro.protocols.egp import EGPProtocol, TopologyViolationError
from repro.protocols.idrp import BGP2Protocol, IDRPProtocol
from repro.protocols.lshbh import LinkStateHopByHopProtocol
from repro.protocols.orwg import ORWGProtocol
from repro.protocols.registry import (
    available_protocols,
    design_point_of,
    make_protocol,
)
from repro.protocols.spf import PlainLinkStateProtocol

__all__ = [
    "BGP2Protocol",
    "DistanceVectorProtocol",
    "ECMAProtocol",
    "EGPProtocol",
    "ForwardingMode",
    "IDRPProtocol",
    "LinkStateHopByHopProtocol",
    "ORWGProtocol",
    "PlainLinkStateProtocol",
    "RoutingProtocol",
    "TopologyViolationError",
    "available_protocols",
    "design_point_of",
    "make_protocol",
]
