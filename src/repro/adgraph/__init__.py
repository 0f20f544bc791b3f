"""Inter-AD topology substrate.

This subpackage models the internet of Section 2 of the paper: a set of
Administrative Domains (ADs) classified by hierarchy level (backbone,
regional, metro, campus) and by role (stub, multi-homed, transit, hybrid),
connected by inter-AD links that are either *hierarchical* (parent/child),
*lateral* (peer/peer at the same level), or *bypass* (a stub reaching over
intermediate levels directly to a wide-area backbone).

The main entry points are:

* :class:`~repro.adgraph.graph.InterADGraph` — the typed topology object all
  protocols operate on.
* :func:`~repro.adgraph.generator.generate_internet` — the Figure-1 style
  topology generator.
* :class:`~repro.adgraph.partial_order.PartialOrder` — the ECMA partial
  ordering with up/down link labelling.
"""

from repro.adgraph.ad import AD, ADKind, InterADLink, Level, LinkKind
from repro.adgraph.expansion import ExpansionConfig, RouterExpansion
from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.adgraph.graph import InterADGraph
from repro.adgraph.partial_order import (
    OrderConflictError,
    PartialOrder,
    order_from_constraints,
)

__all__ = [
    "AD",
    "ADKind",
    "ExpansionConfig",
    "RouterExpansion",
    "InterADGraph",
    "InterADLink",
    "Level",
    "LinkKind",
    "OrderConflictError",
    "PartialOrder",
    "TopologyConfig",
    "generate_internet",
    "order_from_constraints",
]
