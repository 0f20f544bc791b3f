"""repro: a reproduction of Breslau & Estrin (SIGCOMM 1990),
"Design of Inter-Administrative Domain Routing Protocols".

The package turns the paper's design-space analysis into running code:

* :mod:`repro.adgraph` — the inter-AD internet model of Section 2
  (hierarchy + lateral/bypass links, partial orderings);
* :mod:`repro.policy` — Policy Terms, flows, legality, route-selection
  criteria, and policy scenario generators (Section 2.3);
* :mod:`repro.simul` — the deterministic discrete-event message substrate;
* :mod:`repro.protocols` — every protocol the paper discusses: baselines
  (naive DV, plain LS, EGP) and all eight Table 1 design points (ECMA,
  IDRP/BGP-2, LS hop-by-hop, ORWG/IDPR, and the four dismissed variants);
* :mod:`repro.core` — the design space itself, policy route synthesis,
  ground-truth evaluation, and the measured Table 1 scorecard;
* :mod:`repro.forwarding` — data-plane packet header models (E6);
* :mod:`repro.traffic` — the data plane at scale: workloads, FIBs
  compiled from each protocol's forwarding walk, batched replay;
* :mod:`repro.workloads` — traffic and scenario generators;
* :mod:`repro.harness` — the experiment harness (declarative specs,
  parallel seed fan-out, schema-versioned run telemetry).

Protocols are constructed through the registry — by Table 1 design
point or by name (``available_protocols()`` lists them).

Quickstart::

    from repro import make_protocol, reference_scenario

    scenario = reference_scenario()
    protocol = make_protocol("orwg", scenario.graph, scenario.policies)
    protocol.converge()
    route = protocol.find_route(scenario.flows[0])
"""

from repro.adgraph import (
    AD,
    ADKind,
    InterADGraph,
    InterADLink,
    Level,
    LinkKind,
    PartialOrder,
    TopologyConfig,
    generate_internet,
)
from repro.core import (
    DesignPoint,
    Route,
    RouteSynthesizer,
    enumerate_design_space,
    evaluate_availability,
    legal_route_exists,
    sample_flows,
    synthesize_route,
)
from repro.policy import (
    ADSet,
    FlowSpec,
    PolicyDatabase,
    PolicyTerm,
    QOS,
    RouteSelectionPolicy,
    UCI,
    hierarchical_policies,
    is_legal_path,
    open_policies,
    restricted_policies,
    source_class_policies,
)
from repro.protocols import (
    RoutingProtocol,
    available_protocols,
    make_protocol,
)
from repro.workloads import Scenario, reference_scenario, scaled_scenario

__version__ = "1.0.0"

__all__ = [
    "AD",
    "ADKind",
    "ADSet",
    "DesignPoint",
    "FlowSpec",
    "InterADGraph",
    "InterADLink",
    "Level",
    "LinkKind",
    "PartialOrder",
    "PolicyDatabase",
    "PolicyTerm",
    "QOS",
    "Route",
    "RouteSelectionPolicy",
    "RouteSynthesizer",
    "RoutingProtocol",
    "Scenario",
    "TopologyConfig",
    "UCI",
    "available_protocols",
    "enumerate_design_space",
    "evaluate_availability",
    "generate_internet",
    "hierarchical_policies",
    "is_legal_path",
    "legal_route_exists",
    "make_protocol",
    "open_policies",
    "reference_scenario",
    "restricted_policies",
    "sample_flows",
    "scaled_scenario",
    "source_class_policies",
    "synthesize_route",
]
