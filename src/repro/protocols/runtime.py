"""The runtime-feature table: how a named setting reaches a node.

A runtime feature -- hardening, validation, pacing, graceful restart,
wire versioning -- is spelled as a string on a CLI flag or in a
:class:`~repro.harness.spec.ProtocolSpec` option and acts as a config
object on every protocol node.  Everything between the two is driven by
:data:`RUNTIME_FEATURES`, five rows, one per feature:

* :func:`runtime_from` and the registry's pseudo-options parse each
  spelling with its row's parser (the flag sets share the one grammar of
  :mod:`repro.protocols.flagset`; ``wire`` keeps its own);
* :class:`NodeRuntimeConfig`, the immutable container a protocol driver
  holds, has one field per row;
* :func:`stamp` copies every row onto a node -- at build time, and
  again when a state-losing restart swaps in a fresh process;
* :meth:`RoutingProtocol.runtime_summary
  <repro.protocols.base.RoutingProtocol.runtime_summary>` runs a row's
  collector to gather its network-wide counters for the run record.

Every feature is off by default, so a default container is
byte-identical to a feature-free build.

The bounded ingress queue is not a row but a fault axis: it models the
network's delivery stage, armed from ``FaultSpec.queue_capacity`` after
initial convergence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Tuple

from repro.protocols.graceful import (
    GracefulRestartConfig,
    graceful_from,
    graceful_summary,
)
from repro.protocols.hardening import (
    HardeningConfig,
    duplicates_ignored,
    hardening_from,
)
from repro.protocols.pacing import PacingConfig, pacing_from, pacing_summary
from repro.protocols.validation import (
    ValidationConfig,
    validation_from,
    validation_summary,
)
from repro.protocols.versioning import (
    WireConfig,
    negotiation_summary,
    wire_from,
)
from repro.simul.node import ProtocolNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.base import RoutingProtocol


@dataclass(frozen=True)
class Feature:
    """One row of the runtime-feature table."""

    #: The ``make_protocol`` option, ``NodeRuntimeConfig`` field and
    #: node attribute -- one name throughout.
    name: str
    #: The config type the parsed spelling becomes.
    config: type
    #: Spelling parser: ``None`` -> the feature's default, a ready config
    #: unchanged, anything else by the feature's grammar.
    parse: Callable[[Any], Any]
    #: Network-wide counters for the run record.
    collect: Callable[["RoutingProtocol"], Any]

    @property
    def default(self) -> Any:
        return self.parse(None)


RUNTIME_FEATURES: Tuple[Feature, ...] = (
    # Dedup/retransmit/refresh robustness features.
    Feature("hardening", HardeningConfig, hardening_from, duplicates_ignored),
    # Receiver-side claim checks and quarantine.
    Feature("validation", ValidationConfig, validation_from, validation_summary),
    # Overload defenses (pacing/hold-down/flap damping).
    Feature("pacing", PacingConfig, pacing_from, pacing_summary),
    # Helper/resync behaviour around planned control-plane restarts.
    Feature("graceful", GracefulRestartConfig, graceful_from, graceful_summary),
    # The wire version a node speaks and whether it negotiates at HELLO
    # time (drivers may pin the version per AD on top of this).
    Feature("wire", WireConfig, wire_from, negotiation_summary),
)


def feature(name: str) -> Feature:
    """The table row called ``name``."""
    for row in RUNTIME_FEATURES:
        if row.name == name:
            return row
    raise ValueError(
        f"unknown runtime feature {name!r}; choose from "
        f"{', '.join(row.name for row in RUNTIME_FEATURES)}"
    )


#: Everything a protocol node is configured with at build time: one
#: frozen field per table row, defaulting to that row's default.
NodeRuntimeConfig = dataclasses.make_dataclass(
    "NodeRuntimeConfig",
    [
        (row.name, row.config, dataclasses.field(default=row.default))
        for row in RUNTIME_FEATURES
    ],
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": "The per-node runtime: one component per table row.",
        # ``runtime.replace(pacing=...)``: a copy with components swapped.
        "replace": dataclasses.replace,
    },
)


def runtime_from(**specs: Any) -> NodeRuntimeConfig:
    """Build a runtime container from user-facing component spellings.

    One keyword per table row, each parsed by its row; an omitted (or
    ``None``) component takes that feature's default.
    """
    for name in specs:
        feature(name)  # rejects an unknown name, listing the valid ones
    return NodeRuntimeConfig(
        **{row.name: row.parse(specs.get(row.name)) for row in RUNTIME_FEATURES}
    )


def stamp(target: Any, runtime: NodeRuntimeConfig) -> None:
    """Copy every component of ``runtime`` onto ``target``."""
    for row in RUNTIME_FEATURES:
        setattr(target, row.name, getattr(runtime, row.name))


# A node nobody stamped (built without a driver, as unit tests do) runs
# the default runtime.  The defaults are installed here, not declared in
# ``simul/node.py``, because that module cannot import the config types:
# ``repro.protocols`` imports it.
stamp(ProtocolNode, NodeRuntimeConfig())
