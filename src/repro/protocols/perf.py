"""Simulator-core performance feature toggles.

The speed program (ROADMAP item 2) replaces two from-scratch recompute
paths with delta-aware ones:

* ``incremental_spf`` — :class:`repro.protocols.spf.IncrementalSPFState`
  repairs the SPF tree from the edge deltas between two LSDB versions
  instead of re-running Dijkstra, falling back to the full run whenever
  the repair cannot be proven exact (zero-weight edges, unavailable
  delta logs, changes touching a large fraction of the graph).
* ``delta_view`` — :meth:`repro.protocols.flooding.LSNode.local_view`
  returns the believed-internet graph and policy database owned by the
  node's LSDB generation -- built once per LSDB content, forked from the
  asking node's previous view by per-LSA deltas -- instead of a private
  rebuild per node per version, cold-building on any structural
  surprise (cross-owner terms, origin level changes, log overflow).

Both are **pure optimisations**: equivalence to the retained full
recompute oracles is enforced by hypothesis suites, and all committed
experiment outputs stay byte-identical either way (the determinism gate
is the referee).  The config is the ``perf`` row of the runtime-feature
table (:mod:`repro.protocols.runtime`) — but unlike the robustness
configs it defaults **on**: the fast paths are the production code, and
``perf="none"`` (also spelled ``"off"``/``"legacy"``; ``"fast"`` is
``"all"``) is the A/B lever that recovers the legacy recompute for
benchmarking and differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.protocols.flagset import FlagSet

#: The individually toggleable feature names, in canonical order.
FEATURES: Tuple[str, ...] = ("incremental_spf", "delta_view")


@dataclass(frozen=True)
class PerfConfig(FlagSet):
    """Which delta-recompute fast paths are enabled."""

    FLAGS = FEATURES
    NOUN = "perf"
    ALIASES = {"fast": "all", "legacy": "none"}

    incremental_spf: bool = True
    delta_view: bool = True


#: Every fast path on: the default production configuration.
FAST = PerfConfig()

#: Every fast path off: the legacy from-scratch recompute baseline.
LEGACY = PerfConfig(incremental_spf=False, delta_view=False)

perf_from = PerfConfig.parse
