"""Deterministic fault injection: lossy channels, churn plans, probing.

The paper requires the protocols to be "somewhat adaptive to changes in
inter-AD topology" (Section 2.2), but the base simulator delivers every
control message perfectly.  This package is the chaos layer that turns
that qualitative claim into measurable sweeps (experiments E4, E11):

* :mod:`repro.faults.channel` -- per-link, seed-deterministic message
  impairments (loss, duplication, reordering jitter)
  plugged into :class:`~repro.simul.network.SimNetwork`;
* :mod:`repro.faults.plan` -- the :class:`FaultPlan` DSL, the one plan
  type: link failures and repairs, AD crash/restart events and
  wire-version flips, plus seeded generators;
* :mod:`repro.faults.prober` -- :class:`RoutePulse`, a data-plane
  reachability sampler producing blackhole-time, loop-count, hijack, and
  time-to-repair distributions;
* :mod:`repro.faults.misbehavior` -- :class:`MisbehaviorPlan`, the
  Byzantine axis (experiment E12): scheduled lies (route leaks, bogus
  origins, stale replays, metric lying, policy-term forgery) told by a
  single misbehaving AD, with seeded role-based liar selection.

Everything is seeded: the same plan on the same scenario replays the
same impairment decisions message for message, so E11's tables are as
deterministic as every other committed artifact.
"""

from repro.faults.channel import (
    PERFECT,
    ChannelModel,
    ImpairedChannel,
    Impairment,
)
from repro.faults.plan import (
    FaultPlan,
    LinkFault,
    NodeFault,
    ad_crash_plan,
    crash_candidates,
    merge_plans,
)
from repro.faults.misbehavior import (
    LIES,
    ROLES,
    MisbehaviorPlan,
    MisbehaviorStart,
    MisbehaviorStop,
    liar_by_role,
    misbehavior_plan,
    pick_victim_stub,
)
from repro.faults.prober import FlowOutage, ProbeSample, RoutePulse

__all__ = [
    "LIES",
    "PERFECT",
    "ROLES",
    "ChannelModel",
    "FaultPlan",
    "FlowOutage",
    "ImpairedChannel",
    "Impairment",
    "LinkFault",
    "MisbehaviorPlan",
    "MisbehaviorStart",
    "MisbehaviorStop",
    "NodeFault",
    "ProbeSample",
    "RoutePulse",
    "ad_crash_plan",
    "crash_candidates",
    "liar_by_role",
    "merge_plans",
    "misbehavior_plan",
    "pick_victim_stub",
]
