"""Sim-vs-live fidelity: do the two substrates agree?

The live substrate's reason to exist is that the *same* protocol code
runs over real sockets; this module is the check that it actually
behaves the same.  One scenario, one flap sequence, run twice -- once
through the discrete-event engine, once over loopback UDP -- then:

* **route equality**: the final forwarding decision at every AD for
  every ordered (src, dst) pair must be identical.  Meaningful for
  link-state protocols, whose tables are a pure function of the LSDB
  (the LSDB converges to the same contents regardless of message
  arrival order); distance-vector tie-breaks can legitimately depend on
  arrival order, so the default protocol here is the LS baseline.
* **convergence-time distributions**: per-episode reconvergence times
  (in protocol units on both substrates -- the live clock divides wall
  time by its ``time_scale``) side by side.  These are *compared*, not
  asserted equal: the sim models link delay, loopback has real kernel
  latency, so live times are expected to be the same order, not the
  same number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.adgraph.ad import ADId
from repro.faults.plan import link_flap_plan
from repro.live.runner import LiveRunResult, run_live
from repro.policy.flows import FlowSpec
from repro.protocols.registry import make_protocol
from repro.simul.runner import SimSubstrate
from repro.workloads.scenarios import Scenario, reference_scenario, small_scenario


@dataclass(frozen=True)
class RouteMismatch:
    """One (src, dst) pair the two substrates route differently."""

    src: ADId
    dst: ADId
    sim_route: Optional[Tuple[ADId, ...]]
    live_route: Optional[Tuple[ADId, ...]]


@dataclass(frozen=True)
class FidelityReport:
    """Outcome of one sim-vs-live comparison run."""

    scenario: str
    protocol: str
    ads: int
    flaps: int
    pairs_compared: int
    mismatches: Tuple[RouteMismatch, ...]
    #: Initial + per-episode convergence times, protocol units.
    sim_times: Tuple[float, ...]
    live_times: Tuple[float, ...]
    sim_messages: int
    live_messages: int
    live_quiesced: bool
    live_wall_seconds: float

    @property
    def routes_identical(self) -> bool:
        return not self.mismatches


def fidelity_report(
    protocol: str = "plain-ls",
    scenario: str = "reference",
    seed: int = 0,
    flaps: int = 6,
    time_scale: float = 0.005,
    timeout_s: float = 120.0,
) -> FidelityReport:
    """Run one scenario on both substrates and compare the outcomes.

    ``scenario`` is ``"small"`` (~25 ADs, fast) or ``"reference"``
    (~60 ADs, the headline six-flap configuration).  Each substrate
    gets its own copies of the graph and policy database, exactly as
    the experiment harness isolates cells.
    """
    builders = {"small": small_scenario, "reference": reference_scenario}
    try:
        scn: Scenario = builders[scenario](seed=seed)
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; use one of {sorted(builders)}"
        ) from None
    plan = link_flap_plan(scn.graph, flaps=flaps, seed=seed)

    # Sim side: the episode structure the live runner uses (initial
    # convergence, then one settled episode per fault), so the two
    # result sequences line up one-to-one.
    sim_proto = make_protocol(protocol, scn.graph.copy(), scn.policies.copy())
    sim = SimSubstrate(sim_proto.build(), sim_proto)
    sim.start()
    sim_results = [sim.settle()]
    for ev in plan:
        sim.apply(ev)
        sim_results.append(sim.settle())

    live_proto = make_protocol(
        protocol, scn.graph.copy(), scn.policies.copy(), substrate="live"
    )
    live_result: LiveRunResult = run_live(
        live_proto,
        plan,
        time_scale=time_scale,
        timeout_s=timeout_s,
    )
    live_results = [live_result.initial] + [
        ep.result for ep in live_result.episodes
    ]

    ads = sorted(scn.graph.ad_ids())
    mismatches: List[RouteMismatch] = []
    pairs = 0
    for src in ads:
        for dst in ads:
            if src == dst:
                continue
            pairs += 1
            flow = FlowSpec(src=src, dst=dst)
            sim_route = sim_proto.find_route(flow)
            live_route = live_proto.find_route(flow)
            if sim_route != live_route:
                mismatches.append(
                    RouteMismatch(src, dst, sim_route, live_route)
                )

    return FidelityReport(
        scenario=scn.name,
        protocol=protocol,
        ads=len(ads),
        flaps=flaps,
        pairs_compared=pairs,
        mismatches=tuple(mismatches),
        sim_times=tuple(r.time for r in sim_results),
        live_times=tuple(r.time for r in live_results),
        sim_messages=sum(sim.network.metrics.messages.values()),
        live_messages=sum(r.messages for r in live_results),
        live_quiesced=live_result.quiesced,
        live_wall_seconds=live_result.wall_seconds,
    )


def _dist(times: Tuple[float, ...]) -> str:
    if not times:
        return "(none)"
    lo, hi = min(times), max(times)
    mean = sum(times) / len(times)
    return f"min={lo:.1f} mean={mean:.1f} max={hi:.1f}"


def format_report(report: FidelityReport) -> str:
    """Render a fidelity report as a human-readable block."""
    verdict = (
        "IDENTICAL"
        if report.routes_identical
        else f"{len(report.mismatches)} MISMATCHED"
    )
    lines = [
        f"fidelity: {report.protocol} on {report.scenario} "
        f"({report.ads} ADs, {report.flaps} flaps)",
        f"  routes over {report.pairs_compared} (src, dst) pairs: {verdict}",
        f"  sim  episodes: {len(report.sim_times)}  "
        f"messages={report.sim_messages}  time {_dist(report.sim_times)}",
        f"  live episodes: {len(report.live_times)}  "
        f"messages={report.live_messages}  time {_dist(report.live_times)}"
        f"  (wall {report.live_wall_seconds:.2f}s, "
        f"quiesced={report.live_quiesced})",
    ]
    for mm in report.mismatches[:10]:
        lines.append(
            f"  mismatch {mm.src}->{mm.dst}: "
            f"sim={mm.sim_route} live={mm.live_route}"
        )
    if len(report.mismatches) > 10:
        lines.append(f"  ... and {len(report.mismatches) - 10} more")
    return "\n".join(lines)
