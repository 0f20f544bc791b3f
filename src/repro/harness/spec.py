"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the harness input: scenario parameters ×
protocol set × seed list × failure plan, all as plain data.  The spec
expands to a grid of :class:`Cell` objects -- every cell is
self-contained and picklable, so the session can hand cells to worker
processes and any cell can be re-run (or re-played under the tracer) in
isolation.

Cells carry *recipes*, not objects: a cell rebuilds its scenario, its
protocol, and its failure plan from seeds inside the worker, which is
what makes parallel execution bit-identical to serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.adgraph.generator import TopologyConfig, generate_internet
from repro.adgraph.graph import InterADGraph
from repro.core.evaluation import sample_flows
from repro.faults.channel import Impairment
from repro.faults.misbehavior import MisbehaviorPlan, misbehavior_plan
from repro.faults.plan import (
    FaultPlan,
    ad_crash_plan,
    churn_storm_plan,
    merge_plans,
    partition_plan,
    random_failure_plan,
    stub_partition_plan,
)
from repro.policy.generators import restricted_policies
from repro.workloads.scenarios import (
    Scenario,
    reference_scenario,
    ring_scenario,
    scaled_scenario,
    small_scenario,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one topology + policies + flow sample.

    ``kind`` selects the builder:

    * ``"reference"`` -- :func:`~repro.workloads.scenarios.reference_scenario`;
    * ``"small"``     -- :func:`~repro.workloads.scenarios.small_scenario`;
    * ``"ring"``      -- :func:`~repro.workloads.scenarios.ring_scenario`
      (a lateral transit ring; ``target_ads`` sets the size, default 8);
    * ``"scaled"``    -- :func:`~repro.workloads.scenarios.scaled_scenario`
      (set ``target_ads``);
    * ``"custom"``    -- explicit ``topology`` shape parameters with
      independently seeded policies (``policy_seed``) and flows
      (``flows_seed``), as the availability sweep (E3) needs.
    """

    kind: str = "reference"
    seed: int = 0
    num_flows: int = 60
    restrictiveness: float = 0.3
    target_ads: int = 0
    topology: Optional[Tuple[Tuple[str, int], ...]] = None
    flows_seed: Optional[int] = None
    policy_seed: Optional[int] = None

    def build(self) -> Scenario:
        if self.kind == "reference":
            return reference_scenario(
                seed=self.seed,
                num_flows=self.num_flows,
                restrictiveness=self.restrictiveness,
            )
        if self.kind == "small":
            return small_scenario(seed=self.seed, num_flows=self.num_flows)
        if self.kind == "ring":
            return ring_scenario(
                num_ads=self.target_ads or 8,
                seed=self.seed,
                num_flows=self.num_flows,
            )
        if self.kind == "scaled":
            return scaled_scenario(
                self.target_ads,
                seed=self.seed,
                num_flows=self.num_flows,
                restrictiveness=self.restrictiveness,
            )
        if self.kind == "custom":
            if self.topology is None:
                raise ValueError("custom scenario needs topology parameters")
            graph = generate_internet(TopologyConfig(**dict(self.topology)))
            policy = restricted_policies(
                graph,
                self.restrictiveness,
                seed=self.seed if self.policy_seed is None else self.policy_seed,
            )
            flows = sample_flows(
                graph,
                self.num_flows,
                seed=self.seed + 1 if self.flows_seed is None else self.flows_seed,
            )
            return Scenario(
                name=f"custom(seed={self.seed})",
                graph=graph,
                policy_scenario=policy,
                flows=flows,
            )
        raise ValueError(f"unknown scenario kind {self.kind!r}")

    def describe(self) -> Dict[str, Any]:
        """Cell-key fragment (only the parameters that are set)."""
        out: Dict[str, Any] = {"kind": self.kind, "seed": self.seed}
        if self.kind in ("scaled", "ring"):
            out["target_ads"] = self.target_ads
        if self.topology is not None:
            out["topology"] = dict(self.topology)
        out["restrictiveness"] = self.restrictiveness
        out["num_flows"] = self.num_flows
        return out


@dataclass(frozen=True)
class ProtocolSpec:
    """Recipe for one protocol construction via the registry.

    ``options`` is a tuple of (name, value) pairs forwarded to
    :func:`~repro.protocols.registry.make_protocol`; ``label`` is the
    display name used in tables (defaults to the registry name).
    """

    name: str
    label: Optional[str] = None
    options: Tuple[Tuple[str, Any], ...] = ()

    @property
    def display(self) -> str:
        return self.label or self.name

    def instantiate(self, graph: InterADGraph, policies):
        from repro.protocols.registry import make_protocol

        return make_protocol(self.name, graph, policies, **dict(self.options))


@dataclass(frozen=True)
class FailureSpec:
    """Recipe for a failure plan, rebuilt from the graph inside a cell.

    Kinds: ``"none"`` (pure initial convergence), ``"random"``
    (:func:`~repro.faults.plan.random_failure_plan` over non-bridge
    links), ``"stub_partition"``
    (:func:`~repro.faults.plan.stub_partition_plan`).
    """

    kind: str = "none"
    count: int = 0
    seed: int = 0
    start_time: float = 100.0
    spacing: float = 500.0
    repair: bool = True
    label: Optional[str] = None

    @property
    def display(self) -> str:
        return self.label or self.kind

    def build(self, graph: InterADGraph) -> FaultPlan:
        if self.kind == "none":
            return FaultPlan(())
        if self.kind == "random":
            return random_failure_plan(
                graph,
                count=self.count,
                start_time=self.start_time,
                spacing=self.spacing,
                repair=self.repair,
                seed=self.seed,
            )
        if self.kind == "stub_partition":
            return stub_partition_plan(
                graph,
                count=self.count,
                start_time=self.start_time,
                spacing=self.spacing,
            )
        raise ValueError(f"unknown failure kind {self.kind!r}")


@dataclass(frozen=True)
class FaultSpec:
    """Recipe for the robustness axis: channel impairment + churn timeline.

    The impairment (``loss``/``dup``/``jitter``/burst parameters) is in
    force for the whole run, including initial convergence -- that is the
    regime the hardening toggles are measured against.  ``flaps`` and
    ``crashes`` build a post-convergence churn timeline (link flaps
    first, AD crash/restart cycles after), probed by RoutePulse every
    ``probe_interval`` over the scenario's first ``probe_flows`` flows.

    The default spec is completely inert: no channel is attached and no
    timeline runs, keeping legacy cells byte-identical.
    """

    loss: float = 0.0
    dup: float = 0.0
    jitter: float = 0.0
    burst_enter: float = 0.0
    burst_exit: float = 0.5
    flaps: int = 0
    crashes: int = 0
    retain_state: bool = False
    #: Churn storm (E13): ``churn_hz`` > 0 flaps ``churn_links`` links
    #: concurrently at that frequency for ``churn_duration``, after the
    #: sequenced flaps/crashes (if any).
    churn_hz: float = 0.0
    churn_links: int = 3
    churn_duration: float = 400.0
    #: Chaos program (E15): ``restarts`` > 0 runs that many rolling AD
    #: crash/restart cycles (state retained -- a maintenance restart, the
    #: regime graceful restart is measured against) and ``partitions``
    #: > 0 adds that many bounded partition windows afterwards.  Chaotic
    #: cells take the episodic chaos driver
    #: (:mod:`repro.harness.chaos`), which runs on BOTH substrates,
    #: instead of the legacy sim fault timeline.
    restarts: int = 0
    partitions: int = 0
    #: Mixed-version upgrade program (E16): ``upgrade_waves`` > 0 starts
    #: every AD at wire v1 (negotiating) and upgrades the population to
    #: the current wire version in that many rolling waves, measuring a
    #: mixed-population epoch mid-flight; ``rollback`` adds a downgrade/
    #: re-upgrade leg for the last wave.  Versioned cells take the
    #: version-skew driver (:mod:`repro.harness.chaos`), which runs on
    #: BOTH substrates like the chaos driver.
    upgrade_waves: int = 0
    rollback: bool = False
    #: Bounded ingress queue (E13): ``queue_capacity`` >= 0 attaches an
    #: :class:`~repro.simul.ingress.IngressModel` after initial
    #: convergence; ``None`` keeps the unbounded legacy delivery.
    queue_capacity: Optional[int] = None
    seed: int = 0
    start_time: float = 100.0
    spacing: float = 400.0
    probe_interval: float = 50.0
    probe_flows: int = 8
    label: Optional[str] = None

    @property
    def impaired(self) -> bool:
        """Whether any channel impairment is configured."""
        return (
            self.loss > 0
            or self.dup > 0
            or self.jitter > 0
            or self.burst_enter > 0
        )

    @property
    def churns(self) -> bool:
        """Whether a churn timeline (flaps/crashes/storm) is configured."""
        return self.flaps > 0 or self.crashes > 0 or self.churn_hz > 0

    @property
    def queued(self) -> bool:
        """Whether a bounded ingress queue is configured."""
        return self.queue_capacity is not None

    @property
    def chaotic(self) -> bool:
        """Whether a chaos program (rolling restarts/partitions) runs."""
        return self.restarts > 0 or self.partitions > 0

    @property
    def versioned(self) -> bool:
        """Whether a mixed-version upgrade program (E16) runs."""
        return self.upgrade_waves > 0

    @property
    def active(self) -> bool:
        return self.impaired or self.churns or self.queued

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        if not (self.active or self.chaotic or self.versioned):
            return "none"
        parts = []
        if self.loss > 0:
            parts.append(f"loss={self.loss:g}")
        if self.dup > 0:
            parts.append(f"dup={self.dup:g}")
        if self.jitter > 0:
            parts.append(f"jitter={self.jitter:g}")
        if self.burst_enter > 0:
            parts.append(f"burst={self.burst_enter:g}")
        if self.flaps > 0:
            parts.append(f"flaps={self.flaps}")
        if self.crashes > 0:
            parts.append(f"crashes={self.crashes}")
        if self.churn_hz > 0:
            parts.append(f"churn={self.churn_hz:g}Hz")
        if self.queue_capacity is not None:
            parts.append(f"queue={self.queue_capacity}")
        if self.restarts > 0:
            parts.append(f"restarts={self.restarts}")
        if self.partitions > 0:
            parts.append(f"partitions={self.partitions}")
        if self.upgrade_waves > 0:
            parts.append(f"waves={self.upgrade_waves}")
        if self.rollback:
            parts.append("rollback")
        return ",".join(parts)

    def impairment(self) -> Impairment:
        return Impairment(
            drop_prob=self.loss,
            dup_prob=self.dup,
            jitter=self.jitter,
            burst_enter=self.burst_enter,
            burst_exit=self.burst_exit,
        )

    def build_plan(self, graph: InterADGraph) -> FaultPlan:
        """The churn timeline (empty when only impairment is configured)."""
        plans = []
        if self.flaps > 0:
            plans.append(
                random_failure_plan(
                    graph,
                    count=self.flaps,
                    start_time=self.start_time,
                    spacing=self.spacing,
                    repair=True,
                    seed=self.seed,
                )
            )
        if self.crashes > 0:
            plans.append(
                ad_crash_plan(
                    graph,
                    crashes=self.crashes,
                    retain_state=self.retain_state,
                    start_time=self.start_time + self.flaps * self.spacing,
                    spacing=self.spacing,
                    seed=self.seed + 1,
                )
            )
        if self.churn_hz > 0:
            plans.append(
                churn_storm_plan(
                    graph,
                    hz=self.churn_hz,
                    links=self.churn_links,
                    start_time=self.start_time
                    + (self.flaps + self.crashes) * self.spacing,
                    duration=self.churn_duration,
                    seed=self.seed + 2,
                )
            )
        return merge_plans(*plans) if plans else FaultPlan(())

    @property
    def horizon(self) -> float:
        """Probing window length: the timeline plus one settle period."""
        horizon = self.start_time + (self.flaps + self.crashes) * self.spacing
        if self.churn_hz > 0:
            horizon += self.churn_duration + self.spacing
        return horizon

    def build_chaos_plan(self, graph: InterADGraph) -> FaultPlan:
        """The E15 chaos timeline: rolling restarts, then partitions.

        Restarts are crash/restart cycles with state retained (each AD
        is down for half a ``spacing`` window -- shorter than the
        default graceful-restart hold time, so a helper-enabled
        neighbourhood rides the restart out).  Each partition window
        cuts a seeded island of
        :data:`~repro.faults.plan.PARTITION_FRACTION` of the ADs loose for
        half a spacing window, then heals it.
        """
        plans = []
        if self.restarts > 0:
            plans.append(
                ad_crash_plan(
                    graph,
                    crashes=self.restarts,
                    retain_state=True,
                    start_time=self.start_time,
                    spacing=self.spacing,
                    seed=self.seed,
                )
            )
        partition_start = self.start_time + self.restarts * self.spacing
        for i in range(self.partitions):
            plans.append(
                partition_plan(
                    graph,
                    start_time=partition_start + i * self.spacing,
                    duration=self.spacing / 2.0,
                    seed=self.seed + 3 + i,
                )
            )
        return merge_plans(*plans) if plans else FaultPlan(())


@dataclass(frozen=True)
class MisbehaviorSpec:
    """Recipe for the misbehaving-AD axis: who lies, how, and when.

    The default spec is inert (no liar).  ``liar_ad`` pins the liar
    explicitly; otherwise ``liar_role`` picks the seeded highest-degree
    AD of that role (``"stub"``, ``"regional"``, ``"backbone"``) inside
    the cell, so the same spec names a comparable liar in every
    scenario.  ``duration`` > 0 schedules a reversion to honesty.
    """

    lie: str = ""
    liar_role: str = "backbone"
    liar_ad: int = -1
    start_time: float = 150.0
    duration: float = 0.0
    seed: int = 0
    label: Optional[str] = None

    #: How long after the lie starts RoutePulse keeps probing: covers
    #: the liar's bounded re-assertion window plus containment settling.
    PROBE_WINDOW: float = 600.0

    @property
    def active(self) -> bool:
        return bool(self.lie)

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        if not self.active:
            return "none"
        who = f"ad={self.liar_ad}" if self.liar_ad >= 0 else self.liar_role
        return f"{self.lie}@{who}"

    def build_plan(self, graph: InterADGraph) -> MisbehaviorPlan:
        if not self.active:
            return MisbehaviorPlan(())
        return misbehavior_plan(
            graph,
            self.lie,
            liar=self.liar_ad if self.liar_ad >= 0 else None,
            role=self.liar_role,
            start_time=self.start_time,
            duration=self.duration,
            seed=self.seed,
        )

    @property
    def horizon(self) -> float:
        """Probing window length when the spec is active."""
        return self.start_time + max(self.duration, 0.0) + self.PROBE_WINDOW


@dataclass(frozen=True)
class TrafficSpec:
    """Recipe for the data-plane axis: a zipf workload replayed through
    compiled FIBs at every convergence epoch (E14).

    The default spec is inert -- no workload is generated, no FIBs are
    compiled, and legacy cells stay byte-identical.  With ``flows`` > 0
    the session generates the workload once per cell, compiles a FIB
    after initial convergence, re-snapshots it at every RoutePulse
    sample during the fault timeline, and attaches the epoch series to
    the record's ``dataplane`` block.
    """

    flows: int = 0
    zipf_s: float = 1.1
    pairs: int = 4096
    seed: int = 0
    label: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.flows > 0

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        if not self.active:
            return "none"
        return f"{self.flows}f/s={self.zipf_s:g}"

    def workload_spec(self):
        from repro.traffic.workload import WorkloadSpec

        return WorkloadSpec(
            flows=self.flows,
            zipf_s=self.zipf_s,
            pairs=self.pairs,
            seed=self.seed,
        )

    def build(self, graph: InterADGraph):
        from repro.traffic.workload import zipf_workload

        return zipf_workload(graph, self.workload_spec())


@dataclass(frozen=True)
class Cell:
    """One fully-specified run: the unit of parallel execution."""

    experiment: str
    index: int
    scenario: ScenarioSpec
    protocol: ProtocolSpec
    failure: FailureSpec
    fault: FaultSpec = FaultSpec()
    misbehavior: MisbehaviorSpec = MisbehaviorSpec()
    traffic: TrafficSpec = TrafficSpec()
    evaluate: bool = False
    max_events: int = 5_000_000
    trace: Optional[str] = None
    #: Execution substrate: ``"sim"`` (discrete-event engine) or
    #: ``"live"`` (asyncio/UDP via :mod:`repro.live`).  Live cells
    #: support the scenario x protocol x failure axes; the sim-only
    #: axes (impairments, misbehavior, tracing) are rejected loudly.
    substrate: str = "sim"

    def key(self) -> Dict[str, Any]:
        """The record's ``cell`` mapping (sortable, JSON-friendly)."""
        return {
            "index": self.index,
            "scenario": self.scenario.describe(),
            "protocol": self.protocol.name,
            "label": self.protocol.display,
            "options": dict(self.protocol.options),
            "failure": self.failure.display,
            "fault": self.fault.display,
            "misbehavior": self.misbehavior.display,
            "traffic": self.traffic.display,
            "substrate": self.substrate,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """The declarative input to an :class:`~repro.harness.session.ExperimentSession`.

    The cell grid is the cross product scenarios × seeds × protocols ×
    failures, expanded in that (deterministic) nesting order.  An empty
    ``seeds`` tuple keeps each scenario's own seed; otherwise every seed
    re-seeds every scenario (the seed-sweep axis).
    """

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    protocols: Tuple[ProtocolSpec, ...]
    seeds: Tuple[int, ...] = ()
    failures: Tuple[FailureSpec, ...] = (FailureSpec(),)
    faults: Tuple[FaultSpec, ...] = (FaultSpec(),)
    misbehaviors: Tuple[MisbehaviorSpec, ...] = (MisbehaviorSpec(),)
    traffics: Tuple[TrafficSpec, ...] = (TrafficSpec(),)
    evaluate: bool = False
    max_events: int = 5_000_000
    trace: Optional[str] = None
    substrate: str = "sim"
    #: Substrate sweep axis (E15): each cell is expanded once per listed
    #: substrate, innermost, so sim/live twins of the same design point
    #: sit adjacent in the grid.  Empty keeps the single ``substrate``.
    substrates: Tuple[str, ...] = ()

    def cells(self) -> List[Cell]:
        expanded: List[Cell] = []
        scenario_axis: List[ScenarioSpec] = []
        for scenario in self.scenarios:
            if self.seeds:
                scenario_axis.extend(
                    replace(scenario, seed=seed) for seed in self.seeds
                )
            else:
                scenario_axis.append(scenario)
        substrate_axis = self.substrates or (self.substrate,)
        index = 0
        for scenario in scenario_axis:
            for protocol in self.protocols:
                for failure in self.failures:
                    for fault in self.faults:
                        for misbehavior in self.misbehaviors:
                            for traffic in self.traffics:
                                for substrate in substrate_axis:
                                    expanded.append(
                                        Cell(
                                            experiment=self.name,
                                            index=index,
                                            scenario=scenario,
                                            protocol=protocol,
                                            failure=failure,
                                            fault=fault,
                                            misbehavior=misbehavior,
                                            traffic=traffic,
                                            evaluate=self.evaluate,
                                            max_events=self.max_events,
                                            trace=self.trace,
                                            substrate=substrate,
                                        )
                                    )
                                    index += 1
        return expanded
