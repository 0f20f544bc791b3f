"""Schema-versioned run telemetry records.

A :class:`RunRecord` is the unit of experiment output: one protocol, on
one scenario, with one failure plan, measured end to end.  It carries
everything a renderer reduces to a table row -- per-type
message/byte histograms, per-AD computation counters, every convergence
episode (with the :attr:`~EpisodeRecord.quiesced` verdict), route-quality
summaries, and wall-clock phase timings from the profiling hooks -- so a
sweep's raw data survives next to its rendered table.

Records serialize to JSON lines (``benchmarks/out/runs/<experiment>.jsonl``).
``schema_version`` is bumped whenever a field changes meaning; lines of
any other version are refused, not migrated (run telemetry is
regenerated, never kept).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.evaluation import evaluate_availability
from repro.protocols.base import ForwardingMode

#: Bump on any incompatible change to RunRecord's shape.
SCHEMA_VERSION = 9


@dataclass(frozen=True)
class EpisodeRecord:
    """One convergence episode: initial convergence or one status change.

    Attributes:
        kind: ``"initial"``, ``"failure"``, ``"repair"``, or
            ``"timeline"`` (the whole probed fault-plan window of a
            robustness cell, measured as one delta).
        link: The link whose status changed (None for initial).
        messages / bytes / time / events: Episode cost (see
            :class:`~repro.simul.runner.ConvergenceResult`).
        quiesced: Whether the event queue drained within budget.
    """

    kind: str
    messages: int
    bytes: int
    time: float
    events: int
    quiesced: bool
    link: Optional[Tuple[int, int]] = None

    @classmethod
    def from_result(
        cls, kind: str, result: Any, link: Optional[Tuple[int, int]] = None
    ) -> "EpisodeRecord":
        """Build from a :class:`~repro.simul.runner.ConvergenceResult`."""
        return cls(kind=kind, link=link, **asdict(result))


@dataclass(frozen=True)
class RunRecord:
    """Full telemetry of one (scenario, protocol, failure-plan) run.

    Attributes:
        schema_version: :data:`SCHEMA_VERSION` at write time.
        experiment: Experiment name the run belongs to.
        cell: The declarative cell key -- scenario/protocol/failure
            parameters plus the cell's position in the spec's expansion
            order (``index``).  Sorting records by this key reproduces
            the serial execution order regardless of worker scheduling.
        scenario: Measured scenario facts (ADs, links, policy terms,
            flows sampled).
        episodes: Initial convergence first, then one entry per failure
            event, in plan order.
        messages / message_bytes: Final per-message-type histograms.
        dropped: Messages lost to dead links.
        computations: Per-kind computation totals across all ADs.
        computations_by_ad: ``"<ad>:<kind>"`` -> count (JSON object keys
            must be strings).
        state: RIB occupancy summary (``max_rib``, ``total_rib``).
        route_quality: Availability evaluation summary, when the spec
            asked for one (``availability``, ``n_illegal``, ...).
        channel: Impairment-channel counters (transmissions, dropped,
            duplicated), when a channel was attached.
        robustness: RoutePulse summary (sample counts, availability,
            outage/time-to-repair stats), when the cell had a fault axis.
        misbehavior: Misbehaving-AD block (liar, lie, whether the lie was
            expressible, blast-radius series stats, containment latency,
            validation counters), when the cell had a misbehavior axis.
        overload: Control-plane overload block (ingress-queue capacity,
            service time, peak depth, drops, served messages and service
            duty cycle, plus pacing deferrals and damping suppression
            totals), when the cell had a bounded ingress queue or any
            pacing feature enabled.
        dataplane: Compiled-FIB replay block (E14), when the cell had a
            traffic axis: workload shape, per-epoch replay series (time,
            reachability gap, latency/stretch percentiles, FIB bytes),
            across-epoch flow outage percentiles, and FIB compile stats.
        chaos: Episodic chaos block (E15), when the cell had a chaotic
            fault axis: per-event-group labels and settle costs,
            control-plane availability during and after each disruption,
            graceful-restart counters, live supervisor activity, and the
            post-chaos routes digest (the sim-vs-live fidelity anchor).
        versioning: Mixed-version upgrade block (E16), when the cell had
            an ``upgrade_waves`` fault axis: per-wave upgrade epochs with
            negotiated-version census, version-rejected counters, the
            mixed-population measurement leg, optional rollback leg, and
            whether the post-upgrade routes digest matched the all-v1
            baseline (``digest_stable``).
        timings: Wall-clock phase seconds (``build``, ``converge``,
            ``engine.run``, ``failures``, ``evaluate``).  Never compare
            these for determinism -- they are honest wall-clock.
        trace: Rendered tracer timeline lines, when tracing was on.
        substrate: Which substrate executed the cell: ``"sim"`` (the
            discrete-event engine; deterministic and comparable) or
            ``"live"`` (asyncio/UDP; times are measured wall-clock in
            protocol units and vary run to run like ``timings``).
    """

    schema_version: int
    experiment: str
    cell: Mapping[str, Any]
    scenario: Mapping[str, Any]
    episodes: Tuple[EpisodeRecord, ...]
    messages: Mapping[str, int]
    message_bytes: Mapping[str, int]
    dropped: int
    computations: Mapping[str, int]
    computations_by_ad: Mapping[str, int]
    state: Mapping[str, int]
    route_quality: Optional[Mapping[str, Any]] = None
    channel: Optional[Mapping[str, int]] = None
    robustness: Optional[Mapping[str, Any]] = None
    misbehavior: Optional[Mapping[str, Any]] = None
    overload: Optional[Mapping[str, Any]] = None
    dataplane: Optional[Mapping[str, Any]] = None
    chaos: Optional[Mapping[str, Any]] = None
    versioning: Optional[Mapping[str, Any]] = None
    timings: Mapping[str, float] = field(default_factory=dict)
    trace: Optional[Tuple[str, ...]] = None
    substrate: str = "sim"

    @property
    def initial(self) -> EpisodeRecord:
        """The initial-convergence episode."""
        return self.episodes[0]

    @property
    def failure_episodes(self) -> Tuple[EpisodeRecord, ...]:
        """Episodes after the initial convergence, in plan order."""
        return self.episodes[1:]

    @property
    def quiesced(self) -> bool:
        """Whether every episode of the run quiesced."""
        return all(ep.quiesced for ep in self.episodes)

    def sort_key(self) -> Tuple:
        """Deterministic merge key: position in the spec's cell grid."""
        return (self.cell.get("index", 0),)

    @classmethod
    def assemble(
        cls,
        cell,
        scenario,
        protocol,
        episodes: Sequence[EpisodeRecord],
        profiler,
        *,
        timings: Optional[Mapping[str, float]] = None,
        **blocks: Any,
    ) -> "RunRecord":
        """THE record assembler: every driver's measured cell ends here.

        Evaluates route quality when the cell asked for it (before the
        final metrics snapshot, so on-demand computations it triggers
        are counted), rolls the per-AD computation counters up, and
        stamps scenario facts, RIB state and the substrate.  ``blocks``
        are the driver-specific optional fields (``dataplane``,
        ``chaos``, ...); ``timings`` adds substrate wall-clock entries
        to the profiler's phases.
        """
        network = protocol.network
        route_quality = None
        if cell.evaluate:
            with profiler.phase("evaluate"):
                report = evaluate_availability(
                    protocol.graph,
                    protocol.policies,
                    scenario.flows,
                    protocol.find_route,
                )
            route_quality = {
                "availability": report.availability,
                "n_flows": report.n_flows,
                "n_existing": report.n_existing,
                "n_found": report.n_found,
                "n_found_legal": report.n_found_legal,
                "n_illegal": report.n_illegal,
                "n_undecided": report.n_undecided,
                "mean_stretch": report.mean_stretch,
                "forwarding_loops": protocol.forwarding_loops,
                "source_control": protocol.mode is ForwardingMode.SOURCE,
            }
        snapshot = network.metrics.snapshot(network.clock.now)
        by_kind: Dict[str, int] = {}
        by_ad: Dict[str, int] = {}
        for (ad_id, kind), count in sorted(snapshot.computations.items()):
            by_kind[kind] = by_kind.get(kind, 0) + count
            by_ad[f"{ad_id}:{kind}"] = count
        channel = getattr(network, "channel", None)
        return cls(
            schema_version=SCHEMA_VERSION,
            experiment=cell.experiment,
            cell=cell.key(),
            scenario={
                "name": scenario.name,
                "num_ads": scenario.graph.num_ads,
                "num_links": scenario.graph.num_links,
                "num_terms": scenario.policies.num_terms,
                "num_flows": len(scenario.flows),
            },
            episodes=tuple(episodes),
            messages=dict(snapshot.messages),
            message_bytes=dict(snapshot.bytes),
            dropped=snapshot.dropped,
            computations=by_kind,
            computations_by_ad=by_ad,
            state={
                "max_rib": protocol.max_rib_size(),
                "total_rib": protocol.total_rib_size(),
            },
            route_quality=route_quality,
            channel=channel.counters() if channel else None,
            timings={**profiler.as_dict(), **(timings or {})},
            substrate=cell.substrate,
            **blocks,
        )

    # ------------------------------------------------------------- serde

    def to_json(self) -> str:
        """One JSON line (stable key order)."""
        payload = asdict(self)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        data = json.loads(line)
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"RunRecord schema {version!r} unsupported: this build reads "
                f"schema {SCHEMA_VERSION} only -- re-run the experiment"
            )
        data["episodes"] = tuple(
            EpisodeRecord(
                **{**ep, "link": tuple(ep["link"]) if ep.get("link") else None}
            )
            for ep in data["episodes"]
        )
        if data.get("trace") is not None:
            data["trace"] = tuple(data["trace"])
        return cls(**data)

    def comparable(self) -> Dict[str, Any]:
        """The record minus wall-clock noise, for equivalence checks.

        Two runs of the same cell -- serial or parallel, any worker --
        must produce identical ``comparable()`` dicts; only the
        ``timings`` differ run to run.
        """
        payload = asdict(self)
        payload.pop("timings")
        return payload


def write_jsonl(path: str, records: Sequence[RunRecord]) -> None:
    """Persist records as JSON lines (one record per line)."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")


def read_jsonl(path: str) -> list:
    """Load records written by :func:`write_jsonl`."""
    with open(path) as fh:
        return [RunRecord.from_json(line) for line in fh if line.strip()]
