"""The five reference workloads, as harness specs generated from a seed.

Each workload is one single-cell :class:`~repro.harness.spec.ExperimentSpec`
run through ``harness.session.run_spec`` -- the program only ever sees
the generated cell.

What ``--seed`` moves: the sampled flows (probe set, evaluated set), the
fault / failure / chaos plan (which links flap, which ADs restart, which
island is cut) and the traffic workload (which pairs, which flows), each
shifted by the same offset from the default, so the default seed
reproduces the committed E14/E15 seeds on the two cells that descend
from those experiments.  What it does **not** move: the topology and the
policy database.  Re-drawing them swings what a cell *costs* --
``dataplane-storm`` wall 1.0-3.3 s, ``sim-pv-churn`` peak RSS +-27% over
ten draws -- and the driver that gates later changes compares runs made
on *different* seeds, so it could not tell a slower program from a
costlier draw.  For the same reason ``sim-pv-churn`` also pins its fault
plan: with path-vector routing the cost of a flap depends on where the
link sits (19k-27k events over eight plans), while link-state flooding
costs the same whichever link flaps (identical event counts over eight
plans).

One size per workload, plus ``smoke`` sizes (seconds in total) for the
self-tests.  The sizes are what three fresh-interpreter reps of each
workload fit into the driver's run budget (114 runs in 3420 s); where
that forced a cell below the size the ledger was first sketched at, the
cell was cut along an axis that leaves its profile alone (see README).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, Tuple

from repro.adgraph.generator import TopologyConfig, scaled_config
from repro.harness.spec import (
    ExperimentSpec,
    FailureSpec,
    FaultSpec,
    ProtocolSpec,
    ScenarioSpec,
    TrafficSpec,
)

DEFAULT_SEED = 47

#: Live runs cross the host loopback interface (one UDP socket per AD);
#: no real link is involved, so wire latency and link rate are not
#: measured -- only per-frame codec, socket and scheduling cost.
LIVE_PATH = "host loopback interface (127.0.0.1, one UDP socket per AD)"

#: Wall seconds per protocol time unit on the live substrate (the
#: default of ``run_live`` and ``harness.chaos.CHAOS_TIME_SCALE``).
LIVE_TIME_SCALE_S = 0.005


@dataclass(frozen=True)
class Workload:
    """One named workload: why it exists and how to build its spec."""

    name: str
    substrate: str
    #: One line for ``BENCHMARK.json``: the cell, then why it is there.
    why: str
    #: The smoke cell, for the printed header of a ``--smoke`` run.
    smoke_shape: str
    build: Callable[[int, bool], ExperimentSpec]


def _scenario(
    config: TopologyConfig, restrictiveness: float, num_flows: int, off: int
) -> ScenarioSpec:
    """A pinned topology + policy draw whose flow sample follows the seed.

    ``kind="custom"`` is the one scenario recipe that seeds the three
    separately; with ``off == 0`` it builds exactly what
    ``scaled_scenario`` / ``reference_scenario`` build at ``config.seed``
    (policies from the same seed, flows from seed + 1).
    """
    return ScenarioSpec(
        kind="custom",
        seed=config.seed,
        topology=tuple(asdict(config).items()),
        restrictiveness=restrictiveness,
        num_flows=num_flows,
        flows_seed=config.seed + 1 + off,
    )


def _scaled(target_ads: int, seed: int, off: int) -> ScenarioSpec:
    # What ScenarioSpec(kind="scaled") builds: its default restrictiveness.
    return _scenario(
        scaled_config(target_ads, seed=seed), ScenarioSpec.restrictiveness, 24, off
    )


def _reference(seed: int, num_flows: int, off: int) -> ScenarioSpec:
    # reference_scenario's shape: 3 x 4 x 4 = 63 ADs.
    config = TopologyConfig(
        num_backbones=3, regionals_per_backbone=4, campuses_per_parent=4, seed=seed
    )
    return _scenario(config, ScenarioSpec.restrictiveness, num_flows, off)


def _churn_fault(seed: int) -> FaultSpec:
    # BENCH_sim_core's probed churn recipe: six link flaps after initial
    # convergence, every flow probed on a fine-grained timeline.
    return FaultSpec(
        flaps=6, spacing=300.0, probe_interval=25.0, probe_flows=24, seed=seed
    )


def _sim_churn(protocol: str, ads: int, seeded_faults: bool):
    def build(seed: int, smoke: bool) -> ExperimentSpec:
        off = seed - DEFAULT_SEED
        return ExperimentSpec(
            name=f"e2e-{protocol}-churn",
            scenarios=(_scaled(50 if smoke else ads, DEFAULT_SEED, off),),
            protocols=(ProtocolSpec(protocol),),
            faults=(_churn_fault(seed if seeded_faults else DEFAULT_SEED),),
        )

    return build


def _dataplane_storm(seed: int, smoke: bool) -> ExperimentSpec:
    # E14's ls-hbh cell -- committed seeds scenario 5 / fault 3 / traffic
    # 14, which the offset keeps at the default seed -- replaying a
    # quarter of E14's 10^6 flows over a quarter of its 1024 pairs: the
    # same storm, the same 28 FIB epochs, the same 77%-in-synthesis
    # profile, in 3.3 s instead of 12.5 s.
    off = seed - DEFAULT_SEED
    flows, pairs, flaps = (20_000, 128, 1) if smoke else (250_000, 256, 2)
    return ExperimentSpec(
        name="e2e-dataplane-storm",
        scenarios=(_reference(5, 12, off),),
        protocols=(ProtocolSpec("ls-hbh"),),
        faults=(
            FaultSpec(
                flaps=flaps,
                crashes=1,
                retain_state=False,
                seed=3 + off,
                probe_interval=100.0 if smoke else 50.0,
                probe_flows=8,
                label="storm",
            ),
        ),
        traffics=(
            TrafficSpec(flows=flows, zipf_s=1.1, pairs=pairs, seed=14 + off),
        ),
    )


def _live_ls_episodes(seed: int, smoke: bool) -> ExperimentSpec:
    # 100 ADs keeps the JSON codec ahead of the settle idle window (57%
    # against 32% of wall), as at the 150-AD live ceiling; at 60 ADs the
    # order flips.
    ads, count = (20, 2) if smoke else (100, 8)
    return ExperimentSpec(
        name="e2e-live-ls-episodes",
        scenarios=(_scaled(ads, DEFAULT_SEED, seed - DEFAULT_SEED),),
        protocols=(ProtocolSpec("plain-ls"),),
        failures=(FailureSpec(kind="random", count=count, repair=True, seed=seed),),
        evaluate=True,
        substrate="live",
    )


def _live_chaos(seed: int, smoke: bool) -> ExperimentSpec:
    # E15's ls-hbh-topo+gr live cell: the 63-AD reference internet, three
    # rolling restarts and one partition (scenario 5 / fault 15 / traffic
    # 15 at the default seed), so the post-chaos routes digest is E15's.
    # Two things are cut from E15, neither of which its profile rests on:
    # the plan's spacing (400 -> 150 units, i.e. 3.4 s -> 1.3 s asleep
    # between event groups) and the replayed traffic (200k flows / 1024
    # pairs -> 50k / 256).
    off = seed - DEFAULT_SEED
    if smoke:
        # The ring's topology takes no seed; its seed draws the flows.
        scenario = ScenarioSpec(kind="ring", target_ads=8, seed=5 + off, num_flows=12)
        fault = FaultSpec(
            restarts=1, partitions=1, seed=15 + off, start_time=50.0, spacing=100.0
        )
        traffic = TrafficSpec(flows=20_000, zipf_s=1.1, pairs=64, seed=15 + off)
    else:
        scenario = _reference(5, 24, off)
        fault = FaultSpec(
            restarts=3, partitions=1, seed=15 + off, start_time=100.0, spacing=150.0
        )
        traffic = TrafficSpec(flows=50_000, zipf_s=1.1, pairs=256, seed=15 + off)
    return ExperimentSpec(
        name="e2e-live-chaos",
        scenarios=(scenario,),
        protocols=(
            ProtocolSpec(
                "ls-hbh-topo", label="ls-hbh-topo+gr", options=(("graceful", "all"),)
            ),
        ),
        faults=(fault,),
        traffics=(traffic,),
        substrate="live",
    )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="sim-ls-churn",
        substrate="sim",
        why=(
            "plain-ls, scaled 400 ADs, 6 probed link flaps: engine heap, "
            "delivery and flooding do nearly all the work; policy and synthesis none"
        ),
        smoke_shape="plain-ls, scaled 50 ADs, 6 probed flaps",
        build=_sim_churn("plain-ls", 400, seeded_faults=True),
    ),
    Workload(
        name="sim-pv-churn",
        substrate="sim",
        why=(
            "idrp, scaled 180 ADs, same churn: 12x fewer events than sim-ls-churn "
            "for over half its time, spent in handlers, timers and policy set "
            "algebra; an engine speed-up must read no change here"
        ),
        smoke_shape="idrp, scaled 50 ADs, 6 probed flaps",
        build=_sim_churn("idrp", 180, seeded_faults=False),
    ),
    Workload(
        name="dataplane-storm",
        substrate="sim",
        why=(
            "E14 ls-hbh cell, 63-AD reference, 250k zipf flows / 256 pairs: 28 FIB "
            "recompiles through a flap+crash storm; policy-constrained synthesis "
            "does most of the work, the message path almost none"
        ),
        smoke_shape="ls-hbh, 63-AD reference, 1 flap + crash, 20k zipf flows / 128 pairs",
        build=_dataplane_storm,
    ),
    Workload(
        name="live-ls-episodes",
        substrate="live",
        why=(
            "plain-ls, scaled 100 ADs, 16 settled episodes over loopback UDP: "
            "sim-ls-churn's flooding code through the JSON codec, sockets and the "
            "per-episode settle window; its sim twin is ~15x faster"
        ),
        smoke_shape="plain-ls, scaled 20 ADs, initial + 4 settled episodes, live UDP",
        build=_live_ls_episodes,
    ),
    Workload(
        name="live-chaos",
        substrate="live",
        why=(
            "E15 ls-hbh-topo+gr live cell, 63-AD reference, 3 restarts + partition: "
            "only path through harness.chaos, live.supervisor and graceful restart; "
            "largest SPF share and wall-cpu gap"
        ),
        smoke_shape="ls-hbh-topo+gr, 8-AD ring, 1 restart + partition, 20k flows",
        build=_live_chaos,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def spec_for(name: str, seed: int, smoke: bool = False) -> ExperimentSpec:
    """The single-cell spec of workload ``name`` at ``seed``."""
    spec = BY_NAME[name].build(seed, smoke)
    if len(spec.cells()) != 1:
        raise AssertionError(f"{name} must expand to exactly one cell")
    return spec


def sim_twin(spec: ExperimentSpec) -> ExperimentSpec:
    """The cheap simulator twin of a live spec: the oracle's reference.

    Same scenario, protocol and fault program on the deterministic
    substrate.  Traffic is dropped -- the twin is consulted for control-
    plane facts (message histograms, route quality, routes digest), and
    FIB compiles would be most of its cost.
    """
    return replace(
        spec, name=spec.name + "-twin", substrate="sim", traffics=(TrafficSpec(),)
    )
