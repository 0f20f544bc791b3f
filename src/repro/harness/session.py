"""The experiment session: cells in, telemetry records out.

:class:`ExperimentSession` executes an
:class:`~repro.harness.spec.ExperimentSpec`'s cell grid and returns one
:class:`~repro.harness.record.RunRecord` per cell.  Because cells are
self-contained recipes (each worker rebuilds its scenario, protocol and
failure plan from seeds), independent cells can fan out across a
``multiprocessing`` pool; records are merged deterministically by cell
key, so the merged result -- and any table rendered from it -- is
byte-identical whether the sweep ran serial or parallel.

Every cell runs through the one cell driver,
:func:`repro.harness.chaos.run_cell`, on either substrate.  This module
holds what that driver builds from a cell: the scenario and protocol
(:func:`build_cell`), the opened substrate adapter
(:func:`open_substrate`), and the data-plane meter
(:class:`TrafficMeter`).
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional, Sequence

from repro.faults.channel import ImpairedChannel
from repro.harness.record import RunRecord, write_jsonl
from repro.harness.spec import Cell, ExperimentSpec
from repro.simul.profiling import PhaseProfiler
from repro.simul.runner import SimSubstrate, Substrate
from repro.traffic.fib import compile_fib
from repro.traffic.replay import TailSeries, TrafficReplay

#: Most trace lines kept per run (timeline tails beyond this are elided).
TRACE_LINE_LIMIT = 500


def _parse_trace(trace: Optional[str]) -> Optional[Dict[str, Optional[int]]]:
    """Parse a ``--trace`` flag: ``"all"`` or ``"ad=<id>"``."""
    if trace is None:
        return None
    if trace == "all":
        return {"ad": None}
    if trace.startswith("ad="):
        try:
            return {"ad": int(trace[3:])}
        except ValueError:
            pass
    raise ValueError(f"bad trace filter {trace!r} (expected 'all' or 'ad=<id>')")


class TrafficMeter:
    """The data-plane axis of one cell: a workload replayed per epoch.

    Generates the zipf workload once, then snapshots a compiled FIB at
    every epoch it is asked to :meth:`record` and replays the full
    workload against it; :meth:`block` is the record's ``dataplane``
    mapping.  Inert (every call a no-op, ``block()`` ``None``) when the
    cell has no traffic axis.
    """

    def __init__(self, cell: Cell, protocol, profiler: PhaseProfiler) -> None:
        self.spec = cell.traffic
        self.protocol = protocol
        self.profiler = profiler
        self.active = cell.traffic.active
        self.fib_stats: Dict[str, object] = {}
        if self.active:
            with profiler.phase("traffic.workload"):
                self.workload = cell.traffic.build(protocol.graph)
                self.replay = TrafficReplay(self.workload, protocol.graph)
                self.tail = TailSeries(self.workload)

    def compile(self):
        """The FIB the converged control state compiles to right now."""
        if not self.active:
            return None
        with self.profiler.phase("traffic.fib"):
            fib = compile_fib(self.protocol, self.workload.classes)
        if not self.fib_stats:
            self.fib_stats.update(fib.stats.as_dict())
        return fib

    def record(self, now: float, label: str = "epoch", fib=None) -> None:
        """Replay the workload through ``fib`` (default: a fresh compile)."""
        if not self.active:
            return
        if fib is None:
            fib = self.compile()
        with self.profiler.phase("traffic.replay"):
            self.tail.record(now, label, fib, self.replay)

    def block(self) -> Optional[Dict[str, object]]:
        if not self.active:
            return None
        wl = self.workload
        return {
            "workload": {
                "flows": len(wl),
                "classes": wl.num_classes,
                "zipf_s": self.spec.zipf_s,
                "pairs": self.spec.pairs,
                "seed": self.spec.seed,
                "head_share": wl.head_share(),
                "total_bytes": wl.total_bytes,
            },
            "fib": self.fib_stats,
            "series": self.tail.as_dict(),
        }


def build_cell(cell: Cell, profiler: PhaseProfiler):
    """Scenario and (unbuilt) protocol of one cell, on private copies."""
    with profiler.phase("scenario"):
        scenario = cell.scenario.build()
    with profiler.phase("build"):
        protocol = cell.protocol.instantiate(
            scenario.graph.copy(), scenario.policies.copy()
        )
    return scenario, protocol


def open_substrate(
    cell: Cell,
    protocol,
    profiler: PhaseProfiler,
    time_scale: Optional[float] = None,
    settle_timeout_s: Optional[float] = None,
) -> Substrate:
    """Build ``protocol`` on the cell's substrate, impaired and profiled.

    Live, call it on the event loop the episode loop runs on; the serve
    tasks are supervised only under a chaos or upgrade program, and
    ``time_scale`` / ``settle_timeout_s`` override
    :class:`~repro.live.runner.LiveSubstrate`'s pacing (the simulator's
    time is virtual and ignores both).
    """
    fault = cell.fault
    if cell.substrate == "live":
        from repro.live import LiveSubstrate

        pacing = {"time_scale": time_scale, "timeout_s": settle_timeout_s}
        supervised = fault.chaotic or fault.versioned
        with profiler.phase("build"):
            substrate = LiveSubstrate(
                protocol,
                supervisor_seed=fault.seed if supervised else None,
                **{name: v for name, v in pacing.items() if v is not None},
            )
        if fault.loss > 0:
            # The one impairment real loopback can emulate: seeded loss
            # at the receive path, in force from t=0 like the sim's.
            substrate.network.set_recv_loss(fault.loss, seed=fault.seed)
        return substrate
    if cell.substrate != "sim":
        raise ValueError(
            f"unknown substrate {cell.substrate!r}; use 'sim' or 'live'"
        )
    with profiler.phase("build"):
        network = protocol.build()
    if fault.impaired:
        # In force from t=0: initial convergence happens over the lossy
        # channel too, which is the regime hardening is measured against.
        network.set_channel(
            ImpairedChannel(default=fault.impairment(), seed=fault.seed)
        )
    network.set_profiler(profiler)
    return SimSubstrate(network, protocol, max_events=cell.max_events)


def execute_cell(cell: Cell) -> RunRecord:
    """Run one cell end to end and measure it (worker entry point)."""
    from repro.harness.chaos import execute_chaos_cell, run_cell

    if cell.fault.chaotic and not cell.fault.versioned:
        # Chaos cells enter through their own function, which the
        # performance ledger times as a layer of its own.
        return execute_chaos_cell(cell)
    return run_cell(cell)[0]


class ExperimentSession:
    """Executes an experiment spec, serially or fanned out over workers.

    Args:
        spec: The declarative experiment.
        out_dir: Where to persist ``<experiment>.jsonl`` (created on
            demand); ``None`` skips persistence.
    """

    def __init__(self, spec: ExperimentSpec, out_dir: Optional[str] = None) -> None:
        self.spec = spec
        self.out_dir = out_dir

    @property
    def jsonl_path(self) -> Optional[str]:
        if self.out_dir is None:
            return None
        return os.path.join(self.out_dir, f"{self.spec.name}.jsonl")

    def run(self, jobs: int = 1) -> List[RunRecord]:
        """Execute every cell and return records in deterministic order.

        ``jobs > 1`` fans independent cells out over a process pool.
        The merge sorts by cell key, so the returned list (and the
        persisted JSONL) is identical to a serial run -- only the
        wall-clock ``timings`` fields differ.
        """
        cells = self.spec.cells()
        if jobs <= 1 or len(cells) <= 1:
            records = [execute_cell(cell) for cell in cells]
        else:
            with multiprocessing.Pool(processes=min(jobs, len(cells))) as pool:
                records = pool.map(execute_cell, cells, chunksize=1)
        records.sort(key=lambda r: r.sort_key())
        if self.out_dir is not None:
            os.makedirs(self.out_dir, exist_ok=True)
            write_jsonl(self.jsonl_path, records)
        return records


def run_spec(
    spec: ExperimentSpec, jobs: int = 1, out_dir: Optional[str] = None
) -> Sequence[RunRecord]:
    """One-shot convenience: session + run."""
    return ExperimentSession(spec, out_dir=out_dir).run(jobs=jobs)
