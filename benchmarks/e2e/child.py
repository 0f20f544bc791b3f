"""One rep of one workload, in a fresh interpreter.

``bench.py`` starts this file as a child process per rep, so peak RSS
is per workload and every cache starts cold, as a user's
``repro experiments run`` does.  The child:

1. imports the program (timed: ``bench.import_s``);
2. runs the calibration loop;
3. probes set-up three to five times through the public builders the
   harness uses before any protocol message (``setup_s`` is their
   median);
4. installs the span patches (traced rep) or the one capture hook
   (untraced rep);
5. times the single ``run_spec(spec, out_dir=tmp)`` call -- ``wall_s``,
   ``cpu_s`` -- and runs the calibration loop again;
6. reads the RunRecord and the captured protocol object for exact
   counts, failure accounting and (traced) the per-layer budget;
7. prints one JSON object on its last stdout line.

Nothing here decides whether a rep is *good*: the parent compares reps
against each other, the pinned digests and the sim twin.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import heapq
import importlib
import json
import logging
import os
import pkgutil
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: Exit code when the program under test is not in this checkout.
EXIT_NO_PROGRAM = 3

#: What :func:`calibrate` read (median over every rep) while the
#: committed ``baseline.json`` was measured.  The gated times are
#: *host-normalised seconds* -- measured busy time x CALIB_REF_S / the
#: rep's own calibration readings -- so a run on a host that is
#: momentarily 40% slower reads the same, and in the baseline normalised
#: and raw seconds coincide.  The raw readings are reported beside them.
CALIB_REF_S = 0.23

#: Set-up is probed up to five times (at least three; no more once a
#: second has gone by) and reported as the median, because the sandbox's
#: timing noise on a 10 ms builder call is a large share of it.
SETUP_PROBES_MAX = 5
SETUP_PROBES_MIN = 3
SETUP_PROBE_BUDGET_S = 1.0


def calibrate() -> float:
    """A fixed pure-Python loop: heap push/pop, dict updates, json.dumps.

    Its duration tracks how fast this host runs interpreter-bound code
    right now, which is what every workload is; a rep whose before and
    after calibrations disagree ran on a machine that changed speed
    under it.  The collector is off for the duration: a generation-2
    pass would walk whatever the run left alive and make the second
    calibration read slower than the first on a host that never changed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: List[tuple] = []
        table: Dict[int, int] = {}
        for i in range(150_000):
            heapq.heappush(heap, ((i * 7919) % 10_007, i))
            table[i % 4096] = table.get(i % 4096, 0) + i
            if i & 1:
                heapq.heappop(heap)
        for _ in range(100):
            json.dumps(table, sort_keys=True)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def import_program() -> None:
    """Import every ``repro`` module from this checkout's ``src``.

    Everything is imported up front, traced or not, so both kinds of
    rep pay the same import cost and every class a patch point may need
    to wrap (protocol subclasses are otherwise imported lazily by the
    registry) exists before :func:`tracing.SpanRecorder.install` runs.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"child: no program at {SRC}/repro", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(
            f"child: 'repro' resolved to {repro.__file__}, not this checkout",
            file=sys.stderr,
        )
        sys.exit(EXIT_NO_PROGRAM)
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


class _AsyncioErrors(logging.Handler):
    """Counts asyncio's "Exception in callback" / "Task exception" records."""

    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.messages: List[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage().splitlines()[0][:200])


def probe_setup(cell) -> float:
    """One timed pass through the builders execute_cell calls first."""
    t0 = time.perf_counter()
    scenario = cell.scenario.build()
    protocol = cell.protocol.instantiate(
        scenario.graph.copy(), scenario.policies.copy()
    )
    if cell.substrate == "live":
        from repro.live.network import LiveNetwork

        async def build_live() -> None:
            # As run_live / the chaos driver do: the live network needs a
            # running loop; no socket is bound before start().
            protocol.substrate = "live"
            protocol.build(network=LiveNetwork(protocol.graph))

        asyncio.run(build_live())
    else:
        protocol.build()
    if cell.traffic.active:
        cell.traffic.build(protocol.graph)
    return time.perf_counter() - t0


#: RunRecord.comparable() keys that label the run rather than measure
#: it; leaving them out of the digest lets a later change rename a cell
#: key or bump the schema without invalidating the pinned statistics.
LABEL_KEYS = ("schema_version", "experiment", "cell", "trace", "substrate")


def stats_digest(record) -> str:
    """Digest of every simulated statistic: comparable() minus labels."""
    stats = {k: v for k, v in record.comparable().items() if k not in LABEL_KEYS}
    payload = json.dumps(stats, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def exact_counts(record) -> Dict[str, Any]:
    """Everything that must repeat exactly, rep to rep and traced to untraced."""
    counts: Dict[str, Any] = {
        "events": sum(ep.events for ep in record.episodes),
        "episodes": len(record.episodes),
        "msgs": sum(record.messages.values()),
        "bytes": sum(record.message_bytes.values()),
        "messages": dict(sorted(record.messages.items())),
        "message_bytes": dict(sorted(record.message_bytes.items())),
        "dropped": record.dropped,
        "state": dict(record.state),
        "route_quality": record.route_quality,
        "num_ads": record.scenario["num_ads"],
    }
    if record.chaos is not None:
        counts["routes_digest"] = record.chaos["routes_digest"]
    if record.substrate == "sim":
        # The simulator is deterministic, so one digest pins every
        # simulated statistic of the record at once.
        counts["stats_digest"] = stats_digest(record)
    return counts


def failure_accounting(record, protocol, asyncio_errors: List[str]) -> Dict[str, Any]:
    """Failed over attempted operations, counted from outside the program."""
    detail: List[str] = []
    attempted = len(record.episodes)
    failed = 0
    for i, ep in enumerate(record.episodes):
        if not ep.quiesced:
            failed += 1
            detail.append(f"episode {i} ({ep.kind}) did not quiesce")
    if record.substrate == "live" and protocol is not None:
        network = protocol.network
        attempted += network.frames_sent
        drops = network.metrics.live_send_drops
        if drops:
            failed += drops
            detail.append(f"{drops} live send drop(s)")
    if record.chaos is not None and record.chaos.get("supervisor"):
        gave_up = record.chaos["supervisor"]["gave_up"]
        if gave_up:
            failed += len(gave_up)
            detail.append(f"supervisor gave up on ADs {gave_up}")
    if asyncio_errors:
        failed += len(asyncio_errors)
        detail.extend(f"asyncio: {m}" for m in asyncio_errors[:5])
    return {"attempted": attempted, "failed": failed, "detail": detail}


def reconverge_samples_ms(record, scale_s: float) -> List[float]:
    """Live only: wall ms from each perturbation to its last protocol message."""
    if record.substrate != "live":
        return []
    if record.chaos is not None:
        pairs = [(g["settle_time"], g["messages"]) for g in record.chaos["groups"]]
    else:
        pairs = [(ep.time, ep.messages) for ep in record.failure_episodes]
    # A perturbation that caused no protocol message (a graceful crash
    # the helpers ride out) has no reconvergence to time.
    return [t * scale_s * 1000.0 for t, msgs in pairs if msgs > 0]


def layer_metrics(
    recorder, totals, record, protocol, jsonl_bytes: int
) -> Dict[str, float]:
    """The per-layer budget of one traced rep (see metrics.LAYERS)."""
    from repro.policy.database import PolicyDatabase
    from tracing import ROOT_SPAN as root

    idle = recorder.idle_by_name()

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    sim = record.substrate == "sim"
    network = protocol.network
    nodes = list(network.nodes.values())
    engine_events = network.sim.events_processed if sim else 0
    databases = [o for o in gc.get_objects() if isinstance(o, PolicyDatabase)]
    lookups = sum(db.lookups for db in databases)
    dataplane = record.dataplane or {}
    flows = dataplane.get("workload", {}).get("flows", 0)
    epochs = len(dataplane.get("series", {}).get("epochs", ()))
    chaos = record.chaos or {}
    supervisor = chaos.get("supervisor") or {}
    receive_calls = calls("protocols.receive")
    frames = calls("simul.wire.encode")
    traced_wall = totals[root]["total_s"]
    # Waiting no boundary owns is the chaos driver sleeping until its
    # plan's next event; elsewhere the root's wall - cpu is host noise.
    sched_wait = min(idle.get(root, 0.0), self_s("harness.chaos"))
    # run_spec's own glue (the root span's self time) belongs to the
    # session layer, so the *_s rows sum to the traced wall exactly.
    session_self = self_s(root) + self_s("harness.session")
    unattributed = session_self + self_s("harness.chaos") - sched_wait
    return {
        "workloads.scenarios.build_s": self_s("workloads.scenarios.build"),
        "protocols.registry.build_s": self_s("protocols.registry.build"),
        "simul.engine.run_self_s": self_s("simul.engine.run"),
        "simul.engine.events": engine_events,
        "simul.engine.ns_per_event": 1e9
        * ratio(self_s("simul.engine.run"), engine_events),
        "simul.network.send_self_s": self_s("simul.network.send"),
        "simul.network.msgs": sum(record.messages.values()) if sim else 0,
        "simul.network.dropped": record.dropped if sim else 0,
        "protocols.receive_self_s": self_s("protocols.receive"),
        "protocols.receive_calls": receive_calls,
        "protocols.us_per_msg": 1e6
        * ratio(self_s("protocols.receive"), receive_calls),
        "protocols.timer_self_s": self_s("protocols.timer"),
        "protocols.timer_calls": calls("protocols.timer"),
        "protocols.flooding.dup_share": ratio(
            sum(getattr(n, "duplicates_ignored", 0) for n in nodes), receive_calls
        ),
        "protocols.flooding.view_rebuilds": sum(
            getattr(n, "view_rebuilds", 0) for n in nodes
        ),
        "protocols.flooding.view_delta_refreshes": sum(
            getattr(n, "view_delta_refreshes", 0) for n in nodes
        ),
        "protocols.find_route_s": self_s("protocols.find_route"),
        "protocols.find_route_calls": calls("protocols.find_route"),
        "protocols.next_hop_s": self_s("protocols.next_hop"),
        "protocols.next_hop_calls": calls("protocols.next_hop"),
        "core.synthesis.route_s": self_s("core.synthesis.route"),
        "core.synthesis.route_calls": calls("core.synthesis.route"),
        "policy.database.lookups": lookups,
        "policy.database.cache_hit_rate": ratio(
            sum(db.cache_hits for db in databases), lookups
        ),
        "faults.prober.run_self_s": self_s("faults.prober.run"),
        "faults.prober.samples": (record.robustness or {}).get("samples", 0),
        "traffic.workload.gen_s": self_s("traffic.workload.gen"),
        "traffic.workload.flows": flows,
        "traffic.fib.compile_self_s": self_s("traffic.fib.compile"),
        "traffic.fib.compiles": calls("traffic.fib.compile"),
        "traffic.fib.bytes": dataplane.get("fib", {}).get("bytes", 0),
        "traffic.replay.replay_s": self_s("traffic.replay.replay"),
        "traffic.replay.flows_per_s": ratio(
            flows * epochs, self_s("traffic.replay.replay")
        ),
        "simul.wire.encode_s": self_s("simul.wire.encode"),
        "simul.wire.decode_s": self_s("simul.wire.decode"),
        "simul.wire.frames": frames,
        "simul.wire.bytes_per_frame": ratio(
            recorder.byte_sums.get("simul.wire.encode", 0), frames
        ),
        "live.network.send_self_s": self_s("live.network.send"),
        "live.network.start_s": self_s("live.network.start"),
        "live.network.close_s": self_s("live.network.close"),
        "live.network.send_retries": 0 if sim else network.metrics.live_send_retries,
        "live.network.send_drops": 0 if sim else network.metrics.live_send_drops,
        "live.runner.settle_s": self_s("live.runner.settle"),
        "live.runner.settle_calls": calls("live.runner.settle"),
        "live.runner.wait_s": idle.get("live.runner.settle", 0.0),
        "live.supervisor.rolling_s": self_s("live.supervisor.rolling"),
        "live.supervisor.restarts": chaos.get("serve_restarts", 0)
        + supervisor.get("restarts", 0),
        "harness.record.write_s": self_s("harness.record.write"),
        "harness.record.bytes": jsonl_bytes,
        "harness.session.self_s": session_self,
        "harness.chaos.self_s": self_s("harness.chaos"),
        "harness.chaos.sched_wait_s": sched_wait,
        "bench.attributed_share": 1.0 - ratio(max(0.0, unattributed), traced_wall),
        "bench.traced_wall_s": traced_wall,
        "bench.self_sum_s": sum(row["self_s"] for row in totals.values()),
        "bench.spans": len(recorder.start),
    }


def run(args: argparse.Namespace) -> Dict[str, Any]:
    spawned_at = args.spawned_at or time.time()
    import_program()
    import_s = time.time() - spawned_at

    import tracing
    import workloads
    from repro.harness.session import run_spec

    spec = workloads.spec_for(args.workload, args.seed, args.smoke)
    if args.twin:
        spec = workloads.sim_twin(spec)
    cell = spec.cells()[0]

    errors = _AsyncioErrors()
    logging.getLogger("asyncio").addHandler(errors)

    calib_before = calibrate()
    setup_probes: List[float] = []
    while len(setup_probes) < SETUP_PROBES_MAX and (
        len(setup_probes) < SETUP_PROBES_MIN
        or sum(setup_probes) < SETUP_PROBE_BUDGET_S
    ):
        setup_probes.append(probe_setup(cell))

    recorder = tracing.SpanRecorder(timed=args.trace)
    recorder.install(tracing.PATCH_POINTS if args.trace else tracing.CAPTURE_ONLY)

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    out: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "traced": args.trace,
        "twin": args.twin,
        "import_s": import_s,
        "raw_setup_s": statistics.median(setup_probes),
        # The probes run right after the first calibration.
        "setup_s": statistics.median(setup_probes) * CALIB_REF_S / calib_before,
    }
    try:
        gc.collect()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            if args.trace:
                with recorder.root():
                    records = run_spec(spec, out_dir=tmp)
            else:
                records = run_spec(spec, out_dir=tmp)
        except Exception:  # noqa: BLE001 - a failed rep is a result, reported upward
            out["exception"] = traceback.format_exc(limit=8)
            out["calib_s"] = [calib_before, calibrate()]
            out["failures"] = {
                "attempted": 1,
                "failed": 1 + len(errors.messages),
                "detail": [out["exception"].strip().splitlines()[-1]]
                + [f"asyncio: {m}" for m in errors.messages[:5]],
            }
            return out
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
        # The high-water mark as the run left it, before the second
        # calibration's own heap can raise it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calib_after = calibrate()
        record = records[0]
        jsonl_bytes = os.path.getsize(os.path.join(tmp, f"{spec.name}.jsonl"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    captured = recorder.captured.get("protocol") or [None]
    protocol = captured[-1]
    dataplane = record.dataplane or {}
    # Busy time scales with host speed, waiting (live idle windows,
    # scheduled sleeps) does not: normalise the first, keep the second.
    scale = CALIB_REF_S / ((calib_before + calib_after) / 2.0)
    out.update(
        {
            "raw_wall_s": wall_s,
            "raw_cpu_s": cpu_s,
            "wall_s": cpu_s * scale + max(0.0, wall_s - cpu_s),
            "cpu_s": cpu_s * scale,
            "peak_rss_mb": peak_rss_mb,
            "calib_s": [calib_before, calib_after],
            "flows_replayed": dataplane.get("workload", {}).get("flows", 0)
            * len(dataplane.get("series", {}).get("epochs", ())),
            "reconverge_ms": reconverge_samples_ms(
                record, workloads.LIVE_TIME_SCALE_S
            ),
            "counts": exact_counts(record),
            "failures": failure_accounting(record, protocol, errors.messages),
        }
    )
    if args.trace:
        recorder.check()
        totals = recorder.totals()
        out["layers"] = layer_metrics(recorder, totals, record, protocol, jsonl_bytes)
        out["counts"]["synthesis_calls"] = out["layers"]["core.synthesis.route_calls"]
        out["span_calls"] = {name: int(row["calls"]) for name, row in totals.items()}
        if args.spans_out:
            recorder.dump(args.spans_out)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--twin", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)
    args.smoke = bool(args.smoke)
    args.trace = bool(args.trace)
    args.twin = bool(args.twin)
    result = run(args)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
