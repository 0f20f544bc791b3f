"""End-to-end performance ledger: five reference runs on both substrates.

Two ways in:

* the driver's contract, one workload per invocation::

      python3 benchmarks/e2e/bench.py --workload NAME --seed N --seconds S --trace 0|1

  runs fresh-interpreter reps of NAME for S seconds, checks them
  against the oracle, and prints one JSON object on the last line of
  stdout: every end-to-end metric of ``BENCHMARK.json`` with
  ``--trace 0``, every per-layer metric with ``--trace 1``;

* the ledger, all workloads round-robin::

      python3 benchmarks/e2e/bench.py [--seed N] [--reps N] [--workload NAME]
                                      [--smoke] [--out PATH]

  prints every metric by name with unit, direction and bound, and
  writes the result file ``--compare A.json B.json`` reads.

One child process at a time, never two: the sandbox has two cores and
the live substrate's socket-per-AD fan-out is the program's own
architecture, so a second child would only add contention.  Live
traffic crosses the host loopback interface.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
from child import EXIT_NO_PROGRAM, OUT_DIR, SRC  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
EXPECTED = os.path.join(HERE, "expected.json")
CHILD = os.path.join(HERE, "child.py")

#: A child that has not finished by then is killed and counted failed.
CHILD_TIMEOUT_S = 150
#: The contract gives a whole invocation 180 s; children are killed so
#: that it ends, with a result line, before that.
CONTRACT_DEADLINE_S = 170
MIN_REPS = 3
#: Noise rule: a rep whose before/after calibrations differ by more
#: than this from each other or from the set median is discarded.
CALIB_TOLERANCE = 0.10
MAX_DISCARDS = 2

#: The workload table needs the program on sys.path; resolved lazily so
#: a checkout without ``src/`` fails with a clear exit code instead of
#: an ImportError traceback.
_workloads = None


def workloads():
    global _workloads
    if _workloads is None:
        if not os.path.isdir(os.path.join(SRC, "repro")):
            print(f"bench: no program at {SRC}/repro", file=sys.stderr)
            sys.exit(EXIT_NO_PROGRAM)
        sys.path.insert(0, SRC)
        import workloads as module

        _workloads = module
    return _workloads


# ------------------------------------------------------------------- children


def run_child(
    workload: str,
    seed: int,
    smoke: bool,
    *,
    trace: bool = False,
    twin: bool = False,
    spans_out: str = "",
    timeout: float = CHILD_TIMEOUT_S,
) -> Dict[str, Any]:
    """One rep in a fresh interpreter; returns the child's result object."""
    cmd = [
        sys.executable,
        CHILD,
        "--workload", workload,
        "--seed", str(seed),
        "--smoke", str(int(smoke)),
        "--trace", str(int(trace)),
        "--twin", str(int(twin)),
        "--spawned-at", repr(time.time()),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, cwd=REPO_ROOT
        )
    except subprocess.TimeoutExpired:
        return _failed_rep(workload, f"child exceeded {timeout:.0f}s and was killed")
    if proc.returncode == EXIT_NO_PROGRAM:
        sys.stderr.write(proc.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return _failed_rep(workload, f"child exit {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    result["child_s"] = time.perf_counter() - t0
    return result


def _failed_rep(workload: str, why: str) -> Dict[str, Any]:
    return {
        "workload": workload,
        "exception": why,
        "failures": {"attempted": 1, "failed": 1, "detail": [why]},
    }


# ---------------------------------------------------------------------- noise


def noisy_reps(reps: Sequence[Dict[str, Any]]) -> List[int]:
    """Indices of reps the calibration loop says ran on a shifting host."""
    calibs = [c for rep in reps for c in rep.get("calib_s", ())]
    if not calibs:
        return []
    centre = M.median(calibs)
    out = []
    for i, rep in enumerate(reps):
        pair = rep.get("calib_s")
        if not pair:
            continue
        before, after = pair
        if (
            abs(before - after) > CALIB_TOLERANCE * min(before, after)
            or abs(before - centre) > CALIB_TOLERANCE * centre
            or abs(after - centre) > CALIB_TOLERANCE * centre
        ):
            out.append(i)
    return out


def drop_noisiest(reps: List[Dict[str, Any]], keep_at_least: int) -> int:
    """Drop up to MAX_DISCARDS noisy reps in place; returns how many."""
    calibs = [c for rep in reps for c in rep.get("calib_s", ())]
    if not calibs:
        return 0
    centre = M.median(calibs)

    def badness(i: int) -> float:
        before, after = reps[i]["calib_s"]
        return max(abs(before - centre), abs(after - centre), abs(before - after))

    victims = sorted(noisy_reps(reps), key=badness, reverse=True)
    victims = victims[: max(0, min(MAX_DISCARDS, len(reps) - keep_at_least))]
    for i in sorted(victims, reverse=True):
        del reps[i]
    return len(victims)


# --------------------------------------------------------------------- oracle

#: Counts that must repeat exactly between any two reps of one workload
#: at one seed, traced or not, on the deterministic substrate; on live,
#: flooding is count-deterministic on the episodic workload, while the
#: chaos program's graceful-restart timers race wall-clock, so only its
#: post-chaos routes digest is pinned.
EXACT_KEYS = {
    "sim": ("events", "msgs", "bytes", "messages", "message_bytes", "dropped",
            "state", "route_quality", "stats_digest"),
    "live-ls-episodes": ("msgs", "bytes", "messages", "message_bytes", "state",
                         "route_quality"),
    "live-chaos": ("routes_digest",),
}

#: What the sim twin must agree on with every live rep.
TWIN_KEYS = {
    "live-ls-episodes": ("messages", "message_bytes", "state", "route_quality"),
    "live-chaos": ("routes_digest",),
}


def exact_keys(workload: str) -> Tuple[str, ...]:
    substrate = workloads().BY_NAME[workload].substrate
    return EXACT_KEYS["sim"] if substrate == "sim" else EXACT_KEYS[workload]


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED) as fh:
        return json.load(fh)


def check_oracle(
    workload: str,
    seed: int,
    smoke: bool,
    reps: Sequence[Dict[str, Any]],
    twin: Optional[Dict[str, Any]],
    expected: Dict[str, Any],
) -> Tuple[int, List[str]]:
    """(checks made, mismatch descriptions) for one workload's good reps."""
    checks = 0
    problems: List[str] = []
    good = [rep for rep in reps if "counts" in rep]
    keys = exact_keys(workload)
    # Rep-to-rep identity of the exact counts (any seed).
    for rep in good[1:]:
        for key in keys:
            checks += 1
            if rep["counts"].get(key) != good[0]["counts"].get(key):
                problems.append(
                    f"{key} differs between reps: {good[0]['counts'].get(key)!r} "
                    f"vs {rep['counts'].get(key)!r}"
                )
    # Traced reps additionally agree on the span-derived count.
    synth = {rep["counts"]["synthesis_calls"] for rep in good
             if "synthesis_calls" in rep["counts"]}
    if synth:
        checks += 1
        if len(synth) > 1:
            problems.append(f"core.synthesis.route_calls differs between reps: {sorted(synth)}")
    # Live reps against the deterministic sim twin (any seed).
    if twin is not None:
        if "counts" not in twin:
            checks += 1
            problems.append(f"sim twin failed: {twin.get('exception', 'no result')}")
        else:
            for rep in good:
                for key in TWIN_KEYS[workload]:
                    checks += 1
                    if rep["counts"].get(key) != twin["counts"].get(key):
                        problems.append(
                            f"{key} differs from the sim twin: "
                            f"{rep['counts'].get(key)!r} vs {twin['counts'].get(key)!r}"
                        )
    # Pinned values at the default seed.
    pins = expected["smoke" if smoke else "pins"]
    pinned = pins.get(workload) if seed == expected["seed"] else None
    if pinned and good:
        for key, want in pinned.items():
            checks += 1
            if good[0]["counts"].get(key) != want:
                problems.append(
                    f"{key} is {good[0]['counts'].get(key)!r}, pinned {want!r} "
                    f"(expected.json, seed {seed})"
                )
    return checks, problems


# ---------------------------------------------------------------- aggregation


#: The three times are host-normalised seconds (see child.CALIB_REF_S);
#: the raw readings are summarised beside them.
RAW_OF = {"wall_s": "raw_wall_s", "cpu_s": "raw_cpu_s", "setup_s": "raw_setup_s"}


def e2e_values(rep: Dict[str, Any]) -> Dict[str, float]:
    """The per-rep end-to-end numbers (n/a metrics absent)."""
    active = max(rep["wall_s"] - rep["setup_s"], 1e-9)
    out = {
        "wall_s": rep["wall_s"],
        "setup_s": rep["setup_s"],
        "cpu_s": rep["cpu_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "events_per_s": rep["counts"]["events"] / active,
    }
    if rep["flows_replayed"]:
        out["flows_per_s"] = rep["flows_replayed"] / active
    return out


def aggregate(
    workload: str,
    seed: int,
    smoke: bool,
    untraced: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
    twin: Optional[Dict[str, Any]],
    discarded: int,
    expected: Dict[str, Any],
) -> Dict[str, Any]:
    """Fold one workload's reps into medians, failure counts and verdicts."""
    reps = untraced + traced
    attempted = sum(rep["failures"]["attempted"] for rep in reps)
    failed = sum(rep["failures"]["failed"] for rep in reps)
    detail = [d for rep in reps for d in rep["failures"]["detail"]]
    checks, problems = check_oracle(workload, seed, smoke, reps, twin, expected)
    attempted += checks
    failed += len(problems)
    detail += problems

    good = [rep for rep in untraced if "counts" in rep]
    e2e: Dict[str, Any] = {}
    per_rep = [e2e_values(rep) for rep in good]
    for metric in M.END_TO_END:
        values = [row[metric.name] for row in per_rep if metric.name in row]
        if values:
            e2e[metric.name] = {**M.summarise(values), "values": values}
            if metric.name in RAW_OF:
                e2e[metric.name]["raw"] = M.summarise(
                    [rep[RAW_OF[metric.name]] for rep in good]
                )
    pool = [ms for rep in good for ms in rep["reconverge_ms"]]
    if pool:
        e2e["reconverge_p50_ms"] = {"median": M.median(pool), "n": len(pool)}
        high = M.high_percentile(pool)
        if high is not None:
            pct, value = high
            e2e["reconverge_p90_ms"] = {"median": value, "n": len(pool), "percentile": pct}
    e2e["fail_share"] = {"median": failed / max(attempted, 1), "n": len(reps)}

    layers: Dict[str, float] = {}
    good_traced = [rep for rep in traced if "layers" in rep]
    if good_traced:
        for layer in M.LAYERS:
            values = [rep["layers"][layer.name] for rep in good_traced
                      if layer.name in rep["layers"]]
            if values:
                layers[layer.name] = M.median(values)
        traced_wall = M.median([rep["wall_s"] for rep in good_traced])
        if good:
            base = M.median([rep["wall_s"] for rep in good])
            layers["bench.trace_overhead"] = (traced_wall - base) / base
        calibs = [c for rep in reps for c in rep.get("calib_s", ())]
        layers["bench.calib_s"] = M.median(calibs)
        layers["bench.import_s"] = M.median([rep["import_s"] for rep in reps if "import_s" in rep])
        layers["bench.reps_discarded"] = discarded
        # Root span duration and the sum of every layer's self time: equal
        # per rep by construction, carried so the self-test can check it.
        for extra in ("bench.traced_wall_s", "bench.self_sum_s"):
            layers[extra] = M.median([rep["layers"][extra] for rep in good_traced])
        for name, floor_ok in (
            ("bench.attributed_share", layers["bench.attributed_share"] >= M.MIN_ATTRIBUTED_SHARE),
            ("bench.trace_overhead", layers.get("bench.trace_overhead", 0.0) <= M.MAX_TRACE_OVERHEAD),
        ):
            if not floor_ok:
                detail.append(f"{name} = {layers[name]:.3f} is outside its floor (reported, not a failure)")

    w = workloads().BY_NAME[workload]
    counts = dict(good[0]["counts"]) if good else {}
    for rep in good_traced[:1]:
        counts["synthesis_calls"] = rep["counts"]["synthesis_calls"]
    return {
        "shape": w.smoke_shape if smoke else w.why,
        "e2e": e2e,
        "layers": layers,
        "counts": counts,
        "span_calls": good_traced[0]["span_calls"] if good_traced else {},
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
        "reps": len(good),
        "traced_reps": len(good_traced),
        "reps_discarded": discarded,
    }


# ------------------------------------------------------------------- printing


def bound_tag(metric: M.EndToEnd) -> str:
    if metric.bound == 0:
        bound = "any increase"
    else:
        bound = f"{metric.bound:.0%}"
        if metric.floor:
            bound += f" or {metric.floor * 1000:.0f} m{metric.unit}"
    gate = "not gated" if metric.gate is None else f"driver gate {metric.gate:.0%}"
    return f"[{metric.unit}, {metric.better} is better, bound {bound}, {gate}]"


def print_workload(name: str, result: Dict[str, Any]) -> None:
    w = workloads().BY_NAME[name]
    print(f"\n== {name} [{w.substrate}] {result['shape']}")
    if w.substrate == "live":
        print(f"   live traffic path: {workloads().LIVE_PATH}")
    print(f"   reps kept {result['reps']} untraced + {result['traced_reps']} traced, "
          f"discarded {result['reps_discarded']}")
    for metric in M.END_TO_END:
        row = result["e2e"].get(metric.name)
        if row is None:
            print(f"   {metric.name:<20} n/a {bound_tag(metric)}")
            continue
        extra = ""
        if "q1" in row:
            extra = f"  (q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']})"
        elif "percentile" in row:
            extra = f"  (p{row['percentile']} of {row['n']} pooled samples)"
        elif metric.name.startswith("reconverge"):
            extra = f"  ({row['n']} pooled samples)"
        print(f"   {metric.name:<20} {row['median']:<12.6g} {bound_tag(metric)}{extra}")
        if "raw" in row:
            raw = row["raw"]
            print(f"   {'  as measured':<20} {raw['median']:<12.6g} [{metric.unit}, before "
                  f"host normalisation]  (q1 {raw['q1']:.6g}, q3 {raw['q3']:.6g})")
    if result["layers"]:
        wall = result["layers"].get("bench.traced_wall_s", 0.0)
        print("   -- per-layer budget (traced run; *_s are self times, share of traced wall)")
        for layer in M.LAYERS:
            value = result["layers"].get(layer.name)
            if value is None:
                continue
            share = ""
            if layer.unit == "s" and wall and not layer.name.startswith("bench."):
                share = f"  {value / wall:6.1%}"
            print(f"   {layer.name:<42} {value:<14.6g} [{layer.unit}]{share}")
    for line in result["detail"]:
        print(f"   ! {line}")
    print(f"   attempted {result['attempted']}, failed {result['failed']}")


# -------------------------------------------------------------- contract mode


def run_contract(args: argparse.Namespace) -> int:
    name, seed, smoke = args.workload, args.seed, args.smoke
    w = workloads().BY_NAME.get(name)
    if w is None:
        print(f"bench: unknown workload {name!r}", file=sys.stderr)
        return 2
    expected = load_expected()
    started = time.perf_counter()

    def time_left() -> float:
        return max(1.0, started + CONTRACT_DEADLINE_S - time.perf_counter())

    twin = None
    if w.substrate == "live":
        twin = run_child(name, seed, smoke, twin=True, timeout=time_left())
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    measure_from = time.perf_counter()
    longest = 0.0
    while True:
        want_trace = args.trace and len(traced) < len(untraced)
        spans = os.path.join(OUT_DIR, f"{name}.spans.json") if want_trace and not traced else ""
        rep = run_child(
            name, seed, smoke, trace=want_trace, spans_out=spans, timeout=time_left()
        )
        (traced if want_trace else untraced).append(rep)
        longest = max(longest, rep.get("child_s", 0.0))
        done = len(untraced) + len(traced)
        enough = done >= MIN_REPS and (not args.trace or traced)
        if enough and time.perf_counter() - measure_from + longest > args.seconds:
            break
        if "exception" in rep:
            break  # the run is already incorrect; do not spend the deadline on it
    for rep in untraced + traced:
        if "wall_s" in rep:
            print(f"   rep {'traced  ' if rep['traced'] else 'untraced'} wall_s {rep['wall_s']:.4f} "
                  f"(raw {rep['raw_wall_s']:.4f}) calib {rep['calib_s'][0]:.4f}/{rep['calib_s'][1]:.4f}")
    discarded = drop_noisiest(untraced, MIN_REPS if not args.trace else 1)
    result = aggregate(name, seed, smoke, untraced, traced, twin, discarded, expected)
    print_workload(name, result)
    print(f"   run took {time.perf_counter() - started:.1f}s")

    # The last line: exactly the metrics BENCHMARK.json lists for this mode.
    if args.trace:
        wanted: Sequence[Any] = M.LAYERS
        source = result["layers"]
    else:
        wanted = [m for m in M.END_TO_END if m.gate is not None]
        source = {k: v["median"] for k, v in result["e2e"].items()}
    missing = [m.name for m in wanted if m.name not in source]
    correct = result["failed"] == 0 and not missing
    for metric_name in missing:
        print(f"   ! metric {metric_name} could not be measured")
    payload = {
        "correct": correct,
        "attempted": max(1, result["attempted"] + len(missing)),
        "failed": result["failed"] + len(missing),
        "metrics": {
            m.name: {"value": source[m.name], "unit": m.unit}
            for m in wanted
            if m.name in source
        },
    }
    print(json.dumps(payload))
    return 0 if correct else 1


# ---------------------------------------------------------------- ledger mode


def run_ledger(args: argparse.Namespace) -> int:
    smoke = args.smoke
    names = [args.workload] if args.workload else [w.name for w in workloads().WORKLOADS]
    for name in names:
        if name not in workloads().BY_NAME:
            print(f"bench: unknown workload {name!r}", file=sys.stderr)
            return 2
    reps = 1 if smoke and args.reps is None else (args.reps or 5)
    expected = load_expected()
    print(f"e2e ledger: seed {args.seed}{', smoke sizes' if smoke else ''}, "
          f"{reps} rep(s) x {len(names)} workload(s), "
          f"round-robin, one child at a time; live path: {workloads().LIVE_PATH}")
    untraced: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    traced: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    twins: Dict[str, Optional[Dict[str, Any]]] = {}
    for name in names:
        live = workloads().BY_NAME[name].substrate == "live"
        twins[name] = run_child(name, args.seed, smoke, twin=True) if live else None
    # Round-robin: rep 1 of every workload, then rep 2 ..., so machine
    # drift hits all workloads equally.
    for rep_no in range(reps):
        for name in names:
            untraced[name].append(run_child(name, args.seed, smoke))
            print(f"  rep {rep_no + 1}/{reps} {name}: "
                  f"{untraced[name][-1].get('wall_s', float('nan')):.3f}s", flush=True)
    # Traced reps interleave the same way; the first of each workload
    # writes its spans out.
    for rep_no in range(1 if smoke else (reps + 1) // 2):
        for name in names:
            spans = "" if rep_no else os.path.join(OUT_DIR, f"{name}.spans.json")
            traced[name].append(
                run_child(name, args.seed, smoke, trace=True, spans_out=spans)
            )
    discarded = {n: 0 for n in names}
    if not smoke:
        for name in names:
            # Re-run (at most MAX_DISCARDS per workload) what the
            # calibration loop flags, then drop the noisiest surplus.
            for _ in range(min(MAX_DISCARDS, len(noisy_reps(untraced[name])))):
                untraced[name].append(run_child(name, args.seed, smoke))
            discarded[name] = drop_noisiest(untraced[name], reps)

    results = {}
    for name in names:
        results[name] = aggregate(
            name, args.seed, smoke, untraced[name], traced[name], twins[name],
            discarded[name], expected,
        )
        print_workload(name, results[name])
    ledger = {
        "schema": 2,
        "seed": args.seed,
        "smoke": smoke,
        "reps": reps,
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "machine": platform.machine()},
        "live_path": workloads().LIVE_PATH,
        "workloads": results,
    }
    out = args.out or os.path.join(
        OUT_DIR, f"ledger-{'smoke-' if smoke else ''}seed{args.seed}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    failed = sum(r["failed"] for r in results.values())
    print(f"\nwrote {os.path.relpath(out)}; "
          f"{'oracle passed' if not failed else f'{failed} FAILED operation(s)'}")
    return 0 if failed == 0 else 1


# -------------------------------------------------------------------- compare


def verdict(metric: M.EndToEnd, a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """``same`` / ``worse`` / ``unresolved`` for one workload x metric.

    ``a`` is the baseline, ``b`` the candidate.  Worse means B's median
    is worse than A's by more than the metric's bound (and its absolute
    floor, where it has one).  Where either side's quartile spread is
    wider than that, the runs cannot resolve a difference of that size:
    unresolved, unless every B run reads better than every A run.
    """
    sign = 1.0 if metric.better == "lower" else -1.0
    delta = sign * (b["median"] - a["median"])
    if metric.bound == 0:
        return "worse" if delta > 0 else "same"
    slack = max(metric.bound * abs(a["median"]), metric.floor)
    va, vb = a.get("values"), b.get("values")
    if va and vb and len(va) > 1 and len(vb) > 1:
        if max(M.iqr(va), M.iqr(vb)) > slack:
            clean_win = (max(vb) < min(va)) if sign > 0 else (min(vb) > max(va))
            return "same" if clean_win else "unresolved"
    return "worse" if delta > slack else "same"


def run_compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    same_input = (a["seed"], a["smoke"]) == (b["seed"], b["smoke"])
    if not same_input:
        print("note: the two ledgers ran different inputs (seed or smoke sizes): "
              "exact counts are expected to differ")
    status = 0
    print(f"{'workload':<18} {'metric':<20} {'A median':>12} {'B median':>12} {'bound':>7}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in M.END_TO_END:
            ra, rb = wa["e2e"].get(metric.name), wb["e2e"].get(metric.name)
            if ra is None or rb is None:
                continue
            v = verdict(metric, ra, rb)
            if v == "worse":
                status = 1
            print(f"{name:<18} {metric.name:<20} {ra['median']:>12.6g} {rb['median']:>12.6g} "
                  f"{metric.bound:>7.0%}  {v}")
        keys = [k for k in exact_keys(name) + ("synthesis_calls",) if k in wa["counts"]]
        differing = [k for k in keys if wa["counts"].get(k) != wb["counts"].get(k)]
        if differing and same_input:
            status = 1
        print(f"{name:<18} exact counts: " + (
            "identical" if not differing else "DIFFER in " + ", ".join(differing)))
    print("worse = median beyond the bound; unresolved = run-to-run spread wider than the bound")
    return status


# ----------------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--workload", help="one workload by name (default: all five)")
    parser.add_argument("--seed", type=int, default=47,
                        help="re-seeds the flow sample, the fault / failure / chaos plan "
                             "(pinned on sim-pv-churn) and the traffic; topology and "
                             "policies stay put (default 47)")
    parser.add_argument("--seconds", type=float,
                        help="contract mode: measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--reps", type=int, help="ledger mode: untraced reps per workload (default 5)")
    parser.add_argument("--smoke", action="store_true", help="smoke sizes, 1 rep")
    parser.add_argument("--out", help="ledger mode: result file (default out/ledger-seed<N>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return run_contract(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
