"""Self-tests of the end-to-end ledger.

Run with ``python -m pytest benchmarks/e2e -q`` (outside ``testpaths``,
so tier-1 time is unchanged).  The smoke fixture runs all five
workloads once, traced and untraced, in well under a minute.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import bench  # noqa: E402
import metrics as M  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

BENCH = os.path.join(HERE, "bench.py")


def run_bench(*argv, cwd=REPO_ROOT, script=BENCH):
    return subprocess.run(
        [sys.executable, script, *argv],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    proc = run_bench("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out) as fh:
        return json.load(fh), proc.stdout


# ------------------------------------------------------------ metric tables


def test_names_and_limits(manifest):
    names = [m.name for m in M.END_TO_END] + [m.name for m in M.LAYERS]
    names += [w.name for w in W.WORKLOADS]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert M.NAME_RE.match(name), name
    assert len(M.END_TO_END) <= 16
    assert len(M.LAYERS) <= 128
    assert 2 <= len(W.WORKLOADS) <= 8
    for m in M.END_TO_END:
        assert m.unit and m.better in ("lower", "higher") and 0 <= m.bound <= 0.25
        # The driver's bound is never tighter than the one --compare judges with.
        assert m.gate is None or m.bound <= m.gate <= 0.25
    for m in M.LAYERS:
        assert m.unit and m.better in ("lower", "higher")
    for w in W.WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why


def test_manifest_matches_the_tables(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in W.WORKLOADS
    ]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.gate}
        for m in M.END_TO_END
        if m.gate is not None
    ]
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])
    assert max(m["bound"] for m in manifest["end_to_end"]) == next(
        m["bound"] for m in manifest["end_to_end"] if m["name"] == "setup_s"
    )
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in M.LAYERS
    ]
    assert manifest["command"] == ["python3", "benchmarks/e2e/bench.py"]
    assert 1 <= manifest["run_seconds"] <= 60


def test_every_layer_metric_is_in_the_interaction_table():
    e2e = {m.name for m in M.END_TO_END}
    known = {w.name for w in W.WORKLOADS} | {"all"}
    for layer in M.LAYERS:
        assert set(layer.on) <= known and layer.on, layer.name
        assert set(layer.flat_on) <= known, layer.name
        assert set(layer.moves) <= e2e, layer.name
        if not layer.name.startswith("bench."):
            assert layer.moves, f"{layer.name} names no end-to-end metric it should move"


def test_readme_is_a_complete_glossary():
    with open(os.path.join(HERE, "README.md")) as fh:
        text = fh.read()
    for name in [m.name for m in M.END_TO_END] + [m.name for m in M.LAYERS]:
        assert f"`{name}`" in text, f"README does not define {name}"
    for w in W.WORKLOADS:
        assert f"`{w.name}`" in text and w.why in text, w.name


def test_seed_moves_flows_faults_and_traffic_but_not_structure():
    for w in W.WORKLOADS:
        a, b = W.spec_for(w.name, 47), W.spec_for(w.name, 48)
        assert a == W.spec_for(w.name, 47), "same seed, same inputs"
        ca, cb = a.cells()[0], b.cells()[0]
        assert ca.scenario.topology == cb.scenario.topology, "topology is pinned"
        assert ca.scenario.seed == cb.scenario.seed, "policies are pinned"
        assert ca.scenario.flows_seed != cb.scenario.flows_seed
        if ca.traffic.active:
            assert ca.traffic.seed != cb.traffic.seed
        if ca.failure.kind != "none":
            assert ca.failure.seed != cb.failure.seed
        if ca.fault.active or ca.fault.chaotic:
            # Path-vector flap cost depends on which link flaps: pinned.
            assert (ca.fault.seed != cb.fault.seed) == (w.name != "sim-pv-churn")


def test_default_seed_builds_the_committed_cells():
    from repro.workloads.scenarios import reference_scenario, scaled_scenario

    def same(ours, theirs):
        assert sorted(ours.graph.ad_ids()) == sorted(theirs.graph.ad_ids())
        assert ours.graph.num_links == theirs.graph.num_links
        assert ours.policies.num_terms == theirs.policies.num_terms
        assert ours.flows == theirs.flows

    storm = W.spec_for("dataplane-storm", 47).cells()[0]
    assert (storm.fault.seed, storm.traffic.seed) == (3, 14)  # E14
    same(storm.scenario.build(), reference_scenario(seed=5, num_flows=12))
    chaos = W.spec_for("live-chaos", 47).cells()[0]
    assert (chaos.fault.seed, chaos.traffic.seed) == (15, 15)  # E15
    assert (chaos.fault.restarts, chaos.fault.partitions) == (3, 1)
    same(chaos.scenario.build(), reference_scenario(seed=5, num_flows=24))
    churn = W.spec_for("sim-ls-churn", 47, smoke=True).cells()[0]
    same(
        churn.scenario.build(),
        scaled_scenario(50, seed=47, num_flows=24, restrictiveness=0.3),
    )


# ----------------------------------------------------------------- statistics


def test_high_percentile_needs_ten_samples_beyond():
    assert M.high_percentile(list(range(19))) is None
    assert M.high_percentile(list(range(20)))[0] == 50
    assert M.high_percentile(list(range(40)))[0] == 75
    assert M.high_percentile(list(range(100)))[0] == 90
    assert M.high_percentile(list(range(1000)))[0] == 99
    pct, value = M.high_percentile([float(i) for i in range(100)])
    assert (pct, value) == (90, 89.0)


def test_compare_verdicts():
    wall = M.E2E_BY_NAME["wall_s"]

    def runs(*values):
        return {**M.summarise(list(values)), "values": list(values)}

    steady = runs(1.00, 1.01, 1.02, 1.00, 0.99)
    assert wall.bound == 0.10
    assert bench.verdict(wall, steady, runs(1.02, 1.03, 1.01, 1.04, 1.02)) == "same"
    assert bench.verdict(wall, steady, runs(1.20, 1.21, 1.19, 1.22, 1.20)) == "worse"
    noisy = runs(0.7, 1.0, 1.3, 1.6, 0.9)
    assert bench.verdict(wall, steady, noisy) == "unresolved"
    # Wide spread, but every candidate run beats every baseline run.
    assert bench.verdict(wall, runs(2.0, 2.6, 3.2, 2.2, 2.9), runs(0.9, 1.0, 1.1, 1.0, 0.95)) == "same"
    rate = M.E2E_BY_NAME["events_per_s"]
    assert bench.verdict(rate, runs(100, 101, 99, 100, 100), runs(80, 81, 79, 80, 80)) == "worse"
    # setup_s: 15% or 20 ms, whichever is larger.
    setup = M.E2E_BY_NAME["setup_s"]
    small = runs(0.0100, 0.0101, 0.0099, 0.0100, 0.0100)
    assert bench.verdict(setup, small, runs(0.0200, 0.0201, 0.0199, 0.0200, 0.0200)) == "same"
    assert bench.verdict(setup, small, runs(0.0400, 0.0401, 0.0399, 0.0400, 0.0400)) == "worse"
    large = runs(1.00, 1.01, 0.99, 1.00, 1.00)
    assert bench.verdict(setup, large, runs(1.10, 1.11, 1.09, 1.10, 1.10)) == "same"
    assert bench.verdict(setup, large, runs(1.20, 1.21, 1.19, 1.20, 1.20)) == "worse"
    fail = M.E2E_BY_NAME["fail_share"]
    assert bench.verdict(fail, {"median": 0.0}, {"median": 0.001}) == "worse"
    assert bench.verdict(fail, {"median": 0.0}, {"median": 0.0}) == "same"


def test_noise_rule_flags_shifting_hosts():
    calm = {"calib_s": [0.100, 0.102]}
    reps = [dict(calm), dict(calm), {"calib_s": [0.100, 0.140]}, dict(calm)]
    assert bench.noisy_reps(reps) == [2]
    assert bench.drop_noisiest(reps, keep_at_least=3) == 1 and len(reps) == 3
    assert bench.drop_noisiest(reps, keep_at_least=3) == 0


def test_oracle_catches_a_wrong_pin_and_a_drifting_count():
    counts = {"events": 10, "msgs": 9, "bytes": 100, "messages": {"L": 9},
              "message_bytes": {"L": 100}, "dropped": 0, "state": {},
              "route_quality": None, "stats_digest": "abc"}
    reps = [{"counts": dict(counts)}, {"counts": dict(counts)}]
    good_pin = {"seed": 47, "pins": {"sim-ls-churn": {"stats_digest": "abc"}}, "smoke": {}}
    checks, problems = bench.check_oracle("sim-ls-churn", 47, False, reps, None, good_pin)
    assert checks > 0 and problems == []
    wrong_pin = {"seed": 47, "pins": {"sim-ls-churn": {"stats_digest": "WRONG"}}, "smoke": {}}
    _, problems = bench.check_oracle("sim-ls-churn", 47, False, reps, None, wrong_pin)
    assert any("pinned" in p for p in problems)
    # Another seed: the pin does not apply, rep-to-rep identity still does.
    reps[1]["counts"]["events"] = 11
    _, problems = bench.check_oracle("sim-ls-churn", 48, False, reps, None, wrong_pin)
    assert problems and all("between reps" in p for p in problems)
    twin = {"counts": {"routes_digest": "d1"}}
    live = [{"counts": {"routes_digest": "d2"}}]
    _, problems = bench.check_oracle("live-chaos", 48, False, live, twin, good_pin)
    assert any("sim twin" in p for p in problems)


# -------------------------------------------------------------------- tracing


def _toy_module():
    """A throwaway ``repro.*``-named module the recorder may patch."""
    mod = types.ModuleType("repro._e2e_toy")
    source = '''
import asyncio

def leaf(n):
    return sum(range(n))

def caller(n):
    return leaf(n) + leaf(n)

class Base:
    def route(self, n):
        return self.hop(n)
    def hop(self, n):
        return leaf(n)
    def arm(self, delay, fn, *args):
        self.pending = (fn, args)

class Derived(Base):
    def hop(self, n):
        return super().hop(n) + 1

async def waiter():
    await asyncio.sleep(0.01)
    return leaf(10)
'''
    exec(compile(source, "repro/_e2e_toy.py", "exec"), mod.__dict__)
    return mod


@pytest.fixture()
def toy():
    mod = _toy_module()
    alias = types.ModuleType("repro._e2e_toy_user")
    alias.leaf = mod.leaf  # a `from x import y` call site
    sys.modules[mod.__name__] = mod
    sys.modules[alias.__name__] = alias
    yield mod, alias
    del sys.modules[mod.__name__], sys.modules[alias.__name__]


TOY_POINTS = (
    tracing.PatchPoint("toy.leaf", "repro._e2e_toy", "leaf"),
    tracing.PatchPoint("toy.caller", "repro._e2e_toy", "caller"),
    tracing.PatchPoint("toy.route", "repro._e2e_toy", "Base.route", subclasses=True),
    tracing.PatchPoint(
        "toy.hop", "repro._e2e_toy", "Base.hop", subclasses=True, inside="toy.route"
    ),
    tracing.PatchPoint("toy.timer", "repro._e2e_toy", "Base.arm", callback_arg=2),
    tracing.PatchPoint("toy.waiter", "repro._e2e_toy", "waiter"),
)


def test_spans_nest_and_self_times_sum_to_the_root(toy):
    mod, alias = toy
    rec = tracing.SpanRecorder()
    rec.install(TOY_POINTS)
    assert alias.leaf is mod.leaf, "from-import call sites are rebound too"
    with rec.root():
        mod.caller(1000)
        alias.leaf(10)
        node = mod.Derived()
        node.route(10)  # hop under route: transparent
        node.hop(10)  # hop from outside: one span, not one per super() level
        node.arm(1.0, mod.leaf, 5)
        fn, args = node.pending
        fn(*args)
        asyncio.run(mod.waiter())
    rec.check()
    totals = rec.totals()
    assert totals["toy.leaf"]["calls"] == 2 + 1 + 1 + 1 + 1 + 1
    assert totals["toy.caller"]["calls"] == 1
    assert totals["toy.route"]["calls"] == 1
    assert totals["toy.hop"]["calls"] == 1, "transparent under route and through super()"
    assert totals["toy.timer"]["calls"] == 1
    assert totals["toy.waiter"]["calls"] == 1
    root = totals[tracing.ROOT_SPAN]["total_s"]
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(root, rel=1e-9)
    # Every span's parent opened before it and encloses it.
    for i in range(1, len(rec.start)):
        p = rec.parent[i]
        assert 0 <= p < i
        assert rec.start[p] <= rec.start[i] and rec.end[i] <= rec.end[p]
    # The coroutine span's wait shows up as idle, not as busy time.
    assert rec.idle_by_name()["toy.waiter"] >= 0.005


def test_a_missing_patch_point_fails_loudly(toy):
    for bad in (
        tracing.PatchPoint("toy.gone", "repro._e2e_toy", "renamed_function"),
        tracing.PatchPoint("toy.gone", "repro._e2e_toy", "Base.renamed_method"),
        tracing.PatchPoint("toy.gone", "repro._e2e_no_such_module", "leaf"),
    ):
        with pytest.raises(tracing.PatchPointMissing):
            tracing.SpanRecorder().install((bad,))


def test_every_real_patch_point_resolves():
    # In a subprocess: installing rebinds the program's functions.
    code = (
        "import sys; sys.argv=['x']; sys.path.insert(0, %r);"
        "import child; child.import_program(); import tracing;"
        "r = tracing.SpanRecorder(); r.install();"
        "missing = {p.span for p in tracing.PATCH_POINTS} - set(r.installed);"
        "assert not missing, missing; print(sum(map(len, r.installed.values())))"
    ) % HERE
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout.strip()) >= len(tracing.PATCH_POINTS)


# ------------------------------------------------------------------ smoke run


def test_smoke_passes_the_oracle_and_prints_every_metric(smoke):
    ledger, stdout = smoke
    assert set(ledger["workloads"]) == {w.name for w in W.WORKLOADS}
    for name, result in ledger["workloads"].items():
        assert result["failed"] == 0, result["detail"]
        assert result["attempted"] > 0
        for metric in M.END_TO_END:
            if metric.gate is not None:
                assert result["e2e"][metric.name]["median"] > 0, (name, metric.name)
        assert result["e2e"]["fail_share"]["median"] == 0
        for layer in M.LAYERS:
            assert layer.name in result["layers"], (name, layer.name)
    for metric in list(M.END_TO_END) + list(M.LAYERS):
        assert metric.name in stdout and f"[{metric.unit}" in stdout
    assert "loopback" in stdout
    live = ledger["workloads"]["live-ls-episodes"]["e2e"]
    assert live["reconverge_p50_ms"]["median"] > 0
    assert "flows_per_s" in ledger["workloads"]["dataplane-storm"]["e2e"]
    assert "flows_per_s" not in ledger["workloads"]["sim-ls-churn"]["e2e"]


def test_smoke_exercises_every_patch_point(smoke):
    ledger, _ = smoke
    hit = set()
    for result in ledger["workloads"].values():
        hit |= {span for span, calls in result["span_calls"].items() if calls > 0}
    assert {p.span for p in tracing.PATCH_POINTS} <= hit


def test_smoke_budget_sums_to_the_traced_wall(smoke):
    ledger, _ = smoke
    for name, result in ledger["workloads"].items():
        layers = result["layers"]
        assert layers["bench.self_sum_s"] == pytest.approx(
            layers["bench.traced_wall_s"], rel=1e-6
        ), name
        budget = sum(
            value
            for key, value in layers.items()
            if key.endswith("_s")
            and not key.startswith("bench.")
            and key not in ("live.runner.wait_s", "harness.chaos.sched_wait_s")
            and M.LAYER_BY_NAME[key].unit == "s"
        )
        assert budget == pytest.approx(layers["bench.traced_wall_s"], rel=1e-3), name
        assert layers["bench.attributed_share"] >= M.MIN_ATTRIBUTED_SHARE, name


def test_smoke_workloads_stress_what_they_claim(smoke):
    ledger, _ = smoke
    layers = {n: r["layers"] for n, r in ledger["workloads"].items()}
    for name in ("sim-ls-churn", "sim-pv-churn"):
        assert layers[name]["core.synthesis.route_s"] == 0
        assert layers[name]["live.runner.wait_s"] == 0
        assert layers[name]["simul.wire.frames"] == 0
    assert layers["dataplane-storm"]["core.synthesis.route_calls"] > 0
    for name in ("live-ls-episodes", "live-chaos"):
        assert layers[name]["live.runner.wait_s"] > 0
        assert layers[name]["simul.engine.events"] == 0
    assert layers["live-chaos"]["live.supervisor.restarts"] > 0
    assert layers["live-chaos"]["harness.chaos.sched_wait_s"] > 0


# -------------------------------------------------------------- the contract


def _last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def test_contract_line_carries_exactly_the_listed_metrics(manifest):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(
            "--workload", "live-ls-episodes", "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke",
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        line = _last_json(proc.stdout)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in manifest[key]}
        assert {n: v["unit"] for n, v in line["metrics"].items()} == wanted
        if trace == 0:
            assert all(v["value"] > 0 for v in line["metrics"].values())


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    script = str(tmp_path / "benchmarks" / "e2e" / "bench.py")
    proc = run_bench(
        "--workload", "sim-ls-churn", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path), script=script,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
