"""Version-skew tolerance: config, shims, negotiation, and the E16 driver.

The wire-versioning stack has three layers, tested bottom-up here:

* codec shims (:mod:`repro.simul.wire`): down-emit for old peers,
  lenient decode of newer frames, loud rejection of unsupported
  envelope versions;
* HELLO negotiation (:mod:`repro.protocols.versioning` plus the node
  hooks): a mixed population settles every pair on the highest mutually
  supported version, an unsupported peer is quarantined and never
  believed, and routing is bit-for-bit indifferent to all of it;
* the E16 harness driver (``execute_version_cell``): rolling upgrade
  waves with a rollback leg, recorded deterministically.
"""

import json

import pytest

from repro.harness import run_experiment
from repro.harness.chaos import execute_version_cell, routes_digest
from repro.harness.record import SCHEMA_VERSION, RunRecord
from repro.harness.spec import (
    Cell,
    FailureSpec,
    FaultSpec,
    MisbehaviorSpec,
    ProtocolSpec,
    ScenarioSpec,
    TrafficSpec,
)
from repro.protocols.flooding import LinkRecord, LinkStateAd
from repro.protocols.registry import make_protocol
from repro.protocols.versioning import (
    DEFAULT_WIRE,
    Hello,
    WireConfig,
    wire_from,
)
from repro.simul.metrics import MetricsCollector
from repro.simul.wire import (
    MIN_WIRE_VERSION,
    WIRE_VERSION,
    WireError,
    WireVersionError,
    decode_frame_ex,
    encode_frame,
    from_wire,
    to_wire,
)

from .helpers import mk_graph, open_db


def ring8():
    return mk_graph(
        [(i, "Rt") for i in range(8)],
        [(i, (i + 1) % 8) for i in range(8)],
    )


def _proto(wire=None, **options):
    graph = ring8()
    if wire is not None:
        options["wire"] = wire
    return make_protocol("plain-ls", graph, open_db(graph), **options)


# ------------------------------------------------------------- WireConfig


def test_wire_from_spellings():
    assert wire_from(None) is DEFAULT_WIRE
    assert wire_from("current") == DEFAULT_WIRE
    cfg = wire_from("v1+negotiate")
    assert (cfg.version, cfg.negotiate) == (1, True)
    assert wire_from(cfg) is cfg
    assert wire_from("negotiate") == WireConfig(negotiate=True)
    assert wire_from(1).version == 1
    with pytest.raises(ValueError, match="unknown wire spec part"):
        wire_from("v1+bogus")
    with pytest.raises(TypeError):
        wire_from(1.5)


def test_wire_config_validation_and_helpers():
    with pytest.raises(ValueError, match="outside supported range"):
        WireConfig(version=WIRE_VERSION + 1)
    with pytest.raises(ValueError, match="min_version"):
        WireConfig(version=WIRE_VERSION, min_version=WIRE_VERSION + 1)
    assert not DEFAULT_WIRE.any_enabled
    assert WireConfig(negotiate=True).any_enabled
    assert WireConfig(version=1).any_enabled
    pinned = WireConfig(version=2, min_version=2).at_version(1)
    assert (pinned.version, pinned.min_version) == (1, 1)
    assert WireConfig(version=1, negotiate=True).describe() == "v1+negotiate"


# ------------------------------------------------------------ codec shims


def test_v1_down_emit_omits_post_v1_fields_and_stamp():
    hello = Hello(version=2, min_version=1, capabilities=("resync",))
    v1 = to_wire(hello, version=1)
    assert "r" not in v1
    assert "capabilities" not in v1["f"]
    # The old-frame read shim: the missing field takes its default.
    assert from_wire(v1).capabilities == ()
    v2 = to_wire(hello, version=2)
    assert v2["r"] == 2
    assert from_wire(v2) == hello


def test_lenient_decode_drops_unknown_fields_strict_rejects():
    data = to_wire(Hello(version=2, min_version=1))
    data["f"]["from_the_future"] = 123
    assert from_wire(data, lenient=True) == Hello(version=2, min_version=1)
    with pytest.raises(WireError, match="no fields"):
        from_wire(data)


def test_to_wire_rejects_unsupported_target_version():
    with pytest.raises(WireVersionError):
        to_wire(Hello(version=2, min_version=1), version=WIRE_VERSION + 1)
    with pytest.raises(WireVersionError):
        encode_frame(1, 2, Hello(version=2, min_version=1), version=0)


def _doctored_frame(envelope_version):
    frame = encode_frame(3, 4, Hello(version=2, min_version=1), version=2)
    body = json.loads(frame[4:])
    body["v"] = envelope_version
    payload = json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return len(payload).to_bytes(4, "big") + payload


@pytest.mark.parametrize("bad", [0, WIRE_VERSION + 97, True, "2"])
def test_decode_frame_ex_rejects_unsupported_envelopes(bad):
    with pytest.raises(WireVersionError) as exc:
        decode_frame_ex(_doctored_frame(bad))
    # The error carries the claimed sender so the receiving substrate
    # can quarantine the peer instead of dropping anonymous garbage.
    assert exc.value.src == 3
    assert exc.value.version == bad


def test_decode_frame_ex_missing_v_means_version_1():
    frame = encode_frame(3, 4, Hello(version=2, min_version=1), version=1)
    src, dst, msg, version = decode_frame_ex(frame)
    assert (src, dst, version) == (3, 4, 1)
    assert msg.capabilities == ()


def test_v1_frames_stay_strict():
    # Lenient decode is an explicitly versioned (v2+) behaviour; the
    # legacy envelope keeps the original closed-vocabulary strictness.
    frame = encode_frame(3, 4, Hello(version=2, min_version=1), version=1)
    body = json.loads(frame[4:])
    body["m"]["f"]["from_the_future"] = 1
    payload = json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with pytest.raises(WireError, match="no fields"):
        decode_frame_ex(len(payload).to_bytes(4, "big") + payload)


# ------------------------------------------------------- sim negotiation


def test_negotiation_is_invisible_to_routing():
    base = _proto()
    base.converge()
    neg = _proto("v1+negotiate")
    neg.converge()
    assert routes_digest(neg) == routes_digest(base)

    # Default config schedules zero extra events: no Hello ever flows.
    base_snap = base.network.metrics.snapshot(base.network.sim.now)
    assert "Hello" not in base_snap.messages
    assert base_snap.negotiated_versions == {}

    snap = neg.network.metrics.snapshot(neg.network.sim.now)
    assert snap.messages["Hello"] >= 16
    assert snap.version_rejected == 0
    # Every directed adjacency of the 8-ring negotiated the only
    # version a v1 population can speak.
    assert len(snap.negotiated_versions) == 16
    assert set(snap.negotiated_versions.values()) == {1}
    summary = neg.runtime_summary("wire")
    assert summary == {
        "nodes": {"v1": 8},
        "pairs": {"v1": 16},
        "blocked_pairs": 0,
        "version_drops": 0,
    }


def test_pre_negotiation_tx_uses_min_version():
    proto = _proto("negotiate")
    network = proto.build()
    node = network.nodes[0]
    # Before the handshake the only provably safe revision is the min.
    assert node.wire_tx_version(1) == node.wire.min_version == MIN_WIRE_VERSION
    proto.converge()
    assert node.wire_tx_version(1) == WIRE_VERSION


def test_mixed_population_interops_and_upgrades_cleanly():
    proto = _proto("v1+negotiate")
    proto.converge()
    network = proto.network
    baseline = routes_digest(proto)
    ads = sorted(network.nodes)
    upgraded = set(ads[:4])

    for ad in sorted(upgraded):
        proto.set_wire_version(ad, WIRE_VERSION)
    network.run(max_events=200_000, raise_on_limit=False)

    summary = proto.runtime_summary("wire")
    assert summary["nodes"] == {"v1": 4, f"v{WIRE_VERSION}": 4}
    assert summary["blocked_pairs"] == 0
    assert summary["version_drops"] == 0
    # Each pair sits at the highest *mutually* supported version: v2
    # between two upgraded ADs, v1 whenever a v1 node is involved.
    for node in network.nodes.values():
        for peer, version in node.negotiated.items():
            both_new = node.ad_id in upgraded and peer in upgraded
            assert version == (WIRE_VERSION if both_new else 1)
    assert routes_digest(proto) == baseline

    for ad in ads[4:]:
        proto.set_wire_version(ad, WIRE_VERSION)
    network.run(max_events=200_000, raise_on_limit=False)
    summary = proto.runtime_summary("wire")
    assert summary["nodes"] == {f"v{WIRE_VERSION}": 8}
    assert summary["pairs"] == {f"v{WIRE_VERSION}": 16}
    assert routes_digest(proto) == baseline


def test_unsupported_peer_is_quarantined_and_never_believed():
    proto = _proto("negotiate", validation="all")
    proto.converge()
    network = proto.network
    node = network.nodes[0]
    baseline = routes_digest(proto)
    rejected_before = network.metrics.snapshot(network.sim.now).version_rejected

    # A peer from the future: its advertised range has no overlap with
    # ours, so negotiation must fail loudly.
    node.receive(1, Hello(version=99, min_version=99))
    assert 1 in node.version_blocked
    assert 1 not in node.negotiated
    event = node.guard.quarantine_events[-1]
    assert event.neighbor == 1
    assert "unsupported wire version" in event.reason

    # Control traffic from the blocked peer is dropped before any
    # protocol code can believe it: a forged LSA changes nothing.
    forged = LinkStateAd(
        origin=1,
        seq=9_999,
        links=(LinkRecord(neighbor=0, delay=0.001, cost=0.001, up=True),),
    )
    node.receive(1, forged)
    assert node.version_drops == 1
    assert routes_digest(proto) == baseline
    snap = network.metrics.snapshot(network.sim.now)
    assert snap.version_rejected >= rejected_before + 2

    # Recovery is symmetric: a sane re-advertisement unblocks the pair.
    node.receive(1, Hello(version=WIRE_VERSION, min_version=MIN_WIRE_VERSION))
    assert 1 not in node.version_blocked
    assert node.negotiated[1] == WIRE_VERSION


def test_metrics_delta_carries_negotiation_state():
    m = MetricsCollector()
    m.count_version_reject()
    earlier = m.snapshot(1.0)
    m.count_version_reject()
    m.note_negotiated(3, 4, 2)
    later = m.snapshot(2.0)
    delta = later.delta(earlier)
    # Counters subtract; the census is state and rides the later side.
    assert delta.version_rejected == 1
    assert delta.negotiated_versions == {"3>4": 2}


# ---------------------------------------------------------- E16 driver


def _version_cell(protocol=None, fault=None, *, substrate="sim",
                  misbehavior=MisbehaviorSpec()):
    return Cell(
        experiment="version-test",
        index=0,
        scenario=ScenarioSpec(kind="ring", seed=0, num_flows=12),
        protocol=protocol
        or ProtocolSpec(
            "plain-ls",
            label="plain-ls+v1",
            options=(("wire", "v1+negotiate"),),
        ),
        failure=FailureSpec(),
        fault=fault or FaultSpec(upgrade_waves=2, rollback=True, seed=3),
        misbehavior=misbehavior,
        traffic=TrafficSpec(flows=2000, pairs=64, seed=3),
        substrate=substrate,
    )


@pytest.fixture(scope="module")
def version_record():
    return execute_version_cell(_version_cell())


def test_fault_spec_versioned_display():
    fault = FaultSpec(upgrade_waves=3, rollback=True, seed=1)
    assert fault.versioned and not fault.chaotic and not fault.active
    assert fault.display == "waves=3,rollback"
    assert FaultSpec().display == "none"


def test_version_record_shape(version_record):
    v = version_record.versioning
    assert version_record.chaos is None
    assert (v["upgrade_waves"], v["rollback"]) == (2, True)
    assert v["wire_start"] == 1
    assert v["wire_target"] == WIRE_VERSION
    # 2 upgrade waves + the rollback leg + the re-upgrade leg.
    assert len(v["waves"]) == 4
    assert [w["label"] for w in v["waves"]][-2:] == [
        "rollback -> v1",
        f"re-upgrade -> v{WIRE_VERSION}",
    ]
    assert v["supervisor"] is None  # sim has no supervisor


def test_version_record_population_converges(version_record):
    v = version_record.versioning
    census = v["negotiation"]
    assert census["blocked_pairs"] == 0
    assert census["version_drops"] == 0
    assert set(census["nodes"]) == {f"v{WIRE_VERSION}"}
    assert set(census["pairs"]) == {f"v{WIRE_VERSION}"}
    assert v["version_rejected"] == 0
    # The fidelity anchor: every wave settles back onto the baseline
    # routes, and the final state matches bit for bit.
    assert all(w["digest_match"] for w in v["waves"])
    assert all(w["quiesced"] for w in v["waves"])
    assert v["routes_digest"] == v["baseline_digest"]
    assert v["digest_stable"] is True


def test_version_cell_is_deterministic(version_record):
    again = execute_version_cell(_version_cell())
    assert again.comparable() == version_record.comparable()


def test_version_record_roundtrips(version_record):
    line = version_record.to_json()
    assert RunRecord.from_json(line).comparable() == version_record.comparable()
    assert json.loads(line)["schema_version"] == SCHEMA_VERSION


def test_version_cell_rejections():
    with pytest.raises(ValueError, match="no upgrade program"):
        execute_version_cell(_version_cell(fault=FaultSpec(seed=3)))
    with pytest.raises(ValueError, match="misbehavior"):
        execute_version_cell(
            _version_cell(misbehavior=MisbehaviorSpec(lie="reachability"))
        )
    with pytest.raises(ValueError, match="chaos/churn/queue"):
        execute_version_cell(
            _version_cell(
                fault=FaultSpec(upgrade_waves=2, restarts=1, seed=3)
            )
        )
    with pytest.raises(ValueError, match="loss impairments only"):
        execute_version_cell(
            _version_cell(
                fault=FaultSpec(upgrade_waves=2, dup=0.1, seed=3),
                substrate="live",
            )
        )
    with pytest.raises(ValueError, match="unknown substrate"):
        execute_version_cell(_version_cell(substrate="weird"))


def test_run_experiment_validates_version_overrides():
    with pytest.raises(ValueError, match="--upgrade-waves"):
        run_experiment("mixed_version", smoke=True, upgrade_waves=-1)
    with pytest.raises(ValueError, match="unknown wire spec part"):
        run_experiment("mixed_version", smoke=True, wire_version="bogus")
