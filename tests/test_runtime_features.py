"""The runtime-feature table, row by row.

Every row of :data:`repro.protocols.runtime.RUNTIME_FEATURES` must take
a spelling from string to node stamp the same way: the flag sets share
one grammar (``parse(str(cfg)) == cfg``), ``wire`` keeps its own, and
``make_protocol`` stamps every node at build time and restamps a fresh
node identically after a state-losing restart.
"""

import dataclasses
import itertools
import pathlib
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.flagset import FlagSet
from repro.protocols.registry import make_protocol
from repro.protocols.runtime import (
    RUNTIME_FEATURES,
    Feature,
    NodeRuntimeConfig,
    feature,
    runtime_from,
)
from repro.protocols.versioning import DEFAULT_WIRE, WireConfig, wire_from
from repro.simul.node import ProtocolNode
from repro.simul.wire import MIN_WIRE_VERSION, WIRE_VERSION

from .helpers import mk_graph, open_db

FLAG_ROWS = [row for row in RUNTIME_FEATURES if issubclass(row.config, FlagSet)]


def _ids(rows):
    return [row.name for row in rows]


def _subsets(flags):
    for size in range(len(flags) + 1):
        yield from itertools.combinations(flags, size)


def test_table_names_the_five_components():
    assert _ids(RUNTIME_FEATURES) == [
        "hardening", "validation", "pacing", "graceful", "wire",
    ]
    assert _ids(FLAG_ROWS) == _ids(RUNTIME_FEATURES)[:4]
    # One path each: every row lands on the node and has a collector.
    assert not hasattr(Feature, "on_node")
    assert all(callable(row.collect) for row in RUNTIME_FEATURES)
    assert feature("pacing") is RUNTIME_FEATURES[2]
    with pytest.raises(ValueError, match="unknown runtime feature 'jitter'.*pacing"):
        feature("jitter")


# ------------------------------------------------------ the one flag grammar


@pytest.mark.parametrize("row", FLAG_ROWS, ids=_ids(FLAG_ROWS))
def test_every_subset_round_trips_through_its_display_string(row):
    flags = row.config.FLAGS
    for subset in _subsets(flags):
        cfg = row.config(**{flag: flag in subset for flag in flags})
        assert cfg.enabled == subset  # canonical order
        assert row.parse(str(cfg)) == cfg
        assert row.parse(list(reversed(subset))) == cfg  # any iterable
        if subset:
            assert row.parse(",".join(subset)) == cfg
            assert row.parse(" + ".join(subset)) == cfg  # whitespace stripped
            assert row.parse("+".join(subset).replace("_", "-")) == cfg


@pytest.mark.parametrize("row", FLAG_ROWS, ids=_ids(FLAG_ROWS))
def test_a_flag_set_row_is_exactly_its_flags(row):
    # Timers, thresholds and budgets are module constants: a config has
    # no field its spelling cannot express.
    fields = tuple(f.name for f in dataclasses.fields(row.config))
    assert fields == row.config.FLAGS


@pytest.mark.parametrize("row", FLAG_ROWS, ids=_ids(FLAG_ROWS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_constructible_config_round_trips(row, data):
    # Every field of the dataclass is drawn from its type, so a numeric
    # parameter would be drawn too and lost by the display string.
    hints = typing.get_type_hints(row.config)
    fields = {
        f.name: st.from_type(hints[f.name]) for f in dataclasses.fields(row.config)
    }
    cfg = data.draw(st.builds(row.config, **fields))
    assert row.parse(str(cfg)) == cfg


@pytest.mark.parametrize("row", FLAG_ROWS, ids=_ids(FLAG_ROWS))
def test_default_off_and_all_spellings(row):
    flags = row.config.FLAGS
    nothing = row.config(**{flag: False for flag in flags})
    everything = row.config(**{flag: True for flag in flags})
    for spelling in (None, ""):
        assert row.parse(spelling) == row.config() == row.default
    for spelling in ("none", "off"):
        assert row.parse(spelling) == nothing
        assert str(row.parse(spelling)) == "none"
    for spelling in ("all", "full"):
        assert row.parse(spelling) == everything
        assert row.parse(spelling).enabled == flags
    assert row.default == nothing  # off by default
    tuned = row.config(**{flags[-1]: True})
    assert row.parse(tuned) is tuned  # a ready config passes through


@pytest.mark.parametrize(
    "name, spelling, noun",
    [
        ("hardening", "dedup+fec", "hardening"),
        ("validation", "telepathy", "validation feature"),
        ("validation", ["seq_guard", "nope"], "validation feature"),
        ("pacing", "pace+jitter", "pacing"),
        ("graceful", "helpre", "graceful-restart"),
        ("graceful", "all+helper", "graceful-restart"),  # no mixing aliases
    ],
    ids=[
        "hardening", "validation", "validation-iterable", "pacing", "graceful",
        "graceful-alias-mixed-in",
    ],
)
def test_unknown_names_rejected_naming_the_valid_ones(name, spelling, noun):
    row = feature(name)
    with pytest.raises(ValueError, match=f"unknown {noun}") as excinfo:
        row.parse(spelling)
    assert all(flag in str(excinfo.value) for flag in row.config.FLAGS)


# ------------------------------------------------------------ wire and ingress


def test_wire_round_trips_in_its_own_grammar():
    for version in range(MIN_WIRE_VERSION, WIRE_VERSION + 1):
        for negotiate in (False, True):
            cfg = WireConfig(version, MIN_WIRE_VERSION, negotiate)
            assert wire_from(cfg.describe()) == cfg
    assert feature("wire").default is DEFAULT_WIRE


@pytest.mark.parametrize("spelling", ["off", "none", "v1+off"])
def test_wire_has_no_off(spelling):
    # An AD always speaks *some* version: unlike the flag sets, "off"
    # is not a wire spelling (the harness maps --wire-version off to
    # "drop the option" before it gets here).
    with pytest.raises(ValueError, match="unknown wire spec part"):
        wire_from(spelling)


def test_ingress_is_a_fault_axis_not_a_row():
    # The bounded queue is armed on the network through FaultSpec's
    # queue_* fields; make_protocol has no second path to it.
    with pytest.raises(ValueError, match="unknown runtime feature 'ingress'"):
        feature("ingress")
    graph = _ring()
    with pytest.raises(TypeError, match="ingress"):
        make_protocol("ls-hbh", graph, open_db(graph), ingress=None)


def test_removed_inputs_stay_removed():
    # Each was a second way to set a value that every run fixes: the
    # supervisor policy, a mid-run impairment change, a flap plan that
    # is random_failure_plan(repair=True).
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    gone = ("ImpairmentChange", "set_impairment", "link_flap_plan", "SupervisorConfig")
    for path in src.rglob("*.py"):
        text = path.read_text()
        assert [name for name in gone if name in text] == [], path


def test_runtime_from_iterates_the_table():
    runtime = runtime_from(pacing="pace", wire="v1+negotiate")
    assert runtime.replace(pacing=None, wire=None) == NodeRuntimeConfig().replace(
        pacing=None, wire=None
    )
    assert str(runtime.pacing) == "pace"
    assert runtime.wire.describe() == "v1+negotiate"
    with pytest.raises(ValueError, match="unknown runtime feature 'turbo'"):
        runtime_from(turbo="all")


# ------------------------------------------------------------------ stamping

#: A non-default spelling per row, as a flag or a spec would carry it.
SPELLINGS = {
    "hardening": "all",
    "validation": "path-check+quarantine",
    "pacing": "pace,damp",
    "graceful": "helper",
    "wire": "v1+negotiate",
}


def _ring(n=6):
    return mk_graph([(i, "Rt") for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def test_unstamped_node_runs_the_default_runtime():
    node = ProtocolNode(0)
    for row in RUNTIME_FEATURES:
        assert getattr(node, row.name) == row.default
    assert node.guard is None and node.trusted_graph is None


@pytest.mark.parametrize("row", RUNTIME_FEATURES, ids=_ids(RUNTIME_FEATURES))
@pytest.mark.parametrize("protocol", ["ls-hbh", "idrp"])
def test_spelling_reaches_every_node_and_survives_a_stateless_restart(protocol, row):
    graph = _ring()
    proto = make_protocol(
        protocol, graph, open_db(graph), **{row.name: SPELLINGS[row.name]}
    )
    expected = row.parse(SPELLINGS[row.name])
    assert getattr(proto.runtime, row.name) == expected != row.default
    blank = {row.name: None}  # every other component stayed default
    assert proto.runtime.replace(**blank) == NodeRuntimeConfig().replace(**blank)
    proto.converge()
    network = proto.network

    def stamped(node):
        return {r.name: getattr(node, r.name) for r in RUNTIME_FEATURES}

    for node in network.nodes.values():
        assert getattr(node, row.name) is getattr(proto.runtime, row.name)
        assert (node.guard is not None) == (row.name == "validation")
        assert node.trusted_graph is graph
    # Pin one AD's wire version, then lose its state: the fresh node is
    # stamped like the one it replaces, pin included.
    proto.set_wire_version(2, MIN_WIRE_VERSION)
    old = network.nodes[2]
    before = stamped(old)
    assert before["wire"] == proto.runtime.wire.at_version(MIN_WIRE_VERSION)
    proto.crash_node(2, retain_state=False)
    network.run()
    proto.restore_node(2)
    network.run()
    fresh = network.nodes[2]
    assert fresh is not old
    assert stamped(fresh) == before
    assert (fresh.guard is not None) == (row.name == "validation")
    assert fresh.guard is not old.guard or fresh.guard is None
    assert fresh.trusted_policies is old.trusted_policies


def test_runtime_summary_runs_the_rows_collector():
    graph = _ring()
    proto = make_protocol("ls-hbh", graph, open_db(graph), validation="all")
    with pytest.raises(RuntimeError, match="no simulation network"):
        proto.runtime_summary("graceful")
    proto.converge()
    assert proto.runtime_summary("hardening") >= 0
    assert proto.runtime_summary("validation")["violations"] == 0
    assert set(proto.runtime_summary("pacing")) == {
        "flaps", "suppressions", "suppressed_announcements", "paced_deferrals",
    }
    assert proto.runtime_summary("graceful") == {
        "holds": 0, "expirations": 0, "resyncs": 0,
    }
    assert proto.runtime_summary("wire")["nodes"] == {f"v{WIRE_VERSION}": 6}
    with pytest.raises(ValueError, match="unknown runtime feature"):
        proto.runtime_summary("telemetry")
