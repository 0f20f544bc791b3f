"""The override table, row by row.

Every row of :data:`repro.harness.experiments.OVERRIDES` is a
``run_experiment`` keyword *and* an ``experiments run`` flag of the same
name, and rewrites exactly the fields it declares on exactly the axis it
declares.  Cells are not executed here (the session is stubbed out): the
subject is the spec the one applier hands to the session.
"""

from dataclasses import fields, replace

import pytest

from repro.cli import build_parser
from repro.harness import EXPERIMENTS, OVERRIDES, experiments, run_experiment

#: Per row: an experiment whose spec has the row's axis populated, a
#: flag value, and the keyword value it must convert to.
CASES = {
    "loss": ("robustness", "0.1", 0.1),
    "lie": ("robustness_misbehavior", "metric-lie", "metric-lie"),
    "liar": ("robustness_misbehavior", "ad=4", "ad=4"),
    "queue_capacity": ("robustness_churn", "-1", -1),
    "churn_hz": ("robustness_churn", "0.5", 0.5),
    "pacing": ("robustness_churn", "holddown", "holddown"),
    "flows": ("dataplane_tail", "1000", 1000),
    "zipf_s": ("dataplane_tail", "1.5", 1.5),
    "restarts": ("live_chaos", "2", 2),
    "partitions": ("live_chaos", "0", 0),
    "wire_version": ("mixed_version", "v2", "v2"),
    "gr": ("live_chaos", "helper", "helper"),
    "upgrade_waves": ("mixed_version", "1", 1),
    "rollback": ("mixed_version", None, True),
}
AXES = ("scenarios", "protocols", "failures", "faults", "misbehaviors", "traffics")


@pytest.fixture
def spec_only(monkeypatch):
    """Make ``run_experiment`` stop at the overridden spec (no cells run)."""

    class NoSession:
        def __init__(self, spec, out_dir=None):
            pass

        def run(self, jobs=1):
            return []

    monkeypatch.setattr(experiments, "ExperimentSession", NoSession)
    for name, exp in EXPERIMENTS.items():
        monkeypatch.setitem(
            EXPERIMENTS, name, replace(exp, render=lambda spec, records: "")
        )

    def overridden(name, **overrides):
        return run_experiment(name, smoke=True, **overrides)[0]

    return overridden


def test_every_row_has_a_case():
    assert [row.name for row in OVERRIDES] == list(CASES)
    assert {row.axis for row in OVERRIDES} <= set(AXES)


@pytest.mark.parametrize("row", OVERRIDES, ids=[row.name for row in OVERRIDES])
def test_flag_exists_under_the_rows_name(row):
    _, text, value = CASES[row.name]
    argv = ["experiments", "run", "x", row.flag] + ([] if text is None else [text])
    args = build_parser().parse_args(argv)
    assert getattr(args, row.name) == value
    assert type(getattr(args, row.name)) is type(value)
    absent = build_parser().parse_args(["experiments", "run", "x"])
    assert getattr(absent, row.name) is None


def test_rollback_flag_is_tri_state():
    parse = build_parser().parse_args
    assert parse(["experiments", "run", "x", "--no-rollback"]).rollback is False
    assert parse(["experiments", "run", "x", "--rollback"]).rollback is True


@pytest.mark.parametrize("flag", ["--pacing", "--gr", "--wire-version"])
def test_option_flags_reject_unknown_spellings_at_parse_time(flag, capsys):
    parse = build_parser().parse_args
    assert getattr(
        parse(["experiments", "run", "x", flag, "off"]),
        flag[2:].replace("-", "_"),
    ) == "off"
    with pytest.raises(SystemExit):
        parse(["experiments", "run", "x", flag, "warp"])
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("row", OVERRIDES, ids=[row.name for row in OVERRIDES])
def test_row_rewrites_its_fields_on_its_axis_only(row, spec_only):
    name, _, value = CASES[row.name]
    base = spec_only(name)
    spec = spec_only(name, **{row.name: value})
    for axis in AXES:
        if axis != row.axis:
            assert getattr(spec, axis) == getattr(base, axis)
    before, after = getattr(base, row.axis), getattr(spec, row.axis)
    assert before and after != before

    if row.option is not None:
        def rewritten(point):
            kept = tuple((k, v) for k, v in point.options if k != row.option)
            return replace(point, options=kept + ((row.option, value),))
    else:
        changes = row.changes(value)
        assert changes  # the declared field(s)
        assert set(changes) <= {f.name for f in fields(before[0])}

        def rewritten(point):
            if row.active_only and not point.active:
                return point
            return replace(point, label=None, **changes)

    # Rewritten in place, duplicates dropped, first-seen order kept.
    assert list(after) == list(dict.fromkeys(rewritten(p) for p in before))


def test_off_drops_the_option_and_collapses_the_ablation_pair(spec_only):
    spec = spec_only("robustness_churn", pacing="off")
    assert all("pacing" not in dict(p.options) for p in spec.protocols)
    # "+h" and "+pd" keep their labels, so they stay distinct rows.
    assert [p.display for p in spec.protocols] == [
        "ls-hbh", "ls-hbh+h", "ls-hbh+pd", "orwg", "orwg+h", "orwg+pd",
    ]
    base = spec_only("mixed_version")
    assert all(dict(p.options) == {"wire": "v1+negotiate"} for p in base.protocols)
    spec = spec_only("mixed_version", wire_version="off")
    assert all(p.options == () for p in spec.protocols)


def test_duplicate_points_collapse_in_order(spec_only):
    base = spec_only("robustness_misbehavior")
    assert [m.display for m in base.misbehaviors] == [
        "baseline", "route-leak@backbone",
    ]
    spec = spec_only("robustness_misbehavior", lie="route-leak", liar="backbone")
    assert [m.display for m in spec.misbehaviors] == ["route-leak@backbone"]
    # A liar override alone leaves the inert baseline lie-free.
    spec = spec_only("robustness_misbehavior", liar="stub")
    assert [m.display for m in spec.misbehaviors] == ["baseline", "route-leak@stub"]


def test_overrides_compose_in_table_order_not_call_order(spec_only):
    one = spec_only("live_chaos", gr="all", pacing="pace", wire_version="v1")
    two = spec_only("live_chaos", wire_version="v1", pacing="pace", gr="all")
    assert one == two
    assert one.protocols[0].options == (
        ("pacing", "pace"), ("wire", "v1"), ("graceful", "all"),
    )


def test_unknown_override_is_a_type_error_listing_the_valid_names():
    with pytest.raises(TypeError, match="unknown override.*jitter") as excinfo:
        run_experiment("robustness", smoke=True, jitter=2.0)
    assert all(row.name in str(excinfo.value) for row in OVERRIDES)


@pytest.mark.parametrize(
    "name, override, message",
    [
        ("live_chaos", {"restarts": -1}, "--restarts must be non-negative"),
        ("live_chaos", {"partitions": -1}, "--partitions must be non-negative"),
        ("mixed_version", {"upgrade_waves": -1}, "--upgrade-waves must be non-negative"),
        ("dataplane_tail", {"flows": 0}, "--flows must be positive"),
        ("dataplane_tail", {"zipf_s": -0.5}, "--zipf-s must be non-negative"),
        ("dataplane_tail", {"zipf_s": float("nan")}, "--zipf-s must be finite"),
        ("robustness_churn", {"churn_hz": -1.0}, "--churn-hz must be non-negative"),
        ("robustness_churn", {"churn_hz": float("nan")}, "--churn-hz must be finite"),
        ("robustness_churn", {"churn_hz": float("inf")}, "--churn-hz must be finite"),
        ("robustness_misbehavior", {"lie": "perjury"}, "bad lie 'perjury'"),
        ("robustness_misbehavior", {"liar": "tier-1"}, "bad liar 'tier-1'"),
        ("robustness_churn", {"pacing": "jitter"}, "unknown pacing"),
        ("live_chaos", {"gr": "bogus"}, "unknown graceful-restart"),
        ("mixed_version", {"wire_version": "bogus"}, "unknown wire spec part"),
    ],
)
def test_validators_keep_their_messages(name, override, message):
    with pytest.raises(ValueError, match=message):
        run_experiment(name, smoke=True, **override)
