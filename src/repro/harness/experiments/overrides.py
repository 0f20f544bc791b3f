"""The override table: one row per ``run_experiment`` keyword and
``experiments run`` flag, and the one applier that rewrites a spec's axis."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.spec import ExperimentSpec


class ExperimentArgumentError(ValueError):
    """A bad argument to ``run_experiment``, raised before any cell runs.

    Only argument checks raise it, so a caller can report it as a usage
    error while a ``ValueError`` from inside a cell still propagates.
    """


def _parse_liar(value: str) -> Dict[str, Any]:
    """Parse a ``--liar`` override: a role name or ``ad=<id>``."""
    from repro.faults.misbehavior import ROLES

    if value.startswith("ad="):
        try:
            return {"liar_ad": int(value[3:]), "liar_role": "backbone"}
        except ValueError:
            pass
    elif value in ROLES:
        return {"liar_ad": -1, "liar_role": value}
    raise ExperimentArgumentError(
        f"bad liar {value!r} (expected 'ad=<id>' or one of {', '.join(ROLES)})"
    )


def _parse_lie(value: str) -> Dict[str, Any]:
    from repro.faults.misbehavior import LIES

    if value not in LIES:
        raise ExperimentArgumentError(f"bad lie {value!r} (expected one of {', '.join(LIES)})")
    return {"lie": value}


def _set(
    field: str, least: Optional[int] = None, probability: bool = False
) -> Callable[[Any], Dict[str, Any]]:
    """Rewrite one field, refusing a non-finite value, a value under
    ``least`` (0 or 1), or one outside [0, 1] for a ``probability``."""

    def changes(value: Any) -> Dict[str, Any]:
        flag = f"--{field.replace('_', '-')}"
        if not math.isfinite(value):
            raise ExperimentArgumentError(f"{flag} must be finite")
        if least is not None and value < least:
            kind = "positive" if least else "non-negative"
            raise ExperimentArgumentError(f"{flag} must be {kind}")
        if probability and not 0.0 <= value <= 1.0:
            raise ExperimentArgumentError(f"{flag} must be a probability in [0, 1]")
        return {field: value}

    return changes


@dataclass(frozen=True)
class Override:
    """One row of the override table.

    A row is both a ``run_experiment`` keyword and the ``experiments
    run --<name>`` flag of the same name (dashes for underscores).  It
    rewrites every point of one :class:`ExperimentSpec` ``axis``: either
    by replacing the fields ``changes(value)`` returns (which validates
    the value), or -- protocols axis -- by replacing the ``make_protocol``
    ``option`` of that name with the value (``"off"`` drops the option).
    """

    name: str
    axis: str
    #: argparse ``type``; ``bool`` makes a tri-state ``--x/--no-x`` flag.
    type: Callable[[str], Any]
    help: str
    changes: Optional[Callable[[Any], Dict[str, Any]]] = None
    option: Optional[str] = None
    #: Leave a point whose ``active`` is false untouched.
    active_only: bool = False
    metavar: Optional[str] = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def convert(self, text: str) -> Any:
        """The flag's argparse ``type``: an option row's spelling is
        validated here, through the runtime-feature table."""
        value = self.type(text)
        if self.option is not None and value != "off":
            from repro.protocols.runtime import feature

            feature(self.option).parse(value)
        return value


#: Applied in this order: on the protocols axis it is the order options
#: are appended in, and ``lie`` must precede ``liar`` (a lie activates
#: inert baseline points, which a liar override alone leaves lie-free).
OVERRIDES: Tuple[Override, ...] = (
    Override("loss", "faults", float,
             "override message-loss probability on the fault axis "
             "(robustness sweeps)", _set("loss", probability=True)),
    Override("lie", "misbehaviors", str,
             "override the lie told on the misbehavior axis (route-leak, "
             "bogus-origin, stale-replay, metric-lie, term-forgery)",
             _parse_lie, metavar="KIND"),
    Override("liar", "misbehaviors", str,
             "override the misbehaving AD: 'ad=<id>' or a role (stub, "
             "regional, backbone)", _parse_liar, active_only=True, metavar="WHO"),
    Override("queue_capacity", "faults", int,
             "override the bounded ingress-queue capacity on the fault axis "
             "(negative removes the queue)",
             lambda capacity: {"queue_capacity": None if capacity < 0 else capacity}),
    Override("churn_hz", "faults", float,
             "override the churn-storm flap frequency on the fault axis "
             "(cycles per time unit)", _set("churn_hz", least=0)),
    Override("pacing", "protocols", str,
             "override every protocol point's pacing config ('off', 'full', "
             "or a feature name: pace, holddown, damp)",
             option="pacing", metavar="SCOPE"),
    Override("flows", "traffics", int,
             "override the traffic axis flow count (data-plane experiments, "
             "e.g. dataplane_tail)", _set("flows", least=1), active_only=True),
    Override("zipf_s", "traffics", float,
             "override the traffic axis zipf skew (0 = uniform; larger "
             "concentrates harder)", _set("zipf_s", least=0), active_only=True),
    Override("restarts", "faults", int,
             "override the chaos-program rolling-restart count on the fault "
             "axis (live_chaos)", _set("restarts", least=0)),
    Override("partitions", "faults", int,
             "override the chaos-program partition-window count on the fault "
             "axis (live_chaos)", _set("partitions", least=0)),
    Override("wire_version", "protocols", str,
             "override every protocol point's wire config ('off', 'v1', 'v2', "
             "'current', 'v1+negotiate', ...); mixed_version starts all-v1 "
             "negotiating", option="wire", metavar="SPEC"),
    Override("gr", "protocols", str,
             "override every protocol point's graceful-restart config ('off', "
             "'all', or a feature name)", option="graceful", metavar="SCOPE"),
    Override("upgrade_waves", "faults", int,
             "override the rolling-upgrade wave count on the fault axis "
             "(mixed_version)", _set("upgrade_waves", least=0)),
    Override("rollback", "faults", bool,
             "force the downgrade/re-upgrade leg on or off (mixed_version)",
             _set("rollback")),
)


def apply_override(spec: ExperimentSpec, row: Override, value: Any) -> ExperimentSpec:
    """THE applier: rewrite every point of the row's axis, clear its
    label, drop duplicates preserving order."""
    if row.option is not None:
        row.convert(value)  # validate before any cell runs
    else:
        changes = row.changes(value)
    points: List[Any] = []
    for point in getattr(spec, row.axis):
        if row.option is not None:
            # An option rewrite keeps the point's label: "+gr" rows stay
            # told apart from the plain rows they now equal.
            options = tuple((k, v) for k, v in point.options if k != row.option)
            if value != "off":
                options += ((row.option, value),)
            point = replace(point, options=options)
        elif point.active or not row.active_only:
            point = replace(point, label=None, **changes)
        if point not in points:
            points.append(point)
    return replace(spec, **{row.axis: tuple(points)})
