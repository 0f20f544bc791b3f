"""What every table family shares: the registry entry type, the eight
design points, and the sim-vs-live fidelity footer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.record import RunRecord
from repro.harness.spec import ExperimentSpec, ProtocolSpec

Renderer = Callable[[ExperimentSpec, Sequence[RunRecord]], str]


@dataclass(frozen=True)
class Experiment:
    """One registry entry: one committed table, ``benchmarks/out/<table>.txt``.

    A *cell* entry declares its grid: ``build_spec(smoke)`` returns the
    full or the reduced :class:`ExperimentSpec`, the session runs its
    cells, and ``render(spec, records)`` reduces the merged records to
    the table.  A *cell-less* entry computes its table directly:
    ``tabulate()`` returns the text and the measured values the table
    was built from (what the table gate checks).
    """

    name: str
    eid: str
    description: str
    build_spec: Optional[Callable[[bool], ExperimentSpec]] = None
    render: Optional[Renderer] = None
    tabulate: Optional[Callable[[], Tuple[str, Any]]] = None
    #: File stem of the committed table when it is not ``name``.
    table: Optional[str] = None

    @property
    def has_cells(self) -> bool:
        return self.build_spec is not None

    @property
    def table_file(self) -> str:
        return f"{self.table or self.name}.txt"


#: Registry names of the eight design points, in Section 5's walk order.
DESIGN_POINT_NAMES: Tuple[str, ...] = (
    "ecma",
    "idrp",
    "ls-hbh",
    "orwg",
    "ls-hbh-topo",
    "ls-src-topo",
    "topo-vector-src",
    "pv-src",
)


def ablation_protocols(
    names: Sequence[str], *variants: Tuple[str, Tuple[Tuple[str, Any], ...]]
) -> Tuple[ProtocolSpec, ...]:
    """Each named point plain, then once per ``(label suffix, options)``."""
    out: List[ProtocolSpec] = []
    for name in names:
        out.append(ProtocolSpec(name))
        for suffix, options in variants:
            out.append(ProtocolSpec(name, label=f"{name}{suffix}", options=options))
    return tuple(out)


def with_fidelity_footer(
    table: str, records: Sequence[RunRecord], block: str, noun: str
) -> str:
    """Append the sim-vs-live routes-digest verdict per protocol label."""
    digests: Dict[str, Dict[str, str]] = {}
    for rec in records:
        digests.setdefault(rec.cell["label"], {})[rec.cell["substrate"]] = (
            getattr(rec, block)["routes_digest"]
        )
    footer = [
        f"fidelity {label}: {noun} routes sim-vs-live "
        + ("IDENTICAL" if subs["sim"] == subs["live"] else "MISMATCH")
        for label, subs in digests.items()
        if "sim" in subs and "live" in subs
    ]
    if not footer:
        return table
    return "\n".join([table, "", *footer])
