"""Shared test helpers: compact graph builders, tiny topologies, and a
counter of the live receive path's codec calls."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import pytest

from repro.adgraph.ad import AD, ADKind, InterADLink, Level, LinkKind
from repro.adgraph.graph import InterADGraph
from repro.live import network as live_network
from repro.policy.database import PolicyDatabase
from repro.policy.terms import PolicyTerm

#: Shorthand level/kind codes for the compact builder.
_LEVELS = {
    "B": Level.BACKBONE,
    "R": Level.REGIONAL,
    "M": Level.METRO,
    "C": Level.CAMPUS,
}
_KINDS = {
    "t": ADKind.TRANSIT,
    "h": ADKind.HYBRID,
    "s": ADKind.STUB,
    "m": ADKind.MULTIHOMED,
}


def mk_graph(
    nodes: Sequence[Tuple[int, str]],
    edges: Iterable[Tuple[int, int]],
    metrics: Optional[Dict[Tuple[int, int], Dict[str, float]]] = None,
) -> InterADGraph:
    """Build a graph from compact specs.

    ``nodes`` entries are ``(ad_id, "Bt")`` -- a level letter (B/R/M/C)
    followed by a kind letter (t/h/s/m).  ``edges`` are id pairs; link
    kind is inferred (same level -> lateral, else hierarchical) and every
    link gets delay=1, cost=1 unless overridden via ``metrics``.
    """
    graph = InterADGraph()
    for ad_id, code in nodes:
        level = _LEVELS[code[0]]
        kind = _KINDS[code[1]]
        graph.add_ad(AD(ad_id, f"n{ad_id}", level, kind))
    metrics = metrics or {}
    for a, b in edges:
        same_level = graph.ad(a).level == graph.ad(b).level
        kind = LinkKind.LATERAL if same_level else LinkKind.HIERARCHICAL
        m = metrics.get((a, b)) or metrics.get((b, a)) or {"delay": 1.0, "cost": 1.0}
        graph.add_link(InterADLink(a, b, kind, dict(m)))
    return graph


def line_graph(n: int, kind_code: str = "Rt") -> InterADGraph:
    """A line of ``n`` transit ADs: 0 - 1 - ... - n-1."""
    return mk_graph(
        [(i, kind_code) for i in range(n)],
        [(i, i + 1) for i in range(n - 1)],
    )


def diamond_graph() -> InterADGraph:
    """The classic diamond: 0 -> {1, 2} -> 3, all transit.

    Node 1 sits on the cheap path (delay 1 per hop), node 2 on the
    expensive one (delay 5 per hop).
    """
    return mk_graph(
        [(0, "Cs"), (1, "Rt"), (2, "Rt"), (3, "Cs")],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        metrics={
            (0, 1): {"delay": 1.0, "cost": 1.0},
            (1, 3): {"delay": 1.0, "cost": 1.0},
            (0, 2): {"delay": 5.0, "cost": 1.0},
            (2, 3): {"delay": 5.0, "cost": 1.0},
        },
    )


def small_hierarchy() -> InterADGraph:
    """A minimal Figure-1 shape: 1 backbone, 2 regionals, 4 campuses,
    plus one lateral between the regionals and one campus bypass."""
    graph = mk_graph(
        [
            (0, "Bt"),
            (1, "Rt"),
            (2, "Rh"),
            (3, "Cs"),
            (4, "Cs"),
            (5, "Cs"),
            (6, "Cs"),
        ],
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (1, 2)],
    )
    graph.add_link(InterADLink(3, 0, LinkKind.BYPASS, {"delay": 2.0, "cost": 2.0}))
    return graph


def open_db(graph: InterADGraph) -> PolicyDatabase:
    """Open policies for every transit-capable AD of ``graph``."""
    db = PolicyDatabase()
    for ad in graph.transit_ads():
        db.add_term(PolicyTerm(owner=ad.ad_id))
    return db


def term_is_open(term: PolicyTerm) -> bool:
    """Whether ``term`` is fully unconstrained (permits everything)."""
    return (
        term.sources.is_universal
        and term.dests.is_universal
        and term.prev_ads.is_universal
        and term.next_ads.is_universal
        and term.qos_classes is None
        and term.ucis is None
        and term.window.is_universal
    )


def ads_of_kind(graph: InterADGraph, kind: ADKind) -> list:
    """``graph``'s ADs of one kind, in id order."""
    return [ad for ad in graph.ads() if ad.kind == kind]


def program_path(fib, c):
    """The AD path class ``c``'s compiled program crosses."""
    path = [fib.classes[c].src]
    start = fib.offsets[c]
    for i in range(start, start + fib.lengths[c]):
        a, b = fib.links.keys[fib.hop_links[i]]
        path.append(b if path[-1] == a else a)
    return tuple(path)


@contextmanager
def codec_calls() -> Iterator[Dict[str, int]]:
    """Count the live network's ``split_datagram`` and ``decode_frame_ex``
    calls inside the block, as ``{"split": n, "decode": n}``."""
    calls = {"split": 0, "decode": 0}

    def counting(key, func):
        def wrapper(data):
            calls[key] += 1
            return func(data)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for key, name in (("split", "split_datagram"), ("decode", "decode_frame_ex")):
            patch.setattr(live_network, name, counting(key, getattr(live_network, name)))
        yield calls
