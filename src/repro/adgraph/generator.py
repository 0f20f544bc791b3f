"""Figure-1 style topology generator.

Section 2.1 of the paper describes the expected inter-AD topology as "a
hierarchy augmented with special purpose lateral links between some stub
networks and between transit networks, as well as special purpose bypass
links between stub networks and wide area backbone networks".  Figure 1
draws an example: backbones at the top (interconnected), regional networks
under them, campus networks at the leaves, plus dashed lateral links and
bold bypass links.

:func:`generate_internet` produces exactly that family of topologies,
parameterised by :class:`TopologyConfig`.  All randomness flows through a
single seeded :class:`random.Random`, so a given config is perfectly
reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.adgraph.ad import AD, ADId, ADKind, InterADLink, Level, LinkKind
from repro.adgraph.graph import InterADGraph

#: Delay ranges (simulated milliseconds) per link kind; backbone-backbone
#: laterals are long-haul and drawn from a wider range.
_DELAY_RANGES: Dict[LinkKind, Tuple[float, float]] = {
    LinkKind.HIERARCHICAL: (5.0, 15.0),
    LinkKind.LATERAL: (3.0, 12.0),
    LinkKind.BYPASS: (8.0, 20.0),
}
_BACKBONE_DELAY_RANGE = (10.0, 30.0)
_COST_RANGE = (1.0, 10.0)

#: Bandwidth ranges (simulated Mb/s, 1990-flavoured: T1=1.5, T3=45) by how
#: deep in the hierarchy the link sits.
_BANDWIDTH_BACKBONE = (34.0, 45.0)
_BANDWIDTH_MIDDLE = (10.0, 45.0)
_BANDWIDTH_EDGE = (1.5, 10.0)


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters for :func:`generate_internet`.

    The defaults give a small Figure-1 like internet of ~35 ADs.  Increase
    the per-level fan-outs (or use :func:`scaled_config`) for larger
    internets; the *shape* (hierarchy + exception-link density) is
    preserved.

    Attributes:
        num_backbones: Long-haul backbone ADs; they are fully meshed with
            lateral (peer) links.
        regionals_per_backbone: Regional transit ADs attached to each
            backbone.
        metros_per_regional: Metropolitan ADs under each regional; ``0``
            collapses the metro level (regionals parent campuses directly),
            matching the three drawn levels of Figure 1.
        campuses_per_parent: Campus (leaf) ADs under each lowest transit AD.
        lateral_prob: Probability that a pair of sibling transit ADs gets a
            lateral link; half that probability applies to random
            cross-parent same-level pairs and to campus-campus laterals.
        bypass_prob: Probability that a campus gets a bypass link directly
            to a random backbone.
        multihome_prob: Probability that a campus is multi-homed to a second
            parent (remaining a no-transit AD).
        hybrid_fraction: Fraction of regional/metro ADs that are *hybrid*
            (end-system access + limited transit) rather than pure transit.
        seed: Seed for all randomness.
    """

    num_backbones: int = 2
    regionals_per_backbone: int = 3
    metros_per_regional: int = 0
    campuses_per_parent: int = 3
    lateral_prob: float = 0.3
    bypass_prob: float = 0.1
    multihome_prob: float = 0.15
    hybrid_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_backbones < 1:
            raise ValueError("need at least one backbone")
        if self.regionals_per_backbone < 1:
            raise ValueError("need at least one regional per backbone")
        for name in ("lateral_prob", "bypass_prob", "multihome_prob", "hybrid_fraction"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


def scaled_config(target_ads: int, seed: int = 0, **overrides: object) -> TopologyConfig:
    """Build a config whose expected size approximates ``target_ads``.

    Keeps the Figure-1 shape: backbones grow with the cube root of the
    target, regionals with the square root, campuses absorb the rest.
    """
    if target_ads < 6:
        raise ValueError("target_ads must be at least 6")
    num_backbones = max(1, round(target_ads ** (1.0 / 3.0) / 2))
    regionals_per_backbone = max(2, round(math.sqrt(target_ads) / num_backbones))
    transit = num_backbones * (1 + regionals_per_backbone)
    campuses_per_parent = max(
        1, round((target_ads - transit) / (num_backbones * regionals_per_backbone))
    )
    cfg = TopologyConfig(
        num_backbones=num_backbones,
        regionals_per_backbone=regionals_per_backbone,
        campuses_per_parent=campuses_per_parent,
        seed=seed,
    )
    if overrides:
        cfg = replace(cfg, **overrides)  # type: ignore[arg-type]
    return cfg


class _Builder:
    """Accumulates ADs/links before kinds are final, then emits the graph."""

    def __init__(self, rng: random.Random, seed: int = 0) -> None:
        self.rng = rng
        # Bandwidth gets its own stream so adding the metric did not
        # perturb the delay/cost draws of previously committed seeds.
        self.bw_rng = random.Random(seed ^ 0x9E3779B9)
        self.levels: Dict[ADId, Level] = {}
        self.names: Dict[ADId, str] = {}
        self.kinds: Dict[ADId, ADKind] = {}
        self.links: Dict[Tuple[ADId, ADId], LinkKind] = {}
        self.parents: Dict[ADId, ADId] = {}
        self._next_id = 0

    def new_ad(self, prefix: str, level: Level, kind: ADKind) -> ADId:
        ad_id = self._next_id
        self._next_id += 1
        self.levels[ad_id] = level
        self.names[ad_id] = f"{prefix}{ad_id}"
        self.kinds[ad_id] = kind
        return ad_id

    def add_link(self, a: ADId, b: ADId, kind: LinkKind) -> bool:
        key = (a, b) if a <= b else (b, a)
        if a == b or key in self.links:
            return False
        self.links[key] = kind
        return True

    def _link_metrics(self, a: ADId, b: ADId, kind: LinkKind) -> Dict[str, float]:
        backbones = sum(
            1 for end in (a, b) if self.levels[end] == Level.BACKBONE
        )
        if backbones == 2:
            lo, hi = _BACKBONE_DELAY_RANGE
        else:
            lo, hi = _DELAY_RANGES[kind]
        if backbones == 2:
            bw_range = _BANDWIDTH_BACKBONE
        elif backbones == 1 or Level.CAMPUS not in (self.levels[a], self.levels[b]):
            bw_range = _BANDWIDTH_MIDDLE
        else:
            bw_range = _BANDWIDTH_EDGE
        return {
            "delay": round(self.rng.uniform(lo, hi), 2),
            "cost": round(self.rng.uniform(*_COST_RANGE), 2),
            "bandwidth": round(self.bw_rng.uniform(*bw_range), 2),
        }

    def build(self) -> InterADGraph:
        graph = InterADGraph()
        for ad_id in sorted(self.levels):
            graph.add_ad(
                AD(ad_id, self.names[ad_id], self.levels[ad_id], self.kinds[ad_id])
            )
        for (a, b), kind in sorted(self.links.items()):
            graph.add_link(InterADLink(a, b, kind, self._link_metrics(a, b, kind)))
        return graph


def generate_internet(config: Optional[TopologyConfig] = None) -> InterADGraph:
    """Generate a Figure-1 style inter-AD internet.

    The result is always connected (the hierarchy is a spanning tree plus
    the backbone mesh) and deterministic for a given config.

    Kind assignment follows Section 2.1: backbones/regionals/metros are
    transit (a configured fraction of non-backbone transit ADs are hybrid);
    campuses are stub, unless multi-homed or bypassed (multi-homed: several
    connections but no transit) or joined to a peer campus by a lateral
    link (hybrid: they offer limited transit across the lateral).
    """
    cfg = config or TopologyConfig()
    rng = random.Random(cfg.seed)
    b = _Builder(rng, cfg.seed)

    backbones = [b.new_ad("bb", Level.BACKBONE, ADKind.TRANSIT) for _ in range(cfg.num_backbones)]
    # Backbones are peers: full lateral mesh (Figure 1 connects them all).
    for i, bb_a in enumerate(backbones):
        for bb_b in backbones[i + 1:]:
            b.add_link(bb_a, bb_b, LinkKind.LATERAL)

    def transit_kind() -> ADKind:
        return ADKind.HYBRID if rng.random() < cfg.hybrid_fraction else ADKind.TRANSIT

    regionals: List[ADId] = []
    for bb in backbones:
        for _ in range(cfg.regionals_per_backbone):
            reg = b.new_ad("reg", Level.REGIONAL, transit_kind())
            b.add_link(reg, bb, LinkKind.HIERARCHICAL)
            b.parents[reg] = bb
            regionals.append(reg)

    metros: List[ADId] = []
    if cfg.metros_per_regional:
        for reg in regionals:
            for _ in range(cfg.metros_per_regional):
                met = b.new_ad("met", Level.METRO, transit_kind())
                b.add_link(met, reg, LinkKind.HIERARCHICAL)
                b.parents[met] = reg
                metros.append(met)

    campus_parents = metros if metros else regionals
    campuses: List[ADId] = []
    for parent in campus_parents:
        for _ in range(cfg.campuses_per_parent):
            cam = b.new_ad("cam", Level.CAMPUS, ADKind.STUB)
            b.add_link(cam, parent, LinkKind.HIERARCHICAL)
            b.parents[cam] = parent
            campuses.append(cam)

    _add_lateral_links(b, cfg, regionals, metros, campuses)
    _add_bypass_links(b, cfg, backbones, campuses)
    _add_multihoming(b, cfg, campus_parents, campuses)

    return b.build()


def _sibling_pairs(builder: _Builder, members: List[ADId]) -> List[Tuple[ADId, ADId]]:
    """Same-level pairs sharing a parent, in deterministic order."""
    pairs = []
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if builder.parents.get(x) == builder.parents.get(y):
                pairs.append((x, y))
    return pairs


def _add_lateral_links(
    builder: _Builder,
    cfg: TopologyConfig,
    regionals: List[ADId],
    metros: List[ADId],
    campuses: List[ADId],
) -> None:
    """Lateral (peer) links: siblings, cross-parent transit pairs, campuses."""
    rng = builder.rng
    for tier in (regionals, metros):
        for x, y in _sibling_pairs(builder, tier):
            if rng.random() < cfg.lateral_prob:
                builder.add_link(x, y, LinkKind.LATERAL)
        # Cross-parent laterals at half probability, sampled over a bounded
        # number of random pairs so density does not explode quadratically.
        if len(tier) >= 2:
            for _ in range(len(tier)):
                x, y = rng.sample(tier, 2)
                if builder.parents.get(x) != builder.parents.get(y):
                    if rng.random() < cfg.lateral_prob / 2:
                        builder.add_link(x, y, LinkKind.LATERAL)
    # Campus-campus laterals (the paper: "lateral links between some stub
    # networks"); endpoints become hybrid (they offer limited transit).
    if len(campuses) >= 2:
        for _ in range(len(campuses)):
            x, y = rng.sample(campuses, 2)
            if rng.random() < cfg.lateral_prob / 2:
                if builder.add_link(x, y, LinkKind.LATERAL):
                    builder.kinds[x] = ADKind.HYBRID
                    builder.kinds[y] = ADKind.HYBRID


def _add_bypass_links(
    builder: _Builder,
    cfg: TopologyConfig,
    backbones: List[ADId],
    campuses: List[ADId],
) -> None:
    """Bypass links: stub campus straight to a backbone."""
    rng = builder.rng
    for cam in campuses:
        if rng.random() < cfg.bypass_prob:
            bb = rng.choice(backbones)
            if builder.add_link(cam, bb, LinkKind.BYPASS):
                if builder.kinds[cam] == ADKind.STUB:
                    builder.kinds[cam] = ADKind.MULTIHOMED


def _add_multihoming(
    builder: _Builder,
    cfg: TopologyConfig,
    parents: List[ADId],
    campuses: List[ADId],
) -> None:
    """Multi-home some campuses to a second parent (no transit allowed)."""
    rng = builder.rng
    if len(parents) < 2:
        return
    for cam in campuses:
        if rng.random() < cfg.multihome_prob:
            others = [p for p in parents if p != builder.parents.get(cam)]
            parent2 = rng.choice(others)
            if builder.add_link(cam, parent2, LinkKind.HIERARCHICAL):
                if builder.kinds[cam] == ADKind.STUB:
                    builder.kinds[cam] = ADKind.MULTIHOMED
