"""Tests for the Figure-1 topology generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adgraph.ad import ADKind, Level, LinkKind
from repro.adgraph.generator import TopologyConfig, generate_internet, scaled_config
from tests.helpers import ads_of_kind


def expected_size(cfg: TopologyConfig) -> int:
    """The AD count a config's hierarchy implies."""
    regionals = cfg.num_backbones * cfg.regionals_per_backbone
    metros = regionals * cfg.metros_per_regional
    parents = metros if cfg.metros_per_regional else regionals
    campuses = parents * cfg.campuses_per_parent
    return cfg.num_backbones + regionals + metros + campuses


class TestConfigValidation:
    def test_rejects_zero_backbones(self):
        with pytest.raises(ValueError):
            TopologyConfig(num_backbones=0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            TopologyConfig(lateral_prob=1.5)
        with pytest.raises(ValueError):
            TopologyConfig(bypass_prob=-0.1)

    def test_expected_size(self):
        cfg = TopologyConfig(
            num_backbones=2, regionals_per_backbone=3, campuses_per_parent=4
        )
        assert expected_size(cfg) == 2 + 6 + 24


class TestGeneration:
    def test_deterministic_for_seed(self):
        a = generate_internet(TopologyConfig(seed=11))
        b = generate_internet(TopologyConfig(seed=11))
        assert a.ad_ids() == b.ad_ids()
        assert [ln.key for ln in a.links()] == [ln.key for ln in b.links()]
        assert [ln.metrics for ln in a.links()] == [ln.metrics for ln in b.links()]

    def test_different_seeds_differ(self):
        a = generate_internet(TopologyConfig(seed=1, lateral_prob=0.5))
        b = generate_internet(TopologyConfig(seed=2, lateral_prob=0.5))
        assert [ln.key for ln in a.links()] != [ln.key for ln in b.links()]

    def test_always_connected(self):
        for seed in range(10):
            g = generate_internet(TopologyConfig(seed=seed))
            assert g.is_connected(), f"seed {seed} produced a partition"

    def test_level_composition(self):
        cfg = TopologyConfig(
            num_backbones=2, regionals_per_backbone=3, campuses_per_parent=2, seed=0
        )
        g = generate_internet(cfg)
        counts = g.level_counts()
        assert counts[Level.BACKBONE] == 2
        assert counts[Level.REGIONAL] == 6
        assert counts[Level.CAMPUS] == 12

    def test_metro_level_optional(self):
        g = generate_internet(TopologyConfig(metros_per_regional=2, seed=0))
        assert g.level_counts()[Level.METRO] == 2 * 3 * 2
        g2 = generate_internet(TopologyConfig(metros_per_regional=0, seed=0))
        assert g2.level_counts()[Level.METRO] == 0

    def test_backbones_fully_meshed(self):
        g = generate_internet(TopologyConfig(num_backbones=3, seed=0))
        bbs = [a.ad_id for a in g.ads_by_level(Level.BACKBONE)]
        for i, a in enumerate(bbs):
            for b in bbs[i + 1:]:
                assert g.has_link(a, b)
                assert g.link(a, b).kind is LinkKind.LATERAL

    def test_bypass_links_touch_backbone_and_campus(self):
        g = generate_internet(TopologyConfig(bypass_prob=0.8, seed=3))
        bypasses = [ln for ln in g.links() if ln.kind is LinkKind.BYPASS]
        assert bypasses, "high bypass probability produced no bypass links"
        for link in bypasses:
            levels = {g.ad(link.a).level, g.ad(link.b).level}
            assert levels == {Level.BACKBONE, Level.CAMPUS}

    def test_stub_campuses_have_single_link(self):
        g = generate_internet(TopologyConfig(seed=5))
        for ad in ads_of_kind(g, ADKind.STUB):
            assert g.degree(ad.ad_id) == 1, "stub ADs must be single-homed"

    def test_multihomed_campuses_have_multiple_links(self):
        g = generate_internet(TopologyConfig(multihome_prob=0.9, seed=5))
        multis = ads_of_kind(g, ADKind.MULTIHOMED)
        assert multis
        for ad in multis:
            assert g.degree(ad.ad_id) >= 2

    def test_zero_exception_probs_give_pure_hierarchy(self):
        cfg = TopologyConfig(
            num_backbones=1,
            lateral_prob=0.0,
            bypass_prob=0.0,
            multihome_prob=0.0,
            seed=0,
        )
        g = generate_internet(cfg)
        kinds = g.link_kind_counts()
        assert kinds[LinkKind.LATERAL] == 0
        assert kinds[LinkKind.BYPASS] == 0
        # A pure hierarchy with one backbone is a tree.
        assert g.num_links == g.num_ads - 1

    def test_transit_levels_are_transit_capable(self):
        g = generate_internet(TopologyConfig(seed=9, hybrid_fraction=0.5))
        for ad in g.ads():
            if ad.level in (Level.BACKBONE, Level.REGIONAL, Level.METRO):
                assert ad.kind.may_transit

    def test_metrics_attached_to_every_link(self):
        g = generate_internet(TopologyConfig(seed=2))
        for link in g.links():
            assert link.metrics["delay"] > 0
            assert link.metrics["cost"] > 0


class TestScaledConfig:
    @pytest.mark.parametrize("target", [25, 60, 120, 300])
    def test_hits_target_roughly(self, target):
        g = generate_internet(scaled_config(target, seed=0))
        assert 0.5 * target <= g.num_ads <= 2.0 * target

    def test_rejects_tiny_targets(self):
        with pytest.raises(ValueError):
            scaled_config(3)

    def test_overrides_forwarded(self):
        cfg = scaled_config(50, seed=1, lateral_prob=0.0)
        assert cfg.lateral_prob == 0.0


@settings(max_examples=20, deadline=None)
@given(
    backbones=st.integers(1, 3),
    regionals=st.integers(1, 4),
    campuses=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_generator_invariants(backbones, regionals, campuses, seed):
    """Property: any config yields a connected internet whose stubs never
    carry transit and whose hierarchy levels are consistent."""
    cfg = TopologyConfig(
        num_backbones=backbones,
        regionals_per_backbone=regionals,
        campuses_per_parent=campuses,
        seed=seed,
    )
    g = generate_internet(cfg)
    assert g.is_connected()
    assert g.num_ads == expected_size(cfg)
    for ad in ads_of_kind(g, ADKind.STUB):
        assert g.degree(ad.ad_id) == 1
