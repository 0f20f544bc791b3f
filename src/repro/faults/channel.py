"""Per-link channel impairment models.

A channel model decides, for each control-message transmission, how many
copies arrive and how late: zero copies is a loss, two is a duplication,
and a positive extra delay reorders the copy relative to later traffic
on the same link (the engine delivers strictly in (time, insertion)
order, so jitter is all it takes to reorder).

The default is no channel at all: :class:`~repro.simul.network.SimNetwork`
keeps its original single-copy, zero-jitter delivery path when
``network.channel is None``, so every pre-existing benchmark stays
byte-identical.

Determinism contract: an :class:`ImpairedChannel` owns one
``random.Random`` per link, created lazily and seeded from the channel
seed and the canonical link key with explicit integer mixing -- never
``hash()``, whose value changes per process under ``PYTHONHASHSEED``
randomization.  Replaying the same scenario with the same seed therefore
replays the exact same drop/duplicate/jitter decisions message for
message, regardless of process, platform, or worker scheduling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.adgraph.ad import ADId

#: Odd multipliers folding (seed, link key) into one RNG seed.  Plain
#: integer arithmetic keeps the mix stable across processes (unlike
#: ``hash()``) while separating the streams of adjacent links.
_SEED_MIX = 1_000_003
_KEY_MIX = 7_919


@dataclass(frozen=True)
class Impairment:
    """One link's impairment parameters (all probabilities per message).

    Attributes:
        drop_prob: Independent loss probability per transmission.
        dup_prob: Probability a delivered message arrives twice.
        jitter: Extra delivery delay drawn uniformly from ``[0, jitter]``;
            enough to reorder messages whose spacing is below it.
        burst_enter: Gilbert-Elliott transition probability into the
            burst-outage state (checked once per transmission); while in
            the burst state every message is lost.
        burst_exit: Transition probability out of the burst state.
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    jitter: float = 0.0
    burst_enter: float = 0.0
    burst_exit: float = 0.5

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "burst_enter", "burst_exit"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")

    @property
    def perfect(self) -> bool:
        """Whether this spec never alters delivery (no RNG is consumed)."""
        return (
            self.drop_prob == 0.0
            and self.dup_prob == 0.0
            and self.jitter == 0.0
            and self.burst_enter == 0.0
        )


#: The no-op impairment: deliver one copy, on time, always.
PERFECT = Impairment()


def link_key(a: ADId, b: ADId) -> Tuple[ADId, ADId]:
    """Canonical (sorted) link key, shared with the topology layer."""
    return (a, b) if a <= b else (b, a)


class ChannelModel:
    """Base channel: perfect delivery.

    :meth:`transmit` returns the extra delay of every copy that arrives;
    an empty tuple is a loss, two entries a duplication.  The base model
    is stateless and always answers ``(0.0,)``.
    """

    def transmit(self, src: ADId, dst: ADId) -> Tuple[float, ...]:
        """Decide the fate of one transmission from ``src`` to ``dst``."""
        return (0.0,)

    def counters(self) -> Dict[str, int]:
        """Accumulated impairment counts (empty for the perfect channel)."""
        return {}


class ImpairedChannel(ChannelModel):
    """Seed-deterministic lossy channel with per-link RNG streams.

    ``default`` applies to every link, for the whole run.
    """

    def __init__(self, default: Impairment = PERFECT, seed: int = 0) -> None:
        self.default = default
        self.seed = seed
        self._rngs: Dict[Tuple[ADId, ADId], random.Random] = {}
        self._burst: Dict[Tuple[ADId, ADId], bool] = {}
        self.transmissions = 0
        self.dropped = 0
        self.burst_dropped = 0
        self.duplicated = 0

    def _rng(self, key: Tuple[ADId, ADId]) -> random.Random:
        rng = self._rngs.get(key)
        if rng is None:
            mixed = (self.seed * _SEED_MIX) ^ (int(key[0]) * _KEY_MIX + int(key[1]))
            rng = random.Random(mixed)
            self._rngs[key] = rng
        return rng

    def transmit(self, src: ADId, dst: ADId) -> Tuple[float, ...]:
        self.transmissions += 1
        key = link_key(src, dst)
        spec = self.default
        if spec.perfect:
            return (0.0,)
        rng = self._rng(key)
        if spec.burst_enter > 0.0:
            in_burst = self._burst.get(key, False)
            if rng.random() < (spec.burst_exit if in_burst else spec.burst_enter):
                in_burst = not in_burst
            self._burst[key] = in_burst
            if in_burst:
                self.burst_dropped += 1
                self.dropped += 1
                return ()
        if spec.drop_prob > 0.0 and rng.random() < spec.drop_prob:
            self.dropped += 1
            return ()
        delays = [rng.uniform(0.0, spec.jitter) if spec.jitter > 0.0 else 0.0]
        if spec.dup_prob > 0.0 and rng.random() < spec.dup_prob:
            self.duplicated += 1
            delays.append(
                rng.uniform(0.0, spec.jitter) if spec.jitter > 0.0 else 0.0
            )
        return tuple(delays)

    def counters(self) -> Dict[str, int]:
        return {
            "transmissions": self.transmissions,
            "dropped": self.dropped,
            "burst_dropped": self.burst_dropped,
            "duplicated": self.duplicated,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ImpairedChannel(seed={self.seed}, default={self.default})"
        )
