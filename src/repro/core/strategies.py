"""Route synthesis strategies: precomputed, on-demand, hybrid.

Section 6 (research issue 1) and Section 5.4.1 frame the route-synthesis
trade-off: "Precomputation of all policy routes in a large internet is
computationally intractable, while on demand computation may introduce
excessive latency at setup time.  Consequently, a combination of
precomputation and on-demand computation should be used."

Each strategy wraps a :class:`~repro.core.synthesis.RouteSynthesizer` and
answers route requests, accounting for:

* precomputation work (states expanded up front) and table memory;
* per-request latency proxy (states expanded at request time; 0 on a
  table/cache hit);
* hit ratio.

Experiment E10 sweeps these against each other under a Zipf request
popularity distribution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.core.routes import Route
from repro.core.synthesis import RouteSynthesizer
from repro.policy.flows import FlowSpec
from repro.policy.selection import OPEN_SELECTION, RouteSelectionPolicy

_Key = Tuple[FlowSpec, RouteSelectionPolicy]


@dataclass
class StrategyStats:
    """Cost/benefit accounting for one synthesis strategy."""

    precompute_states: int = 0
    precomputed_routes: int = 0
    requests: int = 0
    hits: int = 0
    request_states: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def mean_request_states(self) -> float:
        """Mean per-request latency proxy (states expanded per request)."""
        return self.request_states / self.requests if self.requests else 0.0


class _BaseStrategy:
    """Shared bookkeeping: wraps a synthesizer, tracks stats and memory."""

    def __init__(self, synthesizer: RouteSynthesizer) -> None:
        self.synthesizer = synthesizer
        self.stats = StrategyStats()

    def _compute(
        self, flow: FlowSpec, selection: RouteSelectionPolicy
    ) -> Tuple[Optional[Route], int]:
        """Run synthesis, returning the route and the states it expanded."""
        before = self.synthesizer.stats.states_expanded
        route = self.synthesizer.route(flow, selection)
        return route, self.synthesizer.stats.states_expanded - before

    @property
    def table_size(self) -> int:  # pragma: no cover - overridden
        """Number of routes held in memory."""
        raise NotImplementedError

    def lookup(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Route]:  # pragma: no cover - overridden
        raise NotImplementedError


class PrecomputeStrategy(_BaseStrategy):
    """Compute every route of a given universe up front.

    Requests inside the universe are free; requests outside return
    ``None`` (the precomputed table simply has no answer).  The up-front
    cost and table memory are what make this intractable at internet
    scale -- E10's first column.
    """

    def __init__(
        self,
        synthesizer: RouteSynthesizer,
        universe: Iterable[FlowSpec],
        selection: RouteSelectionPolicy = OPEN_SELECTION,
    ) -> None:
        super().__init__(synthesizer)
        self._table: Dict[_Key, Optional[Route]] = {}
        for flow in universe:
            route, states = self._compute(flow, selection)
            self.stats.precompute_states += states
            self._table[(flow, selection)] = route
            if route is not None:
                self.stats.precomputed_routes += 1

    @property
    def table_size(self) -> int:
        return len(self._table)

    def lookup(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Route]:
        self.stats.requests += 1
        key = (flow, selection)
        if key in self._table:
            self.stats.hits += 1
            return self._table[key]
        return None


class OnDemandStrategy(_BaseStrategy):
    """Compute at request time, with a bounded LRU result cache."""

    def __init__(self, synthesizer: RouteSynthesizer, cache_size: int = 1024) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        super().__init__(synthesizer)
        self.cache_size = cache_size
        self._cache: "OrderedDict[_Key, Optional[Route]]" = OrderedDict()

    @property
    def table_size(self) -> int:
        return len(self._cache)

    def lookup(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Route]:
        self.stats.requests += 1
        key = (flow, selection)
        if key in self._cache:
            self.stats.hits += 1
            self._cache.move_to_end(key)
            return self._cache[key]
        route, states = self._compute(flow, selection)
        self.stats.request_states += states
        if self.cache_size:
            self._cache[key] = route
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return route


class HybridStrategy(_BaseStrategy):
    """Precompute the popular routes, fall back to on-demand for the rest.

    ``popular`` is the pruned precomputation set -- the paper's
    "heuristics to prune the search and limit it to commonly used routes".
    """

    def __init__(
        self,
        synthesizer: RouteSynthesizer,
        popular: Iterable[FlowSpec],
        cache_size: int = 1024,
        selection: RouteSelectionPolicy = OPEN_SELECTION,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        super().__init__(synthesizer)
        self.cache_size = cache_size
        self._cache: "OrderedDict[_Key, Optional[Route]]" = OrderedDict()
        self._precomputed: Dict[_Key, Optional[Route]] = {}
        for flow in popular:
            route, states = self._compute(flow, selection)
            self.stats.precompute_states += states
            self._precomputed[(flow, selection)] = route
            if route is not None:
                self.stats.precomputed_routes += 1

    @property
    def table_size(self) -> int:
        return len(self._precomputed) + len(self._cache)

    def lookup(
        self, flow: FlowSpec, selection: RouteSelectionPolicy = OPEN_SELECTION
    ) -> Optional[Route]:
        self.stats.requests += 1
        key = (flow, selection)
        if key in self._precomputed:
            self.stats.hits += 1
            return self._precomputed[key]
        if key in self._cache:
            self.stats.hits += 1
            self._cache.move_to_end(key)
            return self._cache[key]
        route, states = self._compute(flow, selection)
        self.stats.request_states += states
        if self.cache_size:
            self._cache[key] = route
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return route
