"""Lightweight wall-clock phase profiling for simulation runs.

A :class:`PhaseProfiler` accumulates ``perf_counter`` seconds per named
phase.  A network holds one as its plain ``profiler`` attribute: when
none is attached (the default) the code that times a phase pays a single
``None`` check, so profiling never perturbs ordinary runs.  The experiment
harness attaches a profiler per run and persists the phase timings in
each :class:`~repro.harness.record.RunRecord`.

Usage::

    profiler = PhaseProfiler()
    with profiler.phase("build"):
        network = protocol.build()
    network.profiler = profiler        # network.run() shows up as "engine.run"
    profiler.as_dict()                 # {"build": 0.012, "engine.run": 0.4}
"""

from __future__ import annotations

import time
from typing import Dict


class _Phase:
    """A minimal timing context: cheaper than ``@contextmanager``.

    Protocol code opens a phase per SPF run, so the generator machinery
    a ``contextlib`` context drags in (frame, send, throw) is measurable;
    this is two ``perf_counter`` calls and a dict update.  No phase is
    timed per delivered *message*: on a flood-bound run such a stopwatch
    alone was an eighth of the run's wall time.
    """

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        self._profiler.add(self._name, time.perf_counter() - self._t0)


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.entries: Dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` of wall-clock time to ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.entries[name] = self.entries.get(name, 0) + 1

    def phase(self, name: str) -> _Phase:
        """Time a ``with`` block and credit it to ``name``."""
        return _Phase(self, name)

    def as_dict(self) -> Dict[str, float]:
        """Phase name -> accumulated seconds (copy)."""
        return dict(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        phases = ", ".join(
            f"{name}={secs:.3f}s" for name, secs in sorted(self.seconds.items())
        )
        return f"PhaseProfiler({phases})"
