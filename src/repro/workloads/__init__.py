"""Bundled scenarios: topology, policies and a flow sample per seed.

The flow workloads (zipf flows, traffic matrices, request streams) live
in :mod:`repro.traffic.workload`.
"""

from repro.workloads.scenarios import (
    Scenario,
    reference_scenario,
    ring_scenario,
    scaled_scenario,
    small_scenario,
)

__all__ = [
    "Scenario",
    "reference_scenario",
    "ring_scenario",
    "scaled_scenario",
    "small_scenario",
]
