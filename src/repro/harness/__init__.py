"""One experiment harness: declarative specs in, telemetry records out.

The harness is the single way experiments run in this repo:

* :mod:`repro.harness.spec` -- declarative experiment specifications
  (scenario × protocol × seed × failure-plan grids);
* :mod:`repro.harness.record` -- schema-versioned :class:`RunRecord`
  telemetry, persisted as JSON lines;
* :mod:`repro.harness.session` -- the executor (serial or
  multiprocessing fan-out with a deterministic merge);
* :mod:`repro.harness.experiments` -- the named experiments
  (``EXPERIMENTS``) and the override table (``OVERRIDES``) the benches
  and the ``python -m repro experiments`` CLI share.
"""

from repro.harness.experiments import (
    EXPERIMENTS,
    OVERRIDES,
    Experiment,
    run_experiment,
)
from repro.harness.record import (
    SCHEMA_VERSION,
    EpisodeRecord,
    RunRecord,
    read_jsonl,
    write_jsonl,
)
from repro.harness.session import ExperimentSession, execute_cell, run_spec
from repro.harness.spec import (
    Cell,
    ExperimentSpec,
    FailureSpec,
    FaultSpec,
    MisbehaviorSpec,
    ProtocolSpec,
    ScenarioSpec,
    TrafficSpec,
)

__all__ = [
    "Cell",
    "EXPERIMENTS",
    "EpisodeRecord",
    "Experiment",
    "ExperimentSession",
    "ExperimentSpec",
    "FailureSpec",
    "FaultSpec",
    "MisbehaviorSpec",
    "OVERRIDES",
    "ProtocolSpec",
    "RunRecord",
    "SCHEMA_VERSION",
    "ScenarioSpec",
    "TrafficSpec",
    "execute_cell",
    "read_jsonl",
    "run_experiment",
    "run_spec",
    "write_jsonl",
]
