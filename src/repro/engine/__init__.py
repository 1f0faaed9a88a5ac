"""repro.engine — grid sweeps, fleets, and the resilient runner under them.

Six pieces:

* :mod:`repro.engine.plan` — :class:`TracePlan`: every trace-global
  preparation pass (batched hashes, sampling masks per rate, dense key
  factorization, occurrence indices) computed once and cached by trace
  fingerprint, so every cell of a grid shares one preparation.
* :mod:`repro.engine.shm` — :class:`SharedTraceStore` /
  :class:`AttachedTrace`: trace columns mapped into worker processes via
  ``multiprocessing.shared_memory`` instead of being pickled per worker,
  with an atexit/SIGTERM registry that unlinks segments even when the
  parent dies mid-run (used by the simulation sweep and the service).
* :mod:`repro.engine.runner` — :class:`ResilientRunner`: per-task
  timeouts, bounded retries with backoff, automatic pool rebuild on
  worker death, graceful degradation to serial execution, and a
  structured :class:`RunReport` for every run.
* :mod:`repro.engine.sweep` — the grid task (one trace's whole
  (K, strategy, sampling-rate) grid in one
  :class:`~repro.core.vkrr.MultiKRR` pass, resumed from and appended to
  a JSONL :class:`SweepCheckpoint`) and :class:`ModelSweep`, which runs
  it in-process on one trace.  :class:`SweepConfig`/:class:`SweepResult`
  live in :mod:`repro.core.vkrr` and are re-exported here.
* :mod:`repro.engine.fleet` — :class:`FleetSweep`: many traces × one
  config grid, one grid task per trace across a process pool, each path
  streamed out-of-core inside its worker, with hierarchical
  (fleet-manifest + per-trace JSONL) checkpoints resumable at both the
  trace and grid-cell level.
* :mod:`repro.engine.faults` — deterministic fault injection
  (``REPRO_FAULTS``) used by the tests to prove every recovery path.

The ground-truth simulation sweep (:func:`repro.simulator.parallel_klru_mrc`)
runs on the same shared-memory store and resilient runner.
"""

from .checkpoint import CheckpointMismatch, SweepCheckpoint
from .faults import FaultPlan, maybe_inject
from .fleet import FleetSweep, FleetTraceResult, fleet_sweep
from .plan import StreamingTracePlan, TracePlan, clear_plan_cache, trace_fingerprint
from .runner import (
    ResilientRunner,
    RunReport,
    TaskFailedError,
    TaskReport,
    TransientTaskError,
)
from .shm import (
    AttachedTrace,
    SharedTraceStore,
    TraceSpec,
    on_sigterm,
    remove_sigterm_callback,
)
from .sweep import ModelSweep, SweepConfig, SweepResult, model_sweep

__all__ = [
    "AttachedTrace",
    "CheckpointMismatch",
    "FaultPlan",
    "FleetSweep",
    "FleetTraceResult",
    "ModelSweep",
    "ResilientRunner",
    "RunReport",
    "SharedTraceStore",
    "SweepCheckpoint",
    "StreamingTracePlan",
    "SweepConfig",
    "SweepResult",
    "TaskFailedError",
    "TaskReport",
    "TracePlan",
    "TraceSpec",
    "TransientTaskError",
    "clear_plan_cache",
    "fleet_sweep",
    "maybe_inject",
    "model_sweep",
    "on_sigterm",
    "remove_sigterm_callback",
    "trace_fingerprint",
]
